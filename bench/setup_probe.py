"""Set up one workload in a fresh interpreter, then exit.

run.py times this process from outside, several times per run, and reports
the median as setup_s: interpreter start, the import of numpy and
centroflow, and the making of the workload's inputs from its seed.

    python3 bench/setup_probe.py <workload> <seed> <workdir>
"""

import sys

import lab

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    lab.setup(workload, seed, workdir)
