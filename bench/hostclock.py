"""A calibration clock that samples the host's speed during a run.

The benchmark shares a few cores of a host whose speed drifts: the same
operation reads up to 1.6 times slower for seconds or minutes at a time,
with CPU time still near wall time, so neither CPU time nor a low percentile
of the run removes it. HostClock runs a fixed calibration kernel (a Python
loop of small numpy transforms and reductions at N = 64 to 1024, the kind
of work the lab does, then some dict updates) from a SIGALRM handler every
PERIOD_S seconds of a run, and records how long each sample took. The time
the handler takes is `stolen` from whatever was being timed, and the caller
subtracts it.

An operation's time over the mean sample time of the same run is then its
cost in units of the kernel on the same host at the same moments: a drift
that slows both cancels, a change to the lab moves only the numerator. The
kernel binds numpy's functions when this module loads, so wrappers that a
traced run installs on numpy.fft never see its calls.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.1
# (N, smoothings) of one sample: the sizes of the sweep, weighted toward the
# marches' N = 256; with the dict updates below, about 2 ms in all
KERNEL_SIZES = ((64, 20), (256, 20), (1024, 10))
KERNEL_DICT_UPDATES = 1500

_rfft, _irfft, _dot = np.fft.rfft, np.fft.irfft, np.dot
_SIGNALS = [(n, reps, np.cos(2.0 * np.pi * np.arange(n) / n) + 0.1,
             1.0 / (1.0 + np.arange(n // 2 + 1) ** 2 / n)) for n, reps in KERNEL_SIZES]


def kernel() -> float:
    """The calibration work: fixed smoothings by rfft and irfft, then dict updates."""
    total = 0.0
    for n, reps, x, smoothing in _SIGNALS:
        for _ in range(reps):
            y = _irfft(_rfft(x) * smoothing, n=n)
            total += float(_dot(y, y)) + float(y.max())
    counts = {}
    for i in range(KERNEL_DICT_UPDATES):
        counts[i & 63] = counts.get(i & 63, 0.0) + i * 0.5
    return total + counts[0]


class HostClock:
    """Samples of the kernel's wall time, taken every PERIOD_S while running."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0      # seconds spent in the handler, to subtract from timings
        self._saved = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.stolen += dt

    def now(self) -> float:
        """perf_counter without the time spent in the handler."""
        return time.perf_counter() - self.stolen

    def start(self):
        kernel()  # first call outside any timing
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved or signal.SIG_DFL)

    def mean_s(self) -> float:
        """Mean sample time; if no sample was taken, one is taken now."""
        if not self.samples:
            self._sample(None, None)
        return sum(self.samples) / len(self.samples)
