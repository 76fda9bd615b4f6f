"""Record blocks: record_from_fields on column-major (N, B) fields, march's blocks, its
observer and its stride check, and the one record table the blocks end in."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import counting

from centroflow import curvature_flow, curve_flow, trajectory
from centroflow.curvature_flow import CurvatureFlowState
from centroflow.curve import perturbed_ellipse, shifted_ellipse
from centroflow.curve_flow import CurveFlowState
from centroflow.errors import BlowUp
from centroflow.spectral import grid
from centroflow.trajectory import COLUMNS, FlowTrajectory, record_from_fields


def _fields(n, b, seed):
    """b seeded (t, g, phi, area) inputs of one record each on the n-grid: a positive
    smooth metric and a band-limited phi."""
    rng = np.random.default_rng([n, b, seed])
    p = grid(n)
    inputs = []
    for _ in range(b):
        g = 1.0 + 0.3 * np.cos(p + rng.uniform(0, 6)) + 0.05 * rng.standard_normal() * np.sin(3 * p)
        phi = sum(rng.standard_normal() / k**2 * np.sin(k * p + rng.uniform(0, 6))
                  for k in range(1, n // 3))
        t, area = rng.uniform(), rng.uniform()
        inputs.append((t, g, phi, area))
    return inputs


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("b", [1, 5, trajectory.RECORD_BLOCK])
def test_a_block_gives_the_rows_of_its_single_records(monkeypatch, n, b):
    inputs = _fields(n, b, 1)
    singles = np.array([record_from_fields(*x) for x in inputs])
    assert singles.shape == (b, len(COLUMNS))
    columns = [np.array(column).T for column in zip(*inputs)]   # as march builds them
    assert all(f.flags.f_contiguous and f.shape == (n, b) for f in columns[1:3])
    block = record_from_fields(*columns)
    assert np.array_equal(block, singles, equal_nan=True)
    # a C-ordered block gives the same bits: it is transformed column-major, since the
    # trim's column norm summed across C-ordered columns can differ in its last bits.
    # It makes all four xi-derivatives, each derivative(previous) / g of the whole block
    c_ordered = [np.ascontiguousarray(f) for f in columns]
    assert b == 1 or not c_ordered[1].flags.f_contiguous
    derivatives = counting(monkeypatch, trajectory, "derivative")
    assert np.array_equal(record_from_fields(*c_ordered), singles, equal_nan=True)
    assert len(derivatives) == 4 and all(f.flags.f_contiguous for (f,) in derivatives)


def test_a_block_takes_one_time_and_area_for_all_its_columns():
    inputs = _fields(64, 3, 2)
    columns = [np.array(column).T for column in zip(*inputs)]
    block = record_from_fields(0.25, *columns[1:3], np.nan)
    assert block.shape == (3, len(COLUMNS))
    assert np.all(block[:, COLUMNS.index("t")] == 0.25)
    assert np.all(np.isnan(block[:, COLUMNS.index("area")]))
    # a 1-d field is a block of one and gives its one row
    row = record_from_fields(0.25, *inputs[0][1:3], np.nan)
    assert row.shape == (len(COLUMNS),)
    assert np.array_equal(row, block[0], equal_nan=True)


FLOWS = {
    "curvature": lambda: CurvatureFlowState.from_curve(perturbed_ellipse(1, 1, 0.05, 3, n=64)),
    "curve unit area": lambda: CurveFlowState(0.0, perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64),
                                              lam=0.7),
    "curve none 0.7": lambda: CurveFlowState(0.0, perturbed_ellipse(1.2, 0.9, 0.05, 3, n=64),
                                             lam=0.7, normalization="none"),
}


def _start(flow, curve):
    return CurveFlowState(0.0, curve) if flow is curve_flow else \
        CurvatureFlowState.from_curve(curve)


@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("name", list(FLOWS))
def test_blocks_of_one_give_the_default_trajectory(monkeypatch, name, stride):
    # 200 steps: 201, 67 and 21 records, each a partial last block at RECORD_BLOCK 16
    assert trajectory.RECORD_BLOCK == 16
    evolve = curvature_flow.evolve if name == "curvature" else curve_flow.evolve
    traj = evolve(FLOWS[name](), 0.2, 1e-3, record_stride=stride)
    assert len(traj) % trajectory.RECORD_BLOCK != 0 and len(traj) > trajectory.RECORD_BLOCK
    monkeypatch.setattr(trajectory, "RECORD_BLOCK", 1)
    single = evolve(FLOWS[name](), 0.2, 1e-3, record_stride=stride)
    assert len(single) == len(traj) == 1 + 200 // stride
    assert np.array_equal(np.array(traj.records), np.array(single.records), equal_nan=True)
    assert traj.final.t == single.final.t


def _spy(monkeypatch, flow, events):
    """Make flow.evolve's march log each gather as "gather" and each block as its size;
    march looks record_from_fields up when it makes a block."""
    def march(state, t_end, dt, advance, gather, **kwargs):
        def logged_gather(current):
            events.append("gather")
            return gather(current)

        return trajectory.march(state, t_end, dt, advance, logged_gather, **kwargs)

    def logged_record(t, *columns):
        events.append(len(t))
        return record(t, *columns)

    record = trajectory.record_from_fields
    monkeypatch.setattr(flow, "march", march)
    monkeypatch.setattr(trajectory, "record_from_fields", logged_record)


@pytest.mark.parametrize("block", [1, 4, 16])
@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_at_most_record_block_inputs_are_pending(monkeypatch, flow, block):
    monkeypatch.setattr(trajectory, "RECORD_BLOCK", block)
    events, seen = [], []
    _spy(monkeypatch, flow, events)
    state = _start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = flow.evolve(state, 0.022, 1e-3, record_stride=2,
                       observer=lambda i, current: seen.append((i, current)))
    pending = 0
    for event in events:
        pending += 1 if event == "gather" else -event
        assert 0 <= pending <= block
    assert pending == 0
    sizes = [event for event in events if event != "gather"]
    assert sizes == [block] * (12 // block) + ([12 % block] if 12 % block else [])
    # the observer ran once per step, in order, with the state of that step
    assert [i for i, _ in seen] == list(range(23))
    assert [s.t for i, s in seen if i % 2 == 0] == traj.column("t").tolist()
    assert events.count("gather") == 12


@pytest.mark.parametrize("block", [3, 16])
@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_a_blowup_in_a_block_raises_as_a_single_record_march_does(monkeypatch, flow, block):
    # max|phi| first exceeds 0.457 at t = 4e-3 (see test_phi_ceiling_judges_the_final_state):
    # records 0-2 make a block of 3 and record 3 is pending when step 4 raises, or all
    # four are pending in a block of 16
    monkeypatch.setattr(curvature_flow, "PHI_CEILING", 0.457)
    monkeypatch.setattr(trajectory, "RECORD_BLOCK", block)
    events = []
    _spy(monkeypatch, flow, events)
    state = _start(flow, shifted_ellipse(1, 1, 0.3, 0, n=64))
    with pytest.raises(BlowUp) as info:
        flow.evolve(state, 0.01, 1e-3)
    assert type(info.value) is BlowUp
    assert str(info.value) == "max|phi| exceeded ceiling 0.457"
    assert info.value.time == pytest.approx(4e-3, abs=1e-12)
    # the pending inputs were dropped: no block was made after the error
    assert events.count("gather") == 4
    assert [event for event in events if event != "gather"] == ([3] if block == 3 else [])


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_the_observer_sees_every_step(flow):
    # 11 steps at stride 3: the observer gets steps 0-11 in order, the records 0, 3, 6, 9
    seen = []
    state = _start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = flow.evolve(state, 0.011, 1e-3, record_stride=3,
                       observer=lambda i, current: seen.append((i, current)))
    assert [i for i, _ in seen] == list(range(12))
    assert seen[0][1] is state and seen[-1][1] is traj.final
    assert [current.t for i, current in seen if i % 3 == 0] == traj.column("t").tolist()


@pytest.mark.parametrize("stride", [0, -1])
@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_a_record_stride_below_one_is_rejected_before_the_first_step(monkeypatch, flow,
                                                                     stride):
    steps = counting(monkeypatch, flow, "step")
    state = _start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64))
    with pytest.raises(ValueError, match="record_stride"):
        flow.evolve(state, 0.01, 1e-3, record_stride=stride)
    assert steps == []


@pytest.mark.parametrize("stride", [0, -1])
def test_consistency_check_rejects_a_record_stride_below_one(stride):
    with pytest.raises(ValueError, match="record_stride"):
        curve_flow.consistency_check(perturbed_ellipse(1, 1, 0.05, 3, n=64), 0.01, 1e-3,
                                     record_stride=stride)


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_no_recorded_state_outlives_its_step(flow):
    # a block holds its record steps' inputs, not their states: when the observer gets
    # a state, no earlier stepped state is left, and after the march only the final one
    refs, alive = [], []

    def observer(i, state):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs[1:]))  # refs[0]: the start
        refs.append(weakref.ref(state))

    start = _start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64))
    traj = flow.evolve(start, 0.01, 1e-3, observer=observer)
    assert alive == [0] * 11
    del start
    gc.collect()
    assert len(refs) == len(traj) == 11
    assert [ref() for ref in refs] == [None] * 10 + [traj.final]


@pytest.mark.parametrize("flow", [curve_flow, curvature_flow], ids=["curve", "curvature"])
def test_a_march_keeps_its_records_as_one_table(monkeypatch, flow):
    # 37 records: two blocks of 16 and a partial one of 5
    traj = flow.evolve(_start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64)), 0.036, 1e-3)
    table = traj.records
    assert type(table) is np.ndarray and table.dtype == np.float64
    assert table.shape == (37, len(COLUMNS)) and table.flags.c_contiguous
    for i, name in enumerate(COLUMNS):
        column = traj.column(name)
        assert np.shares_memory(column, table)
        assert column.tobytes() == table[:, i].tobytes()
    traj.finalize_residuals()   # in place, to the same bits
    assert traj.records is table
    monkeypatch.setattr(trajectory, "RECORD_BLOCK", 1)
    single = flow.evolve(_start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64)), 0.036, 1e-3)
    assert single.records.tobytes() == table.tobytes()
    if flow is curvature_flow:
        # the table is sized once from the plan, so a 10 001-record march holds no second
        # copy of it, and Simpson's temporaries are a block of records, not R of them: its
        # peak stays below 1.4 times the table (1.24 times; 1.59 with R-length temporaries)
        state = _start(flow, perturbed_ellipse(1, 1, 0.05, 3, n=64))
        tracemalloc.start()
        try:
            big = flow.evolve(state, 1.0, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(big) == 10_001
        assert peak < 1.4 * big.records.nbytes


def test_a_list_of_rows_is_converted_once_to_a_table():
    rows = [np.arange(len(COLUMNS), dtype=float), list(range(len(COLUMNS)))]
    traj = FlowTrajectory(records=rows)
    assert traj.records.shape == (2, len(COLUMNS)) and traj.records.dtype == np.float64
    assert np.array_equal(traj.column("t"), [0.0, 0.0]) and len(traj) == 2
    assert FlowTrajectory().records.shape == (0, len(COLUMNS))
    with pytest.raises(ValueError):
        FlowTrajectory(records=[np.zeros(len(COLUMNS) - 2)])
