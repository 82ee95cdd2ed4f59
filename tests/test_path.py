import numpy as np
import pytest
from hypothesis import given, strategies as st

import pathform as pf
from pathform import JumpPath, PathBatch, StreamConfig, sample_path_batch
from pathform.errors import (
    DimensionMismatch,
    HorizonMismatch,
    TimeOutOfRange,
    UnsortedTimes,
    ZeroMark,
    ZeroShift,
)
from pathform.path import _JSONL_BLOCK, paths_to_jsonl


@st.composite
def jump_paths(draw, horizon=1.0):
    n = draw(st.integers(0, 6))
    times = sorted(draw(st.lists(
        st.floats(1e-3, horizon), min_size=n, max_size=n, unique=True)))
    marks = draw(st.lists(
        st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3),
        min_size=n, max_size=n))
    return JumpPath.from_jumps(horizon, zip(times, marks))


def three_jump_path():
    return JumpPath.from_jumps(1.0, [(0.3, 1.0), (0.7, 1.0), (0.9, -1.0)])


# -- construction invariants ---------------------------------------------------

def test_start_at_origin():
    assert three_jump_path().value_at(0.0).tolist() == [0.0]


def test_zero_mark_rejected():
    with pytest.raises(ZeroMark):
        JumpPath.from_jumps(1.0, [(0.5, 0.0)])


def test_time_zero_jump_rejected():
    with pytest.raises(TimeOutOfRange):
        JumpPath.from_jumps(1.0, [(0.0, 1.0)])


def test_unsorted_jumps_rejected():
    with pytest.raises(UnsortedTimes):
        JumpPath.from_jumps(1.0, [(0.7, 1.0), (0.3, 1.0)])


# -- value_at -------------------------------------------------------------------

def test_value_between_jumps():
    assert three_jump_path().value_at(0.5).tolist() == [1.0]


def test_value_right_continuous_at_jump():
    assert three_jump_path().value_at(0.3).tolist() == [1.0]


def test_value_at_horizon():
    assert three_jump_path().value_at(1.0).tolist() == [1.0]


def test_value_out_of_range():
    with pytest.raises(TimeOutOfRange):
        three_jump_path().value_at(1.5)


@given(jump_paths())
def test_right_continuity_and_left_limits(path):
    for t, mark in zip(path.times, path.marks):
        eps = min(1e-9, t / 2)
        before = path.value_at(t - eps)
        assert np.allclose(path.value_at(t) - before, mark)


# -- counters --------------------------------------------------------------------

def test_count_jumps_total():
    assert three_jump_path().count_jumps(1.0) == 3
    assert three_jump_path().count_jumps() == 3


def test_count_jumps_empty():
    assert JumpPath.empty(1.0).count_jumps(0.8) == 0


def test_count_jumps_of_mark():
    p = three_jump_path()
    assert p.count_jumps_of_mark(1.0) == 2
    assert p.count_jumps_of_mark(2.0) == 0


def test_count_of_zero_mark_rejected():
    with pytest.raises(ZeroMark):
        three_jump_path().count_jumps_of_mark(0.0)


@given(jump_paths())
def test_mark_counts_partition_total(path):
    distinct = {tuple(m) for m in path.marks}
    assert sum(path.count_jumps_of_mark(np.asarray(m)) for m in distinct) \
        == path.count_jumps()


# -- shift ------------------------------------------------------------------------

def test_shift_on_empty_path():
    p = JumpPath.empty(1.0).shift(0.5, 1.0)
    assert p.value_at(0.6).tolist() == [1.0]
    assert p.value_at(0.4).tolist() == [0.0]


def test_shift_cancels_exactly():
    p = JumpPath.from_jumps(1.0, [(0.5, 1.0)])
    assert p.shift(0.5, -1.0) == JumpPath.empty(1.0)


def test_shift_merges_at_existing_time():
    p = JumpPath.from_jumps(1.0, [(0.5, 1.0)]).shift(0.5, 2.0)
    assert p.n_jumps == 1
    assert p.value_at(1.0).tolist() == [3.0]


def test_shift_rejects_time_zero():
    with pytest.raises(TimeOutOfRange):
        JumpPath.empty(1.0).shift(0.0, 1.0)


def test_shift_rejects_zero_mark():
    with pytest.raises(ZeroShift):
        JumpPath.empty(1.0).shift(0.5, 0.0)


@given(jump_paths(), st.floats(1e-3, 1.0), st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3))
def test_shift_unshift_inverse(path, t, x):
    if t in path.times:
        return
    assert path.shift(t, x).shift(t, -x) == path


@given(jump_paths(), st.floats(1e-3, 1.0), st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3))
def test_shift_value_identity(path, t, x):
    shifted = path.shift(t, x)
    for s in (0.0, t / 2, t, (t + 1.0) / 2, 1.0):
        expected = path.value_at(s) + (x if s >= t else 0.0)
        assert np.allclose(shifted.value_at(s), expected)


@given(jump_paths(), st.floats(1e-3, 1.0), st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3))
def test_shift_adds_one_jump_at_fresh_time(path, t, x):
    if t in path.times:
        return
    assert path.shift(t, x).count_jumps() == path.count_jumps() + 1


# -- coordinates --------------------------------------------------------------------

def test_coordinates_examples():
    p = JumpPath.from_jumps(1.0, [(0.3, 1.0), (0.9, -1.0)])
    assert p.coordinates([0.5, 1.0]).tolist() == [[1.0], [0.0]]
    assert JumpPath.empty(1.0).coordinates([0.2, 0.8]).tolist() == [[0.0], [0.0]]


def test_coordinates_shift_consistency():
    p = three_jump_path()
    shifted = p.shift(0.4, 2.0)
    delta = shifted.coordinates([0.5, 1.0]) - p.coordinates([0.5, 1.0])
    assert delta.tolist() == [[2.0], [2.0]]


def test_coordinates_unsorted_rejected():
    with pytest.raises(UnsortedTimes):
        three_jump_path().coordinates([0.8, 0.2])


def test_coordinates_out_of_range():
    with pytest.raises(TimeOutOfRange):
        three_jump_path().coordinates([0.5, 1.2])


@given(jump_paths(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5, unique=True))
def test_coordinates_match_pointwise_values(path, times):
    times = sorted(times)
    coords = path.coordinates(times)
    naive = np.vstack([path.value_at(t) for t in times])
    assert np.array_equal(coords, naive)


# -- sup distance ----------------------------------------------------------------------

def test_sup_distance_identical():
    p = three_jump_path()
    assert p.sup_distance(p) == 0.0


def test_sup_distance_single_jump():
    assert JumpPath.from_jumps(1.0, [(0.5, 1.0)]).sup_distance(JumpPath.empty(1.0)) == 1.0


def test_sup_distance_horizon_mismatch():
    with pytest.raises(HorizonMismatch):
        JumpPath.empty(1.0).sup_distance(JumpPath.empty(2.0))


def test_sup_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        JumpPath.empty(1.0, 1).sup_distance(JumpPath.empty(1.0, 2))


@given(jump_paths(), jump_paths())
def test_sup_distance_symmetric_and_nonnegative(a, b):
    d = a.sup_distance(b)
    assert d >= 0.0
    assert d == b.sup_distance(a)


@given(jump_paths(), jump_paths())
def test_sup_distance_dominates_endpoint_gap(a, b):
    gap = float(np.linalg.norm(a.value_at(1.0) - b.value_at(1.0)))
    assert a.sup_distance(b) >= gap - 1e-12


# -- serialization -----------------------------------------------------------------------

def test_json_round_trip():
    p = three_jump_path()
    assert JumpPath.from_json(p.to_json()) == p


def test_json_shape():
    obj = JumpPath.from_jumps(2.0, [(0.5, (1.0, -2.0))], dimension=2).to_json_obj()
    assert obj == {"T": 2.0, "d": 2, "jumps": [[0.5, [1.0, -2.0]]]}


# -- JSON lines straight from flat arrays --------------------------------------------

def batch_jsonl(batch):
    return paths_to_jsonl(batch.horizon, batch.dimension, batch.times,
                          batch.marks, batch.offsets)


def gauss2():
    return pf.IntensityMeasure.continuous(
        lambda rng, size: rng.normal(0.5, 1.0, size=(size, 2)), dimension=2)


@pytest.mark.parametrize("measure, T, n_paths, level", [
    (pf.uniform_pm1(), 1.0, 400, None),
    (pf.gauss_shifted(0.5, 1.0), 4.0, 400, None),
    (pf.gauss_shifted(0.5, 1.0), 4.0, 400, 4),
    (gauss2(), 2.0, 400, None),
    (pf.uniform_pm1(), 0.3, 400, None),
    (pf.uniform_pm1(), 1.0, 0, None),
    (pf.gauss_shifted(0.5, 1.0), 1.0, 5000, None),
], ids=["pm1", "gauss", "gauss-level4", "gauss-2d", "T0.3", "empty", "blocks"])
def test_jsonl_lines_equal_path_to_json(measure, T, n_paths, level):
    batch = sample_path_batch(measure, T, StreamConfig(seed=71).rng(), n_paths)
    if level is not None:
        batch = batch.project(level)
    expected = "".join(batch.path(i).to_json() + "\n" for i in range(n_paths))
    assert batch_jsonl(batch) == expected
    if n_paths:
        assert np.any(batch.counts == 0)  # jump-free paths are covered
    if n_paths == 5000:
        assert n_paths > 2 * _JSONL_BLOCK  # lines on both sides of two block edges


def test_jsonl_boundary_times_and_special_floats():
    # path 0 ends at the time path 2 starts, with an empty path between;
    # marks encode as json.dumps writes them
    batch = PathBatch(1.0, 1, np.array([2, 0, 1]), np.array([0.25, 0.5, 0.5]),
                      np.array([[np.inf], [np.nan], [-1e-300]]),
                      np.array([0, 0, 2]))
    lines = batch_jsonl(batch).split("\n")
    assert lines == [batch.path(i).to_json() for i in range(3)] + [""]
    assert lines[0] == '{"T": 1.0, "d": 1, "jumps": [[0.25, [Infinity]], [0.5, [NaN]]]}'


def flat_paths(times, counts, marks=None):
    times = np.asarray(times, dtype=float)
    marks = np.ones((len(times), 1)) if marks is None else np.asarray(marks, dtype=float)
    return times, marks, np.concatenate([[0], np.cumsum(counts)])


@pytest.mark.parametrize("times, counts, marks, horizon, error, culprit", [
    ([], [0], None, 0.0, TimeOutOfRange, 0),
    ([0.5, 0.0], [1, 1], None, 1.0, TimeOutOfRange, 1),
    ([0.5, 1.5], [1, 1], None, 1.0, TimeOutOfRange, 1),
    ([0.2, 0.2], [0, 2], None, 1.0, UnsortedTimes, 1),
    ([0.1, 0.4, 0.3], [1, 2], None, 1.0, UnsortedTimes, 1),
    ([0.5, 0.7], [1, 1], [[1.0], [0.0]], 1.0, ZeroMark, 1),
], ids=["horizon", "time-zero", "past-T", "repeat", "decrease", "zero-mark"])
def test_jsonl_rejects_what_jumppath_rejects(times, counts, marks, horizon, error,
                                             culprit):
    times, marks, offsets = flat_paths(times, counts, marks)
    with pytest.raises(error):
        paths_to_jsonl(horizon, 1, times, marks, offsets)
    lo, hi = offsets[culprit], offsets[culprit + 1]
    with pytest.raises(error):
        JumpPath(horizon, 1, times[lo:hi], marks[lo:hi])


@pytest.mark.parametrize("times, counts", [
    ([0.5, 0.5], [1, 1]),
    ([0.5, 0.3], [1, 1]),
    ([0.2, 0.5, 0.5, 0.9], [2, 0, 2]),
])
def test_jsonl_paths_may_restart_at_a_boundary(times, counts):
    times, marks, offsets = flat_paths(times, counts)
    lines = paths_to_jsonl(1.0, 1, times, marks, offsets).split("\n")[:-1]
    assert [JumpPath.from_json(line).times.tolist() for line in lines] == [
        times[offsets[i]:offsets[i + 1]].tolist() for i in range(len(counts))]
