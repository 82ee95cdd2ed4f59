import math

import numpy as np
import pytest
from scipy import stats

import pathform as pf
from pathform import JumpPath, StreamConfig
from pathform.sampler import _path_order, sample_path_batch, sample_shifted_batch


def test_sample_path_determinism(pm1):
    a = [pf.sample_path(pm1, 1.0, StreamConfig(seed=7).rng()) for _ in range(20)]
    b = [pf.sample_path(pm1, 1.0, StreamConfig(seed=7).rng()) for _ in range(20)]
    assert a[0] == b[0]
    rng_a, rng_b = StreamConfig(seed=7).rng(), StreamConfig(seed=7).rng()
    for _ in range(50):
        assert pf.sample_path(pm1, 1.0, rng_a) == pf.sample_path(pm1, 1.0, rng_b)


def test_distinct_stream_indices_differ(pm1):
    a = pf.sample_path(pm1, 10.0, StreamConfig(seed=7, stream_index=0).rng())
    b = pf.sample_path(pm1, 10.0, StreamConfig(seed=7, stream_index=1).rng())
    assert a != b


def test_jump_count_mean_per_path(pm1):
    # N_T has mean T; n paths give a 4 sigma band of 4 sqrt(T/n)
    n, T = 100_000, 2.0
    counts = sample_path_batch(pm1, T, StreamConfig(seed=21).rng(), n).counts
    assert abs(np.mean(counts) - T) <= 4.0 * math.sqrt(T / n)


def test_sample_path_calls_follow_one_path_batches(pm1):
    rng, twin = StreamConfig(seed=21).rng(), StreamConfig(seed=21).rng()
    for _ in range(1000):
        path = pf.sample_path(pm1, 2.0, rng)
        batch = sample_path_batch(pm1, 2.0, twin, 1)
        assert path.times.tobytes() == batch.times.tobytes()
        assert path.marks.tobytes() == batch.marks.tobytes()


def test_jump_count_law_batch(pm1):
    n, T = 10**6, 1.0
    batch = sample_path_batch(pm1, T, StreamConfig(seed=22).rng(), n)
    assert abs(batch.counts.mean() - T) <= 4.0 * math.sqrt(T / n)
    p0 = (batch.counts == 0).mean()
    target = math.exp(-1.0)
    assert abs(p0 - target) <= 4.0 * math.sqrt(target * (1 - target) / n)
    longer = sample_path_batch(pm1, 2.0, StreamConfig(seed=24).rng(), n)
    assert abs(longer.counts.mean() - 2.0) <= 4.0 * math.sqrt(2.0 / n)


def test_disjoint_interval_counts_poisson(pm1):
    # counts over disjoint windows: marginal Poisson(length), uncorrelated
    n, T = 200_000, 2.0
    batch = sample_path_batch(pm1, T, StreamConfig(seed=23).rng(), n)
    edges = [(0.0, 0.5), (0.5, 1.25), (1.25, 2.0)]
    per_window = []
    for lo, hi in edges:
        sel = (batch.times > lo) & (batch.times <= hi)
        per_window.append(np.bincount(batch.path_ids[sel], minlength=n))
    for (lo, hi), counts in zip(edges, per_window):
        lam = hi - lo
        top = max(counts.max(), 6)
        observed = np.bincount(counts, minlength=top + 1)
        expected = stats.poisson.pmf(np.arange(top + 1), lam) * n
        # pool the sparse tail so every chi-square cell has mass
        keep = expected >= 10
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        chi = float(((obs - exp) ** 2 / exp).sum())
        assert chi <= stats.chi2.ppf(1 - 1e-3, len(obs) - 1)
    for i in range(len(per_window)):
        for j in range(i + 1, len(per_window)):
            r = np.corrcoef(per_window[i], per_window[j])[0, 1]
            assert abs(r) <= 4.0 / math.sqrt(n)


# -- projections ------------------------------------------------------------------

def test_project_path_fixes_lattice_paths(pm1):
    rng = StreamConfig(seed=30).rng()
    p = pf.sample_path(pm1, 3.0, rng)
    for n in range(4):
        assert pf.project_path(p, n) == p


def test_project_path_drops_zero_projection():
    p = JumpPath.from_jumps(1.0, [(0.5, 0.3)])
    assert pf.project_path(p, 1) == JumpPath.empty(1.0)
    assert pf.project_path(p, 2).marks.tolist() == [[0.25]]


def test_projection_coupling_bound(u12):
    rng = StreamConfig(seed=31).rng()
    for _ in range(100):
        p = pf.sample_path(u12, 2.0, rng)
        for n in range(1, 7):
            bound = p.count_jumps() * 2.0 ** -n
            assert p.sup_distance(pf.project_path(p, n)) <= bound


def test_project_commutes_with_lattice_shift(u12):
    rng = StreamConfig(seed=32).rng()
    for _ in range(50):
        p = pf.sample_path(u12, 1.0, rng)
        t = float(rng.uniform(0.1, 1.0))
        if t in p.times:
            continue
        for n in (1, 2, 3):
            x = 2.0 ** -n  # lattice point of level n
            left = pf.project_path(p.shift(t, x), n)
            right = pf.project_path(p, n).shift(t, x)
            assert left == right


# -- batch engine -----------------------------------------------------------------

def test_batch_paths_match_flat_arrays(u12):
    batch = sample_path_batch(u12, 1.5, StreamConfig(seed=40).rng(), 200)
    # the projection at level 0 drops marks, so its offsets differ
    for b in (batch, batch.project(0)):
        for i in (0, 7, 113, 199):
            p = b.path(i)
            assert p.count_jumps() == b.counts[i]
            sel = b.path_ids == i
            assert np.array_equal(p.times, b.times[sel])
            assert np.array_equal(p.marks, b.marks[sel])


def _drawn_ids_and_times(T, size, seed):
    # the sampler's own construction: grouped ids, unsorted raw times
    rng = StreamConfig(seed=seed).rng()
    counts = rng.poisson(lam=T, size=size)
    raw = rng.uniform(0.0, T, size=int(counts.sum()))
    return np.repeat(np.arange(size, dtype=np.int64), counts), raw


def _count_lexsort(monkeypatch) -> list:
    """Record each np.lexsort call from here on, to see which branch ran."""
    calls, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    return calls


def test_path_order_equals_lexsort_on_drawn_batches(monkeypatch):
    # 2**20 paths put ids where a float64 key keeps only 32 fraction bits
    cases = [(1e-3, 5000), (1.0, 5000), (4.0, 5000), (1e3, 300), (1.0, 2**20)]
    lexsort = np.lexsort
    calls = _count_lexsort(monkeypatch)
    for seed, (T, size) in enumerate(cases, start=60):
        ids, raw = _drawn_ids_and_times(T, size, seed)
        got, want = _path_order(ids, raw, T), lexsort((raw, ids))
        assert got.dtype == want.dtype and np.array_equal(got, want), (T, size)
    assert calls == []  # no fallback: the argsort alone gave lexsort's order


def test_path_order_key_collision_falls_back(monkeypatch):
    # 2**20 + (0.5 + 2**-40) rounds to 2**20 + 0.5: the keys tie, and the
    # stable order would keep the larger time first
    ids = np.array([3, 3, 2**20, 2**20, 2**20 + 1], dtype=np.int64)
    raw = np.array([0.3, 0.3, 0.5 + 2.0**-40, 0.5, 0.1])
    want = np.lexsort((raw, ids))
    calls = _count_lexsort(monkeypatch)
    got = _path_order(ids, raw, 1.0)
    assert len(calls) == 1  # the fallback ran
    assert np.array_equal(got, want)
    assert got.tolist() == [0, 1, 3, 2, 4]


def test_path_order_empty_and_jump_free_paths(pm1):
    empty = _path_order(np.zeros(0, dtype=np.int64), np.zeros(0), 1.0)
    assert np.array_equal(empty, np.lexsort((np.zeros(0), np.zeros(0, np.int64))))
    batch = sample_path_batch(pm1, 1.0, StreamConfig(seed=65).rng(), 0)
    assert batch.size == 0 and len(batch.times) == 0
    assert batch.coords_at([0.5, 1.0]).shape == (0, 2, 1)
    # ids 0 and 2 draw no jumps
    ids = np.array([1, 1, 1, 3, 4, 4], dtype=np.int64)
    raw = np.array([0.9, 0.1, 0.5, 0.2, 0.7, 0.3])
    assert np.array_equal(_path_order(ids, raw, 1.0), np.lexsort((raw, ids)))


def test_batch_coords_match_path_coordinates(u12):
    batch = sample_path_batch(u12, 1.0, StreamConfig(seed=41).rng(), 300)
    times = [0.25, 0.7, 1.0]
    coords = batch.coords_at(times)
    for i in (0, 50, 299):
        assert np.allclose(coords[i], batch.path(i).coordinates(times))


def _gauss2():
    def draw(rng, size):
        return rng.normal(0.3, 1.0, size=(size, 2))
    return pf.IntensityMeasure.continuous(draw, 2)


@pytest.mark.parametrize("measure", [pf.uniform_pm1(), pf.gauss_shifted(0.5, 1.0),
                                     _gauss2()], ids=["lattice_d1", "cont_d1", "cont_d2"])
def test_coords_at_bytes_equal_path_coordinates(measure):
    T = 2.0
    batch = sample_path_batch(measure, T, StreamConfig(seed=66).rng(), 400)
    first = float(batch.times.min())
    q = [0.0, first / 2, 0.7, 1.3, T]  # before every jump, ..., at T
    coords = batch.coords_at(q)
    assert coords.shape == (400, len(q), measure.dimension)
    for i in range(batch.size):
        assert coords[i].tobytes() == batch.path(i).coordinates(q).tobytes()
    empty = sample_path_batch(measure, T, StreamConfig(seed=66).rng(), 0)
    assert empty.coords_at(q).shape == (0, len(q), measure.dimension)


def test_batch_shifted_coords_match_shift(u12):
    sb = sample_shifted_batch(u12, 1.0, StreamConfig(seed=42).rng(), 200)
    times = [0.5, 1.0]
    shifted = sb.shifted_coords(times)
    counts = sb.shifted_counts()
    for i in (0, 3, 77, 199):
        p = sb.base.path(i).shift(float(sb.tau[i]), sb.xi[i])
        assert np.allclose(shifted[i], p.coordinates(times))
        assert p.count_jumps() == counts[i] == sb.base.counts[i] + 1


def test_batch_projection_gap_matches_sup_distance(u12):
    batch = sample_path_batch(u12, 2.0, StreamConfig(seed=43).rng(), 150)
    for n in (1, 3, 5):
        gaps = batch.projection_gap(n)
        for i in (0, 9, 149):
            p = batch.path(i)
            assert math.isclose(gaps[i], p.sup_distance(pf.project_path(p, n)),
                                rel_tol=0, abs_tol=1e-12)


def test_batch_determinism_and_law(pm1):
    a = sample_path_batch(pm1, 1.0, StreamConfig(seed=44).rng(), 5000)
    b = sample_path_batch(pm1, 1.0, StreamConfig(seed=44).rng(), 5000)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.marks, b.marks)
