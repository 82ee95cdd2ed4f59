import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special, stats

import pathform as pf
from pathform import CylindricalFunctional, StreamConfig, oracle
from pathform.errors import (
    AtomAtOrigin,
    GridTooLarge,
    NonProbability,
    TimeOutOfRange,
    TruncationTooCoarse,
    UnsortedTimes,
    UnsupportedMeasure,
)
from pathform.oracle import poisson
from pathform.sampler import sample_path_batch


def two_coord_f(T=1.0):
    return CylindricalFunctional(
        times=(T / 2, T), f=lambda c: ((c[:, 0] == 0) & (c[:, 1] == 0)).astype(float),
        bound=1.0, name="prod00")


# -- model construction ----------------------------------------------------------

def test_model_rejects_origin():
    with pytest.raises(AtomAtOrigin):
        pf.LatticeModel({0: 1.0})


def test_model_rejects_bad_mass():
    with pytest.raises(NonProbability):
        pf.LatticeModel({1: 0.6, -1: 0.6})
    with pytest.raises(NonProbability):
        pf.LatticeModel({})
    with pytest.raises(NonProbability, match="duplicate"):
        pf.LatticeModel({1: 0.5, (1,): 0.5})  # two keys, one lattice point


def test_model_rejects_non_lattice():
    m = pf.IntensityMeasure.discrete([(0.5, 1.0)])
    with pytest.raises(UnsupportedMeasure):
        pf.LatticeModel.from_measure(m)
    with pytest.raises(UnsupportedMeasure):
        pf.LatticeModel.from_measure(pf.uniform_interval(1.0, 2.0))
    for key in (math.inf, -math.inf, math.nan):
        with pytest.raises(UnsupportedMeasure):
            pf.LatticeModel({key: 0.5, 1: 0.5})


def test_model_round_trip(pm1, pm1_model):
    back = pm1_model.to_measure()
    back.validate()
    assert sorted(map(tuple, back.points.tolist())) == [(-1.0,), (1.0,)]


def test_model_holds_one_sorted_measure():
    unsorted = pf.IntensityMeasure.discrete([(2.0, 0.2), (-1.0, 0.3), (1.0, 0.5)])
    for model in (pf.LatticeModel({2: 0.2, -1: 0.3, 1: 0.5}),
                  pf.LatticeModel.from_measure(unsorted)):
        held = model.to_measure()
        assert held is model.to_measure()
        fresh = pf.IntensityMeasure.discrete([(-1.0, 0.3), (1.0, 0.5), (2.0, 0.2)])
        assert np.array_equal(held.points, fresh.points)
        assert np.array_equal(held.masses, fresh.masses)
        draws = [m.sample_batch(StreamConfig(seed=17).rng(), 5000) for m in (held, fresh)]
        assert np.array_equal(*draws)


# -- truncation ------------------------------------------------------------------

def test_poisson_truncation_minimal():
    for s in (0.1, 1.0, 3.0):
        m, tail = pf.poisson_truncation(s, 1e-12)
        assert tail <= 1e-12
        assert stats.poisson.sf(m - 1, s) > 1e-12  # minimality
    assert pf.poisson_truncation(0.0, 1e-12) == (0, 0.0)


def test_poisson_pmf_sf_bit_equal_to_scipy_stats():
    # the pmf is only asked for counts >= 0; the sf also below the support
    ms, below = np.arange(60), np.arange(-2, 60)
    nodes = np.linspace(0.0, 2.0, 2001)
    for s in [0.0, 0.001, 0.5, 1.0, 2.0, 7.3, 50.0]:
        assert np.array_equal(poisson.pmf(ms, s), stats.poisson.pmf(ms, s))
        assert np.array_equal(poisson.sf(below, s), stats.poisson.sf(below, s))
        for m in (0, 3, 59):  # scalar calls, as the truncation search makes
            assert poisson.pmf(m, s) == stats.poisson.pmf(m, s)
            assert poisson.sf(m, s) == stats.poisson.sf(m, s)
        assert poisson.sf(-1, s) == stats.poisson.sf(-1, s) == 1.0
    grid = (ms[None, :], nodes[:, None])
    assert np.array_equal(poisson.pmf(*grid), stats.poisson.pmf(*grid))
    assert np.array_equal(poisson.sf(*grid), stats.poisson.sf(*grid))


def test_poisson_truncation_matches_isf_seeded_search():
    def isf_seeded(s, eps):
        guess = stats.poisson.isf(eps, s)
        m = int(guess) if np.isfinite(guess) else 0
        while stats.poisson.sf(m, s) > eps:
            m += 1
        while m > 0 and stats.poisson.sf(m - 1, s) <= eps:
            m -= 1
        return m, float(stats.poisson.sf(m, s))

    for eps in (1e-6, 1e-12, 1e-15):
        for s in np.geomspace(1e-3, 50.0, 150):
            assert pf.poisson_truncation(s, eps) == isf_seeded(s, eps)



def test_nan_and_infinite_times_are_typed_errors(pm1_model):
    for s in (math.nan, math.inf, -1.0):
        with pytest.raises(TimeOutOfRange):
            pf.poisson_truncation(s, 1e-12)
    for eps in (math.nan, 0.0):
        with pytest.raises(TruncationTooCoarse):
            pf.poisson_truncation(1.0, eps)
    F = pf.indicator_at(1.0, 0.0)
    with pytest.raises(UnsortedTimes):
        pf.qi_check(pm1_model, 1.0, pf.indicator_at(math.nan, 0.0), 1)
    with pytest.raises(UnsortedTimes):
        pf.IncrementGrid(pm1_model, 1.0, (0.5, math.nan))
    for horizon in (math.nan, math.inf):
        with pytest.raises(TimeOutOfRange):
            pf.IncrementGrid(pm1_model, horizon, (0.5,))
        with pytest.raises(TimeOutOfRange):
            pf.qi_check(pm1_model, horizon, F, 1)
    with pytest.raises(TimeOutOfRange):
        pf.IncrementGrid(pm1_model, math.inf, (math.inf,))
    for t in (math.nan, math.inf):
        with pytest.raises(TimeOutOfRange):
            pf.semigroup_gap(pm1_model, lambda p: np.ones(np.shape(p)), t)
    with pytest.raises(UnsortedTimes):
        pf.semigroup_gap(pm1_model, lambda p: np.ones(np.shape(p)), 1.0, 0, math.nan)


def test_model_rejects_nan_tolerance_and_mass():
    with pytest.raises(TruncationTooCoarse):
        pf.LatticeModel({1: 0.5, -1: 0.5}, math.nan)
    with pytest.raises(NonProbability):
        pf.LatticeModel({1: math.nan, -1: 0.5})

# -- transition tables -------------------------------------------------------------

def test_transition_pmf_at_zero(pm1_model):
    t = pf.transition_pmf(pm1_model, 0.0)
    assert t.keys.tolist() == [[0]] and t.probs.tolist() == [1.0]
    assert t.tail_mass == 0.0


def test_transition_pmf_against_bessel(pm1_model):
    # independent closed form for unit-rate +-1 jumps: p_t(k) = e^-t I_k(t)
    t = pf.transition_pmf(pm1_model, 1.0)
    for k in range(-3, 4):
        assert abs(t.get(k) - float(special.ive(abs(k), 1.0))) <= 1e-12


def test_transition_pmf_normalized(pm1_model):
    for s in (0.1, 1.0, 3.0):
        t = pf.transition_pmf(pm1_model, s)
        assert abs(sum(t.probs.tolist()) + t.tail_mass - 1.0) <= 1e-10


def test_transition_pmf_matches_simulation(pm1, pm1_model):
    t = pf.transition_pmf(pm1_model, 1.0)
    n = 400_000
    batch = sample_path_batch(pm1, 1.0, StreamConfig(seed=51).rng(), n)
    end = batch.coords_at([1.0])[:, 0, 0]
    for k in (0, 1, -2):
        freq = float((end == k).mean())
        p = t.get(k)
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1 - p) / n)


def test_chapman_kolmogorov(pm1_model):
    eps = pm1_model.truncation_tolerance
    for s, r in ((0.3, 0.7), (0.5, 0.5), (1.0, 2.0)):
        a = pf.transition_pmf(pm1_model, s)
        b = pf.transition_pmf(pm1_model, r)
        c = pf.transition_pmf(pm1_model, s + r)
        for l in (0, 1, -1, 2):
            conv = sum(pa * b.get(l - u[0]) for u, pa in zip(a.keys.tolist(), a.probs))
            assert abs(conv - c.get(l)) <= 2 * eps + 1e-13



ARRAY_MODELS = (
    pf.LatticeModel({-2: 0.1, 1: 0.6, 3: 0.3}),
    pf.LatticeModel({(1, 0): 0.4, (0, 1): 0.3, (-1, 0): 0.2, (0, -1): 0.1}, 1e-9),
)


@given(model=st.sampled_from(ARRAY_MODELS),
       s=st.floats(min_value=0.0, max_value=2.0),
       pick=st.integers(min_value=0, max_value=3))
def test_transition_table_arrays(model, s, pick):
    # keys: the points of positive mass, strictly lexicographic; the
    # count-weighted values line up with them, one per key, as the Mecke
    # identity A(v) = s nu(k) p_s(v - k) confirms point by point
    t = pf.transition_pmf(model, s)
    d = model.dimension
    assert t.keys.shape == (len(t.probs), d) and t.keys.dtype == np.int64
    rows = list(map(tuple, t.keys.tolist()))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert np.all(t.probs > 0)
    assert not t.keys.flags.writeable and not t.probs.flags.writeable
    k = sorted(model.pmf)[pick % len(model.pmf)]
    values, tail = pf.count_weighted_pmf(model, s, k)
    assert values.shape == t.probs.shape
    scale = s * model.pmf[k]
    tol = tail + scale * t.tail_mass + 1e-14
    for v, a in zip(rows, values):
        assert abs(a - scale * t.get(tuple(x - y for x, y in zip(v, k)))) <= tol


def test_convolution_powers_refuse_a_box_over_budget():
    # unit jumps in d = 3 at s = 20: powers 0..59 on a 119^3 box, 771 MiB
    units = {}
    for axis in range(3):
        for sign in (1, -1):
            units[tuple(sign if i == axis else 0 for i in range(3))] = 1 / 6
    model = pf.LatticeModel(units)
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match=r"box \(119, 119, 119\).*512 MiB"):
            pf.transition_pmf(model, 20.0)
        with pytest.raises(GridTooLarge):
            pf.count_weighted_pmf(model, 20.0, (1, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert pf.transition_pmf(model, 1.0).tail_mass <= 1e-12

# -- chained expectations -------------------------------------------------------------

def test_expect_constant(pm1_model):
    c = CylindricalFunctional(times=(1.0,), f=lambda v: np.full(len(v), 3.25), bound=3.25)
    got = pf.expect_cylindrical(pm1_model, 1.0, c)
    assert abs(got - 3.25) <= 3.25 * 1e-11  # off only by the certified tail


def test_expect_single_coordinate_reduces_to_pmf(pm1_model):
    F = pf.indicator_at(1.0, 0.0)
    assert pf.expect_cylindrical(pm1_model, 1.0, F) == pf.transition_pmf(pm1_model, 1.0).get(0)


def test_expect_two_coordinates_vs_mc(pm1, pm1_model):
    F = two_coord_f()
    exact = pf.expect_cylindrical(pm1_model, 1.0, F)
    mo = pf.moments_mc(F, pm1, 1.0, 400_000, StreamConfig(seed=52))
    assert abs(mo.mean.mean - exact) <= 4.0 * mo.mean.stderr


def test_increment_grid_refuses_a_grid_over_budget():
    # 5 times at T=5: about 147M grid points, 6.6 GiB of weights and coordinates
    model = pf.LatticeModel({-1: 0.3, 1: 0.5, 2: 0.2})
    F = pf.product_indicator((1.0, 2.0, 3.0, 4.0, 5.0), (0, 0, 0, 0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match=r"shape \(\d+(, \d+){4}\).*512 MiB"):
            pf.expect_cylindrical(model, 5.0, F)
        with pytest.raises(GridTooLarge):
            pf.poincare_check(model, 5.0, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # the 4-time grid of the same atoms at T=2 stays well inside the budget
    grid = pf.IncrementGrid(model, 2.0, (0.5, 1.0, 1.5, 2.0))
    assert grid.weights.nbytes + grid.coords.nbytes < pf.oracle.GRID_BUDGET_BYTES


# -- shifts as index moves on the padded grid -----------------------------------

def _reference_coords(grid):
    """The base grid's running-sum coordinates, in `weights`' order."""
    keys = [t.keys for t in grid.tables]
    n, d = len(keys), grid.model.dimension
    shape = tuple(len(k) for k in keys)
    coords = np.zeros(shape + (n, d))
    running = np.zeros((1,) * n + (d,))
    for j, k in enumerate(keys):
        bshape = (1,) * j + (len(k),) + (1,) * (n - 1 - j) + (d,)
        running = running + k.astype(float).reshape(bshape)
        coords[..., j, :] = running
    return coords.reshape(-1, n, d)


def _reference_values(grid, F, i=None, k=None):
    """F at the base coordinates, copied and shifted by k from position i on,
    evaluated afresh: the route the padded grid replaces."""
    coords = _reference_coords(grid)
    if i is not None:
        coords = coords.copy()
        coords[:, i:, :] += np.asarray(k, dtype=float)
    return pf.functional._apply_rows(F, coords)


def _reference_energy(grid, F):
    base = _reference_values(grid, F)
    acc = 0.0
    for key, w in grid.model.pmf.items():
        for i in range(len(grid.times)):
            diff = _reference_values(grid, F, i, key) - base
            acc += w * grid.deltas[i] * float(np.dot(grid.weights, diff * diff))
    return acc / grid.horizon


def _reference_with_count(grid, F, k):
    n = len(grid.times)
    count_factor = np.zeros(tuple(len(t.probs) for t in grid.tables))
    for j, (table, dt) in enumerate(zip(grid.tables, grid.deltas)):
        a, _ = pf.count_weighted_pmf(grid.model, dt, k)
        ratio = a / table.probs
        count_factor = count_factor + ratio.reshape((1,) * j + (-1,) + (1,) * (n - 1 - j))
    vals = _reference_values(grid, F)
    main = float(np.dot(grid.weights, vals * count_factor.reshape(-1)))
    tail = (grid.horizon - grid.times[-1]) * grid.model.pmf[k]
    return main + tail * float(np.dot(grid.weights, vals))


def _d1_functionals(T):
    corpus = {F.name: F for F in pf.harness.lattice_corpus(T)}
    return [corpus["monotone3"], corpus["flat_tail"]]


def _d2_functionals(T):
    cross = CylindricalFunctional(
        times=(T / 2, T), f=lambda c: ((c[:, 0, 0] == 0) & (c[:, 1, 1] == 0)).astype(float),
        bound=1.0, name="cross")
    ordered = CylindricalFunctional(
        times=(T / 4, T / 2, T),
        f=lambda c: ((c[:, 0, 0] <= c[:, 1, 0]) & (c[:, 1, 0] <= c[:, 2, 1])).astype(float),
        bound=1.0, name="ordered")
    return [cross, ordered]


SHIFT_CASES = [
    # the exact_lattice atoms: gap-free d = 1 supports, every map is a slice
    pytest.param({-1: 0.3, 1: 0.5, 2: 0.2}, 1e-12, 2.0, _d1_functionals(2.0), True,
                 id="exact_lattice"),
    # a gapped support: the maps are position arrays
    pytest.param({2: 0.6, -3: 0.4}, 1e-12, 1.0, _d1_functionals(1.0), False,
                 id="gapped"),
    # d = 2, at a looser truncation to keep the grids small
    pytest.param({(1, 0): 0.4, (0, 1): 0.3, (-1, 0): 0.2, (0, -1): 0.1}, 1e-6, 0.5,
                 _d2_functionals(0.5), False, id="d2"),
]


@pytest.mark.parametrize("pmf, tol, T, functionals, all_slices", SHIFT_CASES)
def test_shift_by_index_bit_equal_to_shifted_copies(pmf, tol, T, functionals,
                                                    all_slices):
    model = pf.LatticeModel(pmf, tol)
    for F in functionals:
        grid = pf.IncrementGrid(model, T, F.times)
        maps = grid.pos + [ix for per in grid.shifted for ix in per.values()]
        assert all(isinstance(ix, slice) for ix in maps) == all_slices
        # every interval's padded support reaches past the table's keys
        assert all(len(t.probs) < s for t, s in zip(grid.tables, grid.shape))
        assert grid.expect(F) == float(np.dot(grid.weights, _reference_values(grid, F)))
        for k in model.pmf:
            for i in range(len(F.times) + 1):
                want = float(np.dot(grid.weights, _reference_values(grid, F, i, k)))
                assert grid.expect(F, i, k) == want
        assert pf.exact_energy(model, T, F) == _reference_energy(grid, F)
        vals = _reference_values(grid, F)
        mean = float(np.dot(grid.weights, vals))
        variance = float(np.dot(grid.weights, vals * vals)) - mean * mean
        assert pf.poincare_check(model, T, F) == (
            variance, T * _reference_energy(grid, F))
        for k in model.pmf:
            with_count = _reference_with_count(grid, F, k)
            assert pf.expect_with_count(model, T, F, k) == with_count
            acc = 0.0
            for i in range(len(F.times)):
                acc += grid.deltas[i] * float(
                    np.dot(grid.weights, _reference_values(grid, F, i, k)))
            lhs = (acc + (T - F.times[-1]) * mean) / T
            assert pf.qi_check(model, T, F, k) == (lhs, with_count / (T * model.pmf[k]))


def test_grid_shift_must_be_an_atom(pm1_model):
    F = pf.indicator_at(1.0, 0.0)
    grid = pf.IncrementGrid(pm1_model, 1.0, F.times)
    with pytest.raises(UnsupportedMeasure, match="not an atom"):
        grid.expect(F, 0, 2)
    with pytest.raises(pf.errors.TimeOutOfRange):
        grid.expect(F, 2, 1)


def test_grid_budget_counts_padded_coordinates_values_and_weights(monkeypatch):
    model = pf.LatticeModel({-1: 0.3, 1: 0.5, 2: 0.2})
    F = pf.product_indicator((0.5, 1.0), (0, 0))
    grid = pf.IncrementGrid(model, 1.0, F.times)
    need = grid.coords.nbytes + grid.values(F).nbytes + grid.weights.nbytes
    monkeypatch.setattr(pf.oracle, "GRID_BUDGET_BYTES", need)
    pf.IncrementGrid(model, 1.0, F.times)
    monkeypatch.setattr(pf.oracle, "GRID_BUDGET_BYTES", need - 1)
    with pytest.raises(GridTooLarge):
        pf.IncrementGrid(model, 1.0, F.times)


def test_semigroup_and_count_tables_refuse_sizes_over_budget(monkeypatch, pm1_model):
    # the quadrature holds steps + 1 nodes, Poisson weights of the counts
    # 0..m_top at each node and the integrand there; the count stats hold
    # g's values and the Poisson weights on the counts 0..m_max + 1
    m_top, _ = pf.poisson_truncation(1.0, pm1_model.truncation_tolerance)
    count = pf.CountFunctional(g=lambda c: c.astype(float))
    cases = [
        (lambda: pf.semigroup_gap(pm1_model, lambda pts: np.asarray(pts, dtype=float),
                                  1.0, 0, 1e-3),
         1001 * (m_top + 3) * 8, r"1000 Simpson steps over the counts 0\.\.%d" % m_top),
        (lambda: pf.poisson_count_stats(count, 1.0, 80), 82 * 2 * 8, r"counts 0\.\.81 "),
    ]
    for call, need, what in cases:
        monkeypatch.setattr(pf.oracle, "GRID_BUDGET_BYTES", need)
        call()
        monkeypatch.setattr(pf.oracle, "GRID_BUDGET_BYTES", need - 1)
        with pytest.raises(GridTooLarge, match=what):
            call()
    monkeypatch.undo()
    with pytest.raises(GridTooLarge, match="512 MiB"):
        pf.poisson_count_stats(count, 1.0, 10**30)


def test_expect_truncation_guard(pm1_model):
    F = pf.indicator_at(1.0, 0.0)
    with pytest.raises(TruncationTooCoarse):
        pf.expect_cylindrical(pm1_model, 1.0, F, max_error=1e-30)
    # every exact entry point refuses the same grid, and accepts it at its error
    calls = [lambda e: pf.expect_with_count(pm1_model, 1.0, F, 1, max_error=e),
             lambda e: pf.qi_check(pm1_model, 1.0, F, 1, max_error=e),
             lambda e: pf.exact_energy(pm1_model, 1.0, F, max_error=e),
             lambda e: pf.poincare_check(pm1_model, 1.0, F, max_error=e)]
    certified = pf.IncrementGrid(pm1_model, 1.0, F.times).tail_bound * F.bound
    for call in calls:
        with pytest.raises(TruncationTooCoarse):
            call(1e-30)
        call(certified)


# -- count-weighted expectations ---------------------------------------------------------

def test_count_weighted_pmf_mecke_identity(pm1_model):
    # the marked expansion must reproduce s nu(k) p_s(. - k)
    for s in (0.4, 1.0):
        for k in (1, -1):
            values, _ = pf.count_weighted_pmf(pm1_model, s, k)
            p = pf.transition_pmf(pm1_model, s)
            for point, val in zip(p.keys.tolist(), values):
                ref = s * pm1_model.mass(k) * p.get(point[0] - k)
                assert abs(val - ref) <= 1e-12


MECKE_MODELS = (
    pf.LatticeModel({(1,): 0.5, (-1,): 0.5}),
    pf.LatticeModel({(-1,): 0.3, (1,): 0.5, (2,): 0.2}),
    pf.LatticeModel({(1, 0): 0.4, (0, 1): 0.3, (-1, 0): 0.2, (0, -1): 0.1}),
)


@given(model=st.sampled_from(MECKE_MODELS),
       s=st.floats(min_value=0.05, max_value=3.0),
       pick=st.integers(min_value=0, max_value=3))
def test_count_weighted_pmf_mecke_property(model, s, pick):
    # Mecke: A(v) = s nu(k) p_s(v - k) on the union of both supports.  Each
    # side drops at most its certified tail at any point; the identity holds
    # to ~1e-13 here, well inside the tails' sum
    k = sorted(model.pmf)[pick % len(model.pmf)]
    values, tail = pf.count_weighted_pmf(model, s, k)
    p = pf.transition_pmf(model, s)
    scale = s * model.pmf[k]
    tol = tail + scale * p.tail_mass + 1e-14
    table = dict(zip(map(tuple, p.keys.tolist()), values))
    shifted = dict(zip(map(tuple, (p.keys + k).tolist()), p.probs))
    for v in set(table) | set(shifted):
        assert abs(table.get(v, 0.0) - scale * shifted.get(v, 0.0)) <= tol


def test_expect_with_count_of_one(pm1_model):
    one = CylindricalFunctional(times=(0.6,), f=lambda c: np.ones(len(c)), bound=1.0)
    for T in (1.0, 2.0):
        got = pf.expect_with_count(pm1_model, T, one, 1)
        assert abs(got - T * 0.5) <= 1e-10


def test_expect_with_count_requires_support(pm1_model):
    F = pf.indicator_at(1.0, 0.0)
    with pytest.raises(UnsupportedMeasure):
        pf.expect_with_count(pm1_model, 1.0, F, 3)


def test_expect_with_count_vs_mc(pm1, pm1_model):
    F = pf.indicator_at(1.0, 0.0)
    exact = pf.expect_with_count(pm1_model, 1.0, F, 1)
    n = 400_000
    batch = sample_path_batch(pm1, 1.0, StreamConfig(seed=53).rng(), n)
    end = batch.coords_at([1.0])[:, 0, 0]
    plus = np.bincount(batch.path_ids[batch.marks[:, 0] == 1.0], minlength=n)
    vals = (end == 0.0) * plus
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - exact) <= 4.0 * se


# -- shifted-law identity -------------------------------------------------------------------

def test_qi_check_constant(pm1_model):
    one = CylindricalFunctional(times=(0.5,), f=lambda c: np.ones(len(c)), bound=1.0)
    lhs, rhs = pf.qi_check(pm1_model, 1.0, one, 1)
    assert abs(lhs - 1.0) <= 1e-10 and abs(rhs - 1.0) <= 1e-10


def test_qi_check_indicator(pm1_model):
    lhs, rhs = pf.qi_check(pm1_model, 1.0, pf.indicator_at(1.0, 0.0), 1)
    assert abs(lhs - rhs) <= 1e-8


def test_qi_check_two_coordinates(pm1_model):
    lhs, rhs = pf.qi_check(pm1_model, 1.0, two_coord_f(), -1)
    assert abs(lhs - rhs) <= 1e-8


# -- variance/energy inequality ----------------------------------------------------------------

def test_poincare_constant_degenerate(pm1_model):
    c = CylindricalFunctional(times=(1.0,), f=lambda v: np.full(len(v), 0.7), bound=0.7)
    variance, bound = pf.poincare_check(pm1_model, 1.0, c)
    assert abs(variance) <= 1e-12 and abs(bound) <= 1e-12


def test_poincare_equality_at_coordinate(pm1_model):
    # the endpoint map attains the inequality with equality: both sides 1
    F = pf.coordinate(1.0, bound=100.0)
    variance, bound = pf.poincare_check(pm1_model, 1.0, F)
    assert abs(variance - 1.0) <= 1e-9
    assert abs(bound - 1.0) <= 1e-9


def test_poincare_strict_for_indicator(pm1_model):
    variance, bound = pf.poincare_check(pm1_model, 1.0, pf.indicator_at(1.0, 0.0))
    p0 = pf.transition_pmf(pm1_model, 1.0).get(0)
    assert abs(variance - p0 * (1 - p0)) <= 1e-10
    assert variance < bound


# -- semigroup variance identity ------------------------------------------------------------------

def test_semigroup_constant(pm1_model):
    lhs, rhs = pf.semigroup_gap(pm1_model, lambda p: np.ones(np.shape(p)), 1.0)
    assert abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10


def test_semigroup_linear(pm1_model):
    lhs, rhs = pf.semigroup_gap(pm1_model, lambda p: np.asarray(p, float), 1.0)
    assert abs(lhs - 1.0) <= 1e-9
    assert abs(rhs - 1.0) <= 1e-9


def test_semigroup_indicator(pm1_model):
    lhs, rhs = pf.semigroup_gap(pm1_model, lambda p: (np.asarray(p) == 0).astype(float),
                                1.0, 0, 1e-3)
    assert abs(lhs - rhs) <= 1e-6


def test_semigroup_off_origin_start(pm1_model):
    lhs, rhs = pf.semigroup_gap(pm1_model, lambda p: (np.asarray(p) == 0).astype(float),
                                1.0, 2, 1e-3)
    assert abs(lhs - rhs) <= 1e-6


def _semigroup_reference(model, f, t, z, quad_step):
    """semigroup_gap one quadrature node at a time, with scipy.signal's
    correlate and scipy.integrate's Simpson rule."""
    from scipy import signal
    from scipy.integrate import simpson

    d = model.dimension
    m_top, _ = pf.poisson_truncation(t, model.truncation_tolerance)
    lo0, basis = model._dense_basis(m_top)
    box = basis.shape[1:]
    supp = np.asarray(sorted(model.pmf), dtype=np.int64).reshape(-1, d)
    s_lo = np.minimum(supp.min(axis=0), 0)
    s_hi = np.maximum(supp.max(axis=0), 0)
    lo_z = np.atleast_1d(z) + lo0
    lo_g = lo_z + s_lo
    shape_g = tuple(b + int(h - l) for b, h, l in zip(box, s_hi, s_lo))
    lo_f = lo_g + lo0
    shape_f = tuple(g + b - 1 for g, b in zip(shape_g, box))
    pts = np.moveaxis(np.indices(shape_f), 0, -1) + lo_f
    f_arr = np.asarray(f(pts[..., 0] if d == 1 else pts), dtype=float)

    def sub(arr, lo, want_lo):
        off = np.asarray(want_lo) - np.asarray(lo)
        return arr[tuple(slice(int(o), int(o) + n) for o, n in zip(off, box))]

    def pvec(s):
        return np.tensordot(stats.poisson.pmf(np.arange(m_top + 1), s), basis,
                            axes=(0, 0))

    def phi(s):
        g = signal.correlate(f_arr, pvec(t - s), mode="valid")
        gz = sub(g, lo_g, lo_z)
        gam = sum(w * (sub(g, lo_g, lo_z + np.asarray(x)) - gz) ** 2
                  for x, w in model.pmf.items())
        return float(np.dot(pvec(s).reshape(-1), gam.reshape(-1)))

    nodes = np.arange(round(t / quad_step) + 1) * quad_step
    rhs = float(simpson([phi(s) for s in nodes], dx=quad_step))
    p_t = pvec(t).reshape(-1)
    fz = sub(f_arr, lo_f, lo_z).reshape(-1)
    mean = float(np.dot(p_t, fz))
    return float(np.dot(p_t, fz * fz)) - mean * mean, rhs


SEMIGROUP_CASES = {
    1: {"const": lambda p: np.ones(np.shape(p)),
        "linear": lambda p: np.asarray(p, dtype=float),
        "ind0": lambda p: (np.asarray(p) == 0).astype(float)},
    2: {"const": lambda p: np.ones(np.shape(p)[:-1]),
        "linear": lambda p: (p[..., 0] + 2.0 * p[..., 1]).astype(float),
        "ind0": lambda p: ((p[..., 0] == 0) & (p[..., 1] == 0)).astype(float)},
}


@pytest.mark.parametrize("pmf, t, z, step", [
    ({-1: 0.5, 1: 0.5}, 1.0, 0, 1e-2),
    ({-1: 0.3, 1: 0.5, 2: 0.2}, 1.0, 0, 1e-3),
    ({-1: 0.3, 1: 0.5, 2: 0.2}, 2.0, 2, 2e-2),
    ({(1, 0): 0.4, (0, 1): 0.3, (-1, 0): 0.2, (0, -1): 0.1}, 0.5, (1, 0), 1e-2),
])
@pytest.mark.parametrize("blocked", [False, True], ids=["all_nodes", "node_by_node"])
def test_semigroup_gap_matches_correlate_simpson_reference(pmf, t, z, step,
                                                           blocked, monkeypatch):
    if blocked:
        monkeypatch.setattr(pf.oracle, "_QUAD_BLOCK_BYTES", 1)
    model = pf.LatticeModel(pmf)
    for name, f in SEMIGROUP_CASES[model.dimension].items():
        lhs, rhs = pf.semigroup_gap(model, f, t, z, step)
        ref_lhs, ref_rhs = _semigroup_reference(model, f, t, z, step)
        assert abs(lhs - ref_lhs) <= 1e-13 * abs(ref_lhs), name
        if name == "const":
            assert rhs == 0.0
        else:
            assert abs(rhs - ref_rhs) <= 1e-13 * abs(ref_rhs), name


def test_semigroup_step_must_divide(pm1_model):
    with pytest.raises(UnsortedTimes):
        pf.semigroup_gap(pm1_model, lambda p: np.ones(np.shape(p)), 1.0, 0, 0.3)


# -- short-time diagnostics --------------------------------------------------------------------------

def test_small_time_rate_bound(pm1_model):
    rows = pf.small_time_table(pm1_model, [1, 2], [0.1, 0.01, 0.001])
    for row in rows:
        assert row.origin_ratio <= 1.0 + 1e-9


def test_small_time_deviations_shrink(pm1_model):
    rows = pf.small_time_table(pm1_model, [1, 2], [0.1, 0.01, 0.001])
    for point in ((1,), (2,)):
        devs = [abs(r.deviations[point]) for r in rows]
        assert devs[0] > devs[1] > devs[2]


def test_small_time_unsupported_point_vanishes(pm1_model):
    # nu(2) = 0, so p_s(2)/s is second order in s
    rows = pf.small_time_table(pm1_model, [2], [0.1, 0.001])
    big, small = (r.deviations[(2,)] for r in rows)
    assert small < big / 10.0


# -- count-variable calculus ---------------------------------------------------------------------------

def test_count_stats_identity_map():
    g = pf.CountFunctional(g=lambda c: c.astype(float))
    for T in (0.5, 1.0, 2.0):
        s = pf.poisson_count_stats(g, T, 80)
        assert abs(s.mean - T) <= 1e-10
        assert abs(s.variance - T) <= 1e-9
        assert abs(s.energy - 1.0) <= 1e-9


def test_count_stats_constant():
    g = pf.CountFunctional(g=lambda c: np.ones(len(c)))
    s = pf.poisson_count_stats(g, 1.0, 60)
    assert abs(s.variance) <= 1e-12
    assert s.energy == 0.0
    assert abs(s.entropy) <= 1e-12


def test_count_stats_normalized_indicator():
    # 1{N = 10} / sqrt(p_10) at T = 1: unit second moment, energy 11,
    # entropy 1 + log(10!)
    p10 = float(stats.poisson.pmf(10, 1.0))
    scale = 1.0 / math.sqrt(p10)
    g = pf.CountFunctional(g=lambda c: np.where(c == 10, scale, 0.0))
    s = pf.poisson_count_stats(g, 1.0, 200)
    assert abs(s.second - 1.0) <= 1e-10
    assert abs(s.energy - 11.0) <= 1e-9
    assert abs(s.entropy - (1.0 + math.lgamma(11))) <= 1e-9


def test_count_stats_truncation_guard():
    g = pf.CountFunctional(g=lambda c: c.astype(float))
    with pytest.raises(TruncationTooCoarse):
        pf.poisson_count_stats(g, 2.0, 3)


def test_count_stats_guard_has_one_fixed_tolerance():
    # |g| = 1 on the probe window, so the tail estimate is 4 * P(N > m_max)
    one = pf.CountFunctional(g=lambda c: np.ones(len(c)))
    for m_max in range(4, 20):
        if 4.0 * float(poisson.sf(m_max, 1.0)) > oracle.COUNT_TAIL_TOL:
            with pytest.raises(TruncationTooCoarse):
                pf.poisson_count_stats(one, 1.0, m_max)
        else:
            pf.poisson_count_stats(one, 1.0, m_max)
    assert oracle.COUNT_TAIL_TOL == 1e-9
    # the guard cannot be switched off
    with pytest.raises(TypeError):
        pf.poisson_count_stats(one, 1.0, 4, tol=None)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
def test_count_stats_refuses_bad_horizon(horizon):
    with pytest.raises(TimeOutOfRange):
        pf.poisson_count_stats(pf.CountFunctional(g=lambda c: c.astype(float)),
                               horizon, 20)


def test_count_stats_vs_mc(pm1):
    cap = pf.capped_count(1000)
    s = pf.poisson_count_stats(cap, 1.0, 80)
    est = pf.energy_mc(cap, pm1, 1.0, 200_000, StreamConfig(seed=54))
    assert abs(est.mean - s.energy) <= 4.0 * est.stderr


# -- entropy/energy witness curve -------------------------------------------------------------------------

def test_witness_curve_frozen_values():
    curve = dict(pf.lsi_witness_curve(1.0, [10, 50]))
    assert abs(curve[10] - (1.0 + math.lgamma(11)) / 11.0) <= 1e-15
    assert abs(curve[50] - (1.0 + math.lgamma(51)) / 51.0) <= 1e-15
    assert abs(curve[10] - 1.4640375066432285) <= 1e-12
    assert abs(curve[50] - 2.9309366068975110) <= 1e-12


def test_witness_curve_matches_count_stats():
    for m in (10, 50):
        p = float(stats.poisson.pmf(m, 1.0))
        scale = 1.0 / math.sqrt(p)
        g = pf.CountFunctional(g=lambda c, m=m, scale=scale: np.where(c == m, scale, 0.0))
        s = pf.poisson_count_stats(g, 1.0, 200)
        assert abs(pf.witness_ratio(1.0, m) - s.entropy / s.energy) <= 1e-9


def test_witness_curve_increasing():
    ratios = [r for _, r in pf.lsi_witness_curve(1.0, range(10, 101, 10))]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_exceed_level():
    for c in (2.0, 10.0, 40.0):
        m = pf.lsi_exceed_level(1.0, c)
        assert pf.witness_ratio(1.0, m) > c
        assert pf.witness_ratio(1.0, m - 1) <= c or m == 1
