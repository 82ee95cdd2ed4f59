import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pathform as pf
from pathform.errors import (
    AtomAtOrigin,
    ConfigError,
    DimensionMismatch,
    NonProbability,
    UnsupportedMeasure,
)


def test_validate_symmetric_measure(pm1):
    pm1.validate()


def test_validate_origin_atom():
    with pytest.raises(AtomAtOrigin):
        pf.IntensityMeasure.discrete([(0.0, 1.0)])


def test_validate_non_probability():
    with pytest.raises(NonProbability):
        pf.IntensityMeasure.discrete([(1.0, 0.6), (-1.0, 0.6)])
    with pytest.raises(NonProbability, match="at least one atom"):
        pf.IntensityMeasure.discrete([])
    with pytest.raises(NonProbability):
        pf.IntensityMeasure.discrete([], dimension=2)


def test_validate_negative_mass():
    with pytest.raises(NonProbability):
        pf.IntensityMeasure.discrete([(1.0, 1.5), (-1.0, -0.5)])
    # a NaN mass is not positive, wherever it sits
    for masses in [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)]:
        with pytest.raises(NonProbability):
            pf.IntensityMeasure.discrete([(1.0, masses[0]), (-1.0, masses[1])])


def test_validate_duplicate_atoms():
    with pytest.raises(NonProbability):
        pf.IntensityMeasure.discrete([(1.0, 0.5), (1.0, 0.5)])
    # atoms are compared as numbers: 0.0 and -0.0 are one coordinate
    with pytest.raises(NonProbability, match="duplicate"):
        pf.IntensityMeasure.discrete([((1.0, 0.0), 0.5), ((1.0, -0.0), 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_non_finite_coordinates(bad):
    with pytest.raises(NonProbability, match="finite"):
        pf.IntensityMeasure.discrete([(bad, 0.5), (-1.0, 0.5)])
    with pytest.raises(NonProbability, match="finite"):
        pf.IntensityMeasure.discrete([((1.0, bad), 0.5), ((0.0, 1.0), 0.5)])


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pf.IntensityMeasure.discrete([((1.0, 0.0), 1.0)], dimension=3)


def test_ragged_atoms_are_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pf.IntensityMeasure.discrete([((1.0, 0.0), 0.5), ((1.0,), 0.5)])


def test_sample_support_membership(pm1):
    rng = pf.StreamConfig(seed=11).rng()
    draws = pm1.sample_batch(rng, 1000)
    assert set(np.unique(draws)) == {-1.0, 1.0}


def test_sample_point_mass():
    m = pf.IntensityMeasure.discrete([(2.0, 1.0)])
    rng = pf.StreamConfig(seed=5).rng()
    for _ in range(10):
        assert m.sample(rng)[0] == 2.0


def test_sample_empirical_mean(pm1):
    # mean of n draws from uniform{+-1} has sd 1/sqrt(n)
    n = 10**6
    rng = pf.StreamConfig(seed=123).rng()
    draws = pm1.sample_batch(rng, n)
    assert abs(draws.mean()) <= 4.0 / math.sqrt(n)


def test_sample_determinism(pm1):
    a = pm1.sample_batch(pf.StreamConfig(seed=9).rng(), 500)
    b = pm1.sample_batch(pf.StreamConfig(seed=9).rng(), 500)
    assert np.array_equal(a, b)


def _choice_marks(measure, rng, size):
    """The reference mark draw: numpy's own inverse transform."""
    return measure.points[rng.choice(len(measure.masses), size=size, p=measure.masses)]


def _assert_draws_match_choice(measure, seed, size):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = measure.sample_batch(rng, size)
    want = _choice_marks(measure, ref, size)
    assert got.shape == want.shape == (size, measure.dimension)
    assert got.tobytes() == want.tobytes()
    assert rng.random() == ref.random()  # the stream is left where choice leaves it


@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 7, 333, 4097]))
def test_discrete_draws_equal_rng_choice(weights, seed, size):
    total = sum(weights)
    masses = [w / total for w in weights]
    masses[-1] = 1.0 - sum(masses[:-1])
    measure = pf.IntensityMeasure.discrete(
        [(float(i + 1), m) for i, m in enumerate(masses)])
    _assert_draws_match_choice(measure, seed, size)


@pytest.mark.parametrize("atoms", [
    [(-2.0, 0.1), (1.0, 0.6), (3.0, 0.3)],
    [(-2.0, 0.15), (-1.0, 0.3), (1.0, 0.25), (2.0, 0.2), (5.0, 0.1)],
    [((1.0, 0.0), 0.2), ((0.0, -1.0), 0.7), ((2.0, 3.0), 0.1)],
    [(float(k), 1.0 / 100) for k in range(1, 101)],
    # more cut points than the sequential pass counts: binary search
    [(float(k), 1.0 / 300) for k in range(1, 301)],
], ids=["three", "five", "d2", "hundred", "three_hundred"])
@pytest.mark.parametrize("size", [0, 1, 7, 65_537])
def test_discrete_draws_equal_rng_choice_examples(atoms, size):
    measure = pf.IntensityMeasure.discrete(atoms)
    for seed in range(5):
        _assert_draws_match_choice(measure, seed, size)


class _FixedUniforms(np.random.Generator):
    """A generator whose `random(size)` returns given values, so that a
    draw can be tried at chosen uniforms; `Generator.choice` reads its
    uniforms through the same method."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u[:size].copy()


@pytest.mark.parametrize("masses", [[0.3, 0.6, 0.1], [0.15, 0.3, 0.25, 0.2, 0.1],
                                    [1.0 / 100] * 100, [1.0 / 300] * 300])
def test_discrete_draws_equal_rng_choice_at_cut_points(masses):
    # in cumsum order none of these masses sums to exactly 1.0, so the raw
    # cumulative sums and choice's normalized ones are different floats;
    # uniforms on and next to both sets must pick choice's atoms
    measure = pf.IntensityMeasure.discrete(
        [(float(i + 1), m) for i, m in enumerate(masses)])
    raw = np.cumsum(measure.masses)
    cuts = np.concatenate([raw[:-1], raw[:-1] / raw[-1]])
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cuts,
                        np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0)])
    want = _choice_marks(measure, _FixedUniforms(u), len(u))
    got = measure.sample_batch(_FixedUniforms(u), len(u))
    assert got.tobytes() == want.tobytes()


def test_continuous_sampler_never_returns_origin():
    bad = pf.IntensityMeasure.continuous(
        lambda rng, size: np.zeros((size, 1)), dimension=1)
    with pytest.raises(AtomAtOrigin):
        bad.sample(pf.StreamConfig(seed=1).rng())


def test_continuous_sampler_shape_checked():
    bad = pf.IntensityMeasure.continuous(
        lambda rng, size: np.ones((size, 2)), dimension=1)
    with pytest.raises(DimensionMismatch):
        bad.sample_batch(pf.StreamConfig(seed=1).rng(), 4)


# -- project_mark -------------------------------------------------------------

def test_project_mark_examples():
    assert pf.project_mark(0.9, 0).tolist() == [0.0]
    assert pf.project_mark(-0.1, 2).tolist() == [-0.25]
    assert pf.project_mark(1.5, 1).tolist() == [1.5]


@given(st.floats(-100, 100), st.integers(0, 10))
def test_project_mark_within_cell(x, n):
    p = float(pf.project_mark(x, n)[0])
    # the true gap is strictly below the cell width; the computed difference
    # may round up to exactly the width for tiny negative x
    assert 0.0 <= x - p <= 2.0 ** -n


@given(st.floats(-100, 100), st.integers(0, 10))
def test_project_mark_idempotent(x, n):
    once = pf.project_mark(x, n)
    assert np.array_equal(pf.project_mark(once, n), once)


def test_project_mark_euclidean_bound():
    x = np.array([0.3, -0.7, 2.4])
    for n in range(5):
        err = np.linalg.norm(x - pf.project_mark(x, n))
        assert err <= math.sqrt(3) * 2.0 ** -n


def test_project_mark_keeps_marks_whose_scaled_value_overflows():
    assert pf.project_mark(1e300, 100).tolist() == [1e300]
    x = np.array([1e300, -1e300, 2.0, -2.5, 0.3, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pf.project_mark(x, 1023)
    assert out[:5].tolist() == [1e300, -1e300, 2.0, -2.5, 0.3]
    assert np.isposinf(out[5]) and np.isneginf(out[6])


def test_project_mark_refuses_a_projection_past_the_largest_float():
    # floor(-1.7e308 * 2**-1023) * 2**1023 = -2**1024, which no float holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedMeasure, match=r"-1\.7e\+308.*level -1023"):
            pf.project_mark(-1.7e308, -1023)
        with pytest.raises(UnsupportedMeasure):
            pf.project_mark(np.array([[1.0, -1.7e308]]), -1023)
        assert pf.project_mark(1.7e308, -1023).tolist() == [2.0**1023]
        assert pf.project_mark(-1.7e308, -1000).tolist() == [
            math.floor(-1.7e308 * 2.0**-1000) * 2.0**1000]


def test_project_mark_unchanged_below_overflow():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 3.0, 500), rng.normal(0.0, 1e6, 100),
                        [0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300]])
    for n in range(-20, 41):
        assert np.array_equal(pf.project_mark(x, n),
                              np.floor(x * 2.0**n) / 2.0**n)


# -- config-level measure specs ------------------------------------------------

def test_measure_from_spec_builtins():
    assert pf.measure_from_spec({"builtin": "uniform_pm1"}).kind == "discrete"
    m = pf.measure_from_spec({"builtin": "uniform_interval(1, 2)"})
    assert m.kind == "continuous"
    draws = m.sample_batch(pf.StreamConfig(seed=3).rng(), 100)
    assert np.all((draws >= 1.0) & (draws <= 2.0))
    g = pf.measure_from_spec({"builtin": "gauss_shifted(5, 0.1)"})
    draws = g.sample_batch(pf.StreamConfig(seed=3).rng(), 200)
    assert 4.5 < draws.mean() < 5.5


def test_measure_from_spec_atoms():
    m = pf.measure_from_spec(
        {"type": "discrete", "dimension": 1, "atoms": [[[1.0], 0.5], [[-1.0], 0.5]]})
    m.validate()
    assert m.points.tolist() == [[1.0], [-1.0]]


def test_measure_from_spec_rejects_origin():
    with pytest.raises(ConfigError):
        pf.measure_from_spec({"type": "discrete", "atoms": [[[0.0], 1.0]]})


@pytest.mark.parametrize("atoms", [
    [[[1.0], math.nan], [[-1.0], 1.0]],
    [[[math.nan], 0.5], [[-1.0], 0.5]],
    [[[math.inf], 0.5], [[-1.0], 0.5]],
    [[[1.0, 0.0], 0.5], [[1.0, -0.0], 0.5]],
    [],
])
def test_measure_from_spec_maps_every_measure_error_to_atoms(atoms):
    with pytest.raises(ConfigError) as err:
        pf.measure_from_spec({"type": "discrete", "atoms": atoms,
                              "dimension": len(atoms[0][0]) if atoms else 1})
    assert [field for field, _ in err.value.fields] == ["measure.atoms"]


def test_measure_from_spec_unknown_builtin():
    with pytest.raises(ConfigError):
        pf.measure_from_spec({"builtin": "cauchy(0,1)"})
