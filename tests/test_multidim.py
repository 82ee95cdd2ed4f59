"""Vector-mark (d = 2) and asymmetric-measure coverage.

The acceptance suites run in d = 1 with symmetric marks; these tests pin the
general code paths: tuple-keyed lattice tables, n-dimensional dense boxes in
the semigroup check, (N, d) mark arrays in both sampling engines, and the
density identity on measures where the increment orientation matters.
"""

import math

import numpy as np
import pytest

import pathform as pf
from pathform import CylindricalFunctional, JumpPath, StreamConfig
from pathform.sampler import sample_path_batch


@pytest.fixture(scope="module")
def model2():
    return pf.LatticeModel({(1, 0): 0.4, (0, 1): 0.3, (-1, 0): 0.2, (0, -1): 0.1})


@pytest.fixture(scope="module")
def cross_f():
    return CylindricalFunctional(
        times=(0.5, 1.0),
        f=lambda c: ((c[:, 0, 0] == 0) & (c[:, 1, 1] == 0)).astype(float),
        bound=1.0, name="cross")


def test_path_ops_with_vector_marks():
    p = JumpPath.from_jumps(1.0, [(0.3, (1.0, 0.0)), (0.7, (0.0, -1.0))],
                            dimension=2)
    assert p.value_at(0.5).tolist() == [1.0, 0.0]
    assert p.value_at(1.0).tolist() == [1.0, -1.0]
    assert p.count_jumps_of_mark((1.0, 0.0)) == 1
    shifted = p.shift(0.4, (0.0, 2.0))
    assert shifted.value_at(0.4).tolist() == [1.0, 2.0]
    assert shifted.shift(0.4, (0.0, -2.0)) == p
    assert p.sup_distance(JumpPath.empty(1.0, 2)) == math.sqrt(2.0)


def test_transition_pmf_normalized_d2(model2):
    t = pf.transition_pmf(model2, 0.8)
    assert abs(sum(t.probs.tolist()) + t.tail_mass - 1.0) <= 1e-10
    assert t.get((0, 0)) > 0.4  # no-jump weight e^-0.8 plus returns


def test_qi_check_d2(model2, cross_f):
    for k in ((1, 0), (0, -1)):
        lhs, rhs = pf.qi_check(model2, 1.0, cross_f, k)
        assert abs(lhs - rhs) <= 1e-8


def test_poincare_d2(model2, cross_f):
    variance, bound = pf.poincare_check(model2, 1.0, cross_f)
    assert variance <= bound + 1e-10


def test_semigroup_linear_d2(model2):
    # f = a . x with a = (1, 2): variance t * E (a . xi)^2 = 0.5 * 2.2
    def f(pts):
        pts = np.asarray(pts)
        return (pts[..., 0] + 2.0 * pts[..., 1]).astype(float)

    lhs, rhs = pf.semigroup_gap(model2, f, 0.5, (0, 0), 1e-3)
    assert abs(lhs - 1.1) <= 1e-9
    assert abs(rhs - 1.1) <= 1e-9


def test_semigroup_indicator_off_origin_d2(model2):
    def f(pts):
        pts = np.asarray(pts)
        return ((pts[..., 0] == 0) & (pts[..., 1] == 0)).astype(float)

    lhs, rhs = pf.semigroup_gap(model2, f, 0.5, (1, 0), 1e-3)
    assert abs(lhs - rhs) <= 1e-6


def test_mc_engines_match_oracle_d2(model2, cross_f):
    measure = model2.to_measure()
    mo = pf.moments_mc(cross_f, measure, 1.0, 150_000, StreamConfig(seed=61))
    exact = pf.expect_cylindrical(model2, 1.0, cross_f)
    assert abs(mo.mean.mean - exact) <= 4.0 * mo.mean.stderr
    est = pf.energy_mc(cross_f, measure, 1.0, 150_000, StreamConfig(seed=62))
    energy = pf.exact_energy(model2, 1.0, cross_f)
    assert abs(est.mean - energy) <= 4.0 * est.stderr


def test_pairing_identity_d2(model2, cross_f):
    [res] = pf.pairing_mc([(cross_f, cross_f)], model2, 1.0, 150_000,
                          StreamConfig(seed=63))
    assert abs(res.identity_fg.mean) <= 4.0 * res.identity_fg.stderr


def test_batch_coords_d2(model2):
    measure = model2.to_measure()
    batch = sample_path_batch(measure, 1.0, StreamConfig(seed=65).rng(), 200)
    coords = batch.coords_at([0.5, 1.0])
    assert coords.shape == (200, 2, 2)
    for i in (0, 11, 199):
        assert np.allclose(coords[i], batch.path(i).coordinates([0.5, 1.0]))


def test_projection_gap_d2():
    sampler = pf.IntensityMeasure.continuous(
        lambda rng, size: rng.uniform(0.5, 1.5, size=(size, 2)), dimension=2)
    batch = sample_path_batch(sampler, 1.0, StreamConfig(seed=66).rng(), 500)
    for n in (1, 3):
        gaps = batch.projection_gap(n)
        assert np.all(gaps <= batch.counts * math.sqrt(2.0) * 2.0 ** -n)


# -- asymmetric one-dimensional measures ----------------------------------------

@pytest.fixture(scope="module")
def skew_model():
    return pf.LatticeModel({1: 0.7, -2: 0.3})


def test_qi_check_asymmetric(skew_model):
    F = pf.indicator_at(1.0, 0.0)
    for k in (1, -2):
        lhs, rhs = pf.qi_check(skew_model, 1.0, F, k)
        assert abs(lhs - rhs) <= 1e-8


def test_count_mean_asymmetric(skew_model):
    one = CylindricalFunctional(times=(1.0,), f=lambda c: np.ones(len(c)), bound=1.0)
    assert abs(pf.expect_with_count(skew_model, 1.0, one, -2) - 0.3) <= 1e-10


def test_poincare_equality_asymmetric(skew_model):
    # the coordinate map attains equality for any mark law:
    # variance = T E xi^2 = T * energy
    F = pf.coordinate(1.0, bound=200.0)
    variance, bound = pf.poincare_check(skew_model, 1.0, F)
    second_moment = 0.7 * 1.0 + 0.3 * 4.0
    assert abs(variance - second_moment) <= 1e-8
    assert abs(bound - second_moment) <= 1e-8


def test_drifting_semigroup_asymmetric(skew_model):
    lhs, rhs = pf.semigroup_gap(skew_model, lambda p: np.asarray(p, float), 1.0)
    assert abs(lhs - 1.9) <= 1e-8
    assert abs(rhs - 1.9) <= 1e-8
