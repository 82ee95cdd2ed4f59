import math
import tracemalloc

import numpy as np
import pytest

import pathform as pf
from pathform import CylindricalFunctional, JumpPath, StreamConfig
from pathform.errors import BoundViolation, HorizonMismatch, NoSuchJump, UnsortedTimes
from pathform.functional import (
    DEFAULT_CHUNK,
    _apply_rows,
    _chunk_sizes,
    _generator_values_batch,
    _run_chunked,
)
from pathform.harness import lattice_corpus
from pathform.sampler import sample_path_batch


def const_f(value=0.7, t=1.0):
    return CylindricalFunctional(times=(t,), f=lambda c: np.full(len(c), value),
                                 bound=abs(value), name="const")


def ind0(t=1.0):
    return pf.indicator_at(t, 0.0)


# -- evaluate -------------------------------------------------------------------

def test_evaluate_constant():
    p = JumpPath.from_jumps(1.0, [(0.2, 1.0)])
    assert pf.evaluate(const_f(), p) == 0.7


def test_evaluate_coordinate():
    F = pf.coordinate(1.0)
    p = JumpPath.from_jumps(1.0, [(0.5, 2.0)])
    assert pf.evaluate(F, p) == 2.0


def test_shift_after_last_coordinate_invisible():
    F = pf.coordinate(0.5)
    p = JumpPath.from_jumps(1.0, [(0.2, 1.0)])
    assert pf.evaluate(F, p.shift(0.7, 5.0)) == pf.evaluate(F, p)


def test_bound_violation_detected():
    F = CylindricalFunctional(times=(1.0,), f=lambda c: c[:, 0], bound=0.5)
    p = JumpPath.from_jumps(1.0, [(0.5, 2.0)])
    with pytest.raises(BoundViolation):
        pf.evaluate(F, p)


def test_nan_is_a_bound_violation(pm1_model):
    F = CylindricalFunctional(times=(1.0,), f=lambda c: np.full(len(c), math.nan),
                              name="nan")
    with pytest.raises(BoundViolation):
        pf.evaluate(F, JumpPath.empty(1.0))
    with pytest.raises(BoundViolation):
        pf.expect_cylindrical(pm1_model, 1.0, F)


@pytest.mark.parametrize("times", [(math.nan,), (0.5, math.nan), (math.nan, 1.0),
                                   (0.0,), (0.5, 0.5), (1.0, 0.5)])
def test_unsorted_or_nan_times_refused(times):
    with pytest.raises(UnsortedTimes):
        CylindricalFunctional(times=times, f=lambda c: np.zeros(len(c)), bound=0.0)
    with pytest.raises(UnsortedTimes):
        pf.product_indicator(times, [0.0] * len(times))
    if len(times) == 1:
        with pytest.raises(UnsortedTimes):
            pf.indicator_at(times[0], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_product_indicator_batch_equals_scalar(n):
    rng = np.random.default_rng(n)
    values = rng.integers(-1, 2, size=n).astype(float)
    F = pf.product_indicator(tuple(0.2 * (j + 1) for j in range(n)), values)
    rows = rng.integers(-1, 2, size=(4000, n)).astype(float)
    rows[::7] = values  # make sure hits occur at every n
    want = np.all(rows == values, axis=1).astype(float)
    got = F.f(rows[:, :, None][:, :, 0])  # the strided view _apply_rows passes
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.sum() > 0


def test_horizon_mismatch():
    with pytest.raises(HorizonMismatch):
        pf.evaluate(pf.coordinate(2.0), JumpPath.empty(1.0))


def _qi_mc(F, measure, T, n, cfg):
    return pf.qi_mc([F], measure, T, n, cfg)[0]


def _pairing_mc(F, measure, T, n, cfg):
    return pf.pairing_mc([(F, F)], pf.LatticeModel.from_measure(measure), T, n, cfg)[0]


@pytest.mark.parametrize("estimator", [_qi_mc, pf.energy_mc, pf.moments_mc, _pairing_mc],
                         ids=["qi_mc", "energy_mc", "moments_mc", "pairing_mc"])
def test_estimators_refuse_times_past_horizon(pm1, estimator):
    with pytest.raises(HorizonMismatch):
        estimator(pf.indicator_at(2.0, 0.0), pm1, 1.0, 2000, StreamConfig(seed=1))


def test_count_functional_evaluate():
    cap = pf.capped_count(2)
    p = JumpPath.from_jumps(1.0, [(0.2, 1.0), (0.4, 1.0), (0.6, 1.0)])
    assert pf.evaluate(cap, p) == 2.0


# -- squared-difference field -----------------------------------------------------

def test_gamma_constant_vanishes():
    p = JumpPath.from_jumps(1.0, [(0.3, 1.0)])
    assert pf.gamma(const_f(), ind0(), 0.5, 1.0, p) == 0.0


def test_gamma_diagonal_nonnegative(pm1):
    rng = StreamConfig(seed=3).rng()
    F = ind0()
    for _ in range(50):
        p = pf.sample_path(pm1, 1.0, rng)
        t = float(rng.uniform(0.01, 1.0))
        assert pf.gamma(F, F, t, 1.0, p) >= 0.0


def test_gamma_coordinate_unit_shift():
    F = pf.coordinate(1.0)
    p = JumpPath.from_jumps(1.0, [(0.4, -1.0)])
    assert pf.gamma(F, F, 0.6, 1.0, p) == 1.0


def test_gamma_symmetry(pm1):
    F, G = ind0(), pf.indicator_at(0.5, 1.0)
    rng = StreamConfig(seed=4).rng()
    for _ in range(50):
        p = pf.sample_path(pm1, 1.0, rng)
        t = float(rng.uniform(0.01, 1.0))
        assert pf.gamma(F, G, t, 1.0, p) == pf.gamma(G, F, t, 1.0, p)


# -- piecewise-constant collapse -----------------------------------------------------

def test_shift_within_interval_constant(pm1):
    F = CylindricalFunctional(
        times=(0.4, 0.8), f=lambda c: c[:, 0] - 2 * c[:, 1], bound=math.inf)
    rng = StreamConfig(seed=5).rng()
    for _ in range(50):
        p = pf.sample_path(pm1, 1.0, rng)
        for t1, t2 in ((0.05, 0.4), (0.45, 0.8), (0.81, 1.0)):
            a = pf.evaluate(F, p.shift(t1, 1.0))
            b = pf.evaluate(F, p.shift(t2, 1.0))
            assert a == b


# -- energy estimators -----------------------------------------------------------------

def test_energy_constant_is_zero(pm1):
    est = pf.energy_mc(const_f(), pm1, 1.0, 5000, StreamConfig(seed=6))
    assert est.mean == 0.0 and est.stderr == 0.0


def test_energy_deterministic_integrand():
    # point-mass marks shift the endpoint by exactly +1 every time
    m = pf.IntensityMeasure.discrete([(1.0, 1.0)])
    est = pf.energy_mc(pf.coordinate(1.0), m, 1.0, 5000, StreamConfig(seed=7))
    assert est.mean == 1.0 and est.stderr == 0.0


def test_energy_mc_matches_exact(pm1, pm1_model):
    F = CylindricalFunctional(
        times=(0.5, 1.0), f=lambda c: ((c[:, 0] == 0) & (c[:, 1] == 0)).astype(float),
        bound=1.0)
    est = pf.energy_mc(F, pm1, 1.0, 200_000, StreamConfig(seed=8))
    exact = pf.exact_energy(pm1_model, 1.0, F)
    assert abs(est.mean - exact) <= 4.0 * est.stderr


def test_estimator_level_poincare(pm1, pm1_model):
    F = ind0()
    mo = pf.moments_mc(F, pm1, 1.0, 100_000, StreamConfig(seed=9))
    energy = pf.exact_energy(pm1_model, 1.0, F)
    variance = mo.second_moment.mean - mo.mean.mean ** 2
    slack = 5.0 * (mo.second_moment.stderr + 2.0 * abs(mo.mean.mean) * mo.mean.stderr)
    assert variance <= 1.0 * energy + slack


# -- moments ---------------------------------------------------------------------------

def test_moments_of_constant_one(pm1):
    one = CylindricalFunctional(times=(1.0,), f=lambda c: np.ones(len(c)), bound=1.0)
    mo = pf.moments_mc(one, pm1, 1.0, 5000, StreamConfig(seed=10))
    assert (mo.mean.mean, mo.second_moment.mean, mo.entropy.mean) == (1.0, 1.0, 0.0)
    assert (mo.mean.stderr, mo.second_moment.stderr, mo.entropy.stderr) == (0.0, 0.0, 0.0)


def test_capped_count_variance(pm1):
    mo = pf.moments_mc(pf.capped_count(1000), pm1, 1.0, 200_000,
                       StreamConfig(seed=11))
    variance = mo.second_moment.mean - mo.mean.mean ** 2
    slack = 4.0 * (mo.second_moment.stderr + 2.0 * mo.mean.mean * mo.mean.stderr)
    assert abs(variance - 1.0) <= slack


def test_normalized_entropy_nonnegative(pm1):
    scale = 1.0 / math.sqrt(math.exp(-1.0))  # normalizes 1{N = 1}
    F = pf.CountFunctional(g=lambda c: np.where(c == 1, scale, 0.0))
    mo = pf.moments_mc(F, pm1, 1.0, 100_000, StreamConfig(seed=12))
    assert mo.entropy.mean >= -4.0 * mo.entropy.stderr


# -- conditional shift-time law -----------------------------------------------------------

def test_pi_k_single_candidate():
    p = JumpPath.from_jumps(1.0, [(0.5, 1.0)])
    assert pf.pi_k(p, 1.0).support == ((0.5, 1.0),)


def test_pi_k_uniform_over_matches():
    p = JumpPath.from_jumps(1.0, [(0.2, 1.0), (0.8, 1.0)])
    assert pf.pi_k(p, 1.0).support == ((0.2, 0.5), (0.8, 0.5))


def test_pi_k_mark_filter():
    p = JumpPath.from_jumps(1.0, [(0.2, 1.0), (0.5, -1.0)])
    assert pf.pi_k(p, -1.0).support == ((0.5, 1.0),)


def test_pi_k_no_such_jump():
    with pytest.raises(NoSuchJump):
        pf.pi_k(JumpPath.empty(1.0), 1.0)


# -- generator ------------------------------------------------------------------------------

def test_generator_kills_constants(pm1, pm1_model):
    rng = StreamConfig(seed=13).rng()
    for _ in range(20):
        p = pf.sample_path(pm1, 1.0, rng)
        assert pf.generator_apply(const_f(), p, pm1_model, 1.0) == 0.0


def test_generator_coordinate_on_empty(pm1_model):
    # symmetric marks make the insertion term cancel; no jumps to remove
    F = pf.coordinate(1.0)
    assert pf.generator_apply(F, JumpPath.empty(1.0), pm1_model, 1.0) == 0.0


def test_generator_indicator_on_empty(pm1_model):
    assert pf.generator_apply(ind0(), JumpPath.empty(1.0), pm1_model, 1.0) == -1.0


def test_generator_count_functional(pm1_model):
    g = pf.CountFunctional(g=lambda c: (c * c).astype(float))
    p = JumpPath.from_jumps(1.0, [(0.3, 1.0), (0.6, -1.0)])
    # insertion: (n+1)^2 - n^2; removal: n * ((n-1)^2 - n^2) / T at n = 2
    expected = (9 - 4) + 2 * (1 - 4) / 1.0
    assert pf.generator_apply(g, p, pm1_model, 1.0) == expected


def test_generator_batch_matches_per_path(pm1, pm1_model):
    F = CylindricalFunctional(
        times=(0.25, 0.75), f=lambda c: (c[:, 0] <= c[:, 1]).astype(float), bound=1.0)
    batch = sample_path_batch(pm1, 1.0, StreamConfig(seed=14).rng(), 100)
    coords = batch.coords_at(F.times)
    vals = _generator_values_batch(F, batch, pm1_model, 1.0, coords, _apply_rows(F, coords))
    for i in range(0, 100, 9):
        direct = pf.generator_apply(F, batch.path(i), pm1_model, 1.0)
        assert math.isclose(vals[i], direct, rel_tol=0, abs_tol=1e-12)


def test_count_generator_batch_matches_per_path(pm1, pm1_model):
    g = pf.CountFunctional(g=lambda c: (c * c).astype(float) - 3.5 * c)
    batch = sample_path_batch(pm1, 2.0, StreamConfig(seed=23).rng(), 100)
    vals = _generator_values_batch(g, batch, pm1_model, 2.0, None, None)
    for i in range(0, 100, 9):
        assert vals[i] == pf.generator_apply(g, batch.path(i), pm1_model, 2.0)


# -- pairing ---------------------------------------------------------------------------------

def test_pairing_zero_functional(pm1_model):
    zero = CylindricalFunctional(times=(1.0,), f=lambda c: np.zeros(len(c)), bound=0.0)
    [res] = pf.pairing_mc([(ind0(), zero)], pm1_model, 1.0, 5000, StreamConfig(seed=15))
    assert res.form.mean == 0.0
    assert res.pairing_fg.mean == 0.0
    assert res.pairing_gf.mean == 0.0


def test_pairing_diagonal_symmetric(pm1_model):
    F = ind0()
    [res] = pf.pairing_mc([(F, F)], pm1_model, 1.0, 5000, StreamConfig(seed=16))
    assert res.pairing_fg == res.pairing_gf
    assert res.symmetry.mean == 0.0 and res.symmetry.stderr == 0.0


def test_pairing_identity_and_symmetry(pm1_model):
    F, G = ind0(), pf.indicator_at(0.5, 1.0)
    [res] = pf.pairing_mc([(F, G)], pm1_model, 1.0, 200_000, StreamConfig(seed=17))
    assert abs(res.identity_fg.mean) <= 4.0 * res.identity_fg.stderr
    assert abs(res.identity_gf.mean) <= 4.0 * res.identity_gf.stderr
    assert abs(res.symmetry.mean) <= 4.0 * res.symmetry.stderr


# -- statistical shifted-law comparison ------------------------------------------------------

def test_qi_mc_lattice(pm1):
    [comp] = pf.qi_mc([ind0()], pm1, 1.0, 200_000, StreamConfig(seed=18))
    assert abs(comp.diff.mean) <= 4.0 * comp.diff.stderr


# -- corpus calls: one shifted sample per chunk serves every entry ---------------------------

def _mixed_corpus():
    """The lattice corpus, a count map, and functionals on times no other
    entry reads, so the shared coordinates are built at a union of times."""
    return lattice_corpus(1.0) + [
        pf.capped_count(2),
        pf.product_indicator((0.3, 0.7), (1.0, 0.0), name="prod10_off"),
        pf.indicator_at(0.9, -1.0, name="ind-1_off")]


def _mixed_pairs():
    c = {F.name: F for F in _mixed_corpus()}
    return [(c["ind0_end"], c["ind1_half"]), (c["clip2_end"], c["prod00"]),
            (c["flat_tail"], c["flat_tail"]), (c["count^2"], c["prod10_off"]),
            (c["ind-1_off"], c["monotone3"])]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_qi_corpus_entries_equal_one_entry_calls(pm1, monkeypatch, threads):
    monkeypatch.setenv("PATHFORM_THREADS", threads)
    corpus, cfg = _mixed_corpus(), StreamConfig(seed=24, stream_index=2)
    together = pf.qi_mc(corpus, pm1, 1.0, 70_000, cfg)
    assert len(together) == len(corpus)
    for F, comp in zip(corpus, together):
        assert comp == pf.qi_mc([F], pm1, 1.0, 70_000, cfg)[0], F.name


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pairing_corpus_entries_equal_one_entry_calls(pm1_model, monkeypatch, threads):
    monkeypatch.setenv("PATHFORM_THREADS", threads)
    pairs, cfg = _mixed_pairs(), StreamConfig(seed=25, stream_index=1)
    together = pf.pairing_mc(pairs, pm1_model, 2.0, 70_000, cfg)
    assert len(together) == len(pairs)
    for pair, res in zip(pairs, together):
        assert res == pf.pairing_mc([pair], pm1_model, 2.0, 70_000, cfg)[0]


def test_corpus_calls_refuse_an_entry_past_horizon(pm1, pm1_model):
    late = pf.indicator_at(1.5, 0.0)
    corpus = _mixed_corpus()
    with pytest.raises(HorizonMismatch):
        pf.qi_mc(corpus[:3] + [late] + corpus[3:], pm1, 1.0, 2000, StreamConfig(seed=1))
    with pytest.raises(HorizonMismatch):
        pf.pairing_mc(_mixed_pairs() + [(corpus[0], late)], pm1_model, 1.0, 2000,
                      StreamConfig(seed=1))


def test_corpus_coordinates_are_read_only(pm1):
    # the entries share one coordinate array: a functional that writes into
    # its input is refused rather than left to change what the others read
    def clobber(c):
        c[:] = 0.0
        return c[:, 0]

    bad = CylindricalFunctional(times=(1.0,), f=clobber, name="clobber")
    with pytest.raises(ValueError, match="read-only"):
        pf.qi_mc([ind0(), bad], pm1, 1.0, 2000, StreamConfig(seed=1))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corpus_calls_hold_one_entry_at_a_time(pm1, pm1_model, monkeypatch):
    # each entry's arrays are reduced and freed before the next entry's are
    # built, so one full chunk of a corpus costs little more memory than its
    # largest one-entry call: 1.0x for qi and 1.1x for the pairs here, where
    # building every entry's arrays before reducing them costs 1.7-2x.  The qi
    # corpus is the suite's, whose times lie on a grid of three; shared
    # coordinates at a wider union of times cost their own share on top
    monkeypatch.setenv("PATHFORM_THREADS", "1")
    n, cfg = DEFAULT_CHUNK, StreamConfig(seed=26)
    corpus, pairs = lattice_corpus(1.0), _mixed_pairs()
    largest = max(_traced_peak(lambda: pf.qi_mc([F], pm1, 1.0, n, cfg)) for F in corpus)
    assert _traced_peak(lambda: pf.qi_mc(corpus, pm1, 1.0, n, cfg)) <= 1.5 * largest
    largest = max(_traced_peak(lambda: pf.pairing_mc([p], pm1_model, 1.0, n, cfg))
                  for p in pairs)
    assert _traced_peak(lambda: pf.pairing_mc(pairs, pm1_model, 1.0, n, cfg)) <= 1.5 * largest


# -- reproducibility of the chunked engine ---------------------------------------------------

def test_estimates_bit_identical_across_runs(pm1):
    a = pf.energy_mc(ind0(), pm1, 1.0, 70_000, StreamConfig(seed=19))
    b = pf.energy_mc(ind0(), pm1, 1.0, 70_000, StreamConfig(seed=19))
    assert a == b


def test_estimates_independent_of_worker_count(pm1, monkeypatch):
    monkeypatch.setenv("PATHFORM_THREADS", "1")
    a = pf.energy_mc(ind0(), pm1, 1.0, 150_000, StreamConfig(seed=20))
    monkeypatch.setenv("PATHFORM_THREADS", "4")
    b = pf.energy_mc(ind0(), pm1, 1.0, 150_000, StreamConfig(seed=20))
    assert a == b


def test_reducer_stable_under_large_offset():
    # the sum-of-squares formula cancels to stderr 0.0 on this input
    n, cfg = 200_000, StreamConfig(seed=22)

    def chunk(rng, size):
        return [1e6 + rng.normal(0.0, 1e-3, size), np.full(size, 0.7)]

    noisy, const = _run_chunked(n, cfg, chunk)
    values = np.concatenate([chunk(cfg.chunk_rng(i), size)[0] for i, size
                             in enumerate(_chunk_sizes(n, DEFAULT_CHUNK))])
    ref = values.std(ddof=1) / math.sqrt(n)
    assert abs(noisy.stderr - ref) <= 0.01 * ref
    assert abs(noisy.mean - values.mean()) <= 1e-9
    assert (const.mean, const.stderr, const.n) == (0.7, 0.0, n)


def test_rank_counts_condition_on_inserted_mark(pm1):
    counts = pf.pi_k_rank_counts(pm1, 1.0, 1.0, 20_000, StreamConfig(seed=21),
                                 max_count=4)
    # j = 1 means the inserted jump is the only mark-1 jump: rank always 1
    assert counts[1][0] > 0
    total = sum(c.sum() for c in counts.values())
    assert total <= 20_000
