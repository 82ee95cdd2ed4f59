"""Acceptance suite: every criterion at its stated size and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Statistical checks use fixed seeds, so the whole module is
deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

import pathform as pf
from pathform import StreamConfig
from pathform.harness import continuous_corpus, lattice_corpus


def _verdict(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_quasi_invariance_exact():
    measure = pf.uniform_pm1()
    model = pf.LatticeModel.from_measure(measure, truncation_tolerance=1e-12)
    started = time.perf_counter()
    worst = 0.0
    checks = 0
    for T in (0.5, 1.0, 2.0):
        corpus = lattice_corpus(T)
        assert len(corpus) >= 6
        assert {len(F.times) for F in corpus} == {1, 2, 3}
        for F in corpus:
            for k in (1, -1):
                lhs, rhs = pf.qi_check(model, T, F, k)
                worst = max(worst, abs(lhs - rhs))
                checks += 1
    elapsed = time.perf_counter() - started
    _verdict(1, worst <= 1e-8 and elapsed < 5.0,
             f"shifted-law identity, {checks} exact checks, worst diff "
             f"{worst:.2e} <= 1e-8, {elapsed:.2f}s < 5s")


def test_criterion_02_quasi_invariance_statistical():
    measure = pf.uniform_interval(1.0, 2.0)
    corpus = continuous_corpus(1.0)
    assert len(corpus) == 3
    started = time.perf_counter()
    worst_z = 0.0
    for comp in pf.qi_mc(corpus, measure, 1.0, 10**6, StreamConfig(seed=9001)):
        assert comp.diff.n == 10**6
        worst_z = max(worst_z, abs(comp.diff.mean) / comp.diff.stderr)
    elapsed = time.perf_counter() - started
    _verdict(2, worst_z <= 4.0 and elapsed < 60.0,
             f"shifted-law band test, 3 functionals at 1e6 samples, worst "
             f"|z| {worst_z:.2f} <= 4, {elapsed:.1f}s < 60s")


def test_criterion_03_poincare_inequality():
    model = pf.LatticeModel.from_measure(pf.uniform_pm1(), 1e-12)
    worst = -math.inf
    rows = 0
    levels = set()
    for T in (0.5, 1.0, 2.0):
        for F in lattice_corpus(T):
            variance, bound = pf.poincare_check(model, T, F)
            worst = max(worst, variance - bound)
            levels.add(len(F.times))
            rows += 1
    _verdict(3, worst <= 1e-10 and levels == {1, 2, 3},
             f"variance <= T*energy row-wise over {rows} checks at coordinate "
             f"levels {sorted(levels)}, worst excess {worst:.2e} <= 1e-10")


def test_criterion_04_poincare_sharpness():
    g = pf.CountFunctional(g=lambda c: c.astype(float))
    worst = 0.0
    for T in (0.5, 1.0, 2.0):
        s = pf.poisson_count_stats(g, T, 80)
        worst = max(worst, abs(s.variance - T), abs(s.energy - 1.0))
    _verdict(4, worst <= 1e-9,
             f"count map attains variance = T, energy = 1; worst deviation "
             f"{worst:.2e} <= 1e-9")


def test_criterion_05_semigroup_identity():
    model = pf.LatticeModel.from_measure(pf.uniform_pm1(), 1e-12)
    cases = [("const", lambda p: np.ones(np.shape(p))),
             ("linear", lambda p: np.asarray(p, dtype=float)),
             ("ind0", lambda p: (np.asarray(p) == 0).astype(float))]
    worst = 0.0
    for _, f in cases:
        lhs, rhs = pf.semigroup_gap(model, f, 1.0, 0, 1e-3)
        worst = max(worst, abs(lhs - rhs))
    _verdict(5, worst <= 1e-6,
             f"semigroup variance identity on 3 cases, worst gap "
             f"{worst:.2e} <= 1e-6 at step 1e-3")


def test_criterion_06_small_time_asymptotics():
    model = pf.LatticeModel.from_measure(pf.uniform_pm1(), 1e-12)
    rows = pf.small_time_table(model, [1, 2], [0.1, 0.01, 0.001])
    rate_ok = all(r.origin_ratio <= 1.0 + 1e-9 for r in rows)
    mono_ok = True
    for point in ((1,), (2,)):
        devs = [abs(r.deviations[point]) for r in rows]
        mono_ok = mono_ok and devs[0] > devs[1] > devs[2]
    _verdict(6, rate_ok and mono_ok,
             "short-time rates: (1-p_s(0))/s <= 1 and first-order deviations "
             "strictly shrink over s in {1e-1, 1e-2, 1e-3}")


def test_criterion_07_generator_identity_and_symmetry():
    model = pf.LatticeModel.from_measure(pf.uniform_pm1(), 1e-12)
    corpus = {F.name: F for F in lattice_corpus(1.0)}
    pairs = [(corpus["ind0_end"], corpus["ind1_half"]),
             (corpus["clip2_end"], corpus["prod00"]),
             (corpus["flat_tail"], corpus["flat_tail"])]
    worst_z = 0.0
    for res in pf.pairing_mc(pairs, model, 1.0, 10**6, StreamConfig(seed=9002)):
        for est in (res.identity_fg, res.identity_gf, res.symmetry):
            if est.stderr > 0:
                worst_z = max(worst_z, abs(est.mean) / est.stderr)
            else:
                worst_z = max(worst_z, 0.0 if est.mean == 0 else math.inf)
    _verdict(7, worst_z <= 4.0,
             f"pairing identity and symmetry over 3 pairs at 1e6 samples, "
             f"worst |z| {worst_z:.2f} <= 4")


def test_criterion_08_conditional_shift_time_uniformity():
    counts = pf.pi_k_rank_counts(pf.uniform_pm1(), 1.0, 1.0, 10**5,
                                 StreamConfig(seed=9003), max_count=4)
    ok = True
    details = []
    for j in (2, 3):
        observed = counts[j]
        expected = observed.sum() / j
        chisq = float(((observed - expected) ** 2 / expected).sum())
        threshold = float(stats.chi2.ppf(1 - 1e-3, j - 1))
        details.append(f"j={j}: chi2 {chisq:.2f} < {threshold:.2f} "
                       f"(n={observed.sum()})")
        ok = ok and chisq < threshold
    _verdict(8, ok, "shift-time rank uniform over same-mark jumps; " + "; ".join(details))


def test_criterion_09_log_sobolev_failure():
    curve = dict(pf.lsi_witness_curve(1.0, range(10, 101, 10)))
    ok = abs(curve[10] - 1.4640) <= 1e-3 and abs(curve[50] - 2.9309) <= 1e-3
    ratios = [curve[m] for m in range(10, 101, 10)]
    ok = ok and all(b > a for a, b in zip(ratios, ratios[1:]))
    exceeded = []
    for c in (5.0, 20.0, 100.0):
        m = pf.lsi_exceed_level(1.0, c)
        exceeded.append(pf.witness_ratio(1.0, m) > c)
    ok = ok and all(exceeded)
    _verdict(9, ok,
             f"entropy/energy ratio {curve[10]:.4f} at m=10, {curve[50]:.4f} "
             f"at m=50, strictly increasing, and exceeds C in {{5, 20, 100}} "
             f"at computable levels")


def test_criterion_10_discretization_coupling():
    measure = pf.uniform_interval(1.0, 2.0)
    cfg = pf.default_config(measure={"builtin": "uniform_interval(1,2)"},
                            seed=9004)
    report = pf.run_suite("coupling", cfg)
    ok = report.overall_pass
    # spot check the path-level operations against the batch bound directly
    rng = StreamConfig(seed=9005).rng()
    for _ in range(200):
        p = pf.sample_path(measure, 1.0, rng)
        for n in range(1, 9):
            if p.sup_distance(pf.project_path(p, n)) > p.count_jumps() * 2.0 ** -n:
                ok = False
    _verdict(10, ok,
             f"projection bound holds for every sampled path at levels 1..8 "
             f"and projected estimates converge monotonically "
             f"({sum(r.passed for r in report.rows)}/{len(report.rows)} rows)")


def test_criterion_11_reproducibility(monkeypatch):
    cfg = pf.default_config(
        samples=20_000, seed=424242,
        params={"generator": {"rank_samples": 20_000},
                "coupling": {"samples": 20_000}})
    ccfg = pf.default_config(
        measure={"builtin": "uniform_interval(1,2)"}, samples=20_000,
        seed=424242, params={"coupling": {"samples": 20_000}})
    ok = True
    for suite in pf.SUITE_NAMES:
        use = ccfg if suite == "coupling" else cfg
        first = pf.run_suite(suite, use).to_json()
        monkeypatch.setenv("PATHFORM_THREADS", "3")
        second = pf.run_suite(suite, use).to_json()
        monkeypatch.delenv("PATHFORM_THREADS")
        ok = ok and first == second
    _verdict(11, ok,
             "all 8 suites rerun bit-identically, independent of worker count")
