"""Mutants: a wrong formula patched in must fail a suite row.

Each entry names a defect, the name it is patched at (where `functional`
looks it up: it imports `sample_shifted_batch` by name, so patching
`sampler` would change nothing it calls), the suite and config that must
notice it, and a row that must fail.  The same configs run unpatched pass
every row, so a failure is the defect's doing.  The qi and generator rows
share one sample set per chunk across their functionals; these entries show
the sharing does not blind them.
"""

import numpy as np
import pytest

from pathform import functional
from pathform.harness import default_config, run_suite
from pathform.sampler import ShiftedBatch

_shifted = functional.sample_shifted_batch
_generator = functional._generator_values_batch


def _mark_always_plus_one(measure, horizon, rng, size):
    sb = _shifted(measure, horizon, rng, size)
    return ShiftedBatch(sb.base, sb.tau, np.ones_like(sb.xi))


def _time_skewed(measure, horizon, rng, size):
    # T * U^1.05 in place of a uniform shift time
    sb = _shifted(measure, horizon, rng, size)
    return ShiftedBatch(sb.base, horizon * (sb.tau / horizon) ** 1.05, sb.xi)


def _generator_without_1_over_T(F, batch, model, horizon, base_coords, vb):
    return _generator(F, batch, model, horizon, base_coords, vb) * horizon


# qi at the default config (1e6 samples, T = 1)
QI = {}
# the generator at T = 2, where a lost factor of T shows, with 20,000 samples
# (fewer than the default 1e6)
GENERATOR_T2 = {"T": 2.0, "samples": 20_000,
                "params": {"generator": {"rank_samples": 20_000}}}

# must_fail lists rows seen failing at these configs' pinned streams; the
# skewed time also fails qi_mc[ind1_half], at 1.1x its threshold
MUTANTS = [
    ("shift_mark_always_plus_1", "sample_shifted_batch", _mark_always_plus_one,
     "qi", QI, ["qi_mc[ind1_half]", "qi_mc[clip2_end]", "qi_mc[monotone3]"]),
    ("shift_time_T_U^1.05", "sample_shifted_batch", _time_skewed,
     "qi", QI, ["qi_mc[flat_tail]", "qi_mc[monotone3]"]),
    ("generator_without_1_over_T", "_generator_values_batch",
     _generator_without_1_over_T, "generator", GENERATOR_T2,
     ["pairing[ind0_end|ind1_half]", "pairing[flat_tail|flat_tail]"]),
]


def _failed_rows(suite, overrides):
    report = run_suite(suite, default_config(**overrides))
    return {row.name for row in report.rows if not row.passed}


@pytest.mark.parametrize("suite, overrides", [("qi", QI), ("generator", GENERATOR_T2)],
                         ids=["qi", "generator_T2"])
def test_unpatched_configs_pass(suite, overrides):
    assert _failed_rows(suite, overrides) == set()


@pytest.mark.parametrize("defect, target, mutant, suite, overrides, must_fail", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutant_fails_a_row(monkeypatch, defect, target, mutant, suite, overrides,
                            must_fail):
    monkeypatch.setattr(functional, target, mutant)
    failed = _failed_rows(suite, overrides)
    assert set(must_fail) <= failed, f"{defect}: failed rows {sorted(failed)}"
