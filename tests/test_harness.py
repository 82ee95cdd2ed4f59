import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

import pathform as pf
from pathform import cli, harness
from pathform.errors import ConfigError
from pathform.harness import functional_from_spec
from pathform.sampler import sample_path_batch


def small_cfg(**kw):
    base = dict(samples=20_000,
                params={"generator": {"rank_samples": 20_000},
                        "coupling": {"samples": 20_000}})
    params = kw.pop("params", None)
    if params:
        base["params"].update(params)
    base.update(kw)
    return pf.default_config(**base)


# -- configuration ------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = pf.parse_config('{"measure": {"builtin": "uniform_pm1"}}')
    assert cfg.samples == 1_000_000
    assert cfg.T == 1.0
    assert cfg.tol("sigma") == 4.0


def test_config_round_trips_canonically():
    cfg = pf.parse_config('{"measure": {"builtin": "uniform_pm1"}, "T": 2.0, "seed": 5}')
    again = pf.parse_config(cfg.canonical_json())
    assert again.canonical() == cfg.canonical()
    assert again.digest() == cfg.digest()


# digests computed before the canonical spec was written from the built measure
@pytest.mark.parametrize("spec, digest", [
    ({"dimension": 1, "atoms": [[1, 0.25], [-2, 0.75]]},
     "9bf7a5d0f60d983ff39ee22d8bc817380abcbcd4363498934f2bb66663804539"),
    ({"type": "discrete", "atoms": [[[3], 0.5], [[-1.5], 0.5]]},
     "289dd22a6220bffd8950701406ae60388a90844cf8d07115213fb640022137de"),
    ({"builtin": "gauss_shifted( 0.5, 1 )"},
     "aadc7540cb637e199212ced39d936d5db882dc444107cacb38d910b8cb13e0af"),
], ids=["scalar_points", "type_without_dimension", "builtin_with_spaces"])
def test_config_digest_pinned(spec, digest):
    assert pf.config_from_dict({"measure": spec}).digest() == digest


def test_config_builds_its_measure_once(monkeypatch):
    cfg = pf.config_from_dict({"measure": {"builtin": "gauss_shifted(0.5,1)"},
                               "samples": 2000,
                               "params": {"coupling": {"samples": 2000}}})
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "measure_from_spec", counted(harness.measure_from_spec))
    monkeypatch.setattr(pf.IntensityMeasure, "validate",
                        counted(pf.IntensityMeasure.validate))
    for suite in ("coupling", "sample"):
        assert pf.run_suite(suite, cfg).overall_pass
    assert calls == []
    # built directly, a config builds its measure from the spec on first use
    direct = pf.RunConfig(measure_spec=cfg.measure_spec)
    assert direct.measure() is direct.measure()
    assert calls == ["measure_from_spec", "validate"]
    # the stored measure is left out of equality and repr
    assert direct == pf.RunConfig(measure_spec=cfg.measure_spec)
    assert "_measure" not in repr(direct)


def test_config_builds_its_lattice_model_once(monkeypatch):
    cfg = small_cfg(samples=2000, params={"generator": {"rank_samples": 2000}})
    calls = []
    monkeypatch.setattr(pf.IntensityMeasure, "validate", lambda self: calls.append(self))
    for suite in ("qi", "generator", "semigroup", "smalltime"):
        assert pf.run_suite(suite, cfg).overall_pass
    assert calls == []
    assert cfg.lattice() is cfg.lattice() and cfg.lattice().to_measure().dimension == 1
    assert small_cfg(measure={"builtin": "gauss_shifted(0.5,1)"}).lattice() is None


def test_direct_config_is_checked_and_canonicalized_like_json():
    obj = {"measure": {"builtin": "gauss_shifted( 0.5, 1 )"}, "T": 2,
           "tolerances": {"sigma": 5}}
    direct = pf.RunConfig(measure_spec=obj["measure"], T=2, tolerances={"sigma": 5})
    assert direct == pf.config_from_dict(obj)
    assert direct.digest() == pf.config_from_dict(obj).digest()
    assert direct.T == 2.0 and direct.tol("sigma") == 5.0
    assert direct.tol("truncation") == harness.DEFAULT_TOLERANCES["truncation"]


def test_rule_table_covers_every_settable_value():
    # a field or suite parameter added without a rule fails here
    fields = {f.name for f in dataclasses.fields(pf.RunConfig) if f.init}
    sections = {"measure_spec", "tolerances", "params"}  # checked entry by entry
    assert set(harness._RULES) == (fields - sections) | {
        f"tolerances.{key}" for key in harness.DEFAULT_TOLERANCES} | {
        f"params.{suite}.{key}" for suite, keys in harness.DEFAULT_PARAMS.items()
        for key in keys}
    # every default obeys its rule
    pf.RunConfig(measure_spec={"builtin": "uniform_pm1"},
                 tolerances=dict(harness.DEFAULT_TOLERANCES),
                 params=copy.deepcopy(harness.DEFAULT_PARAMS))


def _setting(path, value):
    """The config object that sets one dotted field path to `value`."""
    *outer, last = path.split(".")
    obj = node = {}
    for key in outer:
        node = node.setdefault(key, {})
    node[last] = value
    return obj


# each is a ConfigError on its own field however the config is made
BROKEN_RULES = [
    ("params.semigroup.z", "ab"), ("params.smalltime.points", "x"),
    ("params.poincare.sharpness_horizons", ["a"]), ("params.semigroup.quad_step", "x"),
    ("params.poincare.count_m_max", "x"), ("params.lsi.ms", ["x"]), ("params.lsi.C", "x"),
    ("params.generator.rank_samples", 1), ("params.lsi.ms", [5]),
    ("params.semigroup.t", -1), ("params.smalltime.s_values", [2.0]),
    ("params.lsi.ms", [0]), ("samples", 1), ("seed", "x"), ("T", -1.0),
    ("tolerances.sigma", -1),
    # a witness curve given out of order fails its increasing row for that alone
    ("params.lsi.ms", [20, 10]),
    ("params.qi.corpus", [{"family": "indicator_at", "time": 3.0, "value": 0.0}]),
    ("params.poincare.corpus", [{"family": "fourier"}]),
    ("params.qi.corpus", [3]), ("params.qi.corpus", [{"family": "capped_count", "cap": 1e400}]),
    ("params.poincare.corpus", [{"family": "product_indicator", "times": [1.0, 0.5],
                                 "values": [0, 0]}]),
    ("params.bogus", {}), ("params.qi.bogus", 1), ("tolerances.bogus", 1.0), ("out", 3),
    # a level past 2**53 is not exact as a float
    ("params.lsi.ms", [10, 2**53 + 1]),
    # builtin arguments must be finite, and so must the draws they give
    ("measure.builtin", "gauss_shifted(0,nan)"), ("measure.builtin", "gauss_shifted(nan,1)"),
    ("measure.builtin", "gauss_shifted(inf,1)"), ("measure.builtin", "gauss_shifted(0,1e308)"),
    ("measure.builtin", "uniform_interval(0,inf)"), ("measure.builtin", "uniform_interval(2,1)"),
]


@pytest.mark.parametrize("path, value", BROKEN_RULES,
                         ids=[f"{path}={json.dumps(value)}" for path, value in BROKEN_RULES])
def test_value_rules_are_config_errors_on_their_field(tmp_path, capsys, path, value):
    obj = {"samples": 2000, **_setting(path, value)}
    with pytest.raises(ConfigError) as err:
        pf.config_from_dict(obj)
    assert [field for field, _ in err.value.fields] == [path]
    direct = {harness._FIELDS[key]: val for key, val in obj.items()}
    with pytest.raises(ConfigError) as err:
        pf.RunConfig(**{"measure_spec": {"builtin": "uniform_pm1"}, **direct})
    assert [field for field, _ in err.value.fields] == [path]
    spec = tmp_path / "cfg.json"
    spec.write_text(json.dumps(obj))
    parts = path.split(".")
    suite = parts[1] if parts[0] == "params" and parts[1] in pf.SUITE_NAMES else "lsi"
    assert cli.main([suite, "--config", str(spec)]) == 2
    assert f"{path}: " in capsys.readouterr().err


# each breaks a need its suite checks when it runs: a ConfigError on its field
BROKEN_NEEDS = [
    ("semigroup", {"params": {"semigroup": {"quad_step": 0.3}}}, "params.semigroup.quad_step"),
    # Poisson(1000) gives level 10 a mass that underflows to 0
    ("lsi", {"T": 1000}, "params.lsi.ms"),
    ("lsi", {"params": {"lsi": {"ms": [10, 200]}}}, "params.lsi.ms"),
    # no default level is >= T + 1, where the witness curve rises
    ("lsi", {"T": 200}, "params.lsi.ms"),
    ("lsi", {"T": 0.1, "params": {"lsi": {"count_m_max": 10, "ms": [50, 100]}}},
     "params.lsi.count_m_max"),
    # the count stats' tail estimate at count_m_max is 2.7e-1 and 5.4e2
    ("lsi", {"T": 300, "params": {"lsi": {"ms": [301, 305], "count_m_max": 310}}},
     "params.lsi.count_m_max"),
    ("poincare", {"params": {"poincare": {"sharpness_horizons": [60.0]}}},
     "params.poincare.count_m_max"),
]


@pytest.mark.parametrize("suite, obj, path", BROKEN_NEEDS,
                         ids=[json.dumps(obj) for _, obj, _ in BROKEN_NEEDS])
def test_needs_are_config_errors_on_their_field(tmp_path, capsys, suite, obj, path):
    with pytest.raises(ConfigError) as err:
        pf.run_suite(suite, pf.config_from_dict({"samples": 2000, **obj}))
    assert [field for field, _ in err.value.fields] == [path]
    spec = tmp_path / "cfg.json"
    spec.write_text(json.dumps({"samples": 2000, **obj}))
    assert cli.main([suite, "--config", str(spec)]) == 2
    assert f"{path}: " in capsys.readouterr().err


@pytest.mark.parametrize("T", [15.0, 20.0, 50.0])
def test_lsi_passes_at_long_horizons(T):
    # the witness curve falls below m = T and rises from m = T + 1 on
    report = pf.run_suite("lsi", pf.default_config(T=T))
    assert report.overall_pass
    assert cli.main(["lsi", "--T", str(T)]) == 0


def test_negative_horizon_rejected():
    with pytest.raises(ConfigError) as err:
        pf.parse_config('{"T": -1}')
    assert any(path == "T" for path, _ in err.value.fields)


def test_origin_atom_rejected():
    with pytest.raises(ConfigError) as err:
        pf.parse_config('{"measure": {"type": "discrete", "atoms": [[[0.0], 1.0]]}}')
    assert any("AtomAtOrigin" in msg for _, msg in err.value.fields)


@pytest.mark.parametrize("field, text", [
    ("T", '{"T": Infinity}'), ("T", '{"T": NaN}'), ("T", '{"T": -Infinity}'),
    ("T", '{"T": 1e400}'), ("T", '{"T": %d}' % 10**400),
    ("tolerances.poincare", '{"tolerances": {"poincare": NaN}}'),
    ("tolerances.sigma", '{"tolerances": {"sigma": Infinity}}'),
])
def test_non_finite_numbers_rejected(tmp_path, field, text):
    with pytest.raises(ConfigError) as err:
        pf.parse_config(text)
    assert [path for path, _ in err.value.fields] == [field]
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert cli.main(["poincare", "--config", str(cfg)]) == 2


def test_all_problems_collected():
    with pytest.raises(ConfigError) as err:
        pf.parse_config('{"T": 0, "samples": 1, "seed": "x", "bogus": 1}')
    paths = {p for p, _ in err.value.fields}
    assert {"T", "samples", "seed", "bogus"} <= paths


def test_invalid_json():
    with pytest.raises(ConfigError):
        pf.parse_config("{nope")


def test_unknown_suite():
    with pytest.raises(ConfigError):
        pf.run_suite("bogus", small_cfg())


def test_lattice_suites_reject_continuous_measure():
    cfg = small_cfg(measure={"builtin": "uniform_interval(1,2)"})
    for suite in ("poincare", "generator", "semigroup", "smalltime"):
        with pytest.raises(ConfigError):
            pf.run_suite(suite, cfg)


D2_MEASURE = {"type": "discrete", "dimension": 2,
              "atoms": [[[1.0, 0.0], 0.5], [[0.0, 1.0], 0.5]]}


@pytest.mark.parametrize("suite", ["qi", "poincare", "generator", "semigroup",
                                   "smalltime", "coupling"])
def test_one_dimensional_suites_refuse_other_dimensions(suite):
    # their functionals, corpus families and parameters are all one-dimensional
    with pytest.raises(ConfigError) as err:
        pf.run_suite(suite, small_cfg(measure=D2_MEASURE))
    assert [field for field, _ in err.value.fields] == ["measure.dimension"]


def test_sample_and_lsi_run_in_two_dimensions(tmp_path, capsys):
    cfg = small_cfg(measure=D2_MEASURE, params={"sample": {"n_paths": 4}})
    for suite in ("sample", "lsi"):
        assert pf.run_suite(suite, cfg).overall_pass
    spec = tmp_path / "d2.json"
    spec.write_text(json.dumps({"measure": D2_MEASURE}))
    assert cli.main(["smalltime", "--config", str(spec)]) == 2
    assert "measure.dimension" in capsys.readouterr().err


NAN_MASS = {"type": "discrete", "atoms": [[[1.0], float("nan")], [[-1.0], 1.0]]}


def test_invalid_measure_is_refused_not_rerouted(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        pf.config_from_dict({"measure": NAN_MASS})
    assert [field for field, _ in err.value.fields] == ["measure.atoms"]
    # built past config_from_dict, the measure is still refused, never read
    # as "not a lattice" and sent to the Monte Carlo corpus
    with pytest.raises(ConfigError):
        pf.run_suite("qi", pf.RunConfig(measure_spec=NAN_MASS, samples=1000))
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps({"measure": NAN_MASS, "samples": 1000}))
    assert cli.main(["qi", "--config", str(spec)]) == 2
    assert "measure.atoms" in capsys.readouterr().err


RAGGED = {"type": "discrete", "atoms": [[[1, 0], 0.5], [[1], 0.5]]}


def test_ragged_atoms_are_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        pf.config_from_dict({"measure": RAGGED})
    assert [field for field, _ in err.value.fields] == ["measure.atoms"]
    spec = tmp_path / "ragged.json"
    spec.write_text(json.dumps({"measure": RAGGED}))
    assert cli.main(["sample", "--config", str(spec)]) == 2
    assert "measure.atoms" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["ab", [float("nan")], [1.0, None], [True]],
                         ids=["string", "nan", "null", "bool"])
def test_qi_ks_must_be_a_list_of_finite_numbers(ks):
    with pytest.raises(ConfigError) as err:
        small_cfg(params={"qi": {"ks": ks}})
    assert [field for field, _ in err.value.fields] == ["params.qi.ks"]


def test_qi_ks_off_the_lattice_is_a_config_error(tmp_path, capsys):
    cfg = small_cfg(params={"qi": {"ks": [0.5]}})
    with pytest.raises(ConfigError) as err:
        pf.run_suite("qi", cfg)
    assert [field for field, _ in err.value.fields] == ["params.qi.ks"]
    spec = tmp_path / "ks.json"
    spec.write_text(json.dumps({"samples": 2000, "params": {"qi": {"ks": [0.5]}}}))
    assert cli.main(["qi", "--config", str(spec)]) == 2
    assert "params.qi.ks" in capsys.readouterr().err


def test_qi_falls_back_to_monte_carlo_only_off_the_lattice():
    half = {"type": "discrete", "atoms": [[[0.5], 0.5], [[-0.5], 0.5]]}
    rep = pf.run_suite("qi", small_cfg(measure=half))
    assert rep.rows and all(r.name.startswith("qi_mc[") for r in rep.rows)
    cfg = small_cfg()
    assert harness._lattice_model(cfg, pf.uniform_interval(1.0, 2.0)) is None


def test_functional_family_specs():
    F = functional_from_spec({"family": "indicator_at", "time": 1.0, "value": 0.0}, 1.0)
    assert F.times == (1.0,)
    G = functional_from_spec({"family": "coordinate", "time": 0.5, "lo": -1, "hi": 1}, 1.0)
    assert G.bound == 1.0
    H = functional_from_spec({"family": "product_indicator",
                              "times": [0.5, 1.0], "values": [0, 0]}, 1.0)
    assert H.times == (0.5, 1.0)
    C = functional_from_spec({"family": "capped_count", "cap": 3}, 1.0)
    assert C.g(10) == 3.0
    with pytest.raises(ConfigError):
        functional_from_spec({"family": "fourier"}, 1.0)


@pytest.mark.parametrize("spec", [
    {"family": "indicator_at", "time": float("nan"), "value": 0.0},
    {"family": "coordinate", "time": float("-inf")},
    {"family": "product_indicator", "times": [0.5, float("nan")], "values": [0, 0]},
])
def test_functional_spec_rejects_non_finite_times(spec):
    with pytest.raises(ConfigError) as err:
        functional_from_spec(spec, 1.0)
    (field, msg), = err.value.fields
    assert field == "corpus"
    assert ("times" if "times" in spec else "time") in msg and "finite" in msg


def test_cli_non_finite_corpus_time_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"samples": 1000, "params": {"qi": {"corpus": '
                   '[{"family": "indicator_at", "time": NaN, "value": 0.0}]}}}')
    assert cli.main(["qi", "--config", str(cfg)]) == 2
    assert "corpus" in capsys.readouterr().err


# -- reports ---------------------------------------------------------------------------

def test_sample_suite_determinism():
    cfg = small_cfg(seed=7, params={"sample": {"n_paths": 3}})
    a = pf.run_suite("sample", cfg)
    b = pf.run_suite("sample", cfg)
    lines = a.artifacts["paths_jsonl"].strip().split("\n")
    assert len(lines) == 3
    assert a.artifacts["paths_jsonl"] == b.artifacts["paths_jsonl"]
    for line in lines:
        pf.JumpPath.from_json(line)  # valid dump format
    with pytest.raises(ConfigError):
        pf.run_suite("sample", small_cfg(params={"sample": {"n_paths": -1}}))


@pytest.mark.parametrize("key, value", [
    ("n_paths", 2.5), ("n_paths", True), ("n_paths", "x"),
    ("project", 2.7), ("project", True), ("project", "2"),
    ("project", 2000), ("project", -2000),
])
def test_sample_suite_rejects_bad_params(tmp_path, key, value):
    with pytest.raises(ConfigError) as exc:
        pf.run_suite("sample", small_cfg(params={"sample": {key: value}}))
    assert [path for path, _ in exc.value.fields] == [f"params.sample.{key}"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"params": {"sample": {key: value}}}))
    assert cli.main(["sample", "--config", str(cfg)]) == 2


def test_projected_dump_matches_project_path():
    def dump(level):
        cfg = small_cfg(seed=8, T=3.0, measure={"builtin": "gauss_shifted(0.5,1)"},
                        params={"sample": {"n_paths": 50, "project": level}})
        return pf.run_suite("sample", cfg).artifacts["paths_jsonl"].splitlines()

    expected = [pf.project_path(pf.JumpPath.from_json(line), 1).to_json()
                for line in dump(None)]
    assert dump(1) == expected


def test_dump_at_top_level_keeps_marks_finite():
    cfg = small_cfg(seed=8, T=4.0, measure={"builtin": "gauss_shifted(0.5,1)"},
                    params={"sample": {"n_paths": 50, "project": 1023}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pf.run_suite("sample", cfg)
    batch = sample_path_batch(cfg.measure(), cfg.T, cfg.stream(0).rng(), 50)
    assert (np.abs(batch.marks) >= 2.0).any()  # 2**1023 * x overflows there
    projected = batch.project(1023)
    assert np.isfinite(projected.marks).all()
    assert np.array_equal(projected.marks, batch.marks)
    assert report.artifacts["paths_jsonl"].splitlines() == [
        projected.path(i).to_json() for i in range(50)]


def test_generator_chi2_thresholds_bit_equal_to_scipy_stats():
    for k in range(1, 200):
        for p in (0.999, 0.95):
            assert 2.0 * special.gammaincinv(k / 2, p) == stats.chi2.ppf(p, k)
    cfg = small_cfg(samples=2000, params={
        "generator": {"rank_samples": 2000, "rank_counts": [2, 3, 5]}})
    rows = [row for row in pf.run_suite("generator", cfg).rows
            if row.name.startswith("pi_rank_uniform")]
    assert [row.threshold for row in rows] == [
        stats.chi2.ppf(1.0 - 1e-3, j - 1) for j in (2, 3, 5)]


@pytest.mark.parametrize("pi_mark", [0.5, 2, "x"], ids=["off_lattice", "no_atom", "string"])
def test_generator_pi_mark_must_be_an_atom(tmp_path, capsys, pi_mark):
    params = {"generator": {"pi_mark": pi_mark, "rank_samples": 2000}}
    with pytest.raises(ConfigError) as err:
        pf.run_suite("generator", small_cfg(samples=2000, params=params))
    assert [field for field, _ in err.value.fields] == ["params.generator.pi_mark"]
    spec = tmp_path / "pi_mark.json"
    spec.write_text(json.dumps({"samples": 2000, "params": params}))
    assert cli.main(["generator", "--config", str(spec)]) == 2
    assert "params.generator.pi_mark" in capsys.readouterr().err


@pytest.mark.parametrize("rank_counts", [[1], [], [2.0], [True, 3], 3])
def test_generator_rank_counts_must_be_integers_at_least_two(rank_counts):
    with pytest.raises(ConfigError) as err:
        small_cfg(params={"generator": {"rank_counts": rank_counts}})
    assert [field for field, _ in err.value.fields] == ["params.generator.rank_counts"]


def test_generator_rank_row_without_observations_fails():
    # 50 draws at T = 1 almost never hold a path with six +1 jumps
    cfg = small_cfg(samples=2000, params={
        "generator": {"rank_counts": [2, 6], "rank_samples": 50}})
    report = pf.run_suite("generator", cfg)
    rows = {row.name: row for row in report.rows}
    assert rows["pi_rank_uniform[j=2]"].passed
    empty = rows["pi_rank_uniform[j=6]"]
    assert math.isnan(empty.lhs) and not empty.passed
    # report.json stays strict JSON: the missing statistic is written as null
    strict = json.loads(report.to_json(), parse_constant=_refuse_constant)
    row, = [r for r in strict["rows"] if r["name"] == "pi_rank_uniform[j=6]"]
    assert row["lhs"] is None and row["pass"] is False


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("key, value", [
    ("levels", [3]), ("levels", []), ("levels", [1, 2.5]), ("levels", "ab"),
    ("levels", [8, 1]),  # limit_bias would read the coarsest level, not the finest
    ("samples", 1), ("samples", 2.5), ("samples", True),
])
def test_coupling_params_are_config_errors(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError) as err:
        small_cfg(params={"coupling": {key: value}})
    assert [field for field, _ in err.value.fields] == [f"params.coupling.{key}"]
    spec = tmp_path / "coupling.json"
    spec.write_text(json.dumps({"samples": 2000, "params": {"coupling": {key: value}}}))
    assert cli.main(["coupling", "--config", str(spec)]) == 2
    assert f"params.coupling.{key}" in capsys.readouterr().err


def test_report_files(tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg(out=str(out), params={"sample": {"n_paths": 2}})
    report = pf.run_suite("sample", cfg)
    data = json.loads((out / "report.json").read_text())
    assert data["overall_pass"] is True
    assert data["provenance"]["config_digest"] == cfg.digest()
    csv_lines = (out / "rows.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1 + len(report.rows)
    dumped = (out / "paths.jsonl").read_text()
    assert dumped == report.artifacts["paths_jsonl"]


def test_row_verdict_is_diff_within_threshold():
    row = pf.CheckRow(name="r", kind="exact", anchor="", lhs=0.0, rhs=0.0, diff=0.0,
                      threshold=0.0)
    assert row.passed and row.to_json_obj()["pass"] is True
    assert not dataclasses.replace(row, diff=math.nan).passed
    assert not dataclasses.replace(row, threshold=math.nan).passed


def test_smalltime_rows_pass_at_an_unreachable_point():
    # p_s(100)/s underflows to 0.0 at every s, so each deviation is exactly 0.0
    report = pf.run_suite("smalltime", small_cfg(params={"smalltime": {"points": [100]}}))
    assert report.overall_pass


def test_reports_bit_identical_across_reruns():
    cfg = small_cfg(seed=99)
    for suite in ("qi", "lsi", "smalltime"):
        assert pf.run_suite(suite, cfg).to_json() == pf.run_suite(suite, cfg).to_json()


def test_reports_independent_of_worker_count(monkeypatch):
    cfg = small_cfg(seed=101)
    monkeypatch.setenv("PATHFORM_THREADS", "1")
    a = pf.run_suite("qi", cfg)
    monkeypatch.setenv("PATHFORM_THREADS", "3")
    b = pf.run_suite("qi", cfg)
    assert a.to_json() == b.to_json()


def test_statistical_rows_are_labelled():
    rep = pf.run_suite("qi", small_cfg())
    assert rep.overall_pass
    kinds = {r.kind for r in rep.rows}
    assert "exact" in kinds and "statistical" in kinds
    for row in rep.rows:
        assert row.anchor


def test_config_supplied_corpus():
    cfg = small_cfg(params={"qi": {"corpus": [
        {"family": "indicator_at", "time": 1.0, "value": 0.0},
        {"family": "coordinate", "time": 0.5, "lo": -2, "hi": 2},
        {"family": "product_indicator", "times": [0.5, 1.0], "values": [0, 0]},
        {"family": "capped_count", "cap": 5},
    ]}})
    rep = pf.run_suite("qi", cfg)
    assert rep.overall_pass
    # 3 cylindrical functionals x 2 marks exactly, 4 statistical rows
    assert sum(r.kind == "exact" for r in rep.rows) == 6
    assert sum(r.kind == "statistical" for r in rep.rows) == 4
    with pytest.raises(ConfigError):
        bad = small_cfg(params={"qi": {"corpus": [
            {"family": "indicator_at", "time": 3.0, "value": 0.0}]}})
        pf.run_suite("qi", bad)


# -- CLI ---------------------------------------------------------------------------------

def test_cli_pass_exit_code(tmp_path, capsys):
    code = cli.main(["lsi", "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_sample_stdout(capsys):
    code = cli.main(["sample", "--n", "3", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3
    again = cli.main(["sample", "--n", "3", "--seed", "7"])
    assert capsys.readouterr().out.strip().split("\n") == out


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"T": -2}')
    assert cli.main(["qi", "--config", str(bad)]) == 2


def test_cli_failing_row_exit_code(tmp_path):
    # an absurdly tight exact tolerance forces a pass=false report, exit 1
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({
        "measure": {"builtin": "uniform_pm1"},
        "samples": 5000,
        "tolerances": {"exact_qi": 1e-300}}))
    assert cli.main(["qi", "--config", str(cfg)]) == 1


def test_cli_domain_error_exit_code(tmp_path, capsys):
    # a 5-time product indicator at T=5 needs a grid far over the budget
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({
        "measure": {"type": "discrete", "dimension": 1,
                    "atoms": [[[-1.0], 0.3], [[1.0], 0.5], [[2.0], 0.2]]},
        "T": 5.0,
        "params": {"poincare": {"corpus": [
            {"family": "product_indicator", "times": [1, 2, 3, 4, 5],
             "values": [0, 0, 0, 0, 0]}]}}}))
    assert cli.main(["poincare", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: GridTooLarge: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_sample_refuses_marks_without_a_finite_projection(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text('{"type": "discrete", "atoms": [[[-1.5e308], 0.5], [[1.0], 0.5]]}')
    code = cli.main(["sample", "--measure", str(spec), "--n", "20", "--seed", "3",
                     "--project", "-1023"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "Infinity" not in out
    assert err.startswith("error: UnsupportedMeasure: ")


def test_cli_sample_overrides_respect_the_config_shape(tmp_path, capsys):
    null_params = tmp_path / "null.json"
    null_params.write_text('{"params": null}')
    assert cli.main(["sample", "--config", str(null_params), "--n", "2"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 2
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"params": {"sample": 3}}')
    assert cli.main(["sample", "--config", str(scalar), "--n", "2",
                     "--project", "1"]) == 2
    err = capsys.readouterr().err
    assert "params.sample: must be an object" in err and "Traceback" not in err
    listed = tmp_path / "list.json"
    listed.write_text('{"params": [1]}')
    assert cli.main(["sample", "--config", str(listed), "--n", "2"]) == 2
    assert "params: must be an object" in capsys.readouterr().err


def test_cli_measure_file(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text('{"type": "discrete", "atoms": [[[2.0], 1.0]]}')
    code = cli.main(["sample", "--measure", str(spec), "--n", "2", "--seed", "3"])
    assert code == 0
    for line in capsys.readouterr().out.strip().split("\n"):
        path = pf.JumpPath.from_json(line)
        assert all(m == 2.0 for m in path.marks.ravel())


def test_cli_sample_projection(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text('{"builtin": "uniform_interval(1,2)"}')
    code = cli.main(["sample", "--measure", str(spec), "--n", "20",
                     "--seed", "3", "--T", "2", "--project", "2"])
    assert code == 0
    for line in capsys.readouterr().out.strip().split("\n"):
        path = pf.JumpPath.from_json(line)
        assert path.horizon == 2.0
        assert np.all(path.marks * 4 == np.round(path.marks * 4))
