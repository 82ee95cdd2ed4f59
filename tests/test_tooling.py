"""The demos and the benchmark's tracer run against the package as it is, so
a renamed or removed public name fails here rather than in a demo run or a
benchmark run."""

import importlib.util
import json
import runpy
from pathlib import Path

import pytest

import pathform as pf
from pathform import functional, sampler

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = (sampler.sample_path_batch, functional._run_chunked,
                 pf.IntensityMeasure.validate)
    cfg = pf.default_config(params={"sample": {"n_paths": 5, "project": 2}})

    def suite_and_one_path():
        one = pf.sample_path(pf.uniform_pm1(), 1.0, pf.StreamConfig(seed=3).rng())
        one.to_json()
        return pf.run_suite("sample", cfg)

    t = tracer.Tracer()
    t.install()
    try:
        report = t.request(suite_and_one_path)
        dump_only = t.request(lambda: pf.run_suite("sample", cfg))
    finally:
        t.uninstall()
    assert report.overall_pass and dump_only.overall_pass
    names = {span[2] for span in t.requests[0]}
    assert {"sampler.sample_path_batch", "path.to_json"} <= names
    # the sample suite writes its dump from the batch, without a JumpPath
    assert "path.init" not in {span[2] for span in t.requests[1]}
    assert (sampler.sample_path_batch, functional._run_chunked,
            pf.IntensityMeasure.validate) == originals


def test_exact_checks_evaluate_each_functional_once_per_grid():
    tracer = _load_tracer()
    model = pf.LatticeModel({-1: 0.3, 1: 0.5, 2: 0.2})
    corpus = [pf.product_indicator((0.5, 1.0, 1.5), (0, 0, 1)),
              pf.coordinate(1.5, lo=-3.0, hi=3.0), pf.indicator_at(1.0, 1.0)]

    def poincare_and_qi():
        for F in corpus:
            pf.poincare_check(model, 1.5, F)
            for k in model.pmf:
                pf.qi_check(model, 1.5, F, k)

    t = tracer.Tracer()
    t.install()
    try:
        t.request(poincare_and_qi)
    finally:
        t.uninstall()
    names = [span[2] for span in t.requests[0]]
    assert names.count("oracle.grid_build") == len(corpus) * (1 + len(model.pmf))
    assert names.count("functional.apply_rows") == names.count("oracle.grid_build")


def test_pairing_reads_base_coordinates_once_per_functional():
    # one chunk: the generator values reuse the coordinates and values the
    # shifted pairs computed, and every functional reads its columns of one
    # coords_at at the union of their times; a pair (F, F) evaluates its
    # generator once
    tracer = _load_tracer()
    model = pf.LatticeModel({-1: 0.5, 1: 0.5})
    F, G = pf.product_indicator((0.5, 1.0), (0, 0)), pf.coordinate(1.0)
    t = tracer.Tracer()
    t.install()
    try:
        t.request(lambda: pf.pairing_mc([(F, G), (G, G)], model, 1.0, 1000,
                                        pf.StreamConfig(seed=5)))
    finally:
        t.uninstall()
    names = [span[2] for span in t.requests[0]]
    assert names.count("functional.chunk") == 1
    assert names.count("sampler.sample_path_batch") == 1
    assert names.count("functional.generator_values") == 3
    assert names.count("sampler.coords_at") == 1


def test_tracer_sees_the_convolution_engine():
    # a cold table is built by the dense engine under transition_pmf; a cached
    # one reaches no traced layer, which is how the tracer counts misses
    tracer = _load_tracer()
    model = pf.LatticeModel({-1: 0.3, 1: 0.5, 2: 0.2})
    t = tracer.Tracer()
    t.install()
    try:
        t.request(lambda: pf.transition_pmf(model, 1.5))
        t.request(lambda: pf.transition_pmf(model, 1.5))
    finally:
        t.uninstall()
    cold, warm = t.requests
    by_id = {span[0]: span for span in cold}
    (table,) = [span for span in cold if span[2] == "oracle.transition_pmf"]
    below = {span[2] for span in cold if span[1] == table[0]}
    assert "oracle.dense_basis" in below
    powers = [span for span in cold if span[2] == "oracle.power"]
    assert powers and all(by_id[span[1]][2] == "oracle.dense_basis" for span in powers)
    (table,) = [span for span in warm if span[2] == "oracle.transition_pmf"]
    assert not [span for span in warm if span[1] == table[0]]


def test_a_failing_property_test_does_not_abort_the_session(pytester):
    # reporting a failing @given test makes hypothesis import modules that
    # warn; under the project's warning filters the session must go on
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        f"[tool.pytest.ini_options]\nfilterwarnings = {json.dumps(filters)}\n")
    pytester.makepyfile(
        test_a="from hypothesis import given, strategies as st\n\n\n"
               "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n",
        test_b="def test_runs():\n    pass\n")
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
