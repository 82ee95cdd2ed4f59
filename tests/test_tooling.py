"""The demos and the benchmark's tracer run against the package as it is, so
a renamed or removed public name fails here rather than in a demo run or a
benchmark run."""

import importlib.util
import runpy
from pathlib import Path

import pytest

import pathform as pf
from pathform import functional, sampler

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
