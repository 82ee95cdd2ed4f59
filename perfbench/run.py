#!/usr/bin/env python3
"""pathform benchmark: one workload, end-to-end (untraced) or per-layer (traced).

    python3 perfbench/run.py --workload mc_lattice [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; pathform is imported from `src/`.  Workloads
are in workloads.py and README.md.  A run is one closed loop: the process
runs the workload's suites back to back (one pass), first a cold pass, then
warm passes until `--seconds` have been spent (at least two warm passes).

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
interpreters), cold_s (first pass; on workloads with short passes the median
over those interpreters and this process), warm_s (median over warm passes),
paths_per_s and peak_rss_mb, plus the per-suite warm times and
rows_failed_frac.
--trace 1 alternates traced and untraced warm passes and prints the
per-layer metrics (medians over traced passes) and the tracing overhead; its
spans go to perfbench/out/.

Every pass is checked: every row must pass, each suite's report JSON must be
bit-identical to the run's first pass, and the dump workload's path lines are
validated.  The last line of standard output is one JSON object with
correct, attempted (check rows), failed (failed rows) and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
MIN_WARM = 2          # untraced warm passes per run, at least
MIN_TRACED = 2        # traced and untraced warm passes per traced run, at least

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
                    "paths_per_s": "1/s", "peak_rss_mb": "MB"}


# -- environment ------------------------------------------------------------

def pin_environment(workload: Workload) -> Dict[str, str]:
    """Worker and BLAS thread counts, set before numpy loads.  BLAS is pinned
    to one thread; Monte Carlo workers never exceed the usable CPUs."""
    nproc = len(os.sched_getaffinity(0))
    pins = {"PATHFORM_THREADS": str(min(workload.threads, nproc)),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
    os.environ.update(pins)
    return pins


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "n/a (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(pins: Dict[str, str]) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "commit": git_commit(), "env": pins}


# -- set-up -------------------------------------------------------------------

def setup_probe(config: dict, cold_suites=()) -> dict:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(config)]
    if cold_suites:
        cmd.append(",".join(cold_suites))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(probe["file"]).resolve().parent != SRC / "pathform":
        raise RuntimeError(f"probe imported pathform from {probe['file']}, not {SRC}")
    return probe


def import_pathform():
    sys.path.insert(0, str(SRC))
    import pathform
    from pathform import harness

    if Path(pathform.__file__).resolve().parent != SRC / "pathform":
        raise RuntimeError(f"imported pathform from {pathform.__file__}, not {SRC}")
    return harness


# -- passes and output checks -----------------------------------------------

@dataclass
class Pass:
    wall: float
    suite_s: Dict[str, float]
    reports: Dict[str, Optional[object]]
    traced: bool = False


def run_pass(harness, cfg, suites) -> Pass:
    """One request: the workload's suites, back to back.  A suite that
    raises is recorded as None and counted as a failed row."""
    reports, suite_s = {}, {}
    start = time.perf_counter()
    for suite in suites:
        t0 = time.perf_counter()
        try:
            reports[suite] = harness.run_suite(suite, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            reports[suite] = None
        suite_s[suite] = time.perf_counter() - t0
    return Pass(time.perf_counter() - start, suite_s, reports)


def dump_problems(report, cfg) -> list:
    """Independent checks of the dumped JSON lines."""
    blob = report.artifacts.get("paths_jsonl", "")
    problems = []
    if hashlib.sha256(blob.encode()).hexdigest() != report.artifacts.get("paths_sha256"):
        problems.append("paths_sha256 does not match the dumped lines")
    lines = blob.splitlines()
    params = cfg.suite_params("sample")
    if len(lines) != params["n_paths"]:
        problems.append(f"{len(lines)} lines for {params['n_paths']} paths")
    scale = 2.0 ** params["project"]
    for i, line in enumerate(lines):
        obj = json.loads(line)
        times = [t for t, _ in obj["jumps"]]
        marks = [m for _, ms in obj["jumps"] for m in ms]
        if obj["T"] != cfg.T or obj["d"] != 1:
            problems.append(f"line {i}: wrong horizon or dimension")
        elif any(not 0.0 < t <= cfg.T for t in times) or any(
                b <= a for a, b in zip(times, times[1:])):
            problems.append(f"line {i}: jump times not increasing in (0, T]")
        elif any(m == 0.0 or m * scale != int(m * scale) for m in marks):
            problems.append(f"line {i}: mark zero or off the level-{params['project']} lattice")
        if len(problems) > 5:
            break
    return problems


def summarize(report) -> dict:
    """The same per-suite summary `setup_probe.py` prints for its cold pass."""
    return {"sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
            "rows": len(report.rows),
            "failed": sum(not r.passed for r in report.rows)}


class Checker:
    """Counts check rows; a failed row, a raised suite, a report that differs
    from the run's first pass, or a failed output check counts as failed."""

    def __init__(self, workload: Workload, cfg):
        self.workload = workload
        self.cfg = cfg
        self.first: Dict[str, str] = {}   # suite -> sha256 of its first report
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, p: Pass, what: str) -> None:
        """Checks a pass's reports, then drops them: reports kept for the
        whole run would count toward peak_rss_mb."""
        for suite, report in p.reports.items():
            got = None if report is None else summarize(report)
            if got is not None and suite not in self.first:
                self.first[suite] = got["sha256"]
                got["problems"] = self._first_report_problems(suite, report)
            self.record(suite, got, what)
        p.reports = None

    def _first_report_problems(self, suite: str, report) -> list:
        problems = []
        if len(report.rows) < self.workload.min_rows.get(suite, 1):
            problems.append(f"{len(report.rows)} rows, expected at least "
                            f"{self.workload.min_rows[suite]}")
        if suite == "sample":
            problems += dump_problems(report, self.cfg)
        return problems

    def record(self, suite: str, got: Optional[dict], what: str) -> None:
        """One suite's result: a summary, or None when the suite raised."""
        if got is None:
            self.problems.append(f"{what}: {suite} raised")
            self.attempted += 1
            self.failed += 1
            return
        rows, bad = got["rows"], got["failed"]
        if bad:
            self.problems.append(f"{what}: {suite}: {bad} failed rows")
        voids = list(got.get("problems", ()))   # problems that void the whole report
        if got["sha256"] != self.first.get(suite):
            voids.append("report differs from the first pass")
        if voids:
            self.problems += [f"{what}: {suite}: {v}" for v in voids]
            rows = bad = max(rows, 1)
        self.attempted += rows
        self.failed += bad

    def digest(self) -> str:
        h = hashlib.sha256()
        for suite in self.workload.suites:
            h.update(self.first.get(suite, "<missing>").encode())
        return h.hexdigest()


# -- runs -----------------------------------------------------------------------

def window(seconds: float, make_pass, want_more):
    """Cold pass, then warm passes while the next one is predicted (as the
    longer of the last two) to end inside the window, or while `want_more`
    still asks for one."""
    passes = [make_pass(0)]
    end = time.perf_counter() - passes[0].wall + seconds
    while want_more(passes) or (
            time.perf_counter() + max(p.wall for p in passes[-2:]) <= end):
        passes.append(make_pass(len(passes)))
    return passes


def untraced_run(args, workload, harness, cfg, checker):
    def make_pass(i):
        p = run_pass(harness, cfg, workload.suites)
        checker.check(p, f"pass {i}")
        return p

    return window(args.seconds, make_pass, lambda ps: len(ps) - 1 < MIN_WARM)


def traced_run(args, workload, harness, cfg, checker, pins):
    from tracer import Tracer

    tracer = Tracer()

    def make_pass(i):
        if i % 2 == 1:
            tracer.install()
            try:
                p = tracer.request(lambda: run_pass(harness, cfg, workload.suites))
            finally:
                tracer.uninstall()
            p.traced = True
        else:
            p = run_pass(harness, cfg, workload.suites)
        checker.check(p, f"{'traced ' if p.traced else ''}pass {i}")
        return p

    def want_more(ps):
        traced = sum(p.traced for p in ps)
        return traced < MIN_TRACED or len(ps) - 1 - traced < MIN_TRACED

    passes = window(args.seconds, make_pass, want_more)
    if int(pins["PATHFORM_THREADS"]) > 1:
        # results must not depend on the worker count
        os.environ["PATHFORM_THREADS"] = "1"
        try:
            checker.check(run_pass(harness, cfg, workload.suites), "1-worker pass")
        finally:
            os.environ["PATHFORM_THREADS"] = pins["PATHFORM_THREADS"]
    return passes, tracer


def trace_path(workload: str, seed: int, tiny: bool) -> Path:
    return OUT / f"trace-{workload}-seed{seed}{'-tiny' if tiny else ''}.json"


def paths_label(workload: Workload) -> str:
    return "paths dumped" if workload.suites == ("sample",) else "sample paths"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (smoke.py); not a benchmark workload")
    args = parser.parse_args(argv)

    if not (SRC / "pathform" / "__init__.py").is_file():
        print(f"error: no pathform sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pins = pin_environment(workload)
    config = workload.build(args.seed, args.tiny)

    cold_suites = workload.suites if workload.probe_cold and not args.trace else ()
    probes = [setup_probe(config, cold_suites) for _ in range(SETUP_PROBES)]
    harness = import_pathform()
    cfg = harness.config_from_dict(config)
    env = environment(pins)
    checker = Checker(workload, cfg)

    print(f"pathform benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" (tiny smoke-test sizes)" if args.tiny else ""))
    print(f"  why: {workload.why}")
    print(f"  exercises: {workload.exercises}; bypasses: {workload.bypasses}")
    print(f"  loop: closed, one process, suites {', '.join(workload.suites)} back to back")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "env")
          + " " + " ".join(f"{k}={v}" for k, v in pins.items()))

    def line(name, value, unit, note=""):
        print(f"  {name:<36} {value:>16.6g} {unit:<14} {note}")

    if args.trace == 0:
        passes = untraced_run(args, workload, harness, cfg, checker)
        warm = passes[1:]
        colds = [passes[0].wall]
        for i, probe in enumerate(probes):
            if "suites" in probe:
                for suite, got in probe["suites"].items():
                    checker.record(suite, got, f"probe {i} cold pass")
                colds.append(probe["cold_s"])
        warm_s = statistics.median(p.wall for p in warm)
        metrics = {
            "setup_s": statistics.median(p["import_s"] + p["config_s"] for p in probes),
            "cold_s": statistics.median(colds),
            "warm_s": warm_s,
            "paths_per_s": workload.paths(config) / warm_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {
            "setup_s": f"median of {len(probes)} fresh interpreters",
            "cold_s": (f"median first pass of {len(colds)} processes" if len(colds) > 1
                       else "first pass in the process"),
            "warm_s": f"median of {len(warm)} warm passes "
                      f"(min {min(p.wall for p in warm):.4g}, max {max(p.wall for p in warm):.4g})",
            "paths_per_s": f"{workload.paths(config)} {paths_label(workload)} per pass",
            "peak_rss_mb": "ru_maxrss of the benchmark process",
        }
        print("end-to-end:")
        for name, value in metrics.items():
            line(name, value, END_TO_END_UNITS[name], notes[name])
        for suite in workload.timed_suites:
            line(f"suite_s.{suite}", statistics.median(p.suite_s[suite] for p in warm),
                 "s", "median over warm passes")
        out_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in metrics.items()}
    else:
        from tracer import LAYER_METRICS, median_metrics

        passes, tracer = traced_run(args, workload, harness, cfg, checker, pins)
        traced = [p for p in passes if p.traced]
        untraced_warm = [p for p in passes[1:] if not p.traced]
        layer = median_metrics(tracer.requests)
        layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layer["setup.config_s"] = statistics.median(p["config_s"] for p in probes)
        traced_warm = statistics.median(p.wall for p in traced)
        plain_warm = statistics.median(p.wall for p in untraced_warm)
        layer["trace.overhead_s"] = traced_warm - plain_warm
        print(f"per-layer (medians over {len(traced)} traced passes):")
        for name, unit in LAYER_METRICS.items():
            line(name, layer[name], unit)
        print(f"  tracing overhead: traced warm {traced_warm:.4g} s - untraced warm "
              f"{plain_warm:.4g} s = {layer['trace.overhead_s']:.4g} s "
              f"({len(traced)} traced, {len(untraced_warm)} untraced passes)")
        OUT.mkdir(exist_ok=True)
        trace_file = trace_path(workload.name, args.seed, args.tiny)
        tracer.write(trace_file, {"workload": workload.name, "seed": args.seed,
                                  "environment": env})
        print(f"  spans: {sum(len(r) for r in tracer.requests)} in "
              f"{len(tracer.requests)} requests, written to {trace_file.relative_to(ROOT)}")
        out_metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_METRICS.items()}

    frac = checker.failed / checker.attempted
    print(f"  {'rows_failed_frac':<36} {frac:>16.6g} {'ratio':<14} "
          f"{checker.failed} of {checker.attempted} check rows")
    print(f"  report digest (sha256 over suites): {checker.digest()}")
    for problem in checker.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
