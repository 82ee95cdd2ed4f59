#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload, runs `run.py --tiny` untraced and traced and checks that
the run is correct, that it reports exactly the metrics BENCHMARK.json names
(each with its unit), that every span's self time is non-negative and no
larger than its parent's duration, and that the traced run drew as many paths
as the workload states.  Traced and untraced passes share one run, whose
checker requires every report to be bit-identical to the first (untraced)
pass.  Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys

from run import ROOT, trace_path
from tracer import span_violations
from workloads import DEFAULT_SEED, WORKLOADS


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            what = f"{name} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, timeout=900, cwd=ROOT)
            if proc.returncode != 0:
                fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{what}: not correct\n{proc.stdout}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                fail(f"{what}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for metric, got in metrics.items():
                if got["unit"] != expected[trace][metric]:
                    fail(f"{what}: {metric} unit {got['unit']!r}")
                if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    fail(f"{what}: {metric} value {got['value']!r}")
            if trace:
                config = workload.build(DEFAULT_SEED, True)
                if metrics["sampler.paths"]["value"] != workload.paths(config):
                    fail(f"{what}: drew {metrics['sampler.paths']['value']} paths, "
                         f"workload states {workload.paths(config)}")
                dump = json.loads(trace_path(name, DEFAULT_SEED, True).read_text())
                for request in dump["requests"]:
                    bad = span_violations([tuple(s) for s in request["spans"]])
                    if bad:
                        fail(f"{what}: request {request['request']}: {bad[:5]}")
            print(f"smoke: ok {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
