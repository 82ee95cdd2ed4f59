"""Command-line entry point.

    pathform <suite> --config <file> [--seed N] [--samples N] [--out DIR]

Suites: qi, poincare, generator, semigroup, smalltime, lsi, coupling,
sample.  Exit code 0 when every check row passes, 1 when any row fails, 2 on
a configuration error: a field or suite parameter that breaks its rule
(`lsi.ms: [5]`, `gauss_shifted(0,nan)`), or a need the suite checks when it
runs (a measure it can run on, a `semigroup.quad_step` that cuts `t` evenly,
`lsi` levels <= `count_m_max`, of Poisson(T) mass >= 1e-300, two >= T + 1).
3 when a suite raises any other domain error (a refused oracle request, an
unprojectable mark, ...).  The `sample` suite additionally accepts --measure
(a measure-spec JSON file), --n and --project, and prints path dumps as JSON
lines when no output directory is given.  PATHFORM_THREADS caps the worker
count without affecting results.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, PathformError
from .harness import SUITE_NAMES, config_from_dict, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathform",
        description="verification suites for the path-space shift calculus")
    sub = parser.add_subparsers(dest="suite", required=True)
    for name in SUITE_NAMES:
        p = sub.add_parser(name, help=f"run the {name} suite")
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--samples", type=int, help="override the sample count")
        p.add_argument("--T", type=float, dest="horizon",
                       help="override the time horizon")
        p.add_argument("--out", help="directory for report.json and rows.csv")
        if name == "sample":
            p.add_argument("--measure", help="measure-spec JSON file")
            p.add_argument("--n", type=int, help="number of paths to dump")
            p.add_argument("--project", type=int,
                           help="dyadic projection level for the dumped paths")
    return parser


def _load_config(args) -> "RunConfig":
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ConfigError([("", "configuration must be a JSON object")])
    else:
        obj = {"measure": {"builtin": "uniform_pm1"}}
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.samples is not None:
        obj["samples"] = args.samples
    if args.horizon is not None:
        obj["T"] = args.horizon
    if args.out is not None:
        obj["out"] = args.out
    if args.suite == "sample":
        if args.measure:
            with open(args.measure) as fh:
                obj["measure"] = json.load(fh)
        # params that are not objects are left for config_from_dict to report
        params = obj["params"] = obj.get("params") or {}
        sample = params.setdefault("sample", {}) if isinstance(params, dict) else None
        if isinstance(sample, dict):
            for key, value in (("n_paths", args.n), ("project", args.project)):
                if value is not None:
                    sample[key] = value
    return config_from_dict(obj)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = run_suite(args.suite, cfg)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PathformError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.suite == "sample" and not cfg.out:
        sys.stdout.write(report.artifacts.get("paths_jsonl", ""))
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        print(f"[{status}] {report.suite}/{row.name}: diff={row.diff:.3e} "
              f"threshold={row.threshold:.3e} ({row.kind})", file=sys.stderr)
    verdict = "PASS" if report.overall_pass else "FAIL"
    print(f"{report.suite}: {verdict} ({len(report.rows)} checks, "
          f"seed={cfg.seed}, digest={cfg.digest()[:12]})", file=sys.stderr)
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
