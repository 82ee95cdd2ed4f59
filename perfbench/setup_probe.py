"""Set-up time in a fresh interpreter: `import pathform`, then a validated
RunConfig.  Every CLI call pays this before any suite runs.

    python3 perfbench/setup_probe.py <src dir> <config json> [<suite,suite,...>]

With suites given, the probe then runs them once (a cold pass) and reports
that pass's time and, per suite, the report's sha256, row count and failed
rows (null when the suite raised).  Prints one JSON object.
"""

import hashlib
import json
import sys
import time
import traceback

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pathform  # noqa: E402
from pathform.harness import config_from_dict, run_suite  # noqa: E402

t1 = time.perf_counter()
cfg = config_from_dict(json.loads(sys.argv[2]))
t2 = time.perf_counter()
out = {"import_s": t1 - t0, "config_s": t2 - t1, "file": pathform.__file__}

if len(sys.argv) > 3:
    reports = {}
    start = time.perf_counter()
    for suite in sys.argv[3].split(","):
        try:
            reports[suite] = run_suite(suite, cfg)
        except Exception:
            traceback.print_exc()
            reports[suite] = None
    out["cold_s"] = time.perf_counter() - start
    out["suites"] = {
        suite: None if r is None else {
            "sha256": hashlib.sha256(r.to_json().encode()).hexdigest(),
            "rows": len(r.rows), "failed": sum(not row.passed for row in r.rows)}
        for suite, r in reports.items()}

print(json.dumps(out))
