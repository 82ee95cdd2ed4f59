"""At run time pathform loads scipy.special and no other part of scipy:
scipy.stats, scipy.signal and scipy.integrate took most of `import pathform`.
A fresh interpreter catches lazy imports inside suites as well as top-level
ones."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import pathform, pathform.cli
cfg = pathform.default_config(samples=2000, params={
    "generator": {"rank_samples": 2000}, "semigroup": {"quad_step": 0.01}})
rows = {suite: len(pathform.run_suite(suite, cfg).rows)
        for suite in ("semigroup", "lsi", "generator")}
heavy = sorted(m for m in sys.modules
               if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "signal"],
                                       ["scipy", "integrate"]))
print(json.dumps({"rows": rows, "heavy": heavy}))
"""


def test_runtime_scipy_is_special_only():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    out = json.loads(done.stdout.splitlines()[-1])
    assert all(out["rows"].values())
    assert out["heavy"] == []
