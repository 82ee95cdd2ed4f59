"""Spans around pathform's layers, installed from outside the package.

`Tracer.install()` replaces module-level functions and class methods of
`pathform` with wrappers that record a span (name, start, end, parent) and
optional counts.  A function is replaced under every name any pathform
module binds it to, so a name one module imported from another (for example
`pathform.functional.sample_path_batch` or `pathform.oracle._apply_rows`) is
traced too.  `uninstall()` puts the originals back, so untraced passes in the
same process run the unmodified code.  Nothing under `src/` is edited.

Spans are kept in memory, one list per request (one pass of a workload's
suites), and written out when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover; chunks that run on
pool threads are children of the `_map_chunks` call that started them, so
overlapping children are merged before subtracting.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (span id, parent id, name, start, end, counts or None); parent 0 is none
Span = tuple


def _path_batch_counts(args, result):
    return {"paths": result.size, "jumps": len(result.times)}


def _path_counts(args, result):
    return {"paths": 1, "jumps": result.n_jumps}


def _rows_counts(args, result):
    return {"rows": args[1].shape[0]}


def _json_counts(args, result):
    return {"bytes": len(result)}


def _grid_counts(args, result):
    grid = args[0]
    # computed from array sizes, not measured
    return {"points": len(grid.weights),
            "bytes": grid.weights.nbytes + grid.coords.nbytes}


def _suite_counts(args, result):
    return {"rows": len(result.rows),
            "rows_failed": sum(not r.passed for r in result.rows),
            "suite": args[0]}


def _simpson_counts(args, result):
    return {"nodes": len(args[0])}


class _PmfProxy:
    """Stands in for `scipy.stats.poisson` inside pathform.oracle; only
    `pmf` is traced, every other attribute is the distribution's own."""

    def __init__(self, dist, pmf):
        self._dist = dist
        self.pmf = pmf

    def __getattr__(self, name):
        return getattr(self._dist, name)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: Optional[List[Span]] = None
        self._patches = []
        self.requests: List[List[Span]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Callable = None) -> Callable:
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            result = None
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                counts = count(args, result) if (ok and count) else None
                self._spans.append((sid, parent, name, t0, t1, counts))

        traced.__wrapped__ = fn
        return traced

    def request(self, run: Callable):
        """Run one request (a pass) under a root span; returns its result."""
        self._spans = []
        self._local.stack = []
        try:
            return self.wrap("pass", run)()
        finally:
            self.requests.append(self._spans)
            self._spans = None

    def _map_chunks(self, original: Callable, worker_count: Callable) -> Callable:
        """`_map_chunks(fn, n)` with each chunk recorded as a child span,
        on whichever thread runs it."""
        def map_chunks(fn, n_chunks):
            parent = self._stack()[-1]
            chunk = self.wrap("functional.chunk", fn)

            def timed_chunk(i):
                saved = getattr(self._local, "stack", None)
                self._local.stack = [parent]
                try:
                    return chunk(i)
                finally:
                    self._local.stack = saved

            return original(timed_chunk, n_chunks)

        def counts(args, result):
            workers = worker_count()
            n = args[1]
            return {"chunks": n,
                    "workers": 1 if workers <= 1 or n <= 1 else min(workers, n)}

        return self.wrap("functional.map_chunks", map_chunks, counts)

    # -- installing ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "pathform" or modname.startswith("pathform.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, name, count=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def install(self) -> None:
        from pathform import functional, harness, oracle, sampler
        from pathform.intensity import IntensityMeasure
        from pathform.oracle import IncrementGrid, LatticeModel
        from pathform.path import JumpPath
        from pathform.sampler import PathBatch, ShiftedBatch

        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = [
            (sampler.sample_path_batch, "sampler.sample_path_batch", _path_batch_counts),
            (sampler.sample_shifted_batch, "sampler.sample_shifted_batch", None),
            (sampler.sample_path, "sampler.sample_path", _path_counts),
            (sampler.project_path, "sampler.project_path", None),
            (functional._apply_rows, "functional.apply_rows", _rows_counts),
            (functional._generator_values_batch, "functional.generator_values", None),
            # the ordered merges; sampling and evaluation run in the child chunk map
            (functional._run_chunked, "functional.reduce", None),
            (functional.pi_k_rank_counts, "functional.reduce", None),
            (oracle.transition_pmf, "oracle.transition_pmf", None),
            (oracle.count_weighted_pmf, "oracle.count_weighted_pmf", None),
            (oracle._energy_on_grid, "oracle.grid_eval", None),
            (oracle.expect_with_count, "oracle.grid_eval", None),
            (oracle.qi_check, "oracle.grid_eval", None),
            (oracle.poincare_check, "oracle.grid_eval", None),
            (oracle.semigroup_gap, "oracle.semigroup_gap", None),
            (oracle.poisson_count_stats, "oracle.count_stats", None),
            (oracle.simpson, "oracle.simpson", _simpson_counts),
            (harness.run_suite, "harness.run_suite", _suite_counts),
        ]
        for original, name, count in functions:
            self._replace_everywhere(original, self.wrap(name, original, count))
        self._replace_everywhere(
            functional._map_chunks,
            self._map_chunks(functional._map_chunks, functional.worker_count))

        self._patches.append((oracle, "poisson", oracle.poisson))
        oracle.poisson = _PmfProxy(oracle.poisson,
                                   self.wrap("oracle.poisson_pmf", oracle.poisson.pmf))

        methods = [
            (IntensityMeasure, "validate", "intensity.validate", None),
            (IntensityMeasure, "sample_batch", "intensity.sample_batch", None),
            (PathBatch, "coords_at", "sampler.coords_at", None),
            (PathBatch, "project", "sampler.project", None),
            (PathBatch, "projection_gap", "sampler.project", None),
            (ShiftedBatch, "shifted_coords", "sampler.shifted_coords", None),
            (JumpPath, "__init__", "path.init", None),
            (JumpPath, "to_json", "path.to_json", _json_counts),
            (LatticeModel, "_power", "oracle.power", None),
            (LatticeModel, "_dense_basis", "oracle.dense_basis", None),
            (IncrementGrid, "__init__", "oracle.grid_build", _grid_counts),
            (IncrementGrid, "expect", "oracle.grid_eval", None),
        ]
        for cls, attr, name, count in methods:
            self._replace_method(cls, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """All requests' spans as JSON, times relative to each request's start."""
        requests = []
        for index, spans in enumerate(self.requests):
            start = min(s[3] for s in spans)
            requests.append({"request": index, "spans": [
                [sid, parent, name, t0 - start, t1 - start, counts]
                for sid, parent, name, t0, t1, counts in spans]})
        with open(path, "w") as fh:
            json.dump({"meta": meta, "span_fields": ["id", "parent", "name",
                                                     "start_s", "end_s", "counts"],
                       "requests": requests}, fh)


# -- analysis ---------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (t1 - t0) - covered
    return out


def span_violations(spans: List[Span]) -> List[str]:
    """Spans whose self time is negative or exceeds their parent's duration."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    bad = []
    for sid, parent, name, t0, t1, _ in spans:
        own = selfs[sid]
        if own < -1e-9:
            bad.append(f"{name}#{sid}: self time {own} < 0")
        if parent and parent in by_id:
            p = by_id[parent]
            if own > (p[4] - p[3]) + 1e-9:
                bad.append(f"{name}#{sid}: self time {own} > parent {p[2]} duration")
            if t0 < p[3] - 1e-9 or t1 > p[4] + 1e-9:
                bad.append(f"{name}#{sid}: outside parent {p[2]}")
    return bad


# metric name -> unit; the per-layer metrics, in report order
LAYER_METRICS = {
    "intensity.validate.calls": "count",
    "intensity.validate.self_s": "s",
    "intensity.sample_batch.self_s": "s",
    "sampler.sample_path_batch.self_s": "s",
    "sampler.sample_path_batch.calls": "count",
    "sampler.paths": "count",
    "sampler.jumps": "count",
    "sampler.sample_shifted_batch.self_s": "s",
    "sampler.coords_at.self_s": "s",
    "sampler.shifted_coords.self_s": "s",
    "sampler.project.self_s": "s",
    "sampler.sample_path.self_s": "s",
    "sampler.project_path.self_s": "s",
    "sampler.qi_share": "ratio",
    "path.init.calls": "count",
    "path.init.self_s": "s",
    "path.to_json.self_s": "s",
    "path.bytes_out": "bytes",
    "functional.apply_rows.self_s": "s",
    "functional.apply_rows.rows": "count",
    "functional.generator_values.self_s": "s",
    "functional.reduce.self_s": "s",
    "functional.chunks": "count",
    "functional.map_chunks.wall_s": "s",
    "functional.map_chunks.busy_s": "s",
    "functional.parallel_eff": "ratio",
    "oracle.transition_pmf.self_s": "s",
    "oracle.transition_pmf.calls": "count",
    "oracle.transition_pmf.misses": "count",
    "oracle.power.self_s": "s",
    "oracle.count_weighted_pmf.self_s": "s",
    "oracle.grid_build.self_s": "s",
    "oracle.grid_points": "count",
    "oracle.grid_bytes": "bytes_computed",
    "oracle.grid_eval.self_s": "s",
    "oracle.semigroup_gap.self_s": "s",
    "oracle.dense_basis.self_s": "s",
    "oracle.poisson_pmf.calls": "count",
    "oracle.poisson_pmf.self_s": "s",
    "oracle.quad_nodes": "count",
    "oracle.count_stats.self_s": "s",
    "harness.run_suite.self_s": "s",
    "harness.rows": "count",
    "harness.rows_failed": "count",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.overhead_s": "s",
}


def request_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer totals of one request (everything but setup.* and trace.*)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    dur = defaultdict(float)
    counts = defaultdict(float)
    children = defaultdict(list)
    for sid, parent, name, t0, t1, cnt in spans:
        calls[name] += 1
        own[name] += selfs[sid]
        dur[name] += t1 - t0
        children[parent].append(sid)
        for key, value in (cnt or {}).items():
            if key != "suite":
                counts[f"{name}.{key}"] += value
    worker_wall = sum((t1 - t0) * cnt["workers"] for _, _, name, t0, t1, cnt in spans
                      if name == "functional.map_chunks")
    # a transition table served from the cache reaches no traced layer below it
    misses = sum(1 for sid, _, name, *_ in spans
                 if name == "oracle.transition_pmf" and children.get(sid))

    # sampler.* self time inside the qi suite, over all self time inside it:
    # on one worker that total is the qi suite's duration, on several it
    # also counts the time chunks ran side by side
    by_id = {s[0]: s for s in spans}
    qi_time = qi_sampler = 0.0
    for sid, _, name, t0, t1, cnt in spans:
        if name == "harness.run_suite" and cnt and cnt["suite"] == "qi":
            todo = [sid]
            while todo:
                cid = todo.pop()
                qi_time += selfs[cid]
                if by_id[cid][2].startswith("sampler."):
                    qi_sampler += selfs[cid]
                todo.extend(children.get(cid, ()))

    m = {
        "intensity.validate.calls": calls["intensity.validate"],
        "sampler.sample_path_batch.calls": calls["sampler.sample_path_batch"],
        "sampler.paths": counts["sampler.sample_path_batch.paths"]
        + counts["sampler.sample_path.paths"],
        "sampler.jumps": counts["sampler.sample_path_batch.jumps"]
        + counts["sampler.sample_path.jumps"],
        "sampler.qi_share": qi_sampler / qi_time if qi_time else 0.0,
        "path.init.calls": calls["path.init"],
        "path.bytes_out": counts["path.to_json.bytes"],
        "functional.apply_rows.rows": counts["functional.apply_rows.rows"],
        "functional.chunks": counts["functional.map_chunks.chunks"],
        "functional.map_chunks.wall_s": dur["functional.map_chunks"],
        "functional.map_chunks.busy_s": dur["functional.chunk"],
        "functional.parallel_eff": (dur["functional.chunk"] / worker_wall
                                    if worker_wall else 0.0),
        "oracle.transition_pmf.calls": calls["oracle.transition_pmf"],
        "oracle.transition_pmf.misses": misses,
        "oracle.grid_points": counts["oracle.grid_build.points"],
        "oracle.grid_bytes": counts["oracle.grid_build.bytes"],
        "oracle.poisson_pmf.calls": calls["oracle.poisson_pmf"],
        "oracle.quad_nodes": counts["oracle.simpson.nodes"],
        "harness.rows": counts["harness.run_suite.rows"],
        "harness.rows_failed": counts["harness.run_suite.rows_failed"],
    }
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s") and not metric.startswith("setup."):
            m[metric] = own[metric[:-len(".self_s")]]
    return m


def median_metrics(requests: List[List[Span]]) -> Dict[str, float]:
    per = [request_metrics(spans) for spans in requests]
    return {k: statistics.median(p[k] for p in per) for k in per[0]}
