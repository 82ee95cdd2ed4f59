"""The benchmark's workloads: fixed pathform run configurations built from a seed.

A workload is one closed loop: a single process runs its suites back to back
(one pass), then the next pass, with no think time.  Each workload pins its
Monte Carlo worker count and records why it was chosen and which layers it
exercises or bypasses; README.md has the same table with measured sizes.

This module imports nothing heavy, so that `run.py` can pin the thread
environment before numpy is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

DEFAULT_SEED = 20260809   # pathform's own config default
CONFIRM_SEED = 8101       # a second seed, for confirming a claim on a seed not tuned against

SAMPLES = 1_000_000       # pathform's default sample count
RANK_SAMPLES = 100_000    # generator suite default (pi_rank histogram)
COUPLING_SAMPLES = 100_000  # coupling suite default

# exact_lattice runs poincare and qi on this corpus: a 4-time and a 3-time
# product indicator, a clipped coordinate and a one-time indicator.
EXACT_CORPUS = [
    {"family": "product_indicator", "times": [0.5, 1.0, 1.5, 2.0],
     "values": [0.0, 0.0, 0.0, 0.0]},
    {"family": "product_indicator", "times": [2.0 / 3.0, 4.0 / 3.0, 2.0],
     "values": [1.0, 0.0, 1.0]},
    {"family": "coordinate", "time": 2.0, "lo": -3.0, "hi": 3.0},
    {"family": "indicator_at", "time": 1.0, "value": 1.0},
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    suites: Tuple[str, ...]
    threads: int
    # seed, tiny -> pathform config dict (tiny: sizes for the smoke test only)
    build: Callable[[int, bool], dict]
    # config dict -> sample paths the suites are configured to evaluate in one
    # pass (the stated input size behind paths_per_s)
    paths: Callable[[dict], int]
    # suites whose warm time is printed as suite_s.<name>
    timed_suites: Tuple[str, ...]
    # fewest check rows each suite must report at this commit
    min_rows: Dict[str, int] = field(default_factory=dict)
    # the set-up probes also run one cold pass each, for a median cold_s:
    # where a pass takes a few seconds or less, so that one cold sample is
    # too noisy and three more are cheap
    probe_cold: bool = False


def _params(cfg: dict, suite: str, key: str, default):
    return cfg.get("params", {}).get(suite, {}).get(key, default)


def _mc_lattice(seed: int, tiny: bool) -> dict:
    cfg = {"measure": {"builtin": "uniform_pm1"}, "seed": seed}
    if tiny:
        cfg["samples"] = 3000
        cfg["params"] = {"generator": {"rank_samples": 3000}}
    return cfg


def _mc_continuous(seed: int, tiny: bool) -> dict:
    cfg = {"measure": {"builtin": "gauss_shifted(0.5,1)"}, "seed": seed}
    if tiny:
        cfg["samples"] = 3000
        cfg["params"] = {"coupling": {"samples": 3000}}
    return cfg


def _exact_lattice(seed: int, tiny: bool) -> dict:
    cfg = {
        "measure": {"type": "discrete", "dimension": 1,
                    "atoms": [[[-1.0], 0.3], [[1.0], 0.5], [[2.0], 0.2]]},
        "T": 2.0, "samples": 20_000, "seed": seed,
        "params": {"poincare": {"corpus": EXACT_CORPUS},
                   "qi": {"corpus": EXACT_CORPUS}},
    }
    if tiny:
        cfg["samples"] = 3000
        cfg["params"]["semigroup"] = {"quad_step": 0.01}
    return cfg


def _dump(seed: int, tiny: bool) -> dict:
    return {"measure": {"builtin": "gauss_shifted(0.5,1)"}, "T": 4.0,
            "seed": seed,
            "params": {"sample": {"n_paths": 300 if tiny else 20_000,
                                  "project": 4}}}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mc_lattice",
        why="default config (uniform_pm1, T=1, 1e6 samples), qi then generator, "
            "1 worker: Monte Carlo sampling and functional evaluation carry the load",
        exercises="sampler (sample_path_batch, rng.choice marks), functional "
                  "(apply_rows, generator values, chunk reduction), oracle only "
                  "through the small qi_exact rows",
        bypasses="path (no JumpPath per sample), thread pool (1 worker)",
        suites=("qi", "generator"),
        threads=1,
        build=_mc_lattice,
        # qi: 7 lattice-corpus functionals; generator: 3 pairings + rank histogram
        paths=lambda c: (7 + 3) * c.get("samples", SAMPLES)
        + _params(c, "generator", "rank_samples", RANK_SAMPLES),
        timed_suites=("qi", "generator"),
        min_rows={"qi": 21, "generator": 8},
    ),
    Workload(
        name="mc_continuous",
        why="gauss_shifted(0.5,1), T=1, 1e6 samples, qi then coupling, 2 workers: "
            "callable mark sampler, lattice projections, threaded chunk map",
        exercises="sampler with a callable mark sampler, project/projection_gap, "
                  "the ThreadPoolExecutor chunk map, coupling's inline reduction",
        bypasses="oracle (continuous marks have no lattice model), path",
        suites=("qi", "coupling"),
        threads=2,
        build=_mc_continuous,
        # qi: 3 continuous-corpus functionals; coupling: one sample set
        paths=lambda c: 3 * c.get("samples", SAMPLES)
        + _params(c, "coupling", "samples", COUPLING_SAMPLES),
        timed_suites=("qi", "coupling"),
        min_rows={"qi": 3, "coupling": 7},
        probe_cold=True,
    ),
    Workload(
        name="exact_lattice",
        why="atoms {-1:.3, 1:.5, 2:.2}, T=2, 20k samples, poincare and qi on a "
            "4-time corpus, then semigroup, smalltime, lsi: the exact oracle carries the load",
        exercises="oracle (dict convolutions, IncrementGrid, _energy_on_grid, "
                  "count_weighted_pmf, Simpson quadrature, poisson.pmf)",
        bypasses="most sampling (80k paths in qi_mc only), path, thread pool",
        suites=("poincare", "qi", "semigroup", "smalltime", "lsi"),
        threads=1,
        build=_exact_lattice,
        paths=lambda c: len(EXACT_CORPUS) * c["samples"],
        timed_suites=("poincare", "qi", "semigroup"),
        min_rows={"poincare": 10, "qi": 12, "semigroup": 3, "smalltime": 7,
                  "lsi": 12},
    ),
    Workload(
        name="dump",
        why="sample suite, gauss_shifted(0.5,1), T=4, 20000 paths projected to "
            "level 4: the only workload on JumpPath and the per-path engine",
        exercises="path (JumpPath construction, to_json), sample_path, "
                  "project_path, per-path validation",
        bypasses="PathBatch engine, functional, oracle, thread pool",
        suites=("sample",),
        threads=1,
        build=_dump,
        paths=lambda c: c["params"]["sample"]["n_paths"],
        timed_suites=("sample",),
        min_rows={"sample": 1},
        probe_cold=True,
    ),
)}
