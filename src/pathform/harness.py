"""Run configuration, verification suites, and machine-readable reports.

A suite is a list of named check rows.  Exact rows compare two
deterministic pipelines at an absolute tolerance; statistical rows compare
Monte Carlo estimates inside a sigma band and are marked as such so a rare
seed-dependent miss is distinguishable from a genuine failure.  Reports are
bit-stable: rerunning a suite with the same configuration reproduces the
same rows regardless of worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.special import gammaincinv

from . import __version__
from .errors import ConfigError, UnsupportedMeasure
from .functional import (
    CountFunctional,
    CylindricalFunctional,
    _run_chunked,
    capped_count,
    coordinate,
    evaluate_batch,
    indicator_at,
    pairing_mc,
    pi_k_rank_counts,
    product_indicator,
    qi_mc,
)
from .intensity import IntensityMeasure, measure_from_spec
from .oracle import (
    LatticeModel,
    lsi_exceed_level,
    lsi_witness_curve,
    poincare_check,
    poisson,
    poisson_count_stats,
    qi_check,
    semigroup_gap,
    small_time_table,
)
from .path import paths_to_jsonl
from .sampler import StreamConfig, sample_path_batch

SUITE_NAMES = ("qi", "poincare", "generator", "semigroup", "smalltime",
               "lsi", "coupling", "sample")

DEFAULT_TOLERANCES = {
    "sigma": 4.0,
    "exact_qi": 1e-8,
    "poincare": 1e-10,
    "sharpness": 1e-9,
    "semigroup": 1e-6,
    "smalltime": 1e-9,
    "lsi_cross": 1e-9,
    "chi2_significance": 1e-3,
    "truncation": 1e-12,
}

DEFAULT_PARAMS: Dict[str, dict] = {
    "qi": {"ks": [1.0, -1.0], "corpus": None},
    "poincare": {"sharpness_horizons": [0.5, 1.0, 2.0], "count_m_max": 80,
                 "corpus": None},
    "generator": {"pi_mark": 1.0, "rank_counts": [2, 3], "rank_samples": 100000},
    "semigroup": {"t": 1.0, "quad_step": 0.001, "z": 0},
    "smalltime": {"s_values": [0.1, 0.01, 0.001], "points": [1, 2]},
    "lsi": {"ms": list(range(10, 101, 10)), "C": 10.0, "count_m_max": 400},
    "coupling": {"levels": list(range(1, 9)), "samples": 100000},
    "sample": {"n_paths": 3, "project": None},
}

ANCHORS = {
    "qi_exact": "shifted law density: E F(X + k 1_[tau,T]) = E[F(X) N^(k)] / (T nu(k))",
    "qi_stat": "shifted law density: E F(shifted) = E[F(X) N_T] / T",
    "poincare": "variance(F) <= T * energy(F)",
    "sharpness": "count map attains variance = T * energy exactly",
    "generator": "quadratic form pairs with the generator: E(F,G) + int G LF dmu = 0",
    "symmetry": "generator symmetry: int G LF dmu = int F LG dmu",
    "pi_rank": "shift time is uniform over same-mark jump times",
    "semigroup": "semigroup variance equals the integrated square field",
    "smalltime": "short-time transition law matches first-order jump rates",
    "lsi": "entropy/energy ratio of count indicators grows without bound",
    "coupling": "lattice projection: sup gap <= N_T sqrt(d) 2^-n; estimates converge",
    "sample": "seeded path dumps are reproducible",
}


# -- configuration -------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Canonicalized run configuration for every suite."""

    measure_spec: dict
    T: float = 1.0
    seed: int = 20260809
    samples: int = 1_000_000
    tolerances: dict = None
    params: dict = None
    out: Optional[str] = None

    def __post_init__(self):
        if self.tolerances is None:
            object.__setattr__(self, "tolerances", dict(DEFAULT_TOLERANCES))
        if self.params is None:
            object.__setattr__(self, "params", {})

    def canonical(self) -> dict:
        params = {name: dict(sorted(self.suite_params(name).items()))
                  for name in SUITE_NAMES}
        return {
            "measure": self.measure_spec,
            "T": self.T,
            "seed": self.seed,
            "samples": self.samples,
            "tolerances": dict(sorted(self.tolerances.items())),
            "params": params,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def tol(self, key: str) -> float:
        return float(self.tolerances[key])

    def suite_params(self, suite: str) -> dict:
        merged = dict(DEFAULT_PARAMS[suite])
        merged.update((self.params or {}).get(suite, {}))
        return merged

    def measure(self) -> IntensityMeasure:
        return measure_from_spec(self.measure_spec)

    def stream(self, index: int = 0) -> StreamConfig:
        return StreamConfig(seed=self.seed, stream_index=index)


def _canonical_measure_spec(spec, problems: list) -> dict:
    if not isinstance(spec, dict):
        problems.append(("measure", "must be an object"))
        return {"builtin": "uniform_pm1"}
    if "builtin" in spec:
        return {"builtin": str(spec["builtin"]).replace(" ", "")}
    out = {"type": spec.get("type", "discrete"),
           "dimension": spec.get("dimension", 1)}
    if "atoms" in spec:
        try:
            out["atoms"] = [[list(np.atleast_1d(np.asarray(p, dtype=float)).tolist()),
                             float(m)] for p, m in spec["atoms"]]
        except (TypeError, ValueError):
            problems.append(("measure.atoms", "expected [[point, mass], ...]"))
    return out


def _positive_finite(val) -> bool:
    """A JSON number (not a bool) in (0, inf) as a float; NaN fails."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return 0 < float(val) < math.inf
    except OverflowError:  # an int past the float range
        return False


def config_from_dict(obj: dict) -> RunConfig:
    """Validate and canonicalize; collects every invalid field before raising."""
    problems: List[Tuple[str, str]] = []
    if not isinstance(obj, dict):
        raise ConfigError([("", "configuration must be a JSON object")])
    known = {"measure", "T", "seed", "samples", "tolerances", "params", "out"}
    for key in obj:
        if key not in known:
            problems.append((key, "unknown field"))

    measure_spec = _canonical_measure_spec(obj.get("measure", {"builtin": "uniform_pm1"}),
                                           problems)
    try:
        measure_from_spec(measure_spec)
    except ConfigError as exc:
        problems.extend(exc.fields)

    T = obj.get("T", 1.0)
    if not _positive_finite(T):
        problems.append(("T", f"must be a finite positive number, got {T!r}"))
    seed = obj.get("seed", 20260809)
    if not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(("seed", "must be an integer"))
    samples = obj.get("samples", 1_000_000)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        problems.append(("samples", "must be an integer >= 2"))

    tolerances = dict(DEFAULT_TOLERANCES)
    for key, val in (obj.get("tolerances") or {}).items():
        if key not in DEFAULT_TOLERANCES:
            problems.append((f"tolerances.{key}", "unknown tolerance"))
        elif not _positive_finite(val):
            problems.append((f"tolerances.{key}",
                             f"must be a finite positive number, got {val!r}"))
        else:
            tolerances[key] = float(val)

    params = obj.get("params") or {}
    if not isinstance(params, dict):
        problems.append(("params", "must be an object"))
        params = {}
    else:
        for suite, extra in params.items():
            if suite not in DEFAULT_PARAMS:
                problems.append((f"params.{suite}", "unknown suite"))
            elif not isinstance(extra, dict):
                problems.append((f"params.{suite}", "must be an object"))
            else:
                for key in extra:
                    if key not in DEFAULT_PARAMS[suite]:
                        problems.append((f"params.{suite}.{key}", "unknown parameter"))

    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        problems.append(("out", "must be a string path"))

    if problems:
        raise ConfigError(problems)
    return RunConfig(measure_spec=measure_spec, T=float(T), seed=seed,
                     samples=samples, tolerances=tolerances, params=params,
                     out=out)


def parse_config(text: str) -> RunConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([("", f"invalid JSON: {exc}")])
    return config_from_dict(obj)


def default_config(**overrides) -> RunConfig:
    obj = {"measure": {"builtin": "uniform_pm1"}}
    obj.update(overrides)
    return config_from_dict(obj)


# -- report types ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    name: str
    kind: str       # "exact" | "statistical" | "deterministic"
    anchor: str
    lhs: float
    rhs: float
    diff: float
    threshold: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {"name": self.name, "kind": self.kind, "anchor": self.anchor,
                "lhs": float(self.lhs), "rhs": float(self.rhs),
                "diff": float(self.diff), "threshold": float(self.threshold),
                "pass": bool(self.passed)}


@dataclass(frozen=True)
class Report:
    suite: str
    rows: Tuple[CheckRow, ...]
    overall_pass: bool
    provenance: dict
    artifacts: dict

    def to_json_obj(self) -> dict:
        return {"suite": self.suite,
                "rows": [r.to_json_obj() for r in self.rows],
                "overall_pass": self.overall_pass,
                "provenance": self.provenance,
                "artifacts": self.artifacts}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(self.to_json() + "\n")
        with open(os.path.join(out_dir, "rows.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "kind", "anchor", "lhs", "rhs", "diff",
                             "threshold", "pass"])
            for r in self.rows:
                writer.writerow([r.name, r.kind, r.anchor, repr(r.lhs),
                                 repr(r.rhs), repr(r.diff), repr(r.threshold),
                                 r.passed])
        if "paths_jsonl" in self.artifacts:
            with open(os.path.join(out_dir, "paths.jsonl"), "w") as fh:
                fh.write(self.artifacts["paths_jsonl"])


def _finish(suite: str, cfg: RunConfig, rows: List[CheckRow],
            artifacts: dict = None) -> Report:
    report = Report(suite=suite, rows=tuple(rows),
                    overall_pass=all(r.passed for r in rows),
                    provenance={"suite": suite, "seed": cfg.seed,
                                "samples": cfg.samples,
                                "config_digest": cfg.digest(),
                                "version": __version__},
                    artifacts=artifacts or {})
    if cfg.out:
        report.write(cfg.out)
    return report


def _exact_row(name: str, anchor: str, lhs: float, rhs: float,
               threshold: float) -> CheckRow:
    diff = float(abs(lhs - rhs))
    return CheckRow(name=name, kind="exact", anchor=anchor, lhs=float(lhs),
                    rhs=float(rhs), diff=diff, threshold=float(threshold),
                    passed=bool(diff <= threshold))


def _band_row(name: str, anchor: str, est, sigma: float,
              lhs: float = None, rhs: float = None) -> CheckRow:
    """A mean-zero statistic checked inside its sigma band."""
    thr = sigma * est.stderr
    diff = abs(est.mean)
    return CheckRow(name=name, kind="statistical", anchor=anchor,
                    lhs=float(est.mean if lhs is None else lhs),
                    rhs=float(0.0 if rhs is None else rhs),
                    diff=diff, threshold=thr, passed=diff <= thr)


# -- functional corpora ------------------------------------------------------------

def lattice_corpus(T: float) -> List[CylindricalFunctional]:
    """Bounded cylindrical functionals on one to three coordinates, mixing
    degenerate (constant), equality-attaining and generic cases."""
    const = CylindricalFunctional(
        times=(T,), f=lambda a: 0.7,
        batch=lambda c: np.full(len(c), 0.7), bound=0.7, name="const")
    eq2 = CylindricalFunctional(
        times=(T / 2, T), f=lambda a, b: 1.0 if a == b else 0.0,
        batch=lambda c: (c[:, 0] == c[:, 1]).astype(float),
        bound=1.0, name="flat_tail")
    mono3 = CylindricalFunctional(
        times=(T / 4, T / 2, T),
        f=lambda a, b, c: 1.0 if a <= b <= c else 0.0,
        batch=lambda c: ((c[:, 0] <= c[:, 1]) & (c[:, 1] <= c[:, 2])).astype(float),
        bound=1.0, name="monotone3")
    return [const,
            indicator_at(T, 0.0, name="ind0_end"),
            indicator_at(T / 2, 1.0, name="ind1_half"),
            product_indicator((T / 2, T), (0.0, 0.0), name="prod00"),
            eq2,
            coordinate(T, lo=-2.0, hi=2.0, name="clip2_end"),
            mono3]


def continuous_corpus(T: float) -> List[CylindricalFunctional]:
    cos12 = CylindricalFunctional(
        times=(T / 2, T), f=lambda a, b: math.cos(a + 2.0 * b),
        batch=lambda c: np.cos(c[:, 0] + 2.0 * c[:, 1]),
        bound=1.0, name="cos12")
    window = CylindricalFunctional(
        times=(T / 2, T),
        f=lambda a, b: 1.0 if (a <= 1.5 and b >= 2.0) else 0.0,
        batch=lambda c: ((c[:, 0] <= 1.5) & (c[:, 1] >= 2.0)).astype(float),
        bound=1.0, name="window")
    return [coordinate(T, lo=0.0, hi=3.0, name="clip3_end"), cos12, window]


def lipschitz_corpus(T: float) -> List[Tuple[CylindricalFunctional, float]]:
    """(functional, Lipschitz constant w.r.t. the sup distance) pairs."""
    atan_end = CylindricalFunctional(
        times=(T,), f=lambda a: math.atan(a),
        batch=lambda c: np.arctan(c[:, 0]),
        bound=math.pi / 2, name="atan_end")
    cos12 = CylindricalFunctional(
        times=(T / 2, T), f=lambda a, b: math.cos(a + 2.0 * b),
        batch=lambda c: np.cos(c[:, 0] + 2.0 * c[:, 1]),
        bound=1.0, name="cos12")
    return [(coordinate(T, lo=0.0, hi=3.0, name="clip3_end"), 1.0),
            (atan_end, 1.0),
            (cos12, 3.0)]


def functional_from_spec(spec: dict, T: float):
    """Builtin functional families available from the config file."""
    family = spec.get("family")
    built = None

    def finite_time(key: str, value) -> float:
        t = float(value)
        if not math.isfinite(t):
            raise ConfigError([("corpus", f"{family} {key} must be finite, got {t!r}")])
        return t

    try:
        if family == "coordinate":
            built = coordinate(finite_time("time", spec["time"]), spec.get("lo"),
                               spec.get("hi"))
        elif family == "indicator_at":
            built = indicator_at(finite_time("time", spec["time"]), float(spec["value"]))
        elif family == "product_indicator":
            built = product_indicator([finite_time("times", t) for t in spec["times"]],
                                      [float(v) for v in spec["values"]])
        elif family == "capped_count":
            built = capped_count(int(spec["cap"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError([("corpus", f"bad {family} spec: {exc}")])
    if built is None:
        raise ConfigError([("corpus", f"unknown functional family {family!r}")])
    if isinstance(built, CylindricalFunctional) and built.times[-1] > T:
        raise ConfigError([("corpus", f"{family} time {built.times[-1]} "
                                      f"beyond horizon {T}")])
    return built


def _resolve_corpus(cfg: RunConfig, suite: str) -> List[CylindricalFunctional]:
    """Default corpus, or the config-supplied builtin functionals."""
    specs = cfg.suite_params(suite).get("corpus")
    if specs is None:
        return lattice_corpus(cfg.T)
    if not isinstance(specs, list) or not specs:
        raise ConfigError([(f"params.{suite}.corpus", "must be a non-empty list")])
    return [functional_from_spec(spec, cfg.T) for spec in specs]


def _one_dimensional(cfg: RunConfig, suite: str) -> IntensityMeasure:
    """The run's measure, refused unless d = 1: the suite's built-in
    functionals, corpus families and parameters are all one-dimensional."""
    measure = cfg.measure()
    if measure.dimension != 1:
        raise ConfigError([("measure.dimension", f"the {suite} suite needs d = 1, "
                                                 f"got d = {measure.dimension}")])
    return measure


def _lattice_model(cfg: RunConfig, measure: IntensityMeasure,
                   needed_by: str = None) -> Optional[LatticeModel]:
    """The measure's lattice model; off the lattice, None or, for suite
    `needed_by`, a ConfigError.  An invalid measure raises its own error."""
    try:
        return LatticeModel.from_measure(measure, cfg.tol("truncation"))
    except UnsupportedMeasure as exc:
        if needed_by is None:
            return None
        raise ConfigError([("measure", f"{needed_by} suite needs an "
                                       f"integer-lattice measure: {exc}")])


def _require_lattice(cfg: RunConfig, suite: str) -> LatticeModel:
    return _lattice_model(cfg, _one_dimensional(cfg, suite), suite)


# -- suites ------------------------------------------------------------------------

def _suite_qi(cfg: RunConfig) -> Report:
    measure = _one_dimensional(cfg, "qi")
    sigma = cfg.tol("sigma")
    rows: List[CheckRow] = []
    model = _lattice_model(cfg, measure)
    if model is not None:
        corpus = _resolve_corpus(cfg, "qi")
        for F in corpus:
            if isinstance(F, CountFunctional):
                continue  # the exact pipelines are for cylindrical functionals
            for k in cfg.suite_params("qi")["ks"]:
                if model.mass(k) <= 0.0:
                    continue
                lhs, rhs = qi_check(model, cfg.T, F, k)
                rows.append(_exact_row(f"qi_exact[{F.name},k={k:+g}]",
                                       ANCHORS["qi_exact"], lhs, rhs,
                                       cfg.tol("exact_qi")))
        mc_corpus = corpus
    elif cfg.suite_params("qi").get("corpus") is not None:
        mc_corpus = _resolve_corpus(cfg, "qi")
    else:
        mc_corpus = continuous_corpus(cfg.T)
    for idx, F in enumerate(mc_corpus):
        comp = qi_mc(F, measure, cfg.T, cfg.samples, cfg.stream(idx))
        rows.append(_band_row(f"qi_mc[{F.name}]", ANCHORS["qi_stat"], comp.diff,
                              sigma, lhs=comp.lhs.mean, rhs=comp.rhs.mean))
    return _finish("qi", cfg, rows)


def _suite_poincare(cfg: RunConfig) -> Report:
    model = _require_lattice(cfg, "poincare")
    rows = []
    for F in _resolve_corpus(cfg, "poincare"):
        if isinstance(F, CountFunctional):
            continue  # count maps are covered by the sharpness rows below
        variance, bound = poincare_check(model, cfg.T, F)
        excess = variance - bound
        rows.append(CheckRow(
            name=f"poincare[{F.name},n={len(F.times)}]", kind="exact",
            anchor=ANCHORS["poincare"], lhs=variance, rhs=bound,
            diff=excess, threshold=cfg.tol("poincare"),
            passed=excess <= cfg.tol("poincare")))
    params = cfg.suite_params("poincare")
    identity = CountFunctional(g=lambda m: float(m),
                               batch=lambda c: c.astype(float), name="count")
    for horizon in params["sharpness_horizons"]:
        stats = poisson_count_stats(identity, horizon, params["count_m_max"])
        rows.append(_exact_row(f"sharp_variance[T={horizon:g}]",
                               ANCHORS["sharpness"], stats.variance, horizon,
                               cfg.tol("sharpness")))
        rows.append(_exact_row(f"sharp_energy[T={horizon:g}]",
                               ANCHORS["sharpness"], stats.energy, 1.0,
                               cfg.tol("sharpness")))
    return _finish("poincare", cfg, rows)


def _suite_generator(cfg: RunConfig) -> Report:
    model = _require_lattice(cfg, "generator")
    sigma = cfg.tol("sigma")
    corpus = {F.name: F for F in lattice_corpus(cfg.T)}
    pairs = [(corpus["ind0_end"], corpus["ind1_half"]),
             (corpus["clip2_end"], corpus["prod00"]),
             (corpus["flat_tail"], corpus["flat_tail"])]
    rows = []
    for idx, (F, G) in enumerate(pairs):
        res = pairing_mc(F, G, model, cfg.T, cfg.samples, cfg.stream(idx))
        label = f"{F.name}|{G.name}"
        rows.append(_band_row(f"pairing[{label}]", ANCHORS["generator"],
                              res.identity_fg, sigma,
                              lhs=res.form.mean, rhs=-res.pairing_fg.mean))
        rows.append(_band_row(f"symmetry[{label}]", ANCHORS["symmetry"],
                              res.symmetry, sigma,
                              lhs=res.pairing_fg.mean, rhs=res.pairing_gf.mean))
    params = cfg.suite_params("generator")
    counts = pi_k_rank_counts(model.to_measure(), cfg.T, params["pi_mark"],
                              int(params["rank_samples"]), cfg.stream(len(pairs)),
                              max_count=max(params["rank_counts"]))
    alpha = cfg.tol("chi2_significance")
    for j in params["rank_counts"]:
        observed = counts[int(j)]
        expected = observed.sum() / len(observed)
        stat = float(((observed - expected) ** 2 / expected).sum()) if expected else 0.0
        # the chi-square quantile with j - 1 degrees of freedom
        threshold = float(2.0 * gammaincinv((int(j) - 1) / 2, 1.0 - alpha))
        rows.append(CheckRow(name=f"pi_rank_uniform[j={j}]", kind="statistical",
                             anchor=ANCHORS["pi_rank"], lhs=stat, rhs=threshold,
                             diff=stat, threshold=threshold,
                             passed=stat <= threshold))
    return _finish("generator", cfg, rows)


def _suite_semigroup(cfg: RunConfig) -> Report:
    model = _require_lattice(cfg, "semigroup")
    params = cfg.suite_params("semigroup")
    cases = [
        ("const", lambda pts: np.ones(np.shape(pts), dtype=float)),
        ("linear", lambda pts: np.asarray(pts, dtype=float)),
        ("ind0", lambda pts: (np.asarray(pts) == 0).astype(float)),
    ]
    rows = []
    for name, f in cases:
        lhs, rhs = semigroup_gap(model, f, float(params["t"]), params["z"],
                                 float(params["quad_step"]))
        rows.append(_exact_row(f"semigroup[{name}]", ANCHORS["semigroup"],
                               lhs, rhs, cfg.tol("semigroup")))
    return _finish("semigroup", cfg, rows)


def _suite_smalltime(cfg: RunConfig) -> Report:
    model = _require_lattice(cfg, "smalltime")
    params = cfg.suite_params("smalltime")
    s_values = sorted((float(s) for s in params["s_values"]), reverse=True)
    table = small_time_table(model, params["points"], s_values)
    tol = cfg.tol("smalltime")
    rows = []
    for row in table:
        rows.append(CheckRow(name=f"rate_bound[s={row.s:g}]", kind="exact",
                             anchor=ANCHORS["smalltime"], lhs=row.origin_ratio,
                             rhs=1.0, diff=row.origin_ratio - 1.0, threshold=tol,
                             passed=row.origin_ratio <= 1.0 + tol))
    for point in table[0].deviations:
        for bigger, smaller in zip(table, table[1:]):
            a = abs(bigger.deviations[point])
            b = abs(smaller.deviations[point])
            rows.append(CheckRow(
                name=f"rate_converges[l={point},s={smaller.s:g}<{bigger.s:g}]",
                kind="exact", anchor=ANCHORS["smalltime"], lhs=b, rhs=a,
                diff=b - a, threshold=0.0, passed=b < a))
    return _finish("smalltime", cfg, rows)


def _witness(m: int, horizon: float) -> CountFunctional:
    scale = 1.0 / math.sqrt(float(poisson.pmf(m, horizon)))
    return CountFunctional(
        g=lambda j: scale if j == m else 0.0,
        batch=lambda c: np.where(c == m, scale, 0.0),
        name=f"norm_ind[N={m}]")


def _suite_lsi(cfg: RunConfig) -> Report:
    params = cfg.suite_params("lsi")
    ms = [int(m) for m in params["ms"]]
    curve = lsi_witness_curve(cfg.T, ms)
    rows = []
    for m, ratio in curve:
        stats = poisson_count_stats(_witness(m, cfg.T), cfg.T,
                                    int(params["count_m_max"]))
        rows.append(_exact_row(f"witness_ratio[m={m}]", ANCHORS["lsi"],
                               ratio, stats.entropy / stats.energy,
                               cfg.tol("lsi_cross")))
    ratios = [r for _, r in curve]
    min_step = min(b - a for a, b in zip(ratios, ratios[1:]))
    rows.append(CheckRow(name="witness_ratio_increasing", kind="exact",
                         anchor=ANCHORS["lsi"], lhs=min_step, rhs=0.0,
                         diff=-min_step, threshold=0.0, passed=min_step > 0.0))
    c = float(params["C"])
    level = lsi_exceed_level(cfg.T, c)
    ratio_at = dict(lsi_witness_curve(cfg.T, [level]))[level]
    rows.append(CheckRow(name=f"exceeds_C[{c:g}]_at_m={level}", kind="exact",
                         anchor=ANCHORS["lsi"], lhs=ratio_at, rhs=c,
                         diff=c - ratio_at, threshold=0.0,
                         passed=ratio_at > c))
    return _finish("lsi", cfg, rows)


def _suite_coupling(cfg: RunConfig) -> Report:
    measure = _one_dimensional(cfg, "coupling")
    params = cfg.suite_params("coupling")
    levels = [int(n) for n in params["levels"]]
    sigma = cfg.tol("sigma")
    corpus = lipschitz_corpus(cfg.T)
    sqrt_d = math.sqrt(measure.dimension)

    def chunk(rng, size):
        # a generator, so that each array is reduced before the next is built
        batch = sample_path_batch(measure, cfg.T, rng, size)
        yield batch.counts.astype(float)
        base_vals = [evaluate_batch(F, batch) for F, _ in corpus]
        # per path, how far the largest level gap exceeds its bound (0 within)
        excess = np.zeros(size)
        for n in levels:
            bound = batch.counts * (2.0 ** -n) * sqrt_d
            excess = np.maximum(excess, batch.projection_gap(n) - bound)
            proj = batch.project(n)
            for (F, _), bv in zip(corpus, base_vals):
                yield evaluate_batch(F, proj) - bv
        yield excess

    jumps, *diffs, excess = _run_chunked(int(params["samples"]), cfg.stream(0), chunk)
    estimates = [diffs[li * len(corpus):(li + 1) * len(corpus)]
                 for li in range(len(levels))]

    # a mean of nonnegative excesses is 0.0 exactly when every path is within
    rows = [CheckRow(name="projection_gap_bound", kind="deterministic",
                     anchor=ANCHORS["coupling"], lhs=excess.mean, rhs=0.0,
                     diff=excess.mean, threshold=0.0,
                     passed=excess.mean <= 0.0)]
    for fi, (F, lip) in enumerate(corpus):
        devs = [abs(estimates[li][fi].mean) for li in range(len(levels))]
        slack = [sigma * (estimates[li][fi].stderr + estimates[li + 1][fi].stderr)
                 for li in range(len(levels) - 1)]
        violation = max(devs[i + 1] - devs[i] - slack[i]
                        for i in range(len(levels) - 1))
        rows.append(CheckRow(name=f"monotone_convergence[{F.name}]",
                             kind="statistical", anchor=ANCHORS["coupling"],
                             lhs=violation, rhs=0.0, diff=violation,
                             threshold=0.0, passed=violation <= 0.0))
        last = estimates[-1][fi]
        bound = lip * jumps.mean * (2.0 ** -levels[-1]) * sqrt_d
        rows.append(CheckRow(name=f"limit_bias[{F.name},n={levels[-1]}]",
                             kind="statistical", anchor=ANCHORS["coupling"],
                             lhs=abs(last.mean), rhs=bound,
                             diff=abs(last.mean) - bound,
                             threshold=sigma * last.stderr,
                             passed=abs(last.mean) - bound <= sigma * last.stderr))
    return _finish("coupling", cfg, rows)


def _suite_sample(cfg: RunConfig) -> Report:
    params = cfg.suite_params("sample")
    n_paths = params["n_paths"]
    if not isinstance(n_paths, int) or isinstance(n_paths, bool) or n_paths < 0:
        raise ConfigError([("params.sample.n_paths",
                            f"must be an integer >= 0, got {n_paths!r}")])
    level = params.get("project")
    # the lattice scale 2**n and its spacing 2**-n must both be finite floats
    if level is not None and (not isinstance(level, int) or isinstance(level, bool)
                              or abs(level) >= sys.float_info.max_exp):
        raise ConfigError([("params.sample.project",
                            f"must be null or an integer with |project| < "
                            f"{sys.float_info.max_exp}, got {level!r}")])
    batch = sample_path_batch(cfg.measure(), cfg.T, cfg.stream(0).rng(), n_paths)
    if level is not None:
        batch = batch.project(level)
    # written straight from the flat arrays, which are validated once by the
    # rule JumpPath applies; line i equals batch.path(i).to_json()
    blob = paths_to_jsonl(batch.horizon, batch.dimension, batch.times,
                          batch.marks, batch.offsets)
    written = blob.count("\n")
    digest = hashlib.sha256(blob.encode()).hexdigest()
    rows = [CheckRow(name="paths_written", kind="deterministic",
                     anchor=ANCHORS["sample"], lhs=float(written),
                     rhs=float(n_paths), diff=float(written - n_paths),
                     threshold=0.0, passed=written == n_paths)]
    return _finish("sample", cfg, rows,
                   artifacts={"paths_jsonl": blob, "paths_sha256": digest})


_SUITES: Dict[str, Callable[[RunConfig], Report]] = {
    "qi": _suite_qi,
    "poincare": _suite_poincare,
    "generator": _suite_generator,
    "semigroup": _suite_semigroup,
    "smalltime": _suite_smalltime,
    "lsi": _suite_lsi,
    "coupling": _suite_coupling,
    "sample": _suite_sample,
}


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Execute one verification suite; a failed check is a pass=False row,
    never an exception."""
    if name not in _SUITES:
        raise ConfigError([("suite", f"unknown suite {name!r}; "
                                     f"choose from {', '.join(SUITE_NAMES)}")])
    return _SUITES[name](cfg)
