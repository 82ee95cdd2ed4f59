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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy.special import gammaincinv

from . import __version__
from .errors import ConfigError, UnsortedTimes, UnsupportedMeasure
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
    simpson_steps,
    small_time_table,
)
from .path import paths_to_jsonl
from .sampler import StreamConfig, sample_path_batch

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
    """Run configuration for every suite.  However it is made, it is checked
    against `_RULES` (every problem in one ConfigError) and canonicalized: the
    spec of the measure it builds, a float T, the tolerances over the defaults."""

    measure_spec: dict
    T: float = 1.0
    seed: int = 20260809
    samples: int = 1_000_000
    tolerances: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    out: Optional[str] = None
    # the measure `measure_spec` builds and, on the integer lattice, its
    # lattice model (else None), both built once, when the config is made
    _measure: Optional[IntensityMeasure] = field(default=None, init=False,
                                                 repr=False, compare=False)
    _lattice: Optional[LatticeModel] = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        problems: List[Tuple[str, str]] = []
        try:
            measure = measure_from_spec(self.measure_spec)
        except ConfigError as exc:
            problems += exc.fields
        given = {"T": self.T, "seed": self.seed, "samples": self.samples, "out": self.out,
                 **_section("tolerances", self.tolerances, problems)}
        for path, extra in _section("params", self.params, problems).items():
            if path[len("params."):] in _SUITES:
                given.update(_section(path, extra, problems))
            else:
                problems.append((path, "unknown suite"))
        for path, value in given.items():
            if path not in _RULES:
                problems.append((path, "unknown field"))
                continue
            check, rule = _RULES[path]
            if not check(value):
                problems.append((path, f"{rule}, got {value!r}"))
            elif path.endswith(".corpus") and value and _positive_finite(self.T):
                for i, spec in enumerate(value):
                    try:
                        functional_from_spec(spec, self.T)
                    except ConfigError as exc:
                        problems += [(path, f"entry {i}: {msg}") for _, msg in exc.fields]
        if problems:
            raise ConfigError(problems)
        tolerances = {key: float(val) for key, val in self.tolerances.items()}
        canonical = {"measure_spec": _canonical_measure_spec(self.measure_spec, measure),
                     "T": float(self.T), "tolerances": {**DEFAULT_TOLERANCES, **tolerances},
                     "_measure": measure}
        for name, value in canonical.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_lattice", _lattice_model(self, measure))

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
        merged.update(self.params.get(suite, {}))
        return merged

    def measure(self) -> IntensityMeasure:
        return self._measure

    def lattice(self) -> Optional[LatticeModel]:
        """The measure's lattice model, or None off the integer lattice."""
        return self._lattice

    def stream(self, index: int = 0) -> StreamConfig:
        return StreamConfig(seed=self.seed, stream_index=index)


def _canonical_measure_spec(spec: dict, measure: IntensityMeasure) -> dict:
    """The spec of a built measure: a builtin's space-free name, else its atoms."""
    if spec.get("builtin") is not None:
        return {"builtin": str(spec["builtin"]).replace(" ", "")}
    return {"type": measure.kind, "dimension": measure.dimension,
            "atoms": [list(atom) for atom in zip(measure.points.tolist(),
                                                 measure.masses.tolist())]}


def _section(path: str, obj, problems: list) -> dict:
    """An object's entries keyed by their field paths."""
    if not isinstance(obj, dict):
        problems.append((path, "must be an object"))
        return {}
    return {f"{path}.{key}": val for key, val in obj.items()}


def _finite_number(val) -> bool:
    """A JSON number (not a bool) that is finite as a float; NaN fails."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _positive_finite(val) -> bool:
    """A JSON number (not a bool) in (0, inf) as a float; NaN fails."""
    return _finite_number(val) and val > 0


def _integer(val, least: float = -math.inf, most: float = math.inf) -> bool:
    """A JSON integer (not a bool) in [least, most]."""
    return isinstance(val, int) and not isinstance(val, bool) and least <= val <= most


def _list_of(check, val, fewest: int = 0) -> bool:
    """A list of at least `fewest` values that each pass `check`."""
    return isinstance(val, list) and len(val) >= fewest and all(map(check, val))


def _increasing(val: list) -> bool:
    return all(a < b for a, b in zip(val, val[1:]))


_LEVEL = sys.float_info.max_exp - 1  # 2**n and 2**-n are finite floats
_POINT = 2 ** 53  # a lattice point stays exact in int64 and float arithmetic

_POSITIVE = (_positive_finite, "must be a finite positive number")
_COUNT = (lambda v: _integer(v, 0), "must be an integer >= 0")
_SAMPLE_COUNT = (lambda v: _integer(v, 2), "must be an integer >= 2")
_CORPUS = (lambda v: v is None or _list_of(lambda s: isinstance(s, dict), v, 1),
           "must be null or a non-empty list of functional specs (objects)")

# (check, what a value must be) for each top-level field and tolerance, by the
# field its problem is reported on; suite parameters take theirs from `_SUITES`
_FIELD_RULES: Dict[str, Tuple[Callable, str]] = {
    "T": _POSITIVE,
    "seed": (_integer, "must be an integer"),
    "samples": _SAMPLE_COUNT,
    "out": (lambda v: v is None or isinstance(v, str), "must be null or a string path"),
    **{f"tolerances.{key}": _POSITIVE for key in DEFAULT_TOLERANCES},
}

# config-file keys and the RunConfig fields they set
_FIELDS = {"measure": "measure_spec", "T": "T", "seed": "seed", "samples": "samples",
           "tolerances": "tolerances", "params": "params", "out": "out"}


def config_from_dict(obj: dict) -> RunConfig:
    """Read a JSON object into a RunConfig; its unknown keys and every rule
    the config breaks are reported together, in one ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError([("", "configuration must be a JSON object")])
    problems = [(key, "unknown field") for key in obj if key not in _FIELDS]
    given = {_FIELDS[key]: val for key, val in obj.items() if key in _FIELDS
             and not (val is None and key in ("tolerances", "params"))}
    given.setdefault("measure_spec", {"builtin": "uniform_pm1"})
    try:
        cfg = RunConfig(**given)
    except ConfigError as exc:
        raise ConfigError(problems + exc.fields) from None
    if problems:
        raise ConfigError(problems)
    return cfg


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

    @property
    def passed(self) -> bool:
        """Every row's one verdict rule; a NaN diff or threshold fails it."""
        return bool(self.diff <= self.threshold)

    def to_json_obj(self) -> dict:
        # a non-finite number, which JSON cannot hold, is written as null
        nums = {key: float(getattr(self, key)) for key in ("lhs", "rhs", "diff", "threshold")}
        return {"name": self.name, "kind": self.kind, "anchor": self.anchor,
                "pass": bool(self.passed),
                **{key: val if math.isfinite(val) else None for key, val in nums.items()}}


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
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True, allow_nan=False)

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
               threshold: float, kind: str = "exact") -> CheckRow:
    return CheckRow(name=name, kind=kind, anchor=anchor, lhs=float(lhs), rhs=float(rhs),
                    diff=float(abs(lhs - rhs)), threshold=float(threshold))


def _bound_row(name: str, anchor: str, lhs: float, rhs: float, threshold: float,
               kind: str) -> CheckRow:
    """A one-sided bound lhs <= rhs, within threshold; NaN fails it."""
    return CheckRow(name=name, kind=kind, anchor=anchor, lhs=lhs, rhs=rhs,
                    diff=lhs - rhs, threshold=threshold)


def _band_row(name: str, anchor: str, est, sigma: float, lhs: float,
              rhs: float) -> CheckRow:
    """A mean-zero statistic `est` of lhs - rhs, checked inside its sigma band."""
    return CheckRow(name=name, kind="statistical", anchor=anchor, lhs=float(lhs),
                    rhs=float(rhs), diff=abs(est.mean), threshold=sigma * est.stderr)


# -- functional corpora ------------------------------------------------------------

def lattice_corpus(T: float) -> List[CylindricalFunctional]:
    """Bounded cylindrical functionals on one to three coordinates, mixing
    degenerate (constant), equality-attaining and generic cases."""
    const = CylindricalFunctional(
        times=(T,), f=lambda c: np.full(len(c), 0.7), bound=0.7, name="const")
    eq2 = CylindricalFunctional(
        times=(T / 2, T), f=lambda c: (c[:, 0] == c[:, 1]).astype(float),
        bound=1.0, name="flat_tail")
    mono3 = CylindricalFunctional(
        times=(T / 4, T / 2, T),
        f=lambda c: ((c[:, 0] <= c[:, 1]) & (c[:, 1] <= c[:, 2])).astype(float),
        bound=1.0, name="monotone3")
    return [const,
            indicator_at(T, 0.0, name="ind0_end"),
            indicator_at(T / 2, 1.0, name="ind1_half"),
            product_indicator((T / 2, T), (0.0, 0.0), name="prod00"),
            eq2,
            coordinate(T, lo=-2.0, hi=2.0, name="clip2_end"),
            mono3]


def _cos12(T: float) -> CylindricalFunctional:
    """cos(X_{T/2} + 2 X_T): smooth, and 3-Lipschitz in the sup distance."""
    return CylindricalFunctional(
        times=(T / 2, T), f=lambda c: np.cos(c[:, 0] + 2.0 * c[:, 1]),
        bound=1.0, name="cos12")


def continuous_corpus(T: float) -> List[CylindricalFunctional]:
    window = CylindricalFunctional(
        times=(T / 2, T),
        f=lambda c: ((c[:, 0] <= 1.5) & (c[:, 1] >= 2.0)).astype(float),
        bound=1.0, name="window")
    return [coordinate(T, lo=0.0, hi=3.0, name="clip3_end"), _cos12(T), window]


def lipschitz_corpus(T: float) -> List[Tuple[CylindricalFunctional, float]]:
    """(functional, Lipschitz constant w.r.t. the sup distance) pairs."""
    atan_end = CylindricalFunctional(
        times=(T,), f=lambda c: np.arctan(c[:, 0]),
        bound=math.pi / 2, name="atan_end")
    return [(coordinate(T, lo=0.0, hi=3.0, name="clip3_end"), 1.0),
            (atan_end, 1.0),
            (_cos12(T), 3.0)]


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
    except (KeyError, TypeError, ValueError, OverflowError, UnsortedTimes) as exc:
        raise ConfigError([("corpus", f"bad {family} spec: {exc}")])
    if built is None:
        raise ConfigError([("corpus", f"unknown functional family {family!r}")])
    if isinstance(built, CylindricalFunctional) and built.times[-1] > T:
        raise ConfigError([("corpus", f"{family} time {built.times[-1]} "
                                      f"beyond horizon {T}")])
    return built


def _resolve_corpus(cfg: RunConfig, params: dict, default) -> List[CylindricalFunctional]:
    """The default corpus at T, or the config-supplied builtin functionals
    (whose specs the config checked against T when it was made)."""
    specs = params["corpus"]
    if specs is None:
        return default(cfg.T)
    return [functional_from_spec(spec, cfg.T) for spec in specs]


def _lattice_model(cfg: RunConfig, measure: IntensityMeasure) -> Optional[LatticeModel]:
    """The measure's lattice model, or None off the lattice; an invalid one raises."""
    try:
        return LatticeModel.from_measure(measure, cfg.tol("truncation"))
    except UnsupportedMeasure:
        return None


# -- suites ------------------------------------------------------------------------

def _suite_qi(cfg: RunConfig, params: dict) -> Report:
    measure, model = cfg.measure(), cfg.lattice()
    sigma = cfg.tol("sigma")
    rows: List[CheckRow] = []
    corpus = _resolve_corpus(cfg, params, continuous_corpus if model is None else lattice_corpus)
    if model is not None:
        ks = [k for k in params["ks"] if model.mass(k) > 0.0]
        for F in corpus:
            if isinstance(F, CountFunctional):
                continue  # the exact pipelines are for cylindrical functionals
            for k in ks:
                lhs, rhs = qi_check(model, cfg.T, F, k)
                rows.append(_exact_row(f"qi_exact[{F.name},k={k:+g}]",
                                       ANCHORS["qi_exact"], lhs, rhs,
                                       cfg.tol("exact_qi")))
    for idx, F in enumerate(corpus):
        comp = qi_mc(F, measure, cfg.T, cfg.samples, cfg.stream(idx))
        rows.append(_band_row(f"qi_mc[{F.name}]", ANCHORS["qi_stat"], comp.diff,
                              sigma, lhs=comp.lhs.mean, rhs=comp.rhs.mean))
    return _finish("qi", cfg, rows)


def _suite_poincare(cfg: RunConfig, params: dict) -> Report:
    model = cfg.lattice()
    rows = []
    for F in _resolve_corpus(cfg, params, lattice_corpus):
        if isinstance(F, CountFunctional):
            continue  # count maps are covered by the sharpness rows below
        rows.append(_bound_row(f"poincare[{F.name},n={len(F.times)}]",
                               ANCHORS["poincare"], *poincare_check(model, cfg.T, F),
                               cfg.tol("poincare"), "exact"))
    identity = CountFunctional(g=lambda c: c.astype(float), name="count")
    for horizon in params["sharpness_horizons"]:
        stats = poisson_count_stats(identity, horizon, params["count_m_max"])
        rows.append(_exact_row(f"sharp_variance[T={horizon:g}]",
                               ANCHORS["sharpness"], stats.variance, horizon,
                               cfg.tol("sharpness")))
        rows.append(_exact_row(f"sharp_energy[T={horizon:g}]",
                               ANCHORS["sharpness"], stats.energy, 1.0,
                               cfg.tol("sharpness")))
    return _finish("poincare", cfg, rows)


def _suite_generator(cfg: RunConfig, params: dict) -> Report:
    model = cfg.lattice()
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
    counts = pi_k_rank_counts(model.to_measure(), cfg.T, params["pi_mark"],
                              params["rank_samples"], cfg.stream(len(pairs)),
                              max_count=max(params["rank_counts"]))
    alpha = cfg.tol("chi2_significance")
    for j in params["rank_counts"]:
        observed = counts[j]
        expected = observed.sum() / len(observed)
        # an empty histogram has no statistic, and its NaN fails the row
        stat = float(((observed - expected) ** 2 / expected).sum()) if expected else math.nan
        # the chi-square quantile with j - 1 degrees of freedom
        threshold = float(2.0 * gammaincinv((j - 1) / 2, 1.0 - alpha))
        rows.append(CheckRow(name=f"pi_rank_uniform[j={j}]", kind="statistical",
                             anchor=ANCHORS["pi_rank"], lhs=stat, rhs=threshold,
                             diff=stat, threshold=threshold))
    return _finish("generator", cfg, rows)


def _suite_semigroup(cfg: RunConfig, params: dict) -> Report:
    model = cfg.lattice()
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


def _suite_smalltime(cfg: RunConfig, params: dict) -> Report:
    model = cfg.lattice()
    s_values = sorted((float(s) for s in params["s_values"]), reverse=True)
    table = small_time_table(model, params["points"], s_values)
    rows = [_bound_row(f"rate_bound[s={row.s:g}]", ANCHORS["smalltime"],
                       row.origin_ratio, 1.0, cfg.tol("smalltime"), "exact")
            for row in table]
    for point in table[0].deviations:
        for bigger, smaller in zip(table, table[1:]):
            rows.append(_bound_row(
                f"rate_converges[l={point},s={smaller.s:g}<{bigger.s:g}]",
                ANCHORS["smalltime"], abs(smaller.deviations[point]),
                abs(bigger.deviations[point]), 0.0, "exact"))
    return _finish("smalltime", cfg, rows)


def _witness(m: int, horizon: float) -> CountFunctional:
    scale = 1.0 / math.sqrt(float(poisson.pmf(m, horizon)))
    return CountFunctional(g=lambda c: np.where(c == m, scale, 0.0),
                           name=f"norm_ind[N={m}]")


def _suite_lsi(cfg: RunConfig, params: dict) -> Report:
    curve = lsi_witness_curve(cfg.T, params["ms"])
    rows = []
    for m, ratio in curve:
        stats = poisson_count_stats(_witness(m, cfg.T), cfg.T, params["count_m_max"])
        rows.append(_exact_row(f"witness_ratio[m={m}]", ANCHORS["lsi"],
                               ratio, stats.entropy / stats.energy,
                               cfg.tol("lsi_cross")))
    # the curve rises at every level >= T + 1 (and may fall below it)
    ratios = [r for m, r in curve if m >= cfg.T + 1]
    min_step = min(b - a for a, b in zip(ratios, ratios[1:]))
    rows.append(CheckRow(name="witness_ratio_increasing", kind="exact",
                         anchor=ANCHORS["lsi"], lhs=min_step, rhs=0.0,
                         diff=-min_step, threshold=0.0))
    c = float(params["C"])
    level = lsi_exceed_level(cfg.T, c)
    ratio_at = dict(lsi_witness_curve(cfg.T, [level]))[level]
    rows.append(CheckRow(name=f"exceeds_C[{c:g}]_at_m={level}", kind="exact",
                         anchor=ANCHORS["lsi"], lhs=ratio_at, rhs=c,
                         diff=c - ratio_at, threshold=0.0))
    return _finish("lsi", cfg, rows)


def _suite_coupling(cfg: RunConfig, params: dict) -> Report:
    measure = cfg.measure()
    levels = params["levels"]
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

    jumps, *diffs, excess = _run_chunked(params["samples"], cfg.stream(0), chunk)
    estimates = [diffs[li * len(corpus):(li + 1) * len(corpus)]
                 for li in range(len(levels))]

    # a mean of nonnegative excesses is 0.0 exactly when every path is within
    rows = [_bound_row("projection_gap_bound", ANCHORS["coupling"], excess.mean,
                       0.0, 0.0, "deterministic")]
    for fi, (F, lip) in enumerate(corpus):
        devs = [abs(estimates[li][fi].mean) for li in range(len(levels))]
        slack = [sigma * (estimates[li][fi].stderr + estimates[li + 1][fi].stderr)
                 for li in range(len(levels) - 1)]
        violation = max(devs[i + 1] - devs[i] - slack[i]
                        for i in range(len(levels) - 1))
        rows.append(_bound_row(f"monotone_convergence[{F.name}]", ANCHORS["coupling"],
                               violation, 0.0, 0.0, "statistical"))
        last = estimates[-1][fi]
        bound = lip * jumps.mean * (2.0 ** -levels[-1]) * sqrt_d
        rows.append(_bound_row(f"limit_bias[{F.name},n={levels[-1]}]",
                               ANCHORS["coupling"], abs(last.mean), bound,
                               sigma * last.stderr, "statistical"))
    return _finish("coupling", cfg, rows)


def _suite_sample(cfg: RunConfig, params: dict) -> Report:
    n_paths, level = params["n_paths"], params["project"]
    batch = sample_path_batch(cfg.measure(), cfg.T, cfg.stream(0).rng(), n_paths)
    if level is not None:
        batch = batch.project(level)
    # written straight from the flat arrays, which are validated once by the
    # rule JumpPath applies; line i equals batch.path(i).to_json()
    blob = paths_to_jsonl(batch.horizon, batch.dimension, batch.times,
                          batch.marks, batch.offsets)
    written = blob.count("\n")
    digest = hashlib.sha256(blob.encode()).hexdigest()
    rows = [_exact_row("paths_written", ANCHORS["sample"], written, n_paths, 0.0,
                       "deterministic")]
    return _finish("sample", cfg, rows,
                   artifacts={"paths_jsonl": blob, "paths_sha256": digest})


# -- one record per suite ------------------------------------------------------------

class _Suite(NamedTuple):
    """A suite: its runner; each parameter's default beside its (check, rule),
    checked when a config is made; and its needs, (field, check(cfg, params),
    rule), checked in order by `run_suite`, so each may rely on those before
    it.  Needs wait for the run: a default need not suit a measure it is not
    used on (`pi_mark` 1.0 is no atom of {2: 1}, yet `sample` runs on it)."""

    run: Callable[[RunConfig, dict], Report]
    params: Dict[str, Tuple[object, Tuple[Callable, str]]]
    needs: Tuple[Tuple[str, Callable, str], ...] = ()


_D1 = ("measure.dimension", lambda cfg, p: cfg.measure().dimension == 1, "d = 1")
_ON_LATTICE = ("measure", lambda cfg, p: cfg.lattice() is not None, "an integer-lattice measure")
_WITNESS_MASS = 1e-300  # keeps a witness 1/sqrt(p), its square and entropy finite

_SUITES: Dict[str, _Suite] = {
    "qi": _Suite(_suite_qi, {
        "ks": ([1.0, -1.0], (lambda v: _list_of(_finite_number, v),
                             "must be a list of finite numbers")),
        "corpus": (None, _CORPUS),
    }, (_D1, ("params.qi.ks", lambda cfg, p: cfg.lattice() is None or all(
        float(k).is_integer() for k in p["ks"]), "lattice points on a lattice measure"))),
    "poincare": _Suite(_suite_poincare, {
        "sharpness_horizons": ([0.5, 1.0, 2.0], (lambda v: _list_of(_positive_finite, v),
                                                 "must be a list of finite positive numbers")),
        "count_m_max": (80, _COUNT),
        "corpus": (None, _CORPUS),
    }, (_D1, _ON_LATTICE)),
    "generator": _Suite(_suite_generator, {
        "pi_mark": (1.0, (_finite_number, "must be a finite number")),
        "rank_counts": ([2, 3], (lambda v: _list_of(lambda j: _integer(j, 2), v, 1),
                                 "must be a non-empty list of integers >= 2")),
        "rank_samples": (100000, _SAMPLE_COUNT),
    }, (_D1, _ON_LATTICE,
        ("params.generator.pi_mark", lambda cfg, p: float(p["pi_mark"]).is_integer()
         and cfg.lattice().mass(p["pi_mark"]) > 0, "an atom of the lattice measure"))),
    "semigroup": _Suite(_suite_semigroup, {
        "t": (1.0, _POSITIVE),
        "quad_step": (0.001, _POSITIVE),
        "z": (0, (lambda v: _integer(v, -_POINT, _POINT),
                  "must be an integer in [-2**53, 2**53]")),
    }, (_D1, _ON_LATTICE,
        ("params.semigroup.quad_step", lambda cfg, p: simpson_steps(p["t"], p["quad_step"]) > 0,
         "a quad_step that cuts t into an even number of Simpson steps"))),
    "smalltime": _Suite(_suite_smalltime, {
        "s_values": ([0.1, 0.01, 0.001], (
            lambda v: _list_of(lambda s: _finite_number(s) and 0 < s <= 1, v, 1)
            and _increasing(sorted(v)), "must be a non-empty list of distinct numbers in (0, 1]")),
        "points": ([1, 2], (lambda v: _list_of(lambda p: _integer(p, -_POINT, _POINT), v),
                            "must be a list of integers in [-2**53, 2**53]")),
    }, (_D1, _ON_LATTICE)),
    "lsi": _Suite(_suite_lsi, {
        "ms": (list(range(10, 101, 10)), (
            lambda v: _list_of(lambda m: _integer(m, 1, _POINT), v, 2) and _increasing(v),
            "must be a strictly increasing list of at least two integers in [1, 2**53]")),
        "C": (10.0, _POSITIVE),
        "count_m_max": (400, _COUNT),
    }, (("params.lsi.ms", lambda cfg, p: poisson.pmf(np.asarray(p["ms"]), cfg.T).min()
         >= _WITNESS_MASS, f"witness levels of Poisson(T) mass >= {_WITNESS_MASS:g}"),
        ("params.lsi.ms", lambda cfg, p: sum(m >= cfg.T + 1 for m in p["ms"]) >= 2,
         "two witness levels >= T + 1, where the ratio curve rises"),
        ("params.lsi.count_m_max", lambda cfg, p: p["count_m_max"] >= p["ms"][-1],
         "count_m_max >= every witness level, so the count stats see each witness"))),
    "coupling": _Suite(_suite_coupling, {
        "levels": (list(range(1, 9)), (
            lambda v: _list_of(lambda n: _integer(n, -_LEVEL, _LEVEL), v, 2) and _increasing(v),
            f"must be a strictly increasing list of at least two integers in "
            f"[-{_LEVEL}, {_LEVEL}]")),
        "samples": (100000, _SAMPLE_COUNT),
    }, (_D1,)),
    "sample": _Suite(_suite_sample, {
        "n_paths": (3, _COUNT),
        "project": (None, (lambda v: v is None or _integer(v, -_LEVEL, _LEVEL),
                           f"must be null or an integer in [-{_LEVEL}, {_LEVEL}]")),
    }),
}

SUITE_NAMES = tuple(_SUITES)
DEFAULT_PARAMS = {name: {key: default for key, (default, _) in suite.params.items()}
                  for name, suite in _SUITES.items()}
_RULES = {**_FIELD_RULES, **{f"params.{name}.{key}": rule for name, suite in _SUITES.items()
                             for key, (_, rule) in suite.params.items()}}


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Execute one verification suite once its needs hold (else a ConfigError on
    the first that fails); a failed check is a pass=False row, never an exception."""
    if name not in _SUITES:
        raise ConfigError([("suite", f"unknown suite {name!r}; "
                                     f"choose from {', '.join(SUITE_NAMES)}")])
    suite, params = _SUITES[name], cfg.suite_params(name)
    for path, ok, rule in suite.needs:
        if not ok(cfg, params):
            key = path.rpartition(".")[2]
            got = f", got {params[key]!r}" if path.startswith("params.") else ""
            raise ConfigError([(path, f"the {name} suite needs {rule}{got}")])
    return suite.run(cfg, params)
