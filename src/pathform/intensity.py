"""Jump-size (intensity) measures: validation, sampling, dyadic discretization.

A measure is either a finite list of weighted atoms in R^d (never at the
origin, unless the atom arose from discretization and is explicitly flagged)
or a black-box sampler producing d-vectors.  Discretization snaps points to
the dyadic lattice 2^{-n} Z^d by componentwise floor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AtomAtOrigin,
    ConfigError,
    DimensionMismatch,
    NonProbability,
    UnsupportedVariant,
)

MASS_TOL = 1e-12

# Batched sampler protocol for the continuous variant: sampler(rng, size)
# must return a (size, d) float array.
ContinuousSampler = Callable[[np.random.Generator, int], np.ndarray]


def project_mark(x, n: int) -> np.ndarray:
    """Snap a point (or array of points) to the lattice 2^{-n} Z^d.

    Componentwise 2^{-n} * floor(2^n * x); idempotent on lattice points and
    within 2^{-n} of the input in every coordinate.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    scale = float(2**n)
    with np.errstate(over="ignore"):
        scaled = x * scale
    # A finite x whose 2^n * x overflows has exponent >= 1024 - n > 52 - n,
    # so it already lies on the 2^{-n} lattice and is its own projection.
    return np.where(np.isinf(scaled) & np.isfinite(x), x, np.floor(scaled) / scale)


@dataclass(frozen=True)
class IntensityMeasure:
    """Distribution of a single jump mark on R^d minus the origin.

    Exactly one of (`points`, `masses`) or `sampler` is set, selecting the
    discrete or the continuous variant.  `origin_flagged` marks discrete
    measures that legitimately carry an origin atom produced by
    `discretize`; path builders drop the resulting zero marks.  A measure
    is validated once, when it is built.
    """

    dimension: int
    points: Optional[np.ndarray] = None
    masses: Optional[np.ndarray] = None
    sampler: Optional[ContinuousSampler] = None
    description: str = ""
    origin_flagged: bool = False

    def __post_init__(self):
        self.validate()

    @classmethod
    def discrete(cls, atoms: Sequence, dimension: Optional[int] = None,
                 origin_flagged: bool = False) -> "IntensityMeasure":
        """Build from `[(point, mass), ...]`; points may be scalars for d=1."""
        pts = np.atleast_2d(np.asarray([np.atleast_1d(p) for p, _ in atoms], dtype=float))
        ms = np.asarray([m for _, m in atoms], dtype=float)
        if dimension is None:
            dimension = pts.shape[1]
        pts = pts.reshape(len(ms), -1)
        pts.setflags(write=False)
        ms.setflags(write=False)
        return cls(dimension=int(dimension), points=pts, masses=ms,
                   origin_flagged=origin_flagged)

    @classmethod
    def continuous(cls, sampler: ContinuousSampler, dimension: int,
                   description: str = "") -> "IntensityMeasure":
        return cls(dimension=int(dimension), sampler=sampler,
                   description=description)

    @property
    def kind(self) -> str:
        return "discrete" if self.points is not None else "continuous"

    def validate(self) -> None:
        """Check all invariants; raises on the first violated one."""
        if self.dimension < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dimension}")
        if self.kind == "continuous":
            if not callable(self.sampler):
                raise UnsupportedVariant("continuous measure needs a sampler")
            return
        pts, ms = self.points, self.masses
        if pts.shape != (len(ms), self.dimension):
            raise DimensionMismatch(
                f"points shape {pts.shape} incompatible with d={self.dimension}")
        if np.any(ms <= 0):
            raise NonProbability("atom masses must be strictly positive")
        total = float(ms.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise NonProbability(f"atom masses sum to {total!r}, not 1")
        seen = set()
        for row in pts:
            key = row.tobytes()
            if key in seen:
                raise NonProbability(f"duplicate atom at {row.tolist()}")
            seen.add(key)
        if not self.origin_flagged and np.any(np.all(pts == 0.0, axis=1)):
            raise AtomAtOrigin("discrete measure charges the origin")

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One mark as a (d,) array; deterministic given the stream state."""
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` i.i.d. marks as a (size, d) array."""
        if self.kind == "discrete":
            idx = rng.choice(len(self.masses), size=size, p=self.masses)
            return self.points[idx].copy()
        draws = np.asarray(self.sampler(rng, size), dtype=float)
        if draws.shape != (size, self.dimension):
            raise DimensionMismatch(
                f"sampler returned shape {draws.shape}, expected {(size, self.dimension)}")
        if not self.origin_flagged and size and np.any(np.all(draws == 0.0, axis=1)):
            raise AtomAtOrigin("continuous sampler produced the origin")
        return draws

    # -- discretization ---------------------------------------------------

    def discretize(self, n: int) -> "IntensityMeasure":
        """Push atoms onto 2^{-n} Z^d, merging masses that land together.

        Continuous measures are discretized per-sample via `project_mark`
        at path-construction time, never at the measure level.
        """
        if self.kind == "continuous":
            raise UnsupportedVariant("discretize is defined for discrete measures only")
        projected = project_mark(self.points, n)
        merged: dict = {}
        for row, m in zip(projected, self.masses):
            key = row.tobytes()
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + m)
            else:
                merged[key] = (row, m)
        atoms = [(row, m) for row, m in merged.values()]
        flagged = any(np.all(row == 0.0) for row, _ in atoms)
        return IntensityMeasure.discrete(atoms, dimension=self.dimension,
                                         origin_flagged=flagged)


# -- builtins --------------------------------------------------------------

def uniform_pm1() -> IntensityMeasure:
    """Uniform on {+1, -1} in d=1."""
    return IntensityMeasure.discrete([(1.0, 0.5), (-1.0, 0.5)])


def uniform_interval(a: float, b: float) -> IntensityMeasure:
    if not a < b:
        raise ConfigError([("builtin", f"uniform_interval needs a < b, got ({a}, {b})")])

    def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(a, b, size=(size, 1))

    return IntensityMeasure.continuous(_draw, 1, f"uniform on [{a}, {b}]")


def gauss_shifted(mean: float, sd: float) -> IntensityMeasure:
    if sd <= 0:
        raise ConfigError([("builtin", f"gauss_shifted needs sd > 0, got {sd}")])

    def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(mean, sd, size=(size, 1))

    return IntensityMeasure.continuous(_draw, 1, f"normal({mean}, {sd}^2)")


_BUILTIN_RE = re.compile(r"^([a-z_0-9]+)(?:\(([^)]*)\))?$")


def measure_from_spec(spec: dict) -> IntensityMeasure:
    """Build a measure from its config-file representation.

    Accepted keys: dimension, type ("discrete" | "continuous"),
    atoms ([[point..., mass], ...] or [[[point...], mass], ...]),
    builtin ("uniform_pm1" | "uniform_interval(a,b)" | "gauss_shifted(m,s)").
    """
    problems = []
    if not isinstance(spec, dict):
        raise ConfigError([("measure", "must be an object")])
    builtin = spec.get("builtin")
    if builtin is not None:
        m = _BUILTIN_RE.match(str(builtin).replace(" ", ""))
        name = m.group(1) if m else None
        args = []
        if m and m.group(2):
            try:
                args = [float(tok) for tok in m.group(2).split(",")]
            except ValueError:
                name = None
        if name == "uniform_pm1" and not args:
            return uniform_pm1()
        if name == "uniform_interval" and len(args) == 2:
            return uniform_interval(*args)
        if name == "gauss_shifted" and len(args) == 2:
            return gauss_shifted(*args)
        raise ConfigError([("measure.builtin", f"unknown builtin {builtin!r}")])

    kind = spec.get("type", "discrete")
    dim = spec.get("dimension", 1)
    if not isinstance(dim, int) or dim < 1:
        problems.append(("measure.dimension", "must be a positive integer"))
    if kind == "discrete":
        atoms_raw = spec.get("atoms")
        if not isinstance(atoms_raw, list) or not atoms_raw:
            problems.append(("measure.atoms", "must be a non-empty list"))
            raise ConfigError(problems)
        atoms = []
        for i, entry in enumerate(atoms_raw):
            try:
                point, mass = entry
                atoms.append((np.atleast_1d(np.asarray(point, dtype=float)), float(mass)))
            except (TypeError, ValueError):
                problems.append((f"measure.atoms[{i}]", "expected [point, mass]"))
        if problems:
            raise ConfigError(problems)
        try:
            return IntensityMeasure.discrete(
                atoms, dimension=dim if isinstance(dim, int) else None)
        except (NonProbability, AtomAtOrigin, DimensionMismatch) as exc:
            raise ConfigError([("measure.atoms", f"{type(exc).__name__}: {exc}")])
    if kind == "continuous":
        problems.append(("measure.builtin",
                         "continuous measures need a builtin sampler in config"))
    else:
        problems.append(("measure.type", f"unknown type {kind!r}"))
    raise ConfigError(problems)
