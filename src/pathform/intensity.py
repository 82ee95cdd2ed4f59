"""Jump-size (intensity) measures: validation, sampling, dyadic discretization.

A measure is either a finite list of weighted atoms in R^d (never at the
origin, unless the atom arose from discretization and is explicitly flagged)
or a black-box sampler producing d-vectors.  Discretization snaps points to
the dyadic lattice 2^{-n} Z^d by componentwise floor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    AtomAtOrigin,
    ConfigError,
    DimensionMismatch,
    NonProbability,
    PathformError,
    UnsupportedMeasure,
    UnsupportedVariant,
)

MASS_TOL = 1e-12

# A discrete mark draw counts, for each uniform, the cut points it reaches
# in a uint8, one comparison pass per cut; that count holds up to 255 cut
# points, and past them the draw binary-searches instead.  The passes are the
# faster draw at every count up to there: for 131,072 uniforms (numpy 2.4.6,
# x86_64) they take 0.15 / 1.8 / 8.1 ms at 2 / 64 / 255 cut points, against
# 2.4 / 8.9 / 12.4 ms for np.searchsorted.
SEQUENTIAL_CUTS = 255

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
        out = np.where(np.isinf(scaled) & np.isfinite(x), x, np.floor(scaled) / scale)
    # At very negative n, rounding down can pass the largest float: -1.7e308
    # at n = -1023 projects to -2^1024, which no float holds.
    lost = np.isfinite(x) & ~np.isfinite(out)
    if np.any(lost):
        raise UnsupportedMeasure(
            f"mark {float(x[lost][0])!r} has no finite projection at level {n}")
    return out


@dataclass(frozen=True)
class IntensityMeasure:
    """Distribution of a single jump mark on R^d minus the origin.

    Exactly one of (`points`, `masses`) or `sampler` is set, selecting the
    discrete or the continuous variant.  `origin_flagged` marks discrete
    measures that legitimately carry an origin atom produced by
    `discretize`; path builders drop the resulting zero marks.  A measure
    is validated once, when it is built, and a discrete one computes the
    cut points of its mark draws then too, so no two threads race to fill
    them in.
    """

    dimension: int
    points: Optional[np.ndarray] = None
    masses: Optional[np.ndarray] = None
    sampler: Optional[ContinuousSampler] = None
    description: str = ""
    origin_flagged: bool = False
    _cuts: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        self.validate()
        if self.kind == "discrete":
            # the normalized cdf exactly as Generator.choice computes it
            cdf = self.masses.cumsum()
            cdf /= cdf[-1]
            cuts = cdf[:-1]
            cuts.setflags(write=False)
            object.__setattr__(self, "_cuts", cuts)

    @classmethod
    def discrete(cls, atoms: Sequence, dimension: Optional[int] = None,
                 origin_flagged: bool = False) -> "IntensityMeasure":
        """Build from `[(point, mass), ...]`; points may be scalars for d=1."""
        rows = [np.atleast_1d(p) for p, _ in atoms]
        shapes = {r.shape for r in rows}
        if len(shapes) > 1:
            raise DimensionMismatch(f"atom points differ in shape: {sorted(shapes)}")
        pts = np.asarray(rows, dtype=float)
        ms = np.asarray([m for _, m in atoms], dtype=float)
        pts = pts.reshape(len(ms), -1) if len(ms) else pts.reshape(0, dimension or 1)
        if dimension is None:
            dimension = pts.shape[1]
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
        """Check all invariants, the only rules a jump measure obeys (a
        `LatticeModel` adds integrality); raises on the first violated one.
        Comparisons are written so that NaN fails them."""
        if self.dimension < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dimension}")
        if self.kind == "continuous":
            if not callable(self.sampler):
                raise UnsupportedVariant("continuous measure needs a sampler")
            return
        pts, ms = self.points, self.masses
        if not len(ms):
            raise NonProbability("a discrete measure needs at least one atom")
        if pts.shape != (len(ms), self.dimension):
            raise DimensionMismatch(
                f"points shape {pts.shape} incompatible with d={self.dimension}")
        if not np.all(ms > 0):
            raise NonProbability("atom masses must be strictly positive")
        total = math.fsum(ms)
        if not abs(total - 1.0) <= MASS_TOL:
            raise NonProbability(f"atom masses sum to {total!r}, not 1")
        if not np.all(np.isfinite(pts)):
            raise NonProbability("atom coordinates must be finite")
        seen = set()
        for row in pts.tolist():
            key = tuple(row)  # float tuples compare and hash by value
            if key in seen:
                raise NonProbability(f"duplicate atom at {row}")
            seen.add(key)
        if not self.origin_flagged and np.any(np.all(pts == 0.0, axis=1)):
            raise AtomAtOrigin("discrete measure charges the origin")

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One mark as a (d,) array; deterministic given the stream state."""
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` i.i.d. marks as a (size, d) array.

        A discrete draw is the inverse transform `rng.choice(len(masses),
        size, p=masses)` makes, without its per-call checks of `p`: one
        `rng.random(size)`, then the atom index counts the cut points
        `cdf[:-1]` that each uniform reaches, which is `cdf.searchsorted(u,
        side="right")` because every u < 1 == cdf[-1].  The cut points are
        the same floats `choice` builds, so the indices, and the stream
        left behind, are bit-identical to it.
        """
        if self.kind == "discrete":
            u = rng.random(size)
            if len(self._cuts) > SEQUENTIAL_CUTS:
                idx = np.searchsorted(self._cuts, u, side="right")
            else:
                hits = np.zeros(size, dtype=np.uint8)
                for c in self._cuts:
                    hits += (u >= c).view(np.uint8)
                idx = hits.astype(np.intp)
            return self.points.take(idx, axis=0)
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
        merged: dict = {}
        for row, m in zip(project_mark(self.points, n).tolist(), self.masses):
            # float tuples compare by value, as `validate` compares atoms
            merged[tuple(row)] = merged.get(tuple(row), 0.0) + m
        return IntensityMeasure.discrete(list(merged.items()), dimension=self.dimension,
                                         origin_flagged=any(not any(row) for row in merged))


# -- builtins --------------------------------------------------------------

def uniform_pm1() -> IntensityMeasure:
    """Uniform on {+1, -1} in d=1."""
    return IntensityMeasure.discrete([(1.0, 0.5), (-1.0, 0.5)])


def uniform_interval(a: float, b: float) -> IntensityMeasure:
    if not (a < b and math.isfinite(b - a)):  # numpy draws a + (b - a) u
        raise ConfigError([("measure.builtin", f"uniform_interval needs a < b, b - a "
                                               f"finite, got ({a}, {b})")])

    def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(a, b, size=(size, 1))

    return IntensityMeasure.continuous(_draw, 1, f"uniform on [{a}, {b}]")


def gauss_shifted(mean: float, sd: float) -> IntensityMeasure:
    # numpy draws mean + sd z with |z| < 14 (its ziggurat's largest tail draw
    # is 3.65 + log(2**53) / 3.65), so this bound keeps every draw finite
    if not (sd > 0 and math.isfinite(abs(mean) + 16.0 * sd)):
        raise ConfigError([("measure.builtin", f"gauss_shifted needs sd > 0, |mean| + "
                                               f"16 sd finite, got ({mean}, {sd})")])

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
            return IntensityMeasure.discrete(atoms, dimension=dim)
        except PathformError as exc:
            raise ConfigError([("measure.atoms", f"{type(exc).__name__}: {exc}")])
    if kind == "continuous":
        problems.append(("measure.builtin",
                         "continuous measures need a builtin sampler in config"))
    else:
        problems.append(("measure.type", f"unknown type {kind!r}"))
    raise ConfigError(problems)
