"""Functionals on path space, the squared-difference field, and the Monte
Carlo estimators built on random shifts.

The estimators all go through one deterministic reducer, `_run_chunked`:
the sample range is cut into fixed-size chunks, chunk i draws from its own
substream, and per-chunk (count, mean, squared deviation) partials are
merged in chunk order (Chan, Golub & LeVeque), which stays accurate whatever
offset the values carry.  Worker count (PATHFORM_THREADS) therefore never
changes a result, only wall time.

A cylindrical functional F(path) = f(path(t_1), ..., path(t_n)) sees a shift
by x at time t only through the coordinates with t_j >= t, which is what lets
the estimators evaluate shifted paths without rebuilding them, and the exact
lattice routines collapse time integrals to finite sums over the coordinate
grid.  Each functional is one vectorized map: `f` takes the coordinates of
many paths at once and `g` many jump counts at once, and every route (one
path, a Monte Carlo batch, an exact grid) evaluates it through
`_apply_rows` or `_apply_counts`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import xlogy

from .errors import (
    BoundViolation,
    HorizonMismatch,
    NoSuchJump,
    UnsortedTimes,
    ZeroMark,
)
from .intensity import IntensityMeasure
from .path import JumpPath
from .sampler import (
    PathBatch,
    ShiftedBatch,
    StreamConfig,
    sample_path_batch,
    sample_shifted_batch,
)

DEFAULT_CHUNK = 1 << 16


# -- functional types --------------------------------------------------------

@dataclass(frozen=True)
class CylindricalFunctional:
    """F(path) = f(path(t_1), ..., path(t_n)) with a declared sup bound.

    `f` is vectorized over paths: it takes the coordinates of N paths as an
    (N, n) array when d = 1, or (N, n, d) in general, column j holding
    path(t_j), and returns N values.  It must not write into that array,
    which may be a read-only view of coordinates other functionals share.
    """

    times: Tuple[float, ...]
    f: Callable[[np.ndarray], np.ndarray]
    bound: float = math.inf
    name: str = ""

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise UnsortedTimes("a cylindrical functional needs at least one time")
        # comparisons written so that NaN fails them
        if not times[0] > 0 or not all(b > a for a, b in zip(times, times[1:])):
            raise UnsortedTimes("coordinate times must be strictly increasing and > 0")
        object.__setattr__(self, "times", times)

    def __call__(self, path: JumpPath) -> float:
        return evaluate(self, path)


@dataclass(frozen=True)
class CountFunctional:
    """F(path) = g(total number of jumps); `g` takes an integer array of
    counts and returns as many values."""

    g: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, path: JumpPath) -> float:
        return evaluate(self, path)


PathFunctional = Union[CylindricalFunctional, CountFunctional]


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate: mean, standard error, sample count."""

    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class JumpTimeDistribution:
    """Atomic distribution over jump times of one path."""

    support: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        total = sum(w for _, w in self.support)
        if self.support and abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")


class Moments(NamedTuple):
    mean: MCEstimate
    second_moment: MCEstimate
    entropy: MCEstimate


@dataclass(frozen=True)
class QIComparison:
    """Both sides of the shifted-law identity on common samples.

    lhs estimates E F(shifted path); rhs estimates E[F(base) * N_T] / T;
    diff is the per-sample difference, whose stderr is the right width for
    a band test because the two sides share their randomness.
    """

    lhs: MCEstimate
    rhs: MCEstimate
    diff: MCEstimate


@dataclass(frozen=True)
class PairingResult:
    """Coupled estimates on one sample set for the form/generator pairing.

    `identity_fg` averages the per-sample sum of the polarized squared
    difference and G * LF (mean zero when the pairing identity holds);
    `symmetry` averages G * LF - F * LG.
    """

    form: MCEstimate
    pairing_fg: MCEstimate
    pairing_gf: MCEstimate
    identity_fg: MCEstimate
    identity_gf: MCEstimate
    symmetry: MCEstimate


# -- evaluation helpers -------------------------------------------------------

def _apply_rows(F: CylindricalFunctional, coords: np.ndarray) -> np.ndarray:
    """Evaluate f on (N, n, d) coordinate rows, enforcing the sup bound;
    NaN is never within a bound."""
    N, n, d = coords.shape
    vals = np.asarray(F.f(coords[:, :, 0] if d == 1 else coords),
                      dtype=float).reshape(N)
    if not np.all(np.abs(vals) <= F.bound):
        raise BoundViolation(
            f"functional {F.name or F.f!r} exceeded declared bound {F.bound}")
    return vals


def _apply_counts(F: CountFunctional, counts) -> np.ndarray:
    """Evaluate g on an integer array of jump counts."""
    counts = np.asarray(counts)
    return np.asarray(F.g(counts), dtype=float).reshape(len(counts))


def _refuse_past_horizon(F: CylindricalFunctional, horizon: float) -> None:
    if F.times[-1] > horizon:
        raise HorizonMismatch(
            f"functional needs t={F.times[-1]} but paths end at {horizon}")


def _coords_at(F: CylindricalFunctional, batch: PathBatch) -> np.ndarray:
    """The batch's (B, n, d) coordinates at F's times; a functional that
    reads past the paths' horizon is refused."""
    _refuse_past_horizon(F, batch.horizon)
    return batch.coords_at(F.times)


def evaluate(F: PathFunctional, path: JumpPath) -> float:
    """F at one path; BoundViolation flags a misdeclared functional."""
    if isinstance(F, CountFunctional):
        return float(_apply_counts(F, [path.count_jumps()])[0])
    if F.times[-1] > path.horizon:
        raise HorizonMismatch(
            f"functional needs t={F.times[-1]} but the path ends at {path.horizon}")
    coords = path.coordinates(np.asarray(F.times))
    return float(_apply_rows(F, coords[None, :, :])[0])


def evaluate_batch(F: PathFunctional, batch: PathBatch) -> np.ndarray:
    """F at every path of a batch, as a (B,) array."""
    if isinstance(F, CountFunctional):
        return _apply_counts(F, batch.counts)
    return _apply_rows(F, _coords_at(F, batch))


def gamma(F: PathFunctional, G: PathFunctional, t: float, x,
          path: JumpPath) -> float:
    """Squared-difference field: the product of the two shift increments."""
    shifted = path.shift(t, x)
    return ((evaluate(F, shifted) - evaluate(F, path))
            * (evaluate(G, shifted) - evaluate(G, path)))


def _shifted_values(Fs: Sequence[PathFunctional], sb: ShiftedBatch):
    """Yield (base coordinates, base values, shifted values) for each
    functional in turn, all read off one batch without path rebuilding.

    Base and shifted coordinates are built once, at the union of the
    functionals' times; each functional reads its own columns (a view
    where they are adjacent), so its values are the ones a batch built at
    its times alone would give.  The shared coordinates are read-only, so a
    functional that writes into its input cannot alter another's.  A count
    functional has no coordinates (None).  Every functional is checked
    against the horizon before any coordinate is built.
    """
    cylindrical = [F for F in Fs if isinstance(F, CylindricalFunctional)]
    for F in cylindrical:
        _refuse_past_horizon(F, sb.base.horizon)
    union = sorted({t for F in cylindrical for t in F.times})
    column = {t: j for j, t in enumerate(union)}
    if union:
        base = sb.base.coords_at(union)
        shifted = sb.shifted_coords(union, base)
        base.flags.writeable = shifted.flags.writeable = False
    for F in Fs:
        if isinstance(F, CountFunctional):
            yield (None, _apply_counts(F, sb.base.counts),
                   _apply_counts(F, sb.shifted_counts()))
            continue
        lo, hi = column[F.times[0]], column[F.times[-1]] + 1
        cols = (slice(lo, hi) if hi - lo == len(F.times)
                else [column[t] for t in F.times])
        base_coords = base[:, cols, :]
        yield (base_coords, _apply_rows(F, base_coords),
               _apply_rows(F, shifted[:, cols, :]))


# -- chunked deterministic reduction ------------------------------------------

def worker_count() -> int:
    raw = os.environ.get("PATHFORM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _chunk_sizes(n_samples: int, chunk_size: int) -> List[int]:
    if n_samples < 2:
        raise ValueError("estimators need n_samples >= 2")
    full, rem = divmod(n_samples, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def _map_chunks(fn, n_chunks: int) -> list:
    workers = worker_count()
    if workers <= 1 or n_chunks <= 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def _moments(a: np.ndarray) -> Tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk's values.

    Deviations are taken from the first value before averaging, so a
    constant chunk has exactly its value as mean and zero spread."""
    dev = a - a[0]
    m = dev.mean()
    r = dev - m
    return len(a), float(a[0] + m), float(np.dot(r, r))


def _merge(p: Tuple[int, float, float], q: Tuple[int, float, float]):
    """Pairwise update of (count, mean, M2) partials (Chan et al. 1979)."""
    n = p[0] + q[0]
    delta = q[1] - p[1]
    return (n, p[1] + delta * (q[0] / n),
            p[2] + q[2] + delta * delta * (p[0] * q[0] / n))


def _run_chunked(n_samples: int, cfg: StreamConfig, chunk_fn) -> List[MCEstimate]:
    """Reduce chunk_fn(rng, size) -> value arrays (a list, or a generator
    that builds them one at a time) into MCEstimates.

    Each array's chunk partial is merged in chunk order, so the outcome is
    bit-identical for any worker count.
    """
    sizes = _chunk_sizes(n_samples, DEFAULT_CHUNK)

    def work(i: int):
        return [_moments(a) for a in chunk_fn(cfg.chunk_rng(i), sizes[i])]

    partials = _map_chunks(work, len(sizes))
    out = []
    for j in range(len(partials[0])):
        n, mean, m2 = reduce(_merge, (p[j] for p in partials))
        out.append(MCEstimate(mean=mean, stderr=math.sqrt(m2 / (n - 1) / n), n=n))
    return out


# -- Monte Carlo estimators ---------------------------------------------------

def energy_mc(F: PathFunctional, measure: IntensityMeasure, horizon: float,
              n_samples: int, cfg: StreamConfig) -> MCEstimate:
    """Quadratic form of F: mean of (F(shifted) - F(base))^2 over random
    shifts.  The 1/T normalization and the uniform shift-time density
    cancel, so the plain mean is the estimator."""

    def chunk(rng, size):
        sb = sample_shifted_batch(measure, horizon, rng, size)
        _, vb, vs = next(_shifted_values([F], sb))
        d = vs - vb
        return [d * d]

    return _run_chunked(n_samples, cfg, chunk)[0]


def moments_mc(F: PathFunctional, measure: IntensityMeasure, horizon: float,
               n_samples: int, cfg: StreamConfig) -> Moments:
    """Plug-in estimates of mean, second moment and F^2 log F^2 (natural
    log, 0 log 0 = 0) over base paths."""

    def chunk(rng, size):
        v = evaluate_batch(F, sample_path_batch(measure, horizon, rng, size))
        sq = v * v
        return [v, sq, xlogy(sq, sq)]

    mean, second, entropy = _run_chunked(n_samples, cfg, chunk)
    return Moments(mean=mean, second_moment=second, entropy=entropy)


def qi_mc(Fs: Sequence[PathFunctional], measure: IntensityMeasure,
          horizon: float, n_samples: int, cfg: StreamConfig) -> List[QIComparison]:
    """Statistical check of the shifted-path law for each functional: E
    F(shifted) against E[F(base) * N_T] / T on common samples.

    The identity holds for every F, so one shifted sample per chunk serves
    every functional (common random numbers): entry j is the result a call
    on `[Fs[j]]` alone gives, and the entries are correlated.
    """

    def entry(values, counts):
        # one functional's arrays: they are freed when this generator ends,
        # before the next functional's are built
        _, vb, vs = next(values)
        rhs = vb * counts / horizon
        yield vs
        yield rhs
        yield vs - rhs

    def chunk(rng, size):
        sb = sample_shifted_batch(measure, horizon, rng, size)
        values = _shifted_values(Fs, sb)
        for _ in Fs:
            yield from entry(values, sb.base.counts)

    est = _run_chunked(n_samples, cfg, chunk)
    return [QIComparison(*est[j:j + 3]) for j in range(0, len(est), 3)]


# -- conditional shift-time distribution ---------------------------------------

def pi_k(path: JumpPath, k) -> JumpTimeDistribution:
    """Conditional law of the shift time given the shifted path: uniform
    over the jump times whose mark equals k exactly (every completion of
    the path is equally likely, certified by the rank-uniformity test)."""
    times = path.jump_times_of_mark(k)
    if len(times) == 0:
        raise NoSuchJump(f"path has no jump of mark {k!r}")
    w = 1.0 / len(times)
    return JumpTimeDistribution(tuple((float(t), w) for t in times))


def pi_k_rank_counts(measure: IntensityMeasure, horizon: float, k,
                     n_samples: int, cfg: StreamConfig, max_count: int = 6) -> dict:
    """Histogram the rank of the shift time among same-mark jump times.

    Draw base paths and a uniform shift time, form base + k 1_[tau, T], and
    record (j, rank) where j counts the shifted path's mark-k jumps.  Under
    the uniform conditional law each rank 1..j is equally likely given j.
    Returns {j: array of rank counts} for j = 1..max_count.
    """
    kvec = np.atleast_1d(np.asarray(k, dtype=float))
    if np.all(kvec == 0.0):
        raise ZeroMark("mark must be nonzero")
    sizes = _chunk_sizes(n_samples, DEFAULT_CHUNK)

    def work(i: int):
        rng = cfg.chunk_rng(i)
        batch = sample_path_batch(measure, horizon, rng, sizes[i])
        tau = rng.uniform(0.0, horizon, size=sizes[i])
        sel = np.all(batch.marks == kvec, axis=1)
        ids = batch.path_ids[sel]
        n_k = np.bincount(ids, minlength=batch.size)
        earlier = np.bincount(ids[batch.times[sel] < tau[ids]],
                              minlength=batch.size)
        return n_k + 1, earlier + 1

    out = {j: np.zeros(j, dtype=np.int64) for j in range(1, max_count + 1)}
    for j_arr, rank_arr in _map_chunks(work, len(sizes)):
        for j in range(1, max_count + 1):
            mask = j_arr == j
            if mask.any():
                out[j] += np.bincount(rank_arr[mask] - 1, minlength=j)[:j]
    return out


# -- generator ------------------------------------------------------------------

def generator_apply(F: PathFunctional, path: JumpPath, model,
                    horizon: float) -> float:
    """Jump generator at one path: insertion term summed exactly over the
    lattice support and the coordinate grid, removal term summed over the
    path's own jumps with the uniform conditional weights."""
    T = float(horizon)
    if isinstance(F, CountFunctional):
        n = path.count_jumps()
        below, at, above = _apply_counts(F, [max(n - 1, 0), n, n + 1])
        return float((above - at) + n * (below - at) / T)
    base = evaluate(F, path)
    first = 0.0
    for key, w in model.pmf.items():
        kvec = np.asarray(key, dtype=float)
        prev = 0.0
        acc = 0.0
        for t in F.times:
            acc += (t - prev) * (evaluate(F, path.shift(t, kvec)) - base)
            prev = t
        first += w * acc
    second = 0.0
    for t, mark in zip(path.times, path.marks):
        second += evaluate(F, path.shift(t, -mark)) - base
    return (first + second) / T


def _generator_values_batch(F: PathFunctional, batch: PathBatch, model,
                            horizon: float, base_coords: Optional[np.ndarray],
                            vb: np.ndarray) -> np.ndarray:
    """Vectorized generator values for every path in a batch.

    `base_coords` and `vb` are the batch's coordinates at F's times and F's
    values there, as `_shifted_values` yields them (a count
    functional has no coordinates and ignores both)."""
    T = float(horizon)
    if isinstance(F, CountFunctional):
        c = batch.counts
        at = _apply_counts(F, c)
        return ((_apply_counts(F, c + 1) - at)
                + c * (_apply_counts(F, np.maximum(c - 1, 0)) - at) / T)
    times = np.asarray(F.times)
    deltas = np.diff(np.concatenate([[0.0], times]))
    first = np.zeros(batch.size)
    for key, w in model.pmf.items():
        # a shift from coordinate i on moves columns i.. by k: start with
        # every column moved, then put back one column per step
        shifted = base_coords + np.asarray(key, dtype=float)
        for i in range(len(times)):
            if i:
                shifted[:, i - 1, :] = base_coords[:, i - 1, :]
            first += w * deltas[i] * (_apply_rows(F, shifted) - vb)
    second = np.zeros(batch.size)
    if len(batch.times):
        per_jump = base_coords[batch.path_ids]
        mask = (times[None, :] >= batch.times[:, None]).astype(float)
        mod = per_jump - batch.marks[:, None, :] * mask[:, :, None]
        diff = _apply_rows(F, mod) - vb[batch.path_ids]
        second = np.bincount(batch.path_ids, weights=diff, minlength=batch.size)
    return (first + second) / T


def pairing_mc(pairs: Sequence[Tuple[PathFunctional, PathFunctional]], model,
               horizon: float, n_samples: int,
               cfg: StreamConfig) -> List[PairingResult]:
    """Quadratic form and both generator pairings for each (F, G) pair.

    Sampling uses the lattice model's own jump measure, and one shifted
    sample per chunk serves every pair: entry j is the result a call on
    `[pairs[j]]` alone gives.  Per-sample residual statistics are included
    because the estimates share samples and their difference has a
    directly estimable standard error.
    """
    measure = model.to_measure()
    # G is F: one evaluation serves both sides
    functionals = [H for F, G in pairs for H in ((F,) if G is F else (F, G))]

    def entry(F, G, values, base):
        # one pair's arrays: they are freed when this generator ends, before
        # the next pair's are built
        fc, fb, fs = next(values)
        lf = _generator_values_batch(F, base, model, horizon, fc, fb)
        if G is F:
            gb, gs, lg = fb, fs, lf
        else:
            gc, gb, gs = next(values)
            lg = _generator_values_batch(G, base, model, horizon, gc, gb)
        form = (fs - fb) * (gs - gb)
        fg = gb * lf
        gf = fb * lg
        yield form
        yield fg
        yield gf
        yield form + fg
        yield form + gf
        yield fg - gf

    def chunk(rng, size):
        sb = sample_shifted_batch(measure, horizon, rng, size)
        values = _shifted_values(functionals, sb)
        for F, G in pairs:
            yield from entry(F, G, values, sb.base)

    est = _run_chunked(n_samples, cfg, chunk)
    return [PairingResult(*est[j:j + 6]) for j in range(0, len(est), 6)]


# -- builtin functional families ------------------------------------------------

def coordinate(time: float, lo: Optional[float] = None,
               hi: Optional[float] = None, bound: float = math.inf,
               name: str = "") -> CylindricalFunctional:
    """Value of the path at one time (d = 1), optionally clipped to [lo, hi]."""
    if lo is None and hi is None:
        return CylindricalFunctional(
            times=(time,), f=lambda c: c[:, 0],
            bound=bound, name=name or f"coord@{time}")
    lo = -math.inf if lo is None else float(lo)
    hi = math.inf if hi is None else float(hi)
    b = max(abs(v) for v in (lo, hi) if math.isfinite(v))
    return CylindricalFunctional(
        times=(time,), f=lambda c: np.clip(c[:, 0], lo, hi),
        bound=min(bound, b), name=name or f"clip[{lo},{hi}]@{time}")


def indicator_at(time: float, value: float, name: str = "") -> CylindricalFunctional:
    """1 when the path equals `value` exactly at `time` (d = 1, lattice use)."""
    v = float(value)
    return CylindricalFunctional(
        times=(time,), f=lambda c: (c[:, 0] == v).astype(float),
        bound=1.0, name=name or f"ind[{v}]@{time}")


def product_indicator(times: Sequence[float], values: Sequence[float],
                      name: str = "") -> CylindricalFunctional:
    """Product of exact-value indicators over several times (d = 1)."""
    vals = np.asarray(values, dtype=float)
    if len(vals) != len(times):
        raise UnsortedTimes("times and values must have equal length")

    def f(c):
        # one test per column: the same booleans as np.all(c == vals, axis=1)
        hit = c[:, 0] == vals[0]
        for j in range(1, len(vals)):
            hit &= c[:, j] == vals[j]
        return hit.astype(float)

    return CylindricalFunctional(
        times=tuple(times), f=f, bound=1.0, name=name or f"prod_ind@{list(times)}")


def capped_count(cap: int, name: str = "") -> CountFunctional:
    """min(number of jumps, cap)."""
    cap = int(cap)
    return CountFunctional(g=lambda c: np.minimum(c, cap).astype(float),
                           name=name or f"count^{cap}")
