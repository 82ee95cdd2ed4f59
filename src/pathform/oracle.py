"""Exact (truncation-certified) computations for lattice jump measures.

Everything here reduces to the jump-count expansion of the transition law,

    p_s = e^{-s} * sum_m (s^m / m!) * nu^{*m},

truncated at the smallest M whose Poisson tail is below the model tolerance.
The discarded mass is carried along as a certified error bound, never
silently dropped.  On top of the transition tables sit chained-increment
expectations for cylindrical functionals, count-weighted expectations for
the shifted-law density identity, both sides of the variance/energy
inequality, the semigroup variance identity, short-time diagnostics, and
the count-variable calculus used to break the entropy inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy import signal
from scipy.integrate import simpson
from scipy.special import xlogy
from scipy.stats import poisson

from .errors import (
    AtomAtOrigin,
    DimensionMismatch,
    NonProbability,
    TimeOutOfRange,
    TruncationTooCoarse,
    UnsortedTimes,
    UnsupportedMeasure,
)
from .functional import CountFunctional, CylindricalFunctional, _apply_rows
from .intensity import IntensityMeasure

LatticePoint = Tuple[int, ...]


def _as_point(x, dimension: int) -> LatticePoint:
    arr = np.atleast_1d(np.asarray(x))
    if arr.shape != (dimension,):
        raise DimensionMismatch(f"point shape {arr.shape} != ({dimension},)")
    if not np.all(arr == np.rint(arr)):
        raise UnsupportedMeasure(f"{x!r} is not a lattice point")
    return tuple(int(v) for v in np.rint(arr))


def poisson_truncation(s: float, eps: float) -> Tuple[int, float]:
    """Smallest M with P(Poisson(s) > M) <= eps, and that tail."""
    if s < 0:
        raise TimeOutOfRange(f"elapsed time must be >= 0, got {s}")
    if s == 0:
        return 0, 0.0
    guess = poisson.isf(eps, s)
    m = int(guess) if np.isfinite(guess) else 0
    while poisson.sf(m, s) > eps:
        m += 1
    while m > 0 and poisson.sf(m - 1, s) <= eps:
        m -= 1
    return m, float(poisson.sf(m, s))


@dataclass(frozen=True)
class PmfTable:
    """Sparse lattice pmf plus the certified mass left out of it."""

    dimension: int
    probs: Dict[LatticePoint, float]
    tail_mass: float

    def get(self, point) -> float:
        return self.probs.get(_as_point(point, self.dimension), 0.0)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keys (S, d) int64, probs (S,)) in sorted key order."""
        items = sorted(self.probs.items())
        keys = np.asarray([k for k, _ in items], dtype=np.int64).reshape(len(items), self.dimension)
        vals = np.asarray([v for _, v in items], dtype=float)
        return keys, vals


class LatticeModel:
    """Finite-support jump measure on Z^d with convolution-power caches.

    The caches (plain dicts, append-only) make repeated transition-table
    requests cheap; each public computation stays a pure function of its
    arguments.
    """

    def __init__(self, pmf: Dict, truncation_tolerance: float = 1e-12):
        if truncation_tolerance <= 0:
            raise TruncationTooCoarse("tolerance must be positive")
        items = list(pmf.items())
        if not items:
            raise NonProbability("empty support")
        dim = len(np.atleast_1d(np.asarray(items[0][0])))
        norm: Dict[LatticePoint, float] = {}
        for key, mass in items:
            point = _as_point(key, dim)
            if float(mass) <= 0:
                raise NonProbability(f"mass at {point} must be positive")
            if all(c == 0 for c in point):
                raise AtomAtOrigin("lattice measure charges the origin")
            if point in norm:
                raise NonProbability(f"duplicate atom {point}")
            norm[point] = float(mass)
        total = math.fsum(norm.values())
        if abs(total - 1.0) > 1e-12:
            raise NonProbability(f"masses sum to {total!r}, not 1")
        self.dimension = dim
        self.pmf: Dict[LatticePoint, float] = dict(sorted(norm.items()))
        self.truncation_tolerance = float(truncation_tolerance)
        origin = tuple([0] * dim)
        self._powers: List[Dict[LatticePoint, float]] = [{origin: 1.0}]
        self._pmf_cache: Dict[float, PmfTable] = {}
        self._dense_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_measure(cls, measure: IntensityMeasure,
                     truncation_tolerance: float = 1e-12) -> "LatticeModel":
        if measure.kind != "discrete":
            raise UnsupportedMeasure("lattice model needs a discrete measure")
        pmf = {}
        for point, mass in zip(measure.points, measure.masses):
            pmf[_as_point(point, measure.dimension)] = float(mass)
        return cls(pmf, truncation_tolerance)

    def to_measure(self) -> IntensityMeasure:
        atoms = [(np.asarray(k, dtype=float), m) for k, m in self.pmf.items()]
        return IntensityMeasure.discrete(atoms, dimension=self.dimension)

    def mass(self, point) -> float:
        return self.pmf.get(_as_point(point, self.dimension), 0.0)

    def _power(self, m: int) -> Dict[LatticePoint, float]:
        """m-fold self-convolution of the jump pmf."""
        while len(self._powers) <= m:
            prev = self._powers[-1]
            nxt: Dict[LatticePoint, float] = {}
            for key, q in prev.items():
                for x, w in self.pmf.items():
                    tgt = tuple(a + b for a, b in zip(key, x))
                    nxt[tgt] = nxt.get(tgt, 0.0) + q * w
            self._powers.append(nxt)
        return self._powers[m]

    def _dense_basis(self, m_top: int) -> Tuple[np.ndarray, np.ndarray]:
        """Convolution powers 0..m_top embedded in one dense integer box;
        returns (box lower corner, array of shape (m_top + 1, *box))."""
        cached = self._dense_cache.get(m_top)
        if cached is not None:
            return cached
        supp = np.asarray(sorted(self.pmf.keys()), dtype=np.int64)
        lo = np.minimum(supp.min(axis=0), 0) * m_top
        hi = np.maximum(supp.max(axis=0), 0) * m_top
        shape = tuple((hi - lo + 1).tolist())
        mat = np.zeros((m_top + 1,) + shape)
        mat[(0,) + tuple((-lo).tolist())] = 1.0
        for m in range(1, m_top + 1):
            for x, w in self.pmf.items():
                dst, src = _shift_slices(shape, x)
                mat[m][dst] += w * mat[m - 1][src]
        self._dense_cache[m_top] = (lo, mat)
        return lo, mat


def _shift_slices(shape: Sequence[int], shift: Sequence[int]):
    dst, src = [], []
    for length, s in zip(shape, shift):
        if s >= 0:
            dst.append(slice(s, length))
            src.append(slice(0, length - s))
        else:
            dst.append(slice(0, length + s))
            src.append(slice(-s, length))
    return tuple(dst), tuple(src)


# -- transition tables --------------------------------------------------------

def transition_pmf(model: LatticeModel, s: float) -> PmfTable:
    """Distribution of the path value after elapsed time s, truncated at the
    smallest jump count whose Poisson tail is below the model tolerance."""
    s = float(s)
    cached = model._pmf_cache.get(s)
    if cached is not None:
        return cached
    m_top, tail = poisson_truncation(s, model.truncation_tolerance)
    weights = poisson.pmf(np.arange(m_top + 1), s)
    table: Dict[LatticePoint, float] = {}
    for m in range(m_top + 1):
        w = float(weights[m])
        if w == 0.0:
            continue
        for key, q in model._power(m).items():
            table[key] = table.get(key, 0.0) + w * q
    out = PmfTable(model.dimension, dict(sorted(table.items())), tail)
    model._pmf_cache[s] = out
    return out


def count_weighted_pmf(model: LatticeModel, s: float, k) -> Tuple[Dict, float]:
    """Joint first-moment table A(v) = E[#(mark-k jumps) ; increment = v]
    over one interval of length s, built by pair propagation: with each
    extra jump the count either carries over or bumps by one when the new
    jump's mark is exactly k.  Returns (table, certified count-mass tail)."""
    point = _as_point(k, model.dimension)
    wk = model.pmf.get(point, 0.0)
    s = float(s)
    m_top, _ = poisson_truncation(s, model.truncation_tolerance)
    weights = poisson.pmf(np.arange(m_top + 1), s)
    acc: Dict[LatticePoint, float] = {}
    prev: Dict[LatticePoint, float] = {}
    for m in range(1, m_top + 1):
        cur: Dict[LatticePoint, float] = {}
        for key, q in prev.items():
            for x, w in model.pmf.items():
                tgt = tuple(a + b for a, b in zip(key, x))
                cur[tgt] = cur.get(tgt, 0.0) + q * w
        if wk > 0.0:
            for key, q in model._power(m - 1).items():
                tgt = tuple(a + b for a, b in zip(key, point))
                cur[tgt] = cur.get(tgt, 0.0) + q * wk
        w = float(weights[m])
        if w > 0.0:
            for key, v in cur.items():
                acc[key] = acc.get(key, 0.0) + w * v
        prev = cur
    tail = s * float(poisson.sf(max(m_top - 1, 0), s))
    return dict(sorted(acc.items())), tail


# -- chained-increment expectations ---------------------------------------------

class IncrementGrid:
    """Joint truncated law of the path at a strictly increasing time grid.

    Increments over consecutive intervals are independent; the grid holds
    the outer-product weights and the running-sum coordinates, so any
    cylindrical functional (and any argument-shifted variant of it) is an
    inner product away.
    """

    def __init__(self, model: LatticeModel, horizon: float,
                 times: Sequence[float]):
        times = tuple(float(t) for t in times)
        if not times or times[0] <= 0 or any(b <= a for a, b in zip(times, times[1:])):
            raise UnsortedTimes("times must be strictly increasing and > 0")
        if times[-1] > horizon:
            raise TimeOutOfRange(f"last time {times[-1]} beyond horizon {horizon}")
        self.model = model
        self.horizon = float(horizon)
        self.times = times
        self.deltas = np.diff(np.concatenate([[0.0], np.asarray(times)]))
        self.tables = [transition_pmf(model, dt) for dt in self.deltas]
        keys, probs = zip(*(t.arrays() for t in self.tables))
        n, d = len(times), model.dimension
        weights = probs[0]
        for p in probs[1:]:
            weights = np.multiply.outer(weights, p)
        shape = weights.shape
        self.weights = weights.reshape(-1)
        coords = np.zeros(shape + (n, d))
        running = np.zeros((1,) * n + (d,))
        for j in range(n):
            bshape = (1,) * j + (len(probs[j]),) + (1,) * (n - 1 - j) + (d,)
            running = running + keys[j].astype(float).reshape(bshape)
            coords[..., j, :] = running
        self.coords = coords.reshape(-1, n, d)
        self.tail_bound = float(sum(t.tail_mass for t in self.tables))

    def expect_values(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))

    def expect(self, F: CylindricalFunctional, shift_from: int = None,
               shift_vec=None) -> float:
        """E f(grid coordinates), optionally with every coordinate from
        position `shift_from` (0-based) on displaced by `shift_vec`."""
        coords = self.coords
        if shift_from is not None:
            coords = coords.copy()
            coords[:, shift_from:, :] += np.asarray(shift_vec, dtype=float)
        return self.expect_values(_apply_rows(F, coords))


def _check_truncation(grid: IncrementGrid, F: CylindricalFunctional,
                      max_error: float = None) -> None:
    if max_error is not None and grid.tail_bound * F.bound > max_error:
        raise TruncationTooCoarse(
            f"certified error {grid.tail_bound * F.bound:.3e} exceeds {max_error:.3e}")


def expect_cylindrical(model: LatticeModel, horizon: float,
                       F: CylindricalFunctional, max_error: float = None) -> float:
    """E F over paths, exact up to the certified tail (<= n * eps * bound)."""
    grid = IncrementGrid(model, horizon, F.times)
    _check_truncation(grid, F, max_error)
    return grid.expect(F)


def expect_with_count(model: LatticeModel, horizon: float,
                      F: CylindricalFunctional, k,
                      max_error: float = None) -> float:
    """E[F * (number of mark-k jumps over the whole horizon)].

    Within each grid interval the pair (increment, expected k-count) comes
    from `count_weighted_pmf`; the stretch after the last coordinate time is
    independent of F and contributes (T - t_n) * nu(k) * E F.
    """
    point = _as_point(k, model.dimension)
    wk = model.pmf.get(point, 0.0)
    if wk <= 0.0:
        raise UnsupportedMeasure(f"measure puts no mass at {point}")
    grid = IncrementGrid(model, horizon, F.times)
    _check_truncation(grid, F, max_error)
    vals = _apply_rows(F, grid.coords)
    shape = tuple(len(t.probs) for t in grid.tables)
    n = len(grid.times)
    count_factor = np.zeros(shape)
    for j, (table, dt) in enumerate(zip(grid.tables, grid.deltas)):
        keys, probs = table.arrays()
        a_table, _ = count_weighted_pmf(model, dt, point)
        ratio = np.asarray(
            [a_table.get(tuple(key), 0.0) for key in keys.tolist()]) / probs
        bshape = (1,) * j + (len(probs),) + (1,) * (n - 1 - j)
        count_factor = count_factor + ratio.reshape(bshape)
    count_factor = count_factor.reshape(-1)
    main = float(np.dot(grid.weights, vals * count_factor))
    tail_stretch = (grid.horizon - grid.times[-1]) * wk
    return main + tail_stretch * float(np.dot(grid.weights, vals))


def qi_check(model: LatticeModel, horizon: float, F: CylindricalFunctional,
             k, max_error: float = None) -> Tuple[float, float]:
    """Both exact pipelines of the shifted-law identity.

    lhs averages the argument-shifted expectations over the time grid (the
    shift is invisible to F after its last coordinate); rhs is the
    count-weighted expectation divided by T * nu(k).  The two must agree.
    """
    point = _as_point(k, model.dimension)
    wk = model.pmf.get(point, 0.0)
    if wk <= 0.0:
        raise UnsupportedMeasure(f"measure puts no mass at {point}")
    grid = IncrementGrid(model, horizon, F.times)
    _check_truncation(grid, F, max_error)
    kvec = np.asarray(point, dtype=float)
    base = grid.expect(F)
    acc = 0.0
    for i in range(len(grid.times)):
        acc += grid.deltas[i] * grid.expect(F, shift_from=i, shift_vec=kvec)
    lhs = (acc + (grid.horizon - grid.times[-1]) * base) / grid.horizon
    rhs = expect_with_count(model, horizon, F, point) / (grid.horizon * wk)
    return float(lhs), float(rhs)


def _energy_on_grid(grid: IncrementGrid, F: CylindricalFunctional) -> float:
    base = _apply_rows(F, grid.coords)
    acc = 0.0
    for key, w in grid.model.pmf.items():
        kvec = np.asarray(key, dtype=float)
        for i in range(len(grid.times)):
            coords = grid.coords.copy()
            coords[:, i:, :] += kvec
            diff = _apply_rows(F, coords) - base
            acc += w * grid.deltas[i] * float(np.dot(grid.weights, diff * diff))
    return acc / grid.horizon


def exact_energy(model: LatticeModel, horizon: float,
                 F: CylindricalFunctional, max_error: float = None) -> float:
    """The quadratic form of F, exactly: the shift-time integral collapses
    to the coordinate grid because shifting anywhere inside one interval
    moves the same tail coordinates."""
    grid = IncrementGrid(model, horizon, F.times)
    _check_truncation(grid, F, max_error)
    return _energy_on_grid(grid, F)


def poincare_check(model: LatticeModel, horizon: float,
                   F: CylindricalFunctional,
                   max_error: float = None) -> Tuple[float, float]:
    """(variance of F, T * energy of F), both exact, for the inequality
    variance <= T * energy."""
    grid = IncrementGrid(model, horizon, F.times)
    _check_truncation(grid, F, max_error)
    vals = _apply_rows(F, grid.coords)
    mean = grid.expect_values(vals)
    variance = grid.expect_values(vals * vals) - mean * mean
    return variance, horizon * _energy_on_grid(grid, F)


# -- semigroup variance identity -------------------------------------------------

def _extract(arr: np.ndarray, lo: np.ndarray, want_lo: np.ndarray,
             want_shape: Sequence[int]) -> np.ndarray:
    off = np.asarray(want_lo) - np.asarray(lo)
    slices = tuple(slice(int(o), int(o) + int(s)) for o, s in zip(off, want_shape))
    return arr[slices]


def semigroup_gap(model: LatticeModel, f: Callable[[np.ndarray], np.ndarray],
                  t: float, z=0, quad_step: float = 1e-3) -> Tuple[float, float]:
    """Variance of P_t f at z against the integrated square field.

    lhs = P_t f^2(z) - (P_t f(z))^2; rhs integrates s -> P_s Gamma(P_{t-s} f)
    over [0, t] by composite Simpson with the given step, which must divide
    t into an even number of subintervals.  `f` must accept integer arrays
    ((...,) for d = 1, (..., d) otherwise) and return values elementwise.
    """
    t = float(t)
    if t <= 0:
        raise TimeOutOfRange("t must be positive")
    steps = round(t / quad_step)
    if steps < 2 or steps % 2 or abs(steps * quad_step - t) > 1e-9 * t:
        raise UnsortedTimes(
            f"quad_step {quad_step} must cut t={t} into an even number of steps")
    d = model.dimension
    z_pt = np.asarray(_as_point(z, d), dtype=np.int64)
    m_top, _ = poisson_truncation(t, model.truncation_tolerance)
    lo0, basis = model._dense_basis(m_top)
    box = basis.shape[1:]
    supp = np.asarray(sorted(model.pmf.keys()), dtype=np.int64)
    s_lo = np.minimum(supp.min(axis=0), 0)
    s_hi = np.maximum(supp.max(axis=0), 0)
    lo_z = z_pt + lo0
    lo_g = lo_z + s_lo
    shape_g = tuple(b + int(h - l) for b, h, l in zip(box, s_hi, s_lo))
    lo_f = lo_g + lo0
    shape_f = tuple(g + b - 1 for g, b in zip(shape_g, box))
    mesh = np.indices(shape_f).astype(np.int64)
    pts = np.moveaxis(mesh, 0, -1) + lo_f
    f_arr = np.asarray(f(pts[..., 0] if d == 1 else pts), dtype=float)
    if f_arr.shape != shape_f:
        raise DimensionMismatch("f must return one value per lattice point")
    ms = np.arange(m_top + 1)

    def pvec(s: float) -> np.ndarray:
        return np.tensordot(poisson.pmf(ms, s), basis, axes=(0, 0))

    def phi(s: float) -> float:
        g = signal.correlate(f_arr, pvec(t - s), mode="valid")
        gz = _extract(g, lo_g, lo_z, box)
        gam = np.zeros(box)
        for x, w in model.pmf.items():
            gx = _extract(g, lo_g, lo_z + np.asarray(x), box)
            gam += w * (gx - gz) ** 2
        return float(np.dot(pvec(s).reshape(-1), gam.reshape(-1)))

    nodes = np.arange(steps + 1) * quad_step
    values = np.asarray([phi(s) for s in nodes])
    rhs = float(simpson(values, dx=quad_step))
    p_t = pvec(t).reshape(-1)
    fz = _extract(f_arr, lo_f, lo_z, box).reshape(-1)
    mean = float(np.dot(p_t, fz))
    lhs = float(np.dot(p_t, fz * fz)) - mean * mean
    return lhs, rhs


# -- short-time diagnostics -------------------------------------------------------

@dataclass(frozen=True)
class SmallTimeRow:
    s: float
    origin_ratio: float                  # (1 - p_s(0)) / s, bounded by the unit rate
    deviations: Dict[LatticePoint, float]  # p_s(l)/s - nu(l), to vanish as s drops


def small_time_table(model: LatticeModel, points: Sequence,
                     times: Sequence[float]) -> List[SmallTimeRow]:
    """First-order behaviour of the transition law for small elapsed times."""
    rows = []
    origin = tuple([0] * model.dimension)
    for s in times:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise TimeOutOfRange("diagnostic times must lie in (0, 1]")
        table = transition_pmf(model, s)
        devs = {}
        for raw in points:
            point = _as_point(raw, model.dimension)
            devs[point] = table.probs.get(point, 0.0) / s - model.pmf.get(point, 0.0)
        rows.append(SmallTimeRow(
            s=s,
            origin_ratio=(1.0 - table.probs.get(origin, 0.0)) / s,
            deviations=devs))
    return rows


# -- count-variable calculus -------------------------------------------------------

class CountStats(NamedTuple):
    mean: float
    second: float
    variance: float
    energy: float
    entropy: float


def poisson_count_stats(g, horizon: float, m_max: int,
                        tol: float = 1e-9) -> CountStats:
    """Exact truncated statistics of g(N) for N ~ Poisson(T).

    The energy is sum_m p_m (g(m+1) - g(m))^2: a random shift adds one jump
    almost surely, so the squared shift difference of g(N) is exactly the
    forward-difference square, and the combined shift-time and mark
    integrations contribute total weight one.  Entropy uses natural log with
    0 log 0 = 0.
    """
    gg = g.g if isinstance(g, CountFunctional) else g
    m_max = int(m_max)
    # tail certificate: probe a window past the cutoff for the worst |g|
    # any dropped term can involve, then weight it by the Poisson tail
    probe = np.abs([float(gg(m)) for m in range(m_max + 1, m_max + 18)])
    worst = float(np.max(probe))
    wsq = worst * worst
    tail = float(poisson.sf(m_max, horizon))
    cert = tail * max(1.0, worst, 4.0 * wsq,
                      wsq * (1.0 + abs(math.log(wsq)) if wsq > 0 else 0.0))
    if tol is not None and cert > tol:
        raise TruncationTooCoarse(
            f"certified tail {cert:.3e} exceeds {tol:.3e}; raise m_max")
    values = np.asarray([float(gg(m)) for m in range(m_max + 2)])
    pm = poisson.pmf(np.arange(m_max + 2), horizon)
    head, ph = values[:m_max + 1], pm[:m_max + 1]
    mean = float(np.dot(ph, head))
    second = float(np.dot(ph, head * head))
    diffs = values[1:m_max + 2] - values[:m_max + 1]
    energy = float(np.dot(ph, diffs * diffs))
    entropy = float(np.dot(ph, xlogy(head * head, head * head)))
    return CountStats(mean=mean, second=second, variance=second - mean * mean,
                      energy=energy, entropy=entropy)


# -- entropy/energy witness family ---------------------------------------------

def witness_ratio(horizon: float, m: int) -> float:
    """entropy/energy of the normalized indicator of {N = m}: closed form
    (T - m log T + log m!) / (1 + m/T)."""
    T = float(horizon)
    ent = T - m * math.log(T) + math.lgamma(m + 1)
    energy = 1.0 + m / T
    return ent / energy


def lsi_witness_curve(horizon: float, ms: Sequence[int]) -> List[Tuple[int, float]]:
    """The ratio curve along the witness family; it grows without bound
    (like T log m), which rules out any multiplicative entropy-energy
    inequality with a finite constant."""
    out = []
    for m in ms:
        m = int(m)
        if m < 1:
            raise TimeOutOfRange("witness levels must be >= 1")
        out.append((m, witness_ratio(horizon, m)))
    return out


def lsi_exceed_level(horizon: float, c: float) -> int:
    """Smallest witness level found whose ratio exceeds c.

    The ratio grows like T log m, so the crossing sits near exp(c / T);
    levels stay evaluable in double precision up to about 1e300.
    """
    hi = 1
    while witness_ratio(horizon, hi) <= c:
        hi *= 2
        if hi > 10**300:
            raise TruncationTooCoarse(
                "crossing level exceeds the double-precision range")
    lo = max(1, hi // 2)
    if hi - lo <= 4096:
        for m in range(lo, hi + 1):
            if witness_ratio(horizon, m) > c:
                return m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if witness_ratio(horizon, mid) > c:
            hi = mid
        else:
            lo = mid
    return hi
