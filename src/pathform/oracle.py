"""Exact (truncation-certified) computations for lattice jump measures.

Everything here reduces to the jump-count expansion of the transition law,

    p_s = e^{-s} * sum_m (s^m / m!) * nu^{*m},

truncated at the smallest M whose Poisson tail is below the model tolerance.
The discarded mass is carried along as a certified error bound, never
silently dropped.  One engine builds the convolution powers: dense arrays on
the integer box that holds the first M of them (`LatticeModel._dense_basis`,
one step `nu * a` at a time).  The transition tables and the semigroup
kernel are Poisson-weighted sums of those powers, and the count-weighted
tables propagate pairs with the same step; a box over the memory budget
raises `GridTooLarge` before it is allocated.  On top of the transition
tables sit chained-increment expectations for cylindrical functionals,
count-weighted expectations for the shifted-law density identity, both sides
of the variance/energy inequality, the semigroup variance identity,
short-time diagnostics, and the count-variable calculus used to break the
entropy inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .errors import (
    DimensionMismatch,
    GridTooLarge,
    TimeOutOfRange,
    TruncationTooCoarse,
    UnsortedTimes,
    UnsupportedMeasure,
)
from .functional import CountFunctional, CylindricalFunctional, _apply_counts, _apply_rows
from .intensity import IntensityMeasure

LatticePoint = Tuple[int, ...]

# Largest IncrementGrid (padded coordinates, values and weights) or stack of
# convolution powers, in bytes, the oracle builds.
GRID_BUDGET_BYTES = 512 * 2**20
# Bytes of P_{t-s} f over one block of quadrature nodes in semigroup_gap;
# blocks keep memory bounded for long t or d > 1.
_QUAD_BLOCK_BYTES = 16 * 2**20
# Largest tail estimate `poisson_count_stats` accepts.
COUNT_TAIL_TOL = 1e-9


class _Poisson:
    """Poisson(s) pmf and survival function, from scipy.special alone; the
    same formulas scipy.stats.poisson evaluates, so the same bits."""

    @staticmethod
    def pmf(m, s):
        return np.exp(xlogy(m, s) - gammaln(m + 1) - s)

    @staticmethod
    def sf(m, s):
        # P(N > m) is 1 below the support, where pdtrc returns NaN
        return np.where(np.less(m, 0), 1.0, pdtrc(m, s))


poisson = _Poisson()


def _as_point(x, dimension: int) -> LatticePoint:
    arr = np.atleast_1d(np.asarray(x))
    if arr.shape != (dimension,):
        raise DimensionMismatch(f"point shape {arr.shape} != ({dimension},)")
    if not np.all(np.isfinite(arr) & (arr == np.rint(arr))):
        raise UnsupportedMeasure(f"{x!r} is not a lattice point")
    return tuple(int(v) for v in np.rint(arr))


def poisson_truncation(s: float, eps: float) -> Tuple[int, float]:
    """Smallest M with P(Poisson(s) > M) <= eps, and that tail."""
    # comparisons written so that NaN fails them
    if not 0 <= s < math.inf:
        raise TimeOutOfRange(f"elapsed time must be finite and >= 0, got {s}")
    if not eps > 0:
        raise TruncationTooCoarse(f"tolerance must be positive, got {eps!r}")
    if s == 0:
        return 0, 0.0
    m = int(s)  # a starting guess; the two loops below find the exact M
    while poisson.sf(m, s) > eps:
        m += 1
    while m > 0 and poisson.sf(m - 1, s) <= eps:
        m -= 1
    return m, float(poisson.sf(m, s))


@dataclass(frozen=True, eq=False)
class PmfTable:
    """Lattice pmf on its points of positive mass, plus the certified mass
    left out of it: `keys` (S, d) int64 in lexicographic order, `probs` (S,)."""

    dimension: int
    keys: np.ndarray
    probs: np.ndarray
    tail_mass: float

    def get(self, point) -> float:
        hit = np.flatnonzero((self.keys == _as_point(point, self.dimension)).all(axis=1))
        return float(self.probs[hit[0]]) if len(hit) else 0.0


class LatticeModel:
    """Finite-support jump measure on Z^d with a convolution-power engine.

    An integer view of the `IntensityMeasure` it builds from its keys in
    sorted order, which checks all but integrality.  Convolution powers of
    the jump pmf live as dense arrays on the integer box that holds the
    first m of them (`_dense_basis`); transition tables are cached per
    elapsed time.  The caches only grow, and each public computation stays
    a pure function of its arguments.
    """

    def __init__(self, pmf: Dict, truncation_tolerance: float = 1e-12):
        if not truncation_tolerance > 0:
            raise TruncationTooCoarse(
                f"tolerance must be positive, got {truncation_tolerance!r}")
        dim = np.atleast_1d(np.asarray(next(iter(pmf), 0))).size
        atoms = sorted(((_as_point(key, dim), float(mass)) for key, mass in pmf.items()),
                       key=lambda atom: atom[0])
        self._measure = IntensityMeasure.discrete(
            [(np.asarray(point, dtype=float), mass) for point, mass in atoms],
            dimension=dim)
        self.dimension = dim
        self.pmf: Dict[LatticePoint, float] = dict(atoms)
        self.truncation_tolerance = float(truncation_tolerance)
        self._pmf_cache: Dict[float, PmfTable] = {}
        self._dense_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_measure(cls, measure: IntensityMeasure,
                     truncation_tolerance: float = 1e-12) -> "LatticeModel":
        if measure.kind != "discrete":
            raise UnsupportedMeasure("lattice model needs a discrete measure")
        return cls(dict(zip(map(tuple, measure.points.tolist()), measure.masses.tolist())),
                   truncation_tolerance)

    def to_measure(self) -> IntensityMeasure:
        return self._measure

    def mass(self, point) -> float:
        return self.pmf.get(_as_point(point, self.dimension), 0.0)

    def _power(self, a: np.ndarray) -> np.ndarray:
        """One convolution step, nu * a, on a's box (mass pushed past its edge
        is dropped, so the box must hold the result).  Atoms are folded in
        descending order: each point then sums its terms source by source in
        ascending lattice order."""
        out = np.zeros_like(a)
        for x, w in reversed(self.pmf.items()):
            dst, src = _shift_slices(a.shape, x)
            out[dst] += w * a[src]
        return out

    def _dense_basis(self, m_top: int) -> Tuple[np.ndarray, np.ndarray]:
        """Convolution powers 0..m_top embedded in one dense integer box;
        returns (box lower corner, array of shape (m_top + 1, *box))."""
        cached = self._dense_cache.get(m_top)
        if cached is not None:
            return cached
        supp = np.asarray(list(self.pmf), dtype=np.int64)
        lo = np.minimum(supp.min(axis=0), 0) * m_top
        hi = np.maximum(supp.max(axis=0), 0) * m_top
        shape = tuple((hi - lo + 1).tolist())
        nbytes = (m_top + 1) * math.prod(shape) * 8
        if nbytes > GRID_BUDGET_BYTES:
            raise GridTooLarge(
                f"convolution powers 0..{m_top} on the box {shape} need "
                f"{nbytes / 2**20:.1f} MiB, over the "
                f"{GRID_BUDGET_BYTES / 2**20:.0f} MiB budget")
        mat = np.zeros((m_top + 1,) + shape)
        mat[(0,) + tuple((-lo).tolist())] = 1.0
        for m in range(1, m_top + 1):
            mat[m] = self._power(mat[m - 1])
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
    lo, basis = model._dense_basis(m_top)
    # a fixed loop over m: a BLAS product would change the summation order
    dense = np.zeros(basis.shape[1:])
    for m in range(m_top + 1):
        if weights[m] != 0.0:
            dense += weights[m] * basis[m]
    hit = dense > 0
    keys = np.argwhere(hit) + lo  # C order: lexicographic in the points
    probs = dense[hit]
    keys.setflags(write=False)
    probs.setflags(write=False)
    out = PmfTable(model.dimension, keys, probs, tail)
    model._pmf_cache[s] = out
    return out


def count_weighted_pmf(model: LatticeModel, s: float, k) -> Tuple[np.ndarray, float]:
    """Joint first-moment table A(v) = E[#(mark-k jumps) ; increment = v]
    over one interval of length s, built by pair propagation: with each
    extra jump the count either carries over or bumps by one when the new
    jump's mark is exactly k.  Returns (A at `transition_pmf(model, s).keys`,
    certified count-mass tail)."""
    point = _as_point(k, model.dimension)
    wk = model.pmf.get(point, 0.0)
    s = float(s)
    table = transition_pmf(model, s)
    m_top, _ = poisson_truncation(s, model.truncation_tolerance)
    weights = poisson.pmf(np.arange(m_top + 1), s)
    lo, basis = model._dense_basis(m_top)
    dst, src = _shift_slices(basis.shape[1:], point)
    acc = np.zeros(basis.shape[1:])
    cur = np.zeros_like(acc)
    for m in range(1, m_top + 1):
        cur = model._power(cur)
        if wk > 0.0:
            cur[dst] += wk * basis[m - 1][src]
        if weights[m] > 0.0:
            acc += weights[m] * cur
    tail = s * float(poisson.sf(max(m_top - 1, 0), s))
    return acc[tuple((table.keys - lo).T)], tail


# -- chained-increment expectations ---------------------------------------------

def _run_or_positions(idx: np.ndarray):
    """A basic slice when the positions form one contiguous run, else the
    positions.  They come from sorted keys looked up in a sorted support, so
    they increase strictly and a run is told by its two ends."""
    if int(idx[-1]) - int(idx[0]) == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class IncrementGrid:
    """Joint truncated law of the path at a strictly increasing time grid.

    Increments over consecutive intervals are independent; `weights` holds
    their outer-product law in C order.  A random shift by an atom x from
    coordinate i on adds x to increment i alone, so every coordinate set the
    oracle needs lies on one padded grid: on interval j, the table's keys
    united with the keys moved by each atom.  `coords` holds that padded
    grid's running-sum coordinates, F is evaluated on it once (`values`),
    and the base and every shifted evaluation are index moves on the result
    (`read`): `pos[j]` locates the table's keys in interval j's padded
    support, `shifted[j][x]` the keys plus x.  A map that is a contiguous
    run is a slice, so the read is a view.
    """

    def __init__(self, model: LatticeModel, horizon: float,
                 times: Sequence[float]):
        times = tuple(float(t) for t in times)
        # comparisons written so that NaN fails them
        if (not times or not times[0] > 0
                or not all(b > a for a, b in zip(times, times[1:]))):
            raise UnsortedTimes(f"times must be strictly increasing and > 0, got {times}")
        if not times[-1] <= horizon < math.inf:
            raise TimeOutOfRange(
                f"last time {times[-1]} must not pass the finite horizon {horizon}")
        self.model = model
        self.horizon = float(horizon)
        self.times = times
        self.deltas = np.diff(np.concatenate([[0.0], np.asarray(times)]))
        self.tables = [transition_pmf(model, dt) for dt in self.deltas]
        keys = [t.keys for t in self.tables]
        probs = [t.probs for t in self.tables]
        n, d = len(times), model.dimension
        moves = np.asarray([(0,) * d] + list(model.pmf), dtype=np.int64)
        supports, self.pos, self.shifted = [], [], []
        for k in keys:
            moved = (moves[:, None, :] + k[None, :, :]).reshape(-1, d)
            # rows as C-order offsets in their bounding box: the sort of the
            # offsets is the lexicographic sort of the rows
            lo = moved.min(axis=0)
            box = tuple((moved.max(axis=0) - lo + 1).tolist())
            offsets, where = np.unique(
                np.ravel_multi_index(tuple((moved - lo).T), box), return_inverse=True)
            support = np.stack(np.unravel_index(offsets, box), axis=-1) + lo
            where = where.reshape(len(moves), len(k))
            supports.append(support)
            self.pos.append(_run_or_positions(where[0]))
            self.shifted.append({x: _run_or_positions(w)
                                 for x, w in zip(model.pmf, where[1:])})
        base_shape = tuple(len(p) for p in probs)
        self.shape = tuple(len(s) for s in supports)
        nbytes = (math.prod(self.shape) * (n * d + 1) + math.prod(base_shape)) * 8
        if nbytes > GRID_BUDGET_BYTES:
            raise GridTooLarge(
                f"increment grid of shape {base_shape} (padded {self.shape}) "
                f"needs {nbytes / 2**20:.1f} MiB for coordinates, values and "
                f"weights, over the {GRID_BUDGET_BYTES / 2**20:.0f} MiB budget")
        weights = probs[0]
        for p in probs[1:]:
            weights = np.multiply.outer(weights, p)
        self.weights = weights.reshape(-1)
        # running sums written in place, column by column
        coords = np.empty(self.shape + (n, d))
        prev = 0.0
        for j in range(n):
            bshape = (1,) * j + (self.shape[j],) + (1,) * (n - 1 - j) + (d,)
            np.add(prev, supports[j].astype(float).reshape(bshape),
                   out=coords[..., j, :])
            prev = coords[..., j, :]
        self.coords = coords.reshape(-1, n, d)
        self.tail_bound = float(sum(t.tail_mass for t in self.tables))

    def values(self, F: CylindricalFunctional) -> np.ndarray:
        """F at every padded grid point, shaped like the padded grid."""
        return _apply_rows(F, self.coords).reshape(self.shape)

    def read(self, values: np.ndarray, shift_from: int = None,
             shift: LatticePoint = None) -> np.ndarray:
        """The base grid's values, shaped like it (a view where every map is
        a slice); with `shift_from` i and an atom `shift`, those of the
        paths shifted by it from coordinate i on."""
        index = list(self.pos)
        if shift_from is not None and shift_from < len(index):
            index[shift_from] = self.shifted[shift_from][shift]
        if not all(isinstance(ix, slice) for ix in index):
            index = np.ix_(*(np.arange(ix.start, ix.stop) if isinstance(ix, slice)
                             else ix for ix in index))
        return values[tuple(index)]

    def expect_values(self, values: np.ndarray) -> float:
        """The weighted sum of values on the base grid (flat or shaped)."""
        return float(np.dot(self.weights, np.ravel(values)))

    def expect(self, F: CylindricalFunctional, shift_from: int = None,
               shift_vec=None) -> float:
        """E f(grid coordinates), optionally with every coordinate from
        position `shift_from` (0-based) on displaced by `shift_vec`, which
        must be an atom of the jump measure."""
        shift = None
        if shift_from is not None:
            if not 0 <= shift_from <= len(self.times):
                raise TimeOutOfRange(
                    f"shift position {shift_from} outside 0..{len(self.times)}")
            shift = _mark_point(self.model, shift_vec)
        return self.expect_values(self.read(self.values(F), shift_from, shift))


def _grid_values(model: LatticeModel, horizon: float, F: CylindricalFunctional,
                 max_error: float = None) -> Tuple[IncrementGrid, np.ndarray]:
    """F's grid and F's padded values on it, evaluated once; a grid whose
    certified error (tail bound times F's bound) exceeds `max_error` raises
    TruncationTooCoarse before F is evaluated."""
    grid = IncrementGrid(model, horizon, F.times)
    if max_error is not None and grid.tail_bound * F.bound > max_error:
        raise TruncationTooCoarse(
            f"certified error {grid.tail_bound * F.bound:.3e} exceeds {max_error:.3e}")
    return grid, grid.values(F)


def _mark_point(model: LatticeModel, k) -> LatticePoint:
    point = _as_point(k, model.dimension)
    if point not in model.pmf:
        raise UnsupportedMeasure(f"{point} is not an atom of the jump measure")
    return point


def expect_cylindrical(model: LatticeModel, horizon: float,
                       F: CylindricalFunctional, max_error: float = None) -> float:
    """E F over paths, exact up to the certified tail (<= n * eps * bound)."""
    grid, values = _grid_values(model, horizon, F, max_error)
    return grid.expect_values(grid.read(values))


def _count_weighted(grid: IncrementGrid, vals: np.ndarray,
                    point: LatticePoint) -> float:
    """E[F * (number of mark-`point` jumps over the horizon)] from F's base
    grid values.

    Within each grid interval the pair (increment, expected k-count) comes
    from `count_weighted_pmf`; the stretch after the last coordinate time is
    independent of F and contributes (T - t_n) * nu(k) * E F.
    """
    shape = tuple(len(t.probs) for t in grid.tables)
    n = len(grid.times)
    count_factor = np.zeros(shape)
    for j, (table, dt) in enumerate(zip(grid.tables, grid.deltas)):
        a, _ = count_weighted_pmf(grid.model, dt, point)
        bshape = (1,) * j + (len(a),) + (1,) * (n - 1 - j)
        count_factor = count_factor + (a / table.probs).reshape(bshape)
    main = grid.expect_values(vals * count_factor)
    tail_stretch = (grid.horizon - grid.times[-1]) * grid.model.pmf[point]
    return main + tail_stretch * grid.expect_values(vals)


def expect_with_count(model: LatticeModel, horizon: float,
                      F: CylindricalFunctional, k,
                      max_error: float = None) -> float:
    """E[F * (number of mark-k jumps over the whole horizon)], by the
    count-weighted increment tables (`_count_weighted`)."""
    point = _mark_point(model, k)
    grid, values = _grid_values(model, horizon, F, max_error)
    return _count_weighted(grid, grid.read(values), point)


def qi_check(model: LatticeModel, horizon: float, F: CylindricalFunctional,
             k, max_error: float = None) -> Tuple[float, float]:
    """Both exact pipelines of the shifted-law identity, on one grid and one
    evaluation of F.

    lhs averages the argument-shifted expectations over the time grid (the
    shift is invisible to F after its last coordinate); each is F's padded
    values read with one index map moved.  rhs is the count-weighted
    expectation of F's base values divided by T * nu(k), from the
    count-weighted increment tables.  The two must agree.
    """
    point = _mark_point(model, k)
    grid, values = _grid_values(model, horizon, F, max_error)
    vals = grid.read(values)
    base = grid.expect_values(vals)
    acc = 0.0
    for i in range(len(grid.times)):
        acc += grid.deltas[i] * grid.expect_values(grid.read(values, i, point))
    lhs = (acc + (grid.horizon - grid.times[-1]) * base) / grid.horizon
    rhs = _count_weighted(grid, vals, point) / (grid.horizon * model.pmf[point])
    return float(lhs), float(rhs)


def _energy_on_grid(grid: IncrementGrid, values: np.ndarray) -> float:
    """The quadratic form from F's padded values (`IncrementGrid.values`):
    each (atom, coordinate) shift is an index move, not a new evaluation."""
    base = grid.read(values)
    acc = 0.0
    for key, w in grid.model.pmf.items():
        for i in range(len(grid.times)):
            diff = grid.read(values, i, key) - base
            acc += w * grid.deltas[i] * grid.expect_values(np.square(diff, out=diff))
    return acc / grid.horizon


def exact_energy(model: LatticeModel, horizon: float,
                 F: CylindricalFunctional, max_error: float = None) -> float:
    """The quadratic form of F, exactly: the shift-time integral collapses
    to the coordinate grid because shifting anywhere inside one interval
    moves the same tail coordinates."""
    return _energy_on_grid(*_grid_values(model, horizon, F, max_error))


def poincare_check(model: LatticeModel, horizon: float,
                   F: CylindricalFunctional,
                   max_error: float = None) -> Tuple[float, float]:
    """(variance of F, T * energy of F), both exact, for the inequality
    variance <= T * energy; one evaluation of F serves both."""
    grid, values = _grid_values(model, horizon, F, max_error)
    vals = grid.read(values)
    mean = grid.expect_values(vals)
    variance = grid.expect_values(vals * vals) - mean * mean
    return variance, horizon * _energy_on_grid(grid, values)


# -- semigroup variance identity -------------------------------------------------

def _extract(arr: np.ndarray, lo: np.ndarray, want_lo: np.ndarray,
             want_shape: Sequence[int]) -> np.ndarray:
    """The box `want_shape` at `want_lo` of `arr`'s trailing axes, whose
    lower corner is the lattice point `lo`."""
    off = np.asarray(want_lo) - np.asarray(lo)
    slices = tuple(slice(int(o), int(o) + int(s)) for o, s in zip(off, want_shape))
    return arr[(Ellipsis,) + slices]


def simpson(values: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on an odd number of equally spaced values:
    weights 1, 4, 2, 4, ..., 2, 4, 1 times dx / 3."""
    weights = np.full(len(values), 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return float(np.dot(weights, values)) * dx / 3.0


def simpson_steps(t: float, quad_step: float) -> int:
    """The even number (>= 2) of steps of size `quad_step` that cut t, to
    within 1e-9 relative, or 0 when there is none."""
    steps = round(t / quad_step) if quad_step > 0 and t / quad_step < math.inf else 0
    return steps if steps >= 2 and not steps % 2 and abs(steps * quad_step - t) <= 1e-9 * t else 0


def semigroup_gap(model: LatticeModel, f: Callable[[np.ndarray], np.ndarray],
                  t: float, z=0, quad_step: float = 1e-3) -> Tuple[float, float]:
    """Variance of P_t f at z against the integrated square field.

    lhs = P_t f^2(z) - (P_t f(z))^2; rhs integrates s -> P_s Gamma(P_{t-s} f)
    over [0, t] by composite Simpson with the given step, which must divide
    t into an even number of subintervals (to within 1e-9 relative; the
    nodes are then spaced exactly t / steps apart).  `f` must accept integer
    arrays ((...,) for d = 1, (..., d) otherwise) and return values
    elementwise.
    """
    t = float(t)
    if not 0 < t < math.inf:
        raise TimeOutOfRange(f"t must be finite and positive, got {t}")
    steps = simpson_steps(t, quad_step)
    if not steps:
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

    # Row i holds the jump-count weights of P_{s_i}; P_{t - s_i} is row N - i.
    nodes = np.linspace(0.0, t, steps + 1)
    weights = poisson.pmf(np.arange(m_top + 1), nodes[:, None])
    flat = basis.reshape(m_top + 1, -1)
    # f correlated with each convolution power on the g-box, summed over
    # kernel entries in one fixed order (as is the mix over powers below):
    # a constant f then gets the same value at every point and a square
    # field of exactly zero, which a BLAS contraction does not guarantee.
    bcast = (-1,) + (1,) * d
    corr = np.zeros((m_top + 1,) + shape_g)
    for k in np.ndindex(*box):
        window = tuple(slice(i, i + n) for i, n in zip(k, shape_g))
        corr += basis[(slice(None),) + k].reshape(bcast) * f_arr[window]
    phi = np.empty(len(nodes))
    block = max(1, _QUAD_BLOCK_BYTES // corr[0].nbytes)
    for start in range(0, len(nodes), block):
        rows = slice(start, start + block)
        # g[i] = P_{t - s_i} f on the g-box, for the nodes of this block
        w_left = weights[::-1][rows]
        g = np.zeros((len(w_left),) + shape_g)
        for m in range(m_top + 1):
            g += w_left[:, m].reshape(bcast) * corr[m]
        gz = _extract(g, lo_g, lo_z, box)
        gam = np.zeros(gz.shape)
        for x, w in model.pmf.items():
            gam += w * (_extract(g, lo_g, lo_z + np.asarray(x), box) - gz) ** 2
        p_s = weights[rows] @ flat
        phi[rows] = np.einsum("ij,ij->i", p_s, gam.reshape(len(p_s), -1))
    rhs = simpson(phi, t / steps)
    p_t = weights[-1] @ flat
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
            devs[point] = table.get(point) / s - model.pmf.get(point, 0.0)
        rows.append(SmallTimeRow(
            s=s,
            origin_ratio=(1.0 - table.get(origin)) / s,
            deviations=devs))
    return rows


# -- count-variable calculus -------------------------------------------------------

class CountStats(NamedTuple):
    mean: float
    second: float
    variance: float
    energy: float
    entropy: float


def poisson_count_stats(g: CountFunctional, horizon: float, m_max: int) -> CountStats:
    """Exact truncated statistics of g(N) for N ~ Poisson(T).

    The energy is sum_m p_m (g(m+1) - g(m))^2: a random shift adds one jump
    almost surely, so the squared shift difference of g(N) is exactly the
    forward-difference square, and the combined shift-time and mark
    integrations contribute total weight one.  Entropy uses natural log with
    0 log 0 = 0.  `g` is evaluated once, on the counts 0..m_max + 17.

    The truncation guard is a heuristic, not a bound: it reads |g| only on
    the 17 counts past m_max, so a g that grows faster further out can
    pass it with an error above COUNT_TAIL_TOL.
    """
    # comparisons written so that NaN fails them
    if not 0 <= horizon < math.inf:
        raise TimeOutOfRange(f"horizon must be finite and >= 0, got {horizon}")
    m_max = int(m_max)
    values = _apply_counts(g, np.arange(m_max + 18))
    # heuristic tail estimate: the worst |g| on a 17-term window past the
    # cutoff, weighted by the Poisson tail; g beyond the window is not seen
    worst = float(np.max(np.abs(values[m_max + 1:])))
    wsq = worst * worst
    tail = float(poisson.sf(m_max, horizon))
    est = tail * max(1.0, worst, 4.0 * wsq,
                     wsq * (1.0 + abs(math.log(wsq)) if wsq > 0 else 0.0))
    if est > COUNT_TAIL_TOL:
        raise TruncationTooCoarse(
            f"heuristic tail estimate {est:.3e} (|g| probed on "
            f"{m_max + 1}..{m_max + 17} only) exceeds {COUNT_TAIL_TOL:.3e}; raise m_max")
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
    """A witness level whose ratio exceeds c: double the level, then bisect.

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
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if witness_ratio(horizon, mid) > c:
            hi = mid
        else:
            lo = mid
    return hi
