"""Path sampling: unit-rate jump times, random shifts, lattice projections.

One engine draws every path.  `PathBatch` holds many paths in flat arrays
(jump counts, per-path-sorted times, marks); given a stream,
`sample_path_batch` draws counts, then raw times, then marks, and
`sample_shifted_batch` goes on to shift times, then shift marks, in that
fixed order.  `sample_path` is the same engine asked for one path.

Sampling is a pure function of (inputs, stream state), so fixed seeds give
bit-identical output regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .intensity import IntensityMeasure, project_mark
from .path import JumpPath

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class StreamConfig:
    """Root of a family of independent, reproducible random streams."""

    seed: int
    stream_index: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed & _SEED_MASK,
                                    spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(ss))

    def chunk_rng(self, chunk: int) -> np.random.Generator:
        """Independent substream for one fixed chunk of sample indices."""
        ss = np.random.SeedSequence(self.seed & _SEED_MASK,
                                    spawn_key=(self.stream_index, chunk))
        return np.random.Generator(np.random.PCG64(ss))


def project_path(path: JumpPath, n: int) -> JumpPath:
    """Same jump times, marks snapped to 2^{-n} Z^d; zero projections drop."""
    if path.n_jumps == 0:
        return path
    marks = project_mark(path.marks, n)
    keep = ~np.all(marks == 0.0, axis=1)
    return JumpPath(path.horizon, path.dimension,
                    path.times[keep], marks[keep])


@dataclass(frozen=True)
class PathBatch:
    """`size` paths stored flat: per-path jump counts plus concatenated,
    per-path-sorted jump times and marks."""

    horizon: float
    dimension: int
    counts: np.ndarray    # (B,) int64
    times: np.ndarray     # (J,) sorted within each path
    marks: np.ndarray     # (J, d)
    path_ids: np.ndarray  # (J,) int64, nondecreasing

    @property
    def size(self) -> int:
        return len(self.counts)

    @cached_property
    def offsets(self) -> np.ndarray:
        """(B + 1,) int64; path i owns flat entries offsets[i]:offsets[i + 1]."""
        return np.concatenate([[0], np.cumsum(self.counts)])

    def coords_at(self, query_times) -> np.ndarray:
        """Path values at each query time: (B, n, d) array."""
        q = np.asarray(query_times, dtype=float)
        B, d = self.size, self.dimension
        out = np.zeros((B, len(q), d))
        # Jumps after t weigh +0.0 instead of being filtered out: bincount
        # then adds the same marks in the same order, and x + 0.0 == x for
        # every partial sum (none is -0.0), so the sums are bit-identical.
        for j, t in enumerate(q):
            sel = self.times <= t
            for c in range(d):
                out[:, j, c] = np.bincount(
                    self.path_ids, weights=np.where(sel, self.marks[:, c], 0.0),
                    minlength=B)
        return out

    def project(self, n: int) -> "PathBatch":
        """Lattice projection of every path, zero projections dropped."""
        marks = project_mark(self.marks, n)
        keep = ~np.all(marks == 0.0, axis=1)
        counts = np.bincount(self.path_ids[keep], minlength=self.size)
        return PathBatch(self.horizon, self.dimension, counts,
                         self.times[keep], marks[keep], self.path_ids[keep])

    def projection_gap(self, n: int) -> np.ndarray:
        """Per-path sup distance to the level-n projection: (B,) array.

        The difference path jumps only at the original jump times, so the
        sup is the largest norm of a within-path prefix sum of mark errors.
        """
        B = self.size
        if len(self.times) == 0:
            return np.zeros(B)
        err = self.marks - project_mark(self.marks, n)
        csum = np.cumsum(err, axis=0)
        nonempty_idx = np.flatnonzero(self.counts > 0)
        starts = self.offsets[nonempty_idx]
        # within-path prefix sums: subtract the global cumsum just before
        # each path's first jump
        start_base = np.zeros((B, err.shape[1]))
        later = starts > 0
        start_base[nonempty_idx[later]] = csum[starts[later] - 1]
        prefix = csum - start_base[self.path_ids]
        norms = np.linalg.norm(prefix, axis=1)
        out = np.zeros(B)
        out[nonempty_idx] = np.maximum.reduceat(norms, starts)
        return out

    def path(self, i: int) -> JumpPath:
        """Materialize one path as a JumpPath (spot checks, dumps)."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return JumpPath(self.horizon, self.dimension,
                        self.times[lo:hi], self.marks[lo:hi])


def _path_order(path_ids: np.ndarray, raw_times: np.ndarray,
                horizon: float) -> np.ndarray:
    """The permutation `np.lexsort((raw_times, path_ids))`, for grouped
    nondecreasing `path_ids` and `raw_times` in [0, horizon].

    A stable argsort of the key `path_id + t / horizon` gives it: the key is
    a rounded, hence monotone, function of (path_id, t), so paths stay in
    place and times within a path come out in order.  Rounding can merge
    two distinct times of one path into one key, which a stable sort then
    leaves in draw order; that shows as a time decreasing inside a path.
    When it happens, fall back to the exact lexsort.  When it does not, ties
    in the key are ties in (path_id, t) or already in order, so the
    permutation is lexsort's.
    """
    order = np.argsort(path_ids + raw_times / horizon, kind="stable")
    times = raw_times[order]
    if np.any((times[1:] < times[:-1]) & (path_ids[1:] == path_ids[:-1])):
        order = np.lexsort((raw_times, path_ids))
    return order


def sample_path_batch(measure: IntensityMeasure, horizon: float,
                      rng: np.random.Generator, size: int) -> PathBatch:
    """`size` paths: Poisson(T) jump counts, jump times as per-path-sorted
    uniforms, then i.i.d. marks.  Zero marks (possible only for flagged
    discretized measures) are dropped as no-op jumps.

    Times are ordered by one stable argsort of `path_id + t / T`; when
    rounding merges two distinct times of one path into one key, the batch
    falls back to `np.lexsort` on (path_id, t).  Either way the order, and
    so the stream, is the same (`_path_order`)."""
    counts = rng.poisson(lam=horizon, size=size)
    total = int(counts.sum())
    raw_times = rng.uniform(0.0, horizon, size=total)
    path_ids = np.repeat(np.arange(size, dtype=np.int64), counts)
    times = raw_times[_path_order(path_ids, raw_times, horizon)]
    marks = measure.sample_batch(rng, total)
    keep = ~np.all(marks == 0.0, axis=1)
    if not np.all(keep):
        path_ids = path_ids[keep]
        times = times[keep]
        marks = marks[keep]
        counts = np.bincount(path_ids, minlength=size)
    return PathBatch(float(horizon), measure.dimension, counts,
                     times, marks, path_ids)


def sample_path(measure: IntensityMeasure, horizon: float,
                rng: np.random.Generator) -> JumpPath:
    """One path: a batch of one from `sample_path_batch`."""
    return sample_path_batch(measure, horizon, rng, 1).path(0)


@dataclass(frozen=True)
class ShiftedBatch:
    """A batch of base paths with per-path shift times and shift marks."""

    base: PathBatch
    tau: np.ndarray  # (B,)
    xi: np.ndarray   # (B, d)

    def shifted_coords(self, query_times, base_coords: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """Coordinates of base + xi*1_{[tau, T]}: base plus xi wherever the
        query time is >= tau."""
        q = np.asarray(query_times, dtype=float)
        if base_coords is None:
            base_coords = self.base.coords_at(q)
        mask = (q[None, :] >= self.tau[:, None]).astype(float)
        return base_coords + self.xi[:, None, :] * mask[:, :, None]

    def shifted_counts(self) -> np.ndarray:
        """Jump counts of the shifted paths (zero shift marks are no-ops)."""
        incr = (~np.all(self.xi == 0.0, axis=1)).astype(np.int64)
        return self.base.counts + incr


def sample_shifted_batch(measure: IntensityMeasure, horizon: float,
                         rng: np.random.Generator, size: int) -> ShiftedBatch:
    """Base paths with random shifts X + xi 1_[tau, T]; draw order is paths,
    then shift times, then shift marks."""
    base = sample_path_batch(measure, horizon, rng, size)
    tau = rng.uniform(0.0, horizon, size=size)
    xi = measure.sample_batch(rng, size)
    return ShiftedBatch(base=base, tau=tau, xi=xi)
