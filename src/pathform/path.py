"""Cadlag step paths on [0, T] driven by finitely many jumps.

A path is the running sum of its marks: value_at(t) = sum of marks with jump
time <= t, starting from 0 at time 0.  Paths are immutable; `shift` returns a
new path with an extra jump (merging marks when it lands on an existing jump
time, and cancelling the jump when the merged mark is exactly zero).
`to_json` writes one path as a JSON line; `paths_to_jsonl` writes many paths
stored flat as the same lines, checked by the same rule, without building a
`JumpPath` per path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HorizonMismatch,
    TimeOutOfRange,
    UnsortedTimes,
    ZeroMark,
    ZeroShift,
)


def _as_mark(x, dimension: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dimension,):
        raise DimensionMismatch(f"mark shape {x.shape} != ({dimension},)")
    return x


def _check_jumps(horizon: float, times: np.ndarray, marks: np.ndarray,
                 offsets: np.ndarray = None) -> None:
    """The rule every path obeys: T > 0, every jump time in (0, T], times
    strictly increasing inside a path, no all-zero mark row.

    `offsets` splits the flat arrays into paths (path i owns entries
    offsets[i]:offsets[i + 1]), and a path's first time may then equal or
    precede the previous path's last; without it they hold one path.
    """
    if not horizon > 0:
        raise TimeOutOfRange(f"horizon must be positive, got {horizon}")
    if len(times) == 0:
        return
    if not np.all((times > 0) & (times <= horizon)):
        raise TimeOutOfRange("jump times must lie in (0, T]")
    rising = times[1:] > times[:-1]
    if offsets is not None:
        starts = offsets[(offsets > 0) & (offsets < len(times))]
        rising[starts - 1] = True
    if not np.all(rising):
        raise UnsortedTimes("jump times must be strictly increasing")
    if np.any(np.all(marks == 0.0, axis=1)):
        raise ZeroMark("paths may not carry zero marks")


@dataclass(frozen=True, eq=False)
class JumpPath:
    """Step path: horizon T, dimension d, sorted jump times with marks."""

    horizon: float
    dimension: int
    times: np.ndarray   # (N,) strictly increasing, in (0, T]
    marks: np.ndarray   # (N, d), no all-zero row

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        marks = np.asarray(self.marks, dtype=float).reshape(len(times), self.dimension)
        _check_jumps(self.horizon, times, marks)
        csum = np.vstack([np.zeros((1, self.dimension)), np.cumsum(marks, axis=0)])
        for arr in (times, marks, csum):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "_csum", csum)

    @classmethod
    def from_jumps(cls, horizon: float, jumps: Iterable, dimension: int = None) -> "JumpPath":
        """Build from an iterable of (time, mark) pairs; marks may be scalars."""
        jumps = [(float(t), np.atleast_1d(np.asarray(m, dtype=float))) for t, m in jumps]
        if dimension is None:
            dimension = len(jumps[0][1]) if jumps else 1
        times = np.asarray([t for t, _ in jumps], dtype=float)
        marks = (np.asarray([m for _, m in jumps], dtype=float).reshape(-1, dimension)
                 if jumps else np.zeros((0, dimension)))
        return cls(horizon=float(horizon), dimension=int(dimension),
                   times=times, marks=marks)

    @classmethod
    def empty(cls, horizon: float, dimension: int = 1) -> "JumpPath":
        return cls.from_jumps(horizon, [], dimension=dimension)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JumpPath):
            return NotImplemented
        return (self.horizon == other.horizon
                and self.dimension == other.dimension
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.marks, other.marks))

    def __repr__(self) -> str:
        return (f"JumpPath(T={self.horizon}, d={self.dimension}, "
                f"jumps={len(self.times)})")

    @property
    def n_jumps(self) -> int:
        return len(self.times)

    def _check_time(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= self.horizon:
            raise TimeOutOfRange(f"t={t} outside [0, {self.horizon}]")
        return t

    # -- evaluation --------------------------------------------------------

    def value_at(self, t: float) -> np.ndarray:
        """Path value at t, jump included at its own time."""
        t = self._check_time(t)
        idx = np.searchsorted(self.times, t, side="right")
        return self._csum[idx].copy()

    def count_jumps(self, t: float = None) -> int:
        """Number of jumps with time <= t (defaults to the horizon)."""
        t = self.horizon if t is None else t
        t = self._check_time(t)
        return int(np.searchsorted(self.times, t, side="right"))

    def count_jumps_of_mark(self, k) -> int:
        """Number of jumps whose mark equals k exactly (bit equality)."""
        k = _as_mark(k, self.dimension)
        if np.all(k == 0.0):
            raise ZeroMark("mark filter must be nonzero")
        return int(np.all(self.marks == k, axis=1).sum())

    def jump_times_of_mark(self, k) -> np.ndarray:
        k = _as_mark(k, self.dimension)
        if np.all(k == 0.0):
            raise ZeroMark("mark filter must be nonzero")
        return self.times[np.all(self.marks == k, axis=1)].copy()

    def coordinates(self, times: Sequence[float]) -> np.ndarray:
        """Values at several times as an (m, d) array; times strictly increasing."""
        q = np.asarray(times, dtype=float)
        if q.ndim != 1:
            raise UnsortedTimes("times must be a flat sequence")
        if len(q) and (q[0] < 0 or q[-1] > self.horizon):
            raise TimeOutOfRange("coordinate times outside [0, T]")
        if np.any(np.diff(q) <= 0):
            raise UnsortedTimes("coordinate times must be strictly increasing")
        idx = np.searchsorted(self.times, q, side="right")
        return self._csum[idx].copy()

    # -- shifts ------------------------------------------------------------

    def shift(self, t: float, x) -> "JumpPath":
        """The path plus x on [t, T]: insert jump (t, x), merging and
        cancelling exactly when it collides with an existing jump time."""
        t = float(t)
        if not 0.0 < t <= self.horizon:
            raise TimeOutOfRange(f"shift time {t} outside (0, T]")
        x = _as_mark(x, self.dimension)
        if np.all(x == 0.0):
            raise ZeroShift("shift mark must be nonzero")
        pos = int(np.searchsorted(self.times, t, side="left"))
        if pos < self.n_jumps and self.times[pos] == t:
            merged = self.marks[pos] + x
            if np.all(merged == 0.0):
                times = np.delete(self.times, pos)
                marks = np.delete(self.marks, pos, axis=0)
            else:
                times = self.times.copy()
                marks = self.marks.copy()
                marks[pos] = merged
        else:
            times = np.insert(self.times, pos, t)
            marks = np.insert(self.marks, pos, x, axis=0)
        return JumpPath(self.horizon, self.dimension, times, marks)

    # -- distances ---------------------------------------------------------

    def sup_distance(self, other: "JumpPath") -> float:
        """sup_t |self(t) - other(t)| (Euclidean norm), attained on the
        merged jump-time grid plus time 0."""
        if self.horizon != other.horizon:
            raise HorizonMismatch(f"{self.horizon} != {other.horizon}")
        if self.dimension != other.dimension:
            raise DimensionMismatch(f"{self.dimension} != {other.dimension}")
        grid = np.unique(np.concatenate([[0.0], self.times, other.times]))
        va = self._csum[np.searchsorted(self.times, grid, side="right")]
        vb = other._csum[np.searchsorted(other.times, grid, side="right")]
        return float(np.linalg.norm(va - vb, axis=1).max())

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"T": self.horizon, "d": self.dimension,
                "jumps": [[float(t), [float(c) for c in m]]
                          for t, m in zip(self.times, self.marks)]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "JumpPath":
        return cls.from_jumps(obj["T"], [(t, m) for t, m in obj["jumps"]],
                              dimension=int(obj["d"]))

    @classmethod
    def from_json(cls, text: str) -> "JumpPath":
        return cls.from_json_obj(json.loads(text))


# Paths encoded per block: holding the per-jump strings of a whole
# 20,000-path dump at once raised the dump's peak RSS by about 11%.
_JSONL_BLOCK = 2048


def _float_texts(values: np.ndarray) -> list:
    """Each float as `json.dumps` writes it: its repr, or NaN/Infinity."""
    return json.dumps(values.tolist())[1:-1].split(", ") if len(values) else []


def paths_to_jsonl(horizon: float, dimension: int, times, marks,
                   offsets) -> str:
    """Paths stored flat, as JSON lines.

    Path i owns entries offsets[i]:offsets[i + 1] of `times` and `marks`, and
    line i is byte-equal to that slice's `JumpPath(...).to_json()`.  Every
    path is checked once, up front, by the rule `JumpPath` applies.
    """
    times = np.asarray(times, dtype=float)
    marks = np.asarray(marks, dtype=float).reshape(len(times), dimension)
    offsets = np.asarray(offsets)
    _check_jumps(horizon, times, marks, offsets)
    # '{"T": ..., "d": ..., "jumps": [', encoded as to_json encodes it
    head = json.dumps({"T": horizon, "d": dimension, "jumps": []},
                      sort_keys=True)[:-2]
    blocks = []
    for first in range(0, len(offsets) - 1, _JSONL_BLOCK):
        bounds = offsets[first:first + _JSONL_BLOCK + 1]
        lo, hi = bounds[0], bounds[-1]
        flat = _float_texts(marks[lo:hi].ravel())
        mark_texts = [", ".join(m) for m in zip(*[iter(flat)] * dimension)]
        jumps = [f"[{t}, [{m}]]"
                 for t, m in zip(_float_texts(times[lo:hi]), mark_texts)]
        cuts = (bounds - lo).tolist()
        blocks.append("".join(f"{head}{', '.join(jumps[a:b])}]}}\n"
                              for a, b in zip(cuts[:-1], cuts[1:])))
    return "".join(blocks)


def sup_distance(a: JumpPath, b: JumpPath) -> float:
    return a.sup_distance(b)
