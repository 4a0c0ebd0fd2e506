"""Process schedules and their instrumentation.

Three ways to drive the same cascade: synchronous generations, the 2D
alternating horizontal/vertical process with its line-count record, and the
one-line-at-a-time sequential scan.  All of them reach the same closure when
run to termination; the alternating process additionally supports the
stopped variant that halts once one direction holds enough parallel fully
infected lines to force percolation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import Cascade2D, InfectionState, Trace, new_state
from .grid import GridSpec, InputError, _tables


class LineCountClass(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    NO_PERCOLATION = "none"


@dataclass(frozen=True)
class LineCount2D:
    """Per-half-step counts of newly saturated lines in the alternating run.

    ``h[i]`` counts horizontal (axis 0) lines saturated in half-step 2i,
    ``v[i]`` vertical (axis 1) lines in half-step 2i+1, for the default
    horizontal start.  Trailing idle half-steps are trimmed, but at least one
    ``h`` entry is kept so a run that dies immediately records h=(0,).
    """

    h: tuple[int, ...]
    v: tuple[int, ...]
    start_axis: int = 0

    def interleaved(self) -> list[tuple[int, int]]:
        """[(axis, count), ...] in execution order, zero-padded to alternate."""
        first = list(self.h) if self.start_axis == 0 else list(self.v)
        second = list(self.v) if self.start_axis == 0 else list(self.h)
        out = []
        for i in range(max(len(first), len(second))):
            out.append((self.start_axis, first[i] if i < len(first) else 0))
            out.append((1 - self.start_axis, second[i] if i < len(second) else 0))
        return out


@dataclass(frozen=True)
class Preface:
    """A line-count with the winning direction's final entry removed."""

    direction: LineCountClass
    h: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True)
class PlaneStats:
    """Per-plane tallies for a 3D run.

    A plane is (normal axis, 1-based offset).  ``max_parallel[b, z-1]`` is the
    larger of the two in-plane counts of parallel saturated lines, and
    ``boosted[b, z-1]`` counts points of the plane whose first saturated line
    was perpendicular to it.
    """

    n: int
    max_parallel: np.ndarray  # (3, n) int
    boosted: np.ndarray  # (3, n) int

    def n_k(self, k: int) -> int:
        """Number of planes holding at least k parallel fully infected lines."""
        return int((self.max_parallel >= k).sum())

    def n_k_profile(self, kmax: int) -> tuple[int, ...]:
        return tuple(self.n_k(k) for k in range(1, kmax + 1))

    def boosted_total(self) -> int:
        # every non-initial infected point is boosted for exactly one plane
        return int(self.boosted.sum())


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_synchronous(
    spec: GridSpec, initial: Iterable[Sequence[int]], *, _codes=None
) -> tuple[Cascade2D | InfectionState, Trace]:
    """Synchronous generations A^(m): all thresholded lines saturate together."""
    state = new_state(spec, initial, _codes=_codes).run_rounds()
    return state, state.trace


def run_alternating_2d(
    spec: GridSpec,
    initial: Iterable[Sequence[int]],
    *,
    stop_rule: bool = True,
    start_axis: int = 0,
    _codes=None,
) -> tuple[Cascade2D, LineCount2D]:
    """Alternating one-axis generations (d=2), horizontal first by default.

    With ``stop_rule`` the process halts as soon as one direction has
    accumulated enough parallel fully infected lines to guarantee percolation
    (the perpendicular axis threshold); without it the run reaches the same
    closure as every other schedule.
    """
    if spec.d != 2:
        raise InputError("run_alternating_2d requires d = 2")
    if start_axis not in (0, 1):
        raise InputError(f"start_axis must be 0 or 1, got {start_axis}")
    state = new_state(spec, initial, _codes=_codes)
    halves = state.run_half_steps(stop_rule=stop_rule, start_axis=start_axis)
    counts = [c for _, c in halves]
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    by_axis: dict[int, list[int]] = {0: [], 1: []}
    axis = start_axis
    for c in counts:
        by_axis[axis].append(c)
        axis = 1 - axis
    lc = LineCount2D(tuple(by_axis[0]), tuple(by_axis[1]), start_axis=start_axis)
    return state, lc


def run_sequential(
    spec: GridSpec,
    initial: Iterable[Sequence[int]],
    order: Sequence[int] | None = None,
    *,
    _codes=None,
) -> tuple[Cascade2D | InfectionState, Trace]:
    """Cyclic one-line-at-a-time scan; terminates after a full idle cycle.

    ``order`` is an optional permutation of all canonical line ids.
    """
    state = new_state(spec, initial, _codes=_codes).run_sequential(order)
    return state, state.trace


# ---------------------------------------------------------------------------
# line-count analysis
# ---------------------------------------------------------------------------


def _validate_lc(lc: LineCount2D) -> None:
    if any(x < 0 for x in lc.h) or any(x < 0 for x in lc.v):
        raise InputError(f"negative line-count entries: {lc}")


def classify_line_count(lc: LineCount2D, r: int) -> LineCountClass:
    """Which direction first accumulated r parallel fully infected lines.

    Walks the half-steps in execution order; the first direction whose
    cumulative count reaches r wins.  Under the stopped process at most one
    direction can ever reach r.
    """
    _validate_lc(lc)
    cum = {0: 0, 1: 0}
    for axis, c in lc.interleaved():
        cum[axis] += c
        if cum[axis] >= r:
            return LineCountClass.HORIZONTAL if axis == 0 else LineCountClass.VERTICAL
    return LineCountClass.NO_PERCOLATION


def preface_of(lc: LineCount2D, r: int) -> Preface:
    """Drop the winning direction's final entry (v_k or h_{k+1})."""
    cls = classify_line_count(lc, r)
    if cls is LineCountClass.NO_PERCOLATION:
        raise InputError("preface is only defined for a percolating line-count")
    if cls is LineCountClass.VERTICAL:
        return Preface(cls, tuple(lc.h), tuple(lc.v[:-1]))
    return Preface(cls, tuple(lc.h[:-1]), tuple(lc.v))


def is_slow(preface: Preface, s: int) -> bool:
    """Both cumulative counts before the winning step stay at most s.

    For a vertical winner at step k this reads sum_{i<k} v_i <= s and
    sum_{i<k} h_i <= s; for a horizontal winner, sum_{i<k} v_i <= s and
    sum_{i<=k} h_i <= s.
    """
    if s < 0:
        raise InputError(f"slowness parameter must be >= 0, got {s}")
    if preface.direction is LineCountClass.VERTICAL:
        k = len(preface.v)
        return sum(preface.v) <= s and sum(preface.h[:k]) <= s
    k = len(preface.v) - 1
    return sum(preface.v[:k]) <= s and sum(preface.h) <= s


def preface_text(preface: Preface) -> str:
    """Stable text form, e.g. ``h:1,0|v:1``."""
    return (
        "h:" + ",".join(str(x) for x in preface.h)
        + "|v:" + ",".join(str(x) for x in preface.v)
    )


# ---------------------------------------------------------------------------
# plane statistics (d = 3)
# ---------------------------------------------------------------------------


def plane_statistics(spec: GridSpec, state: InfectionState) -> PlaneStats:
    """N_k inputs and boosted-point counts, from the run's incremental tallies."""
    if spec.d != 3:
        raise InputError("plane_statistics requires d = 3")
    return PlaneStats(
        n=spec.n,
        max_parallel=state._paral.max(axis=2).copy(),
        boosted=state._boosted.copy(),
    )


def plane_statistics_recount(spec: GridSpec, state: InfectionState) -> PlaneStats:
    """Brute-force recomputation from the saturation flags and event order.

    Used to validate the incrementally maintained statistics.
    """
    if spec.d != 3:
        raise InputError("plane_statistics requires d = 3")
    t = _tables(spec)
    n = spec.n
    paral = np.zeros((3, n, 3), dtype=np.int64)
    for lid in np.flatnonzero(state.saturated):
        axis, g = t.line_digits(int(lid))
        for b in range(3):
            if b != axis:
                paral[b, g[b], axis] += 1
    boosted = np.zeros((3, n), dtype=np.int64)
    infected = np.zeros(t.N, dtype=bool)
    infected[state._initial_codes] = True
    for lid in state.trace.line_ids:
        axis, g = t.line_digits(int(lid))
        base = int(sum(gd * s for gd, s in zip(g, t.pstride)))
        step = int(t.pstride[axis])
        codes = base + step * np.arange(n, dtype=np.int64)
        fresh = ~infected[codes]
        boosted[axis, np.flatnonzero(fresh)] += 1
        infected[codes] = True
    return PlaneStats(n=n, max_parallel=paral.max(axis=2), boosted=boosted)
