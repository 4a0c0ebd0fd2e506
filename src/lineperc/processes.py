"""Process schedules and their instrumentation.

Three ways to drive the same cascade: synchronous generations, the 2D
alternating horizontal/vertical process with its line-count record, and the
one-line-at-a-time sequential scan.  All of them reach the same closure when
run to termination; the alternating process additionally supports the
stopped variant that halts once one direction holds enough parallel fully
infected lines to force percolation.  Each runner takes the initial set as an
array of point codes, as ``engine.new_state`` does (see ``encode_points``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .engine import Cascade2D, InfectionState, Trace, new_state
from .grid import GridSpec, InputError, _tables


class LineCountClass(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    NO_PERCOLATION = "none"


@dataclass(frozen=True)
class LineCount2D:
    """Per-half-step counts of newly saturated lines in the alternating run,
    which runs horizontal first: the line-count (h_1, v_1, h_2, ...).

    ``h[i]`` counts horizontal (axis 0) lines saturated in half-step 2i+1,
    ``v[i]`` vertical (axis 1) lines in half-step 2i+2.  Trailing idle
    half-steps are trimmed, but at least one ``h`` entry is kept so a run
    that dies immediately records h=(0,).
    """

    h: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True)
class Preface:
    """A line-count with the winning direction's final entry removed."""

    direction: LineCountClass
    h: tuple[int, ...]
    v: tuple[int, ...]


@dataclass(frozen=True)
class PlaneStats:
    """Per-plane line tallies for a 3D run.

    A plane is (normal axis, 1-based offset).  ``max_parallel[b, z-1]`` is the
    larger of the two in-plane counts of parallel saturated lines.
    """

    n: int
    max_parallel: np.ndarray  # (3, n) int

    def n_k(self, k: int) -> int:
        """Number of planes holding at least k parallel fully infected lines."""
        return int((self.max_parallel >= k).sum())

    def n_k_profile(self, kmax: int) -> tuple[int, ...]:
        return tuple(self.n_k(k) for k in range(1, kmax + 1))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_synchronous(
    spec: GridSpec, codes: np.ndarray
) -> tuple[Cascade2D | InfectionState, Trace]:
    """Synchronous generations A^(m): all thresholded lines saturate together."""
    state = new_state(spec, codes).run_rounds()
    return state, state.trace


def run_alternating_2d(
    spec: GridSpec, codes: np.ndarray, *, stop_rule: bool = True
) -> tuple[Cascade2D, LineCount2D]:
    """Alternating one-axis generations (d=2), horizontal first.

    With ``stop_rule`` the process halts as soon as one direction has
    accumulated enough parallel fully infected lines to guarantee percolation
    (the perpendicular axis threshold); without it the run reaches the same
    closure as every other schedule.  The line-count is read from the
    returned state's trace, whose round g is half-step g (from 1).  A
    vertical start is the run on the transposed seeds.
    """
    state = new_state(spec, codes).run_half_steps(stop_rule=stop_rule)
    counts = [sum(row) for row in state.trace.round_axis_counts]
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return state, LineCount2D(tuple(counts[0::2]), tuple(counts[1::2]))


def run_sequential(
    spec: GridSpec, codes: np.ndarray, order: Sequence[int] | None = None
) -> tuple[Cascade2D | InfectionState, Trace]:
    """Cyclic one-line-at-a-time scan in passes over ``order``; ends after a
    pass that saturates no line.

    ``order`` is an optional permutation of all canonical line ids.
    """
    state = new_state(spec, codes).run_sequential(order)
    return state, state.trace


# ---------------------------------------------------------------------------
# line-count analysis
# ---------------------------------------------------------------------------


def classify_line_count(lc: LineCount2D, r: int) -> LineCountClass:
    """Which direction first accumulated r parallel fully infected lines.

    Walks the half-steps in execution order; the first direction whose
    cumulative count reaches r wins.  Under the stopped process at most one
    direction can ever reach r.
    """
    if min((*lc.h, *lc.v), default=0) < 0:
        raise InputError(f"negative line-count entries: {lc}")
    cum = [0, 0]
    for pair in zip_longest(lc.h, lc.v, fillvalue=0):
        for axis, c in enumerate(pair):
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
    """N_k inputs from the saturation flags."""
    if spec.d != 3:
        raise InputError("plane_statistics requires d = 3")
    # sat[a] holds the axis-a lines by their two other digits, in axis order;
    # summing out the one that is not b, axis 1 - b + (b > a), leaves the
    # count per normal-b plane
    sat = state.saturated.reshape(3, spec.n, spec.n)
    paral = [
        [sat[a].sum(axis=1 - b + (b > a)) for a in range(3) if a != b] for b in range(3)
    ]
    return PlaneStats(spec.n, np.max(paral, axis=1))


def plane_statistics_recount(spec: GridSpec, state: InfectionState) -> PlaneStats:
    """Brute-force recount of ``plane_statistics``, line by line: the oracle
    of its ``max_parallel``."""
    if spec.d != 3:
        raise InputError("plane_statistics_recount requires d = 3")
    t = _tables(spec)
    paral = np.zeros((3, spec.n, 3), dtype=np.int64)
    for lid in np.flatnonzero(state.saturated):
        axis, g = t.line_digits(int(lid))
        for b in range(3):
            if b != axis:
                paral[b, g[b], axis] += 1
    return PlaneStats(spec.n, paral.max(axis=2))


def boosted_points(spec: GridSpec, state: InfectionState) -> np.ndarray:
    """Boosted points per plane (d = 3), replayed from the trace: entry
    [b, z-1] counts the points of the plane (normal b, offset z) whose first
    saturated line was perpendicular to it.  Every seed counts as initially
    infected, so every other infected point is boosted for exactly one
    plane, and the counts sum to ``infected_total - seeds.size``."""
    if spec.d != 3:
        raise InputError("boosted_points requires d = 3")
    t = _tables(spec)
    boosted = np.zeros((3, spec.n), dtype=np.int64)
    infected = np.zeros(t.N, dtype=bool)
    infected[state.seeds] = True
    for lid in state.trace.line_ids:
        axis = int(lid) // t.lines_per_axis
        line = t.line_slice(int(lid))
        boosted[axis, np.flatnonzero(~infected[line])] += 1
        infected[line] = True
    return boosted
