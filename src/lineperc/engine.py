"""Infection closure via a sparse, counter-based line cascade.

The cascade never materializes the infected point set.  A point is infected
iff it is an initial point or lies on a saturated line, so the state is just
per-line counters, per-line saturation flags, and the seed array.  Saturating
a line touches its n points with strided numpy slices: the ids of the
crossing lines along any other axis form an arithmetic progression in the
varying coordinate.

``naive_closure`` is the deliberately simple fixed-point oracle (full rescan
of every line each pass) used to cross-check the cascade.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .grid import (
    GridSpec,
    InputError,
    LineId,
    Point,
    _tables,
    decode_line,
    decode_point,
    encode_points,
    validate_point,
)


@dataclass
class Trace:
    """Ordered saturation events plus per-round axis tallies.

    ``steps`` is strictly increasing; its meaning depends on the schedule
    (saturation index for queue/round runs, inspection index for sequential
    runs).  ``round_axis_counts[g][a]`` is the number of axis-a lines
    saturated in round g+1.
    """

    spec: GridSpec
    line_ids: list[int] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    round_of: list[int] = field(default_factory=list)
    round_axis_counts: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.round_axis_counts)

    def check(self) -> None:
        assert all(b > a for a, b in zip(self.steps, self.steps[1:]))
        assert all(b >= a for a, b in zip(self.round_of, self.round_of[1:]))
        assert sum(sum(c) for c in self.round_axis_counts) == len(self.line_ids)


class InfectionState:
    """One cascade run on a grid: counters, flags, and the event trace.

    Construction seeds the counters from the initial set; one of the ``run_*``
    methods then advances the cascade.  A single state is single-threaded;
    distinct states are independent.
    """

    def __init__(self, spec: GridSpec, initial, _codes: np.ndarray | None = None):
        self.spec = spec
        t = _tables(spec)
        self._t = t
        if _codes is None:
            codes = encode_points(spec, initial)
        else:
            codes = np.unique(np.asarray(_codes, dtype=np.int64))
            if codes.size and (codes[0] < 0 or codes[-1] >= t.N):
                raise InputError("point code out of range")
        self._initial_codes = codes
        self._initial_set = set(codes.tolist())
        self.line_count = np.zeros(t.L, dtype=np.int64)
        self.saturated = np.zeros(t.L, dtype=bool)
        self._enqueued = np.zeros(t.L, dtype=bool)
        self.infected_total = int(codes.size)
        self.trace = Trace(spec)
        self._sat_per_axis = [0] * spec.d
        self.percolated: bool | None = None
        self._ran = False
        if codes.size:
            self._seed_digits = t.digits_of(codes)
            self._seed_lids = self._seed_digits @ t.W.T + t.off
            np.add.at(self.line_count, self._seed_lids.ravel(), 1)
        else:
            self._seed_digits = np.zeros((0, spec.d), dtype=np.int64)
            self._seed_lids = np.zeros((0, spec.d), dtype=np.int64)
        ready = np.flatnonzero(self.line_count >= t.thr_line)
        self._enqueued[ready] = True
        self._ready0 = ready
        if spec.d == 3:
            # plane bookkeeping: parallel saturated lines per (normal, offset,
            # line axis), boosted points per plane, and the early-stop flags
            self._paral = np.zeros((3, spec.n, 3), dtype=np.int64)
            self._boosted = np.zeros((3, spec.n), dtype=np.int64)
            self._plane_full = np.zeros((3, spec.n), dtype=bool)
            self._full_planes = [0, 0, 0]
        self._early_proof = False

    # -- queries ------------------------------------------------------------

    @property
    def explicit_infected(self) -> set[Point]:
        """Initial points that do not lie on any saturated line."""
        out = set()
        for row, code in enumerate(self._initial_codes):
            if not self.saturated[self._seed_lids[row]].any():
                out.add(decode_point(self.spec, int(code)))
        return out

    @property
    def pending(self) -> list[LineId]:
        """Lines at or above threshold that have not saturated (empty at a
        fixed point)."""
        mask = (self.line_count >= self._t.thr_line) & ~self.saturated
        return [decode_line(self.spec, int(i)) for i in np.flatnonzero(mask)]

    def saturated_lines(self) -> list[LineId]:
        return [decode_line(self.spec, int(i)) for i in np.flatnonzero(self.saturated)]

    def is_infected(self, p: Sequence[int]) -> bool:
        t = self._t
        p = validate_point(self.spec, p)
        code = int(sum((c - 1) * s for c, s in zip(p, t.pstride)))
        if code in self._initial_set:
            return True
        digits = np.asarray([c - 1 for c in p], dtype=np.int64)
        lids = digits @ t.W.T + t.off
        return bool(self.saturated[lids].any())

    def infected_mask(self) -> np.ndarray:
        """Dense boolean mask over point codes (materializes n^d bools)."""
        t = self._t
        mask = np.zeros(t.N, dtype=bool)
        mask[self._initial_codes] = True
        for lid in np.flatnonzero(self.saturated):
            axis, g = t.line_digits(int(lid))
            base = int(sum(gd * s for gd, s in zip(g, t.pstride)))
            step = int(t.pstride[axis])
            mask[base : base + step * t.n : step] = True
        return mask

    def infected_codes(self) -> np.ndarray:
        return np.flatnonzero(self.infected_mask())

    def infected_points(self) -> set[Point]:
        return {decode_point(self.spec, int(c)) for c in self.infected_codes()}

    # -- cascade core ---------------------------------------------------------

    def _saturate(self, lid: int, round_idx: int, step: int, sink) -> None:
        """Saturate one line: infect its new points, bump crossing counters."""
        t = self._t
        n = t.n
        axis, g = t.line_digits(lid)
        mask = np.zeros(n, dtype=bool)
        if self._seed_lids.shape[0]:
            rows = np.flatnonzero(self._seed_lids[:, axis] == lid)
            if rows.size:
                mask[self._seed_digits[rows, axis]] = True
        garr = np.asarray(g, dtype=np.int64)
        bases = t.off + t.W @ garr  # bases[b]: crossing-line id at digit 0
        for b in range(t.d):
            if b == axis:
                continue
            s = int(t.W[b, axis])
            base = int(bases[b])
            mask |= self.saturated[base : base + s * n : s]
        ts = np.flatnonzero(~mask)
        self.saturated[lid] = True
        self.line_count[lid] = n
        self.infected_total += int(ts.size)
        self._sat_per_axis[axis] += 1
        tr = self.trace
        tr.line_ids.append(int(lid))
        tr.steps.append(step)
        tr.round_of.append(round_idx)
        for b in range(t.d):
            if b == axis:
                continue
            ids = bases[b] + t.W[b, axis] * ts
            lc = self.line_count
            lc[ids] += 1
            sel = (lc[ids] >= self.spec.thresholds[b]) & ~self._enqueued[ids]
            hit = ids[sel]
            if hit.size:
                self._enqueued[hit] = True
                sink.extend(hit.tolist())
        if t.d == 3:
            self._boosted[axis, ts] += 1
            thr = self.spec.thresholds
            for b in range(3):
                if b == axis:
                    continue
                c = 3 - axis - b
                z = g[b]
                self._paral[b, z, axis] += 1
                if not self._plane_full[b, z] and self._paral[b, z, axis] >= thr[c]:
                    self._plane_full[b, z] = True
                    self._full_planes[b] += 1
                    if self._full_planes[b] >= thr[b]:
                        self._early_proof = True

    def _percolation_proved(self, axis: int) -> bool:
        """Sound sufficient conditions; the fixed point is always the fallback."""
        t = self._t
        if self.infected_total == t.N:
            return True
        d = t.d
        if d == 1:
            return self._sat_per_axis[0] > 0
        if d == 2:
            return self._sat_per_axis[axis] >= self.spec.thresholds[1 - axis]
        if d == 3:
            return self._early_proof
        return False

    # -- schedules -----------------------------------------------------------

    def run_fifo(self, *, stop_on_percolation: bool = False, lifo: bool = False):
        """Queue-driven cascade to the fixed point (or a sound early stop).

        FIFO order makes each line's round index equal to its synchronous
        generation; LIFO is exposed only to test order independence.
        """
        assert not self._ran
        self._ran = True
        t = self._t
        if stop_on_percolation and self.infected_total == t.N:
            self.percolated = True
            return self
        queue = deque(self._ready0.tolist())
        round_idx = 1
        in_round = len(queue)
        step = 0
        per_round = [0] * t.d
        while queue:
            lid = queue.pop() if lifo else queue.popleft()
            self._saturate(lid, round_idx, step, queue)
            per_round[lid // t.lines_per_axis] += 1
            step += 1
            if stop_on_percolation and self._percolation_proved(
                lid // t.lines_per_axis
            ):
                self.percolated = True
                self.trace.round_axis_counts.append(tuple(per_round))
                return self
            if not lifo:
                in_round -= 1
                if in_round == 0:
                    self.trace.round_axis_counts.append(tuple(per_round))
                    per_round = [0] * t.d
                    round_idx += 1
                    in_round = len(queue)
        if lifo and step:
            self.trace.round_axis_counts.append(tuple(per_round))
        self.percolated = self.infected_total == t.N
        return self

    def run_rounds(self):
        """Synchronous generations: every thresholded line saturates together.

        Lines within a round are processed in canonical id order, which fixes
        the attribution of points lying on two simultaneously saturating lines.
        """
        assert not self._ran
        self._ran = True
        t = self._t
        pending: list[int] = sorted(self._ready0.tolist())
        round_idx = 1
        step = 0
        while pending:
            batch = sorted(set(pending))
            pending = []
            per_round = [0] * t.d
            for lid in batch:
                self._saturate(lid, round_idx, step, pending)
                per_round[lid // t.lines_per_axis] += 1
                step += 1
            self.trace.round_axis_counts.append(tuple(per_round))
            round_idx += 1
        self.percolated = self.infected_total == t.N
        return self

    def run_sequential(self, order: Sequence[int] | None = None):
        """One line inspected per step, cyclically; saturate iff at threshold.

        Stops once a full cycle passes with no change.  ``steps`` in the trace
        are inspection indices.  ``order`` is a permutation of all line ids
        (default: canonical order).
        """
        assert not self._ran
        self._ran = True
        t = self._t
        self._enqueued[:] = True  # queue bookkeeping is meaningless here
        sink: list[int] = []
        if order is None:
            self._run_sequential_canonical(sink)
        else:
            order = [int(x) for x in order]
            if sorted(order) != list(range(t.L)):
                raise InputError("order must be a permutation of all line ids")
            self._run_sequential_order(order, sink)
        if self.trace.line_ids:
            # the whole scan is one round: every saturation so far, per axis
            self.trace.round_axis_counts.append(tuple(self._sat_per_axis))
        self.percolated = self.infected_total == t.N
        return self

    def _run_sequential_canonical(self, sink):
        t = self._t
        ready = lambda lo: np.flatnonzero(
            (self.line_count[lo:] >= t.thr_line[lo:]) & ~self.saturated[lo:]
        )
        pos = 0
        inspections = 0
        while True:
            cand = ready(pos)
            if cand.size:
                j = pos + int(cand[0])
                inspections += j - pos + 1
                self._saturate(j, (inspections - 1) // t.L, inspections - 1, sink)
                pos = j + 1
                if pos == t.L:
                    pos = 0
            else:
                inspections += t.L - pos
                pos = 0
                if not ready(0).size:
                    break

    def _run_sequential_order(self, order, sink):
        t = self._t
        idle = 0
        inspections = 0
        pos = 0
        while idle < t.L:
            lid = order[pos]
            inspections += 1
            if not self.saturated[lid] and self.line_count[lid] >= t.thr_line[lid]:
                self._saturate(lid, (inspections - 1) // t.L, inspections - 1, sink)
                idle = 0
            else:
                idle += 1
            pos += 1
            if pos == t.L:
                pos = 0

    def run_half_steps(self, *, stop_rule: bool = True, start_axis: int = 0):
        """Alternating single-axis generations (d=2 only).

        Saturates, per half-step, every line of the current axis already at
        threshold.  With ``stop_rule`` the run halts as soon as one axis holds
        enough parallel saturated lines to force full percolation.  Returns
        the per-half-step counts in execution order as [(axis, count), ...].
        """
        assert not self._ran
        self._ran = True
        t = self._t
        if t.d != 2:
            raise InputError("alternating process requires d = 2")
        axis = start_axis
        halves: list[tuple[int, int]] = []
        idle = 0
        step = 0
        half = 0
        while True:
            lo = axis * t.lines_per_axis
            hi = lo + t.lines_per_axis
            ready = np.flatnonzero(
                (self.line_count[lo:hi] >= self.spec.thresholds[axis])
                & ~self.saturated[lo:hi]
            )
            sink: list[int] = []
            for lid in (ready + lo).tolist():
                self._saturate(lid, half, step, sink)
                step += 1
            per_round = [0] * t.d
            per_round[axis] = int(ready.size)
            self.trace.round_axis_counts.append(tuple(per_round))
            halves.append((axis, int(ready.size)))
            if stop_rule and self._sat_per_axis[axis] >= self.spec.thresholds[1 - axis]:
                self.percolated = True
                return halves
            idle = idle + 1 if ready.size == 0 else 0
            if idle >= 2:
                break
            axis = 1 - axis
            half += 1
        self.percolated = self.infected_total == t.N
        return halves


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def closure(spec: GridSpec, initial: Iterable[Sequence[int]]) -> InfectionState:
    """The full infection closure [A], FIFO schedule, run to the fixed point."""
    return InfectionState(spec, initial).run_fifo()


def closure_from_codes(spec: GridSpec, codes: np.ndarray) -> InfectionState:
    return InfectionState(spec, None, _codes=codes).run_fifo()


def percolation_run(spec: GridSpec, codes: np.ndarray) -> InfectionState:
    """Cascade with sound early stop; ``percolated`` is exact either way."""
    return InfectionState(spec, None, _codes=codes).run_fifo(stop_on_percolation=True)


def percolates(spec: GridSpec, initial: Iterable[Sequence[int]]) -> bool:
    """Whether [A] is the whole grid."""
    state = InfectionState(spec, initial).run_fifo(stop_on_percolation=True)
    return bool(state.percolated)


def naive_closure(spec: GridSpec, initial: Iterable[Sequence[int]]) -> set[Point]:
    """Reference fixed-point oracle: rescan every line until nothing changes.

    O(d n^d) per pass; intended for cross-checks at small n, not production.
    """
    t = _tables(spec)
    if t.N > 4_000_000:
        raise InputError("naive_closure is an oracle for small grids only")
    codes = encode_points(spec, initial)
    infected = np.zeros(t.N, dtype=bool)
    infected[codes] = True
    all_codes = np.arange(t.N, dtype=np.int64)
    lut = t.lids_of(all_codes)  # (N, d): the d line ids through every site
    while True:
        inf_codes = np.flatnonzero(infected)
        counts = np.bincount(lut[inf_codes].ravel(), minlength=t.L)
        sat = counts >= t.thr_line
        member = sat[lut].any(axis=1)
        new = infected | member
        if np.array_equal(new, infected):
            break
        infected = new
    return {decode_point(spec, int(c)) for c in np.flatnonzero(infected)}
