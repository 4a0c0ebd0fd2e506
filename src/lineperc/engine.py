"""Infection closure via a sparse, counter-based line cascade.

The cascade never materializes the infected point set.  A point is infected
iff it is an initial point or lies on a saturated line, so the state is just
per-line counters, per-line saturation flags, and the seeds.  Saturating
a line touches its n points with strided numpy slices: the ids of the
crossing lines along any other axis form an arithmetic progression in the
varying coordinate.

Two kernels share that layout.  The queue (``run_fifo``, ``grow``) and the
sequential scan saturate one line at a time and learn which lines became
ready from the crossing counters: a counter rises by exactly one per newly
infected point, so a line is ready at the moment its counter equals its
threshold, and at no other time.  The generation schedules (``run_rounds``,
``run_half_steps``) saturate all the ready lines of one axis as one batch of
array operations, cut into slices of at most ``BATCH_ELEMS`` points to bound
memory; parallel lines share no point, so a batch equals its lines saturated
one by one in id order.  They find the next lines by scanning for unsaturated
lines at or above threshold.

The closure is monotone in the seed set, so a state can also be grown one
seed at a time (``InfectionState.grow``); every line then saturates at most
once over the whole growth.

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

# points per batch of parallel lines, which bounds the (lines, n) temporaries
BATCH_ELEMS = 1 << 20


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
    methods then advances the cascade.  Alternatively a state built from no
    seeds takes them one at a time through ``grow``.  A single state is
    single-threaded; distinct states are independent.
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
        self._codes = codes
        self._grown: list[int] = []
        self._initial_set = set(codes.tolist())
        # line id -> varying-axis digits of the seeds on that line; built on
        # first use, so a run that saturates nothing never pays for it
        self._seeds_on: dict[int, list[int]] | None = None
        self.line_count = np.zeros(t.L, dtype=np.int64)
        self.saturated = np.zeros(t.L, dtype=bool)
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
    def _initial_codes(self) -> np.ndarray:
        """Sorted codes of every seed, grown ones included."""
        if self._grown:
            return np.sort(np.asarray(self._grown, dtype=np.int64))
        return self._codes

    @property
    def explicit_infected(self) -> set[Point]:
        """Initial points that do not lie on any saturated line."""
        codes = self._initial_codes
        alone = ~self.saturated[self._t.lids_of(codes)].any(axis=1)
        return {decode_point(self.spec, int(c)) for c in codes[alone]}

    @property
    def pending(self) -> list[LineId]:
        """Lines at or above threshold that have not saturated (empty at a
        fixed point)."""
        return [decode_line(self.spec, int(i)) for i in self._ready_lines()]

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

    def _seed_index(self) -> dict[int, list[int]]:
        if self._seeds_on is None:
            index: dict[int, list[int]] = {}
            for lids, digits in zip(self._seed_lids.tolist(), self._seed_digits.tolist()):
                for lid, digit in zip(lids, digits):
                    index.setdefault(lid, []).append(digit)
            self._seeds_on = index
        return self._seeds_on

    def _ready_lines(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Ids in [lo, hi) of the unsaturated lines at or above threshold,
        ascending."""
        sl = slice(lo, hi)
        ready = (self.line_count[sl] >= self._t.thr_line[sl]) & ~self.saturated[sl]
        return lo + np.flatnonzero(ready)

    def _saturate(self, lid: int, round_idx: int, step: int, sink) -> None:
        """Saturate one line: infect its new points, bump crossing counters,
        and append to ``sink`` every crossing line that reaches its threshold.

        A counter rises by exactly one per newly infected point, so it equals
        the threshold only at the moment it crosses: a line is sunk at most
        once, and never if it started at or above threshold.
        """
        t = self._t
        n = t.n
        axis, g = t.line_digits(lid)
        mask = np.zeros(n, dtype=bool)
        seeds = self._seed_index().get(lid)
        if seeds:
            mask[seeds] = True
        sat = self.saturated
        cross = []  # (axis b, id of the crossing line at digit 0, id stride)
        for b, (off, row) in enumerate(zip(t.off_list, t.W_list)):
            if b != axis:
                base = off + sum(gi * w for gi, w in zip(g, row))
                s = row[axis]
                np.logical_or(mask, sat[base : base + s * n : s], out=mask)
                cross.append((b, base, s))
        new = ~mask
        sat[lid] = True
        lc = self.line_count
        lc[lid] = n
        self.infected_total += n - int(np.count_nonzero(mask))
        self._sat_per_axis[axis] += 1
        tr = self.trace
        tr.line_ids.append(int(lid))
        tr.steps.append(step)
        tr.round_of.append(round_idx)
        thr = self.spec.thresholds
        for b, base, s in cross:
            view = lc[base : base + s * n : s]
            view += new
            hit = ((view == thr[b]) & new).nonzero()[0]
            if hit.size:
                sink.extend((base + s * hit).tolist())
        if t.d == 3:
            self._boosted[axis] += new
            self._tally_planes(axis, g)

    def _saturate_parallel(
        self, axis: int, lids: np.ndarray, round_idx: int, step: int
    ) -> None:
        """Saturate a batch of axis-``axis`` lines (ids ascending) with one
        set of array operations per slice of at most ``BATCH_ELEMS`` points.

        Parallel lines share no point, so the result is that of ``_saturate``
        on each line in id order; the generation schedules find the next
        lines by scanning, so there is no sink.  Lines in one batch can cross
        the same line of another axis, hence the ``np.add.at`` bump.  A slice
        changes no other axis's ``saturated`` flag, so slicing changes nothing
        but the size of the temporaries (about 19 bytes per point in 2D, 27
        in 3D).
        """
        rows = max(1, BATCH_ELEMS // self._t.n)
        for lo in range(0, int(lids.size), rows):
            self._saturate_slice(axis, lids[lo : lo + rows], round_idx, step + lo)

    def _saturate_slice(
        self, axis: int, lids: np.ndarray, round_idx: int, step: int
    ) -> None:
        t = self._t
        n, k = t.n, int(lids.size)
        g = np.zeros((k, t.d), dtype=np.int64)  # digit vectors, 0 at ``axis``
        rem = lids - t.off_list[axis]
        for i in reversed(range(t.d)):
            if i != axis:
                rem, g[:, i] = np.divmod(rem, n)
        mask = np.zeros((k, n), dtype=bool)
        index = self._seed_index()
        for row, lid in enumerate(lids.tolist()):
            seeds = index.get(lid)
            if seeds:
                mask[row, seeds] = True
        digit = np.arange(n, dtype=np.int64)
        cross = []  # (k, n) ids of the crossing lines along each other axis
        for b in range(t.d):
            if b != axis:
                base = g @ t.W[b] + t.off_list[b]
                ids = base[:, None] + t.W_list[b][axis] * digit
                mask |= self.saturated[ids]
                cross.append(ids)
        new = ~mask
        for ids in cross:
            np.add.at(self.line_count, ids[new], 1)
        self.saturated[lids] = True
        self.line_count[lids] = n
        self.infected_total += k * n - int(np.count_nonzero(mask))
        self._sat_per_axis[axis] += k
        tr = self.trace
        tr.line_ids.extend(lids.tolist())
        tr.steps.extend(range(step, step + k))
        tr.round_of.extend([round_idx] * k)
        if t.d == 3:
            self._boosted[axis] += new.sum(axis=0)
            for gl in g.tolist():
                self._tally_planes(axis, gl)

    def _tally_planes(self, axis: int, g: list[int]) -> None:
        """3D plane bookkeeping for one saturated line with digit vector g."""
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

    def _drain(self, queue: deque, stop_on_percolation: bool, lifo: bool = False) -> bool:
        """Saturate queued lines until the queue is empty or, with
        ``stop_on_percolation``, percolation is proved (then True).

        Rounds and steps continue the numbering already in the trace, so a
        grown state's trace is the concatenation of its cascades.
        """
        t = self._t
        tr = self.trace
        round_idx = tr.num_rounds + 1
        step = len(tr.line_ids)
        in_round = len(queue)
        per_round = [0] * t.d
        while queue:
            lid = queue.pop() if lifo else queue.popleft()
            axis = lid // t.lines_per_axis
            self._saturate(lid, round_idx, step, queue)
            per_round[axis] += 1
            step += 1
            if stop_on_percolation and self._percolation_proved(axis):
                tr.round_axis_counts.append(tuple(per_round))
                return True
            if not lifo:
                in_round -= 1
                if in_round == 0:
                    tr.round_axis_counts.append(tuple(per_round))
                    per_round = [0] * t.d
                    round_idx += 1
                    in_round = len(queue)
        if lifo and step:
            tr.round_axis_counts.append(tuple(per_round))
        return False

    def run_fifo(self, *, stop_on_percolation: bool = False, lifo: bool = False):
        """Queue-driven cascade to the fixed point (or a sound early stop).

        FIFO order makes each line's round index equal to its synchronous
        generation; LIFO is exposed only to test order independence.
        """
        assert not self._ran
        self._ran = True
        if stop_on_percolation and self.infected_total == self._t.N:
            self.percolated = True
        else:
            queue = deque(self._ready_lines().tolist())
            proved = self._drain(queue, stop_on_percolation, lifo)
            self.percolated = proved or self.infected_total == self._t.N
        return self

    def grow(self, code: int) -> bool:
        """Add the seed with point code ``code`` and continue the FIFO
        cascade, stopping early once percolation is proved.

        Only for a state built from no seeds and advanced by ``grow`` alone.
        Between calls the state is at the fixed point of the seeds so far,
        so every line saturates at most once over the whole growth and
        ``percolated`` is exact after each call.  Returns ``percolated``;
        once it is True the state takes no more seeds.
        """
        assert self._codes.size == 0 and not self.percolated
        assert self._grown or not self._ran
        t = self._t
        if not 0 <= code < t.N:
            raise InputError(f"point code {code} out of range [0, {t.N})")
        self._ran = True
        if code in self._initial_set:
            return False
        self._initial_set.add(code)
        self._grown.append(code)
        digits = [code // s % t.n for s in t.pstride_list]
        lids = [
            off + sum(g * w for g, w in zip(digits, row))
            for off, row in zip(t.off_list, t.W_list)
        ]
        sat = self.saturated
        if any(sat[lid] for lid in lids):
            # already infected (never by the first seed, so ``percolated``
            # is already False): its lines counted it when it was infected
            return False
        self.infected_total += 1
        seeds_on = self._seed_index()
        lc = self.line_count
        thr = self.spec.thresholds
        queue: deque = deque()
        for axis, lid in enumerate(lids):
            seeds_on.setdefault(lid, []).append(digits[axis])
            lc[lid] += 1
            if lc[lid] == thr[axis]:
                queue.append(lid)
        proved = self.infected_total == t.N or self._drain(queue, True)
        self.percolated = proved
        return proved

    def run_rounds(self):
        """Synchronous generations: every thresholded line saturates together.

        A round saturates its lines one axis at a time, in axis order, each
        axis as one batch of parallel lines.  That is canonical id order, which
        fixes the attribution of points lying on two simultaneously
        saturating lines.  The next round is every unsaturated line then at
        or above threshold.
        """
        assert not self._ran
        self._ran = True
        t = self._t
        tr = self.trace
        step = 0
        ready = self._ready_lines()
        while ready.size:
            round_idx = tr.num_rounds + 1
            per_round = [0] * t.d
            cuts = np.searchsorted(ready, t.off_list[1:])
            for axis, lids in enumerate(np.split(ready, cuts)):
                if lids.size:
                    self._saturate_parallel(axis, lids, round_idx, step)
                    per_round[axis] = int(lids.size)
                    step += int(lids.size)
            tr.round_axis_counts.append(tuple(per_round))
            ready = self._ready_lines()
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
        # the scan finds ready lines itself: what ``_saturate`` sinks is
        # discarded (one list append per line crossing its threshold)
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
        pos = 0
        inspections = 0
        while True:
            cand = self._ready_lines(pos)
            if cand.size:
                j = int(cand[0])
                inspections += j - pos + 1
                self._saturate(j, (inspections - 1) // t.L, inspections - 1, sink)
                pos = j + 1
                if pos == t.L:
                    pos = 0
            else:
                inspections += t.L - pos
                pos = 0
                if not self._ready_lines().size:
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
        threshold, as one batch of parallel lines.  With ``stop_rule`` the
        run halts as soon as one axis holds enough parallel saturated lines
        to force full percolation.  Returns the per-half-step counts in
        execution order as [(axis, count), ...].
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
            ready = self._ready_lines(lo, lo + t.lines_per_axis)
            if ready.size:
                self._saturate_parallel(axis, ready, half, step)
                step += int(ready.size)
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
