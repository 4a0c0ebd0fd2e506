"""Infection closure via sparse, counter-based line cascades.

The cascade never materializes the infected point set.  A point is infected
iff it is an initial point or lies on a saturated line, so a state needs only
the seeds, which lines are saturated, and enough counts to tell when a line
reaches its threshold.  Two kernels keep those counts.

The schedules live once, on the base ``_Cascade``: ``run_fifo``,
``run_rounds``, ``run_half_steps``, ``run_sequential`` and ``grow``.  The
closure is monotone in the seed set, so ``grow`` adds seeds one at a time and
every line saturates at most once over the whole growth.  A kernel supplies
its counts and ``_ready_lines``, ``_is_ready``, ``_saturate`` (one line) and
``_add_seed`` (one grown seed); it may batch ``_saturate_parallel``, which by
default saturates one line at a time.

``InfectionState``, the dense kernel, serves every d.  It keeps a counter and
a saturation flag per line, and saturating a line touches its n points with
strided numpy slices: the ids of the crossing lines along any other axis form
an arithmetic progression in the varying coordinate.  A line learns it is
ready from the crossing counters: a counter rises by exactly one per newly
infected point, so a line is ready at the moment its counter equals its
threshold, and at no other time.  Its ``_saturate_parallel`` saturates all the
ready lines of one axis as one batch of array operations, cut into slices of
at most ``BATCH_ELEMS`` points to bound memory; parallel lines share no point,
so a batch equals its lines saturated one by one in id order.

``Cascade2D``, the count kernel, serves d = 2 and keeps no per-point or
per-line array.  A point of an axis-a line is infected iff it is a seed or
lies on a saturated perpendicular line, so the line holds C[1-a] + s infected
points: C[b] is the number of saturated axis-b lines, and s the number of the
line's seeds that lie on no saturated line.  Saturating a line adds one to its
C and takes one from s of each perpendicular line through one of its seeds;
the lines that become ready are read from buckets of lines keyed by s.

``new_state`` picks the kernel from the spec alone: ``Cascade2D`` when d = 2,
``InfectionState`` otherwise.  Both kernels give the same trace, counters and
queries on every schedule, and the dense kernel stays the 2D oracle next to
``naive_closure``.

``naive_closure`` is the deliberately simple fixed-point oracle (full rescan
of every line each pass) used to cross-check the cascades.
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
    require_small_grid,
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


class _Cascade:
    """One cascade run on a grid: what both kernels share.

    That is the seeds, the event trace, the read-only queries and the
    schedules, ``grow`` among them.  A kernel supplies the counts:
    ``saturated`` and ``line_count`` (arrays over line ids),
    ``infected_total`` and ``_sat_per_axis``; and the operations
    ``_ready_lines``, ``_is_ready``, ``_saturate`` and ``_add_seed``.  It may
    override ``_saturate_parallel`` with a batched equivalent.

    Construction seeds the state from the initial set; one of the ``run_*``
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
        self.trace = Trace(spec)
        self.percolated: bool | None = None
        self._ran = False

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

    # -- schedules -----------------------------------------------------------

    def _percolation_proved(self) -> bool:
        """Sound sufficient conditions; the fixed point is always the fallback.
        ``_drain`` decides the 2D early stop before the line saturates."""
        t = self._t
        if self.infected_total == t.N:
            return True
        if t.d == 1:
            return self._sat_per_axis[0] > 0
        if t.d == 3:
            return self._early_proof
        return False

    def _drain(self, queue: deque, stop_on_percolation: bool) -> bool:
        """Saturate queued lines until the queue is empty or, with
        ``stop_on_percolation``, percolation is proved (then True).

        Rounds and steps continue the numbering already in the trace, so a
        grown state's trace is the concatenation of its cascades.
        """
        t = self._t
        tr = self.trace
        thr = self.spec.thresholds
        round_idx = tr.num_rounds + 1
        step = len(tr.line_ids)
        in_round = len(queue)
        per_round = [0] * t.d
        while queue:
            lid = queue.popleft()
            axis = lid // t.lines_per_axis
            # the 2D early stop is known before the line saturates, and a run
            # that stops on it reads no sink
            proves = (
                stop_on_percolation and t.d == 2
                and self._sat_per_axis[axis] + 1 >= thr[1 - axis]
            )
            self._saturate(lid, round_idx, step, None if proves else queue)
            per_round[axis] += 1
            step += 1
            if stop_on_percolation and (proves or self._percolation_proved()):
                tr.round_axis_counts.append(tuple(per_round))
                return True
            in_round -= 1
            if in_round == 0:
                tr.round_axis_counts.append(tuple(per_round))
                per_round = [0] * t.d
                round_idx += 1
                in_round = len(queue)
        return False

    def run_fifo(self, *, stop_on_percolation: bool = False):
        """Queue-driven cascade to the fixed point (or a sound early stop).

        FIFO order makes each line's round index equal to its synchronous
        generation.
        """
        assert not self._ran
        self._ran = True
        if stop_on_percolation and self.infected_total == self._t.N:
            self.percolated = True
        else:
            queue = deque(self._ready_lines().tolist())
            proved = self._drain(queue, stop_on_percolation)
            self.percolated = proved or self.infected_total == self._t.N
        return self

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
        (default: canonical order).  The scan finds ready lines itself, so
        ``_saturate`` builds no sink.
        """
        assert not self._ran
        self._ran = True
        t = self._t
        if order is None:
            order = range(t.L)
        else:
            order = [int(x) for x in order]
            if sorted(order) != list(range(t.L)):
                raise InputError("order must be a permutation of all line ids")
        idle = 0
        inspections = 0
        pos = 0
        while idle < t.L:
            lid = order[pos]
            inspections += 1
            if self._is_ready(lid):
                self._saturate(lid, (inspections - 1) // t.L, inspections - 1, None)
                idle = 0
            else:
                idle += 1
            pos += 1
            if pos == t.L:
                pos = 0
        if self.trace.line_ids:
            # the whole scan is one round: every saturation so far, per axis
            self.trace.round_axis_counts.append(tuple(self._sat_per_axis))
        self.percolated = self.infected_total == t.N
        return self

    def _saturate_parallel(
        self, axis: int, lids: np.ndarray, round_idx: int, step: int
    ) -> None:
        """Saturate ascending axis-``axis`` lines one by one; the generation
        schedules find the next lines by scanning, so there is no sink."""
        for i, lid in enumerate(lids.tolist()):
            self._saturate(lid, round_idx, step + i, None)

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
        ready = self._add_seed(code)
        if ready is None:
            # already infected (never by the first seed, so ``percolated``
            # is already False): its lines counted it when it was infected
            return False
        proved = self.infected_total == t.N or self._drain(deque(ready), True)
        self.percolated = proved
        return proved

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


class InfectionState(_Cascade):
    """The dense kernel, for every d: a counter and a flag per line.

    ``line_count[i]`` is the number of infected points on line i and
    ``saturated[i]`` whether line i is full.  In 3D it also keeps the plane
    tallies that ``plane_statistics`` reads and that prove the 3D early stop.
    """

    def __init__(self, spec: GridSpec, initial, _codes: np.ndarray | None = None):
        super().__init__(spec, initial, _codes)
        t = self._t
        codes = self._codes
        # line id -> varying-axis digits of the seeds on that line; built on
        # first use, so a run that saturates nothing never pays for it
        self._seeds_on: dict[int, list[int]] | None = None
        self.line_count = np.zeros(t.L, dtype=np.int64)
        self.saturated = np.zeros(t.L, dtype=bool)
        self.infected_total = int(codes.size)
        self._sat_per_axis = [0] * spec.d
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

    def _is_ready(self, lid: int) -> bool:
        return not self.saturated[lid] and self.line_count[lid] >= self._t.thr_line[lid]

    def _saturate(self, lid: int, round_idx: int, step: int, sink) -> None:
        """Saturate one line: infect its new points, bump crossing counters,
        and append to ``sink`` (unless None) every crossing line that reaches
        its threshold.

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
            if sink is not None:
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

    def _add_seed(self, code: int) -> list[int] | None:
        """Count a new seed on its d lines; return those that reach their
        threshold, or None if the point is already infected (its lines
        counted it then)."""
        t = self._t
        digits = [code // s % t.n for s in t.pstride_list]
        lids = [
            off + sum(g * w for g, w in zip(digits, row))
            for off, row in zip(t.off_list, t.W_list)
        ]
        sat = self.saturated
        if any(sat[lid] for lid in lids):
            return None
        self.infected_total += 1
        seeds_on = self._seed_index()
        lc = self.line_count
        thr = self.spec.thresholds
        ready = []
        for axis, lid in enumerate(lids):
            seeds_on.setdefault(lid, []).append(digits[axis])
            lc[lid] += 1
            if lc[lid] == thr[axis]:
                ready.append(lid)
        return ready


class Cascade2D(_Cascade):
    """The count kernel for d = 2: line counts alone, no per-point or
    per-line array.

    An axis-a line holds C[1-a] + s infected points.  The state is C (as
    ``_sat_per_axis``), s for each unsaturated line that has seeds (also
    grouped per axis into buckets keyed by s; s = 0 gets no bucket), the
    seeds of each line and the saturated ids per axis.  ``saturated``,
    ``line_count`` and ``infected_total`` are derived when read.

    An unsaturated axis-a line is ready iff s >= thr[a] - C[1-a].  Once
    C[1-a] >= thr[a], which is the 2D early stop for axis 1-a, every
    unsaturated axis-a line is ready; only a run past that stop ever lists
    the lines with s = 0, once per axis.
    """

    def __init__(self, spec: GridSpec, initial, _codes: np.ndarray | None = None):
        if spec.d != 2:
            raise InputError(f"Cascade2D requires d = 2, got d = {spec.d}")
        super().__init__(spec, initial, _codes)
        n = spec.n
        self._sat_per_axis = [0, 0]
        self._sat: tuple[set[int], set[int]] = (set(), set())
        self._s: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self._bucket: tuple[dict[int, set[int]], dict[int, set[int]]] = ({}, {})
        # seeds on no saturated line
        self._uncovered = int(self._codes.size)
        # line id -> varying-axis digits of its seeds, which are the ids of
        # the perpendicular lines through them less that axis's offset
        self._seeds_on: dict[int, list[int]] = {}
        for code in self._codes.tolist():
            g0, g1 = divmod(code, n)
            self._seeds_on.setdefault(g1, []).append(g0)
            self._seeds_on.setdefault(n + g0, []).append(g1)
        for lid, digits in self._seeds_on.items():
            a, v = lid // n, len(digits)
            self._s[a][lid] = v
            self._bucket[a].setdefault(v, set()).add(lid)

    # -- derived counts -------------------------------------------------------

    @property
    def infected_total(self) -> int:
        c0, c1 = self._sat_per_axis
        return self._t.n * (c0 + c1) - c0 * c1 + self._uncovered

    @property
    def saturated(self) -> np.ndarray:
        mask = np.zeros(self._t.L, dtype=bool)
        for ids in self._sat:
            mask[list(ids)] = True
        return mask

    @property
    def line_count(self) -> np.ndarray:
        n = self._t.n
        c0, c1 = self._sat_per_axis
        count = np.repeat(np.array([c1, c0], dtype=np.int64), n)
        for s in self._s:
            if s:
                count[list(s)] += list(s.values())
        count[self.saturated] = n
        return count

    # -- cascade core ---------------------------------------------------------

    def _set_s(self, a: int, lid: int, v: int) -> None:
        """Set s of the unsaturated axis-``a`` line ``lid`` to ``v``."""
        s, bucket = self._s[a], self._bucket[a]
        old = s.get(lid, 0)
        if old:
            bucket[old].discard(lid)
        s[lid] = v
        if v:
            bucket.setdefault(v, set()).add(lid)

    def _ready_lines(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Ids in [lo, hi) of the unsaturated lines at or above threshold,
        ascending."""
        n = self._t.n
        hi = self._t.L if hi is None else hi
        ready: list[int] = []
        for a in (0, 1):
            a_lo, a_hi = max(lo, a * n), min(hi, a * n + n)
            if a_lo >= a_hi:
                continue
            k = self.spec.thresholds[a] - self._sat_per_axis[1 - a]
            if k <= 0:
                sat = self._sat[a]
                ready.extend(q for q in range(a_lo, a_hi) if q not in sat)
            else:
                ready.extend(sorted(
                    q for v, lids in self._bucket[a].items() if v >= k
                    for q in lids if a_lo <= q < a_hi
                ))
        return np.array(ready, dtype=np.int64)

    def _is_ready(self, lid: int) -> bool:
        a = lid // self._t.n
        return lid not in self._sat[a] and (
            self._sat_per_axis[1 - a] + self._s[a].get(lid, 0)
            >= self.spec.thresholds[a]
        )

    def _saturate(self, lid: int, round_idx: int, step: int, sink) -> None:
        """Saturate one line: add one to its C, cover its seeds, and append to
        ``sink`` (unless None) every perpendicular line that reaches its
        threshold, in ascending id as the dense kernel's crossing scan finds
        them."""
        n = self._t.n
        a = lid // n
        b = 1 - a
        C = self._sat_per_axis
        C[a] += 1
        self._sat[a].add(lid)
        v = self._s[a].pop(lid, 0)
        if v:
            self._bucket[a][v].discard(lid)
            self._uncovered -= v
        tr = self.trace
        tr.line_ids.append(lid)
        tr.steps.append(step)
        tr.round_of.append(round_idx)
        # the line's seeds on unsaturated perpendicular lines were uncovered
        # until now: each of those lines loses one from s, so its count stays
        sat_b, s_b = self._sat[b], self._s[b]
        off = b * n
        crossed = []
        for digit in self._seeds_on.get(lid, ()):
            m = off + digit
            if m not in sat_b:
                self._set_s(b, m, s_b[m] - 1)
                crossed.append(m)
        if sink is None:
            return
        # every other unsaturated axis-b line gained one point: those now at
        # C[a] + s = thr[b] have just reached their threshold
        k = self.spec.thresholds[b] - C[a]
        if k > 0:
            ready = self._bucket[b].get(k)
            if ready:
                sink.extend(sorted(ready.difference(crossed)))
        elif k == 0:
            # all the lines with s = 0: the one O(n) step of the kernel
            free = np.ones(n, dtype=bool)
            free[[q - off for q in sat_b]] = False
            free[[q - off for q, v in s_b.items() if v]] = False
            free[[q - off for q in crossed]] = False
            sink.extend((off + np.flatnonzero(free)).tolist())

    def _add_seed(self, code: int) -> list[int] | None:
        """Count a new seed in s of its two lines; return those that reach
        their threshold, or None if the point is already infected."""
        n = self._t.n
        g0, g1 = divmod(int(code), n)
        if g1 in self._sat[0] or n + g0 in self._sat[1]:
            return None
        self._uncovered += 1
        C = self._sat_per_axis
        thr = self.spec.thresholds
        ready = []
        for a, lid, digit in ((0, g1, g0), (1, n + g0, g1)):
            self._seeds_on.setdefault(lid, []).append(digit)
            v = self._s[a].get(lid, 0) + 1
            self._set_s(a, lid, v)
            if C[1 - a] + v == thr[a]:
                ready.append(lid)
        return ready


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def new_state(
    spec: GridSpec, initial, _codes: np.ndarray | None = None
) -> Cascade2D | InfectionState:
    """A fresh cascade state on the kernel for ``spec``: ``Cascade2D`` when
    d = 2, ``InfectionState`` otherwise."""
    kernel = Cascade2D if spec.d == 2 else InfectionState
    return kernel(spec, initial, _codes=_codes)


def closure(
    spec: GridSpec, initial: Iterable[Sequence[int]]
) -> Cascade2D | InfectionState:
    """The full infection closure [A], FIFO schedule, run to the fixed point."""
    return new_state(spec, initial).run_fifo()


def closure_from_codes(spec: GridSpec, codes: np.ndarray) -> Cascade2D | InfectionState:
    return new_state(spec, None, _codes=codes).run_fifo()


def percolation_run(spec: GridSpec, codes: np.ndarray) -> Cascade2D | InfectionState:
    """Cascade with sound early stop; ``percolated`` is exact either way."""
    return new_state(spec, None, _codes=codes).run_fifo(stop_on_percolation=True)


def percolates(spec: GridSpec, initial: Iterable[Sequence[int]]) -> bool:
    """Whether [A] is the whole grid."""
    state = new_state(spec, initial).run_fifo(stop_on_percolation=True)
    return bool(state.percolated)


def naive_closure(spec: GridSpec, initial: Iterable[Sequence[int]]) -> set[Point]:
    """Reference fixed-point oracle: rescan every line until nothing changes.

    O(d n^d) per pass; intended for cross-checks at small n, not production.
    """
    require_small_grid(spec, "naive_closure")
    t = _tables(spec)
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
