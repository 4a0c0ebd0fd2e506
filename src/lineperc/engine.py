"""Infection closure via sparse, counter-based line cascades.

The cascade never materializes the infected point set.  A point is infected
iff it is an initial point or lies on a saturated line, so a state needs only
the seeds, which lines are saturated, and enough counts to tell when a line
reaches its threshold.  Two kernels keep those counts.  The infection starts
only on a line that holds its threshold of seeds, so a set with no such line
is closed: it is its own closure, and percolates only as the whole grid.
``_closed`` decides that before a trial builds a kernel.

The schedules live once, on the base ``_Cascade``: ``run_fifo``,
``run_rounds``, ``run_half_steps``, ``run_sequential`` and ``grow``, one job
each.  The FIFO queue (``run_fifo`` and ``grow``) only tests percolation and
always stops at the first proof; closures come from the synchronous
generations of ``run_rounds``.  The closure is monotone in the seed set, so
``grow`` adds an array of seeds in order and every line saturates at most
once over the whole growth.  Every ``run_*`` returns the state, and
``run_rounds`` and ``run_half_steps`` share one generation body.  A kernel
only counts: it supplies its counts and ``_ready_lines(axis=None)`` (the
unsaturated lines at threshold, of every axis or of one), ``_is_ready``,
``_saturate_run(axis, lids, sink)`` (a run of parallel lines, the one
saturation call; only a queue run passes a sink, and only it stops),
``_count_queued(lids)`` (the flat count of lines entering the queue) and
``_add_seeds(codes)`` (the codes of grown seeds, taken up to the first that
makes a line ready; each kernel splits them into digits its own way).
``seeds``, the sorted codes of every seed, given or grown, is the one seed
store: ``grow`` sets it once, when it returns, since no drain reads it, and
skips repeats by a set of plain ints, not by numpy's set operations.  Only the
schedules write the trace, the only record of a half-step run: the
saturated lines in order and a per-axis tally per round, every schedule
numbering its rounds from 1.

The queue proves percolation by full flats in every d: a flat with free axes
S is full when it is a saturated or queued line, or when thr[e] of its
slices x_e = z are full for some e in S, as each of its axis-e lines then
saturates.  A queued line is at its threshold, so it saturates in the
closure.  So does a line one point short of its threshold that crosses a full
plane at a point not yet infected, since the plane is full in the closure;
the dense kernel counts those lines in their flats, once each and without
queueing them, when the plane fills.  The grid percolates once it is full,
or once its last point is infected.  The queue counts a line in its flats as
it enters, so it stops before the runs that would only saturate what its
counted lines already prove.

The FIFO queue is drained in runs: the longest head of the queue whose lines
share an axis, ascend in id and belong to the current round.  Parallel lines
share no point, a run changes no ``saturated`` flag of a crossing line, and
the lines it sinks go to the tail of the queue, so a run saturated at once
sinks the same lines in the same order as its lines one by one, and the FIFO
order is unchanged.  When a plane fills, one saturation sinks all its
perpendicular lines, and the next run is that whole plane, unless the lines
counted by then prove the grid; the lines crossing the plane that it will
saturate are counted when it fills, so they need not wait for that run.

``InfectionState``, the dense kernel, serves every d.  It keeps a counter and
a saturation flag per line, and the seeds of each line, indexed at
construction.  Saturating a line touches its n points with strided numpy
slices: the ids of the crossing lines along any other axis form an
arithmetic progression in the varying coordinate.  A line learns it is
ready from the crossing counters: a counter rises by exactly one per newly
infected point, so a line is ready at the moment its counter equals its
threshold, and at no other time.  Its ``_saturate_run`` takes runs of
``RUN_MIN`` or more lines as batches of array operations, cut into slices of
at most ``BATCH_ELEMS`` points to bound memory.  A queue's batch cuts itself
at the line that fills the grid with points, and bumps the crossing counters
by column sums over each group of batch lines that share their crossing lines,
whose ids it builds once per group (and which share a plane).  A run of a few
lines costs less one line at a time, because a batch pays a fixed cost of a
few tens of numpy calls.

``Cascade2D``, the count kernel, serves d = 2 and keeps no per-point or
per-line array.  A point of an axis-a line is infected iff it is a seed or
lies on a saturated perpendicular line, so the line holds C[1-a] + s infected
points: C[b] is the number of saturated axis-b lines, and s the number of the
line's seeds that lie on no saturated line.  Saturating a line adds one to its
C and takes one from s of each perpendicular line through one of its seeds;
a line is ready iff s >= thr - C, so ready lines are found by scanning s.

``new_state`` picks the kernel from the spec alone: ``Cascade2D`` when d = 2,
``InfectionState`` otherwise.  Both kernels give the same trace, counters and
queries on every schedule, and the dense kernel stays the 2D oracle next to
``naive_closure``.  Seeds are point codes: the kernels, ``new_state`` and
``grow`` take a 1-D integer array and refuse point tuples; only ``closure``,
``percolates`` and ``naive_closure`` take points, through ``encode_points``.

``naive_closure`` is the deliberately simple fixed-point oracle (full rescan
of every line each pass) used to cross-check the cascades.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .grid import (
    GridSpec,
    InputError,
    LineId,
    Point,
    _distinct_codes,
    _tables,
    as_int,
    decode_line,
    decode_point,
    encode_point,
    encode_points,
    require_small_grid,
)

# points per batch of parallel lines, which bounds the (lines, n) temporaries
BATCH_ELEMS = 1 << 20
# runs of fewer parallel lines are cheaper one line at a time.  The queue
# proves before long runs form, so a p* search seldom batches (per search:
# none in 3D at r = 2, 0.37 at r = 3, n = 128, 0.07 in 4D at n = 32), but
# closure by generations batches most lines, about 15x faster than one by one
RUN_MIN = 8


@dataclass
class Trace:
    """Ordered saturation events plus per-round axis tallies.

    Only the schedules write it.  ``line_ids`` lists the saturated lines in
    order, and ``round_axis_counts[g][a]`` is the number of axis-a lines
    saturated in round g+1 (a FIFO round, a generation, a half-step, a pass
    of the sequential scan), so row g counts the events of round g+1, in
    order.  Every schedule numbers its rounds from 1.
    """

    line_ids: list[int] = field(default_factory=list)
    round_axis_counts: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.round_axis_counts)

    @property
    def round_of(self) -> list[int]:
        """The round of each event, from 1, as the tallies count them."""
        rows = enumerate(self.round_axis_counts, start=1)
        return [g for g, row in rows for _ in range(sum(row))]

    def check(self) -> None:
        assert sum(sum(c) for c in self.round_axis_counts) == len(self.line_ids)


class _Cascade:
    """One cascade run on a grid: what both kernels share.

    That is the seeds, the event trace, the read-only queries
    (``saturated_lines``, ``is_infected``, ``infected_codes`` and
    ``infected_points``) and the schedules, ``grow`` among them.  A kernel
    supplies the counts: ``saturated`` and ``line_count`` (arrays over line
    ids) and ``infected_total``; and the operations
    ``_ready_lines(axis=None)``, the ascending ids of the unsaturated lines
    at or above threshold (of every axis, or of ``axis`` alone),
    ``_is_ready``, ``_add_seeds(codes)``, on an array of new seed codes,
    ``_count_queued(lids)``, which counts lines entering the queue in their
    flats and tells whether they fill the grid, and
    ``_saturate_run(axis, lids, sink)``, the one saturation
    call: it saturates ``lids``, ascending axis-``axis`` lines, in id order.
    Given a ``sink``, as the queue's runs are, it appends to it every
    crossing line that reaches its threshold and halts after the line that
    fills the grid with points; without one (generations and the sequential
    scan) it never stops.  It returns the number of lines saturated and
    whether the grid filled.  The schedules alone write the trace.

    Construction seeds the state from ``codes``, an array of point codes;
    a ``run_*`` method then advances the cascade and returns the state.  Or
    a state built from no seeds takes them, in order, through ``grow``.
    Either way ``seeds`` holds the sorted, distinct codes of every seed.  A
    single state is single-threaded; distinct states are independent.
    """

    def __init__(self, spec: GridSpec, codes):
        self.spec = spec
        t = _tables(spec)
        self._t = t
        self.seeds = _distinct_codes(_code_array(codes, t.N))
        if self.seeds.size:
            _in_range(int(self.seeds[0]), int(self.seeds[-1]), t.N)
        self.trace = Trace()
        self.percolated: bool | None = None
        self._ran: bool | str = False  # True once a run_* ran, "grow" once grown

    # -- queries ------------------------------------------------------------

    def saturated_lines(self) -> list[LineId]:
        return [decode_line(self.spec, int(i)) for i in np.flatnonzero(self.saturated)]

    def is_infected(self, p: Sequence[int]) -> bool:
        code = encode_point(self.spec, p)
        at = int(np.searchsorted(self.seeds, code))
        if at < self.seeds.size and self.seeds[at] == code:
            return True
        lids = self._t.lids_of(np.array([code], dtype=np.int64))
        return bool(self.saturated[lids].any())

    def infected_codes(self) -> np.ndarray:
        """The ascending codes of the infected points (through a mask of n^d
        bools)."""
        t = self._t
        mask = np.zeros(t.N, dtype=bool)
        mask[self.seeds] = True
        for lid in np.flatnonzero(self.saturated):
            mask[t.line_slice(int(lid))] = True
        return np.flatnonzero(mask)

    def infected_points(self) -> set[Point]:
        return {decode_point(self.spec, int(c)) for c in self.infected_codes()}

    # -- schedules -----------------------------------------------------------

    def _drain(self, queue: deque) -> bool:
        """Saturate queued lines until the queue is empty or percolation is
        proved (then True).

        Every line is counted in its flats as it enters the queue: the lines
        the queue starts with, and those each run sinks (the dense kernel
        also counts the lines a full plane will saturate).  The drain asks for
        the flat proof before every run, the first included; a run stops only
        when the grid fills with points.

        The queue is taken in runs: the longest head of ascending lines of
        one axis that all belong to the current round.  Parallel lines share
        no point, and a run changes no ``saturated`` flag of a crossing line,
        so ``_saturate_run`` may saturate the whole run at once; the lines it
        sinks go to the tail of the queue in the order the lines one by one
        would sink them, so the FIFO order, and with it every round, is
        unchanged.  Rounds continue the numbering already in the trace, so a
        grown state's trace is the concatenation of its cascades.
        """
        t = self._t
        tr = self.trace
        per_axis = t.lines_per_axis
        in_round = len(queue)
        per_round = [0] * t.d
        proved = self._count_queued(queue)
        while queue and not proved:
            last = queue.popleft()
            run = [last]
            axis = last // per_axis
            end = (axis + 1) * per_axis
            while len(run) < in_round and last < queue[0] < end:
                last = queue.popleft()
                run.append(last)
            sunk: list[int] = []
            done, proved = self._saturate_run(axis, run, sunk)
            queue.extend(sunk)
            tr.line_ids.extend(run[:done])
            per_round[axis] += done
            in_round -= done
            proved = proved or self._count_queued(sunk)
            if in_round == 0 or proved:
                tr.round_axis_counts.append(tuple(per_round))
                per_round = [0] * t.d
                in_round = len(queue)
        return proved

    def run_fifo(self):
        """The percolation test: a queue-driven cascade that stops at the
        first proof of percolation, by the lines saturated, queued or counted
        by a full plane, else at the fixed point; ``percolated`` is exact
        either way.

        FIFO order makes each line's round index equal to its synchronous
        generation, so every round but the last stopped one holds the lines
        of that ``run_rounds`` generation, and the last some of them.  A
        stopped queue stops between runs, or at the line that fills the grid
        with points.
        """
        assert not self._ran
        self._ran = True
        if self.infected_total == self._t.N:
            self.percolated = True
        else:
            self.percolated = self._drain(deque(self._ready_lines().tolist()))
        return self

    def _generation(self, ready: np.ndarray) -> None:
        """Saturate ``ready``, ascending lines at threshold, together as the
        trace's next round: one axis at a time, each as one run of parallel
        lines.  That is canonical id order, which fixes the attribution of
        points lying on two simultaneously saturating lines."""
        t = self._t
        per_round = [0] * t.d
        ready = ready.tolist()
        lo = 0
        for axis in range(t.d):
            hi = bisect_left(ready, (axis + 1) * t.lines_per_axis, lo)
            if lo < hi:
                lids = ready[lo:hi]
                self._saturate_run(axis, lids, None)
                self.trace.line_ids.extend(lids)
                per_round[axis] = hi - lo
            lo = hi
        self.trace.round_axis_counts.append(tuple(per_round))

    def run_rounds(self):
        """Synchronous generations: every thresholded line saturates together.

        Round g (from 1) is every unsaturated line at or above threshold
        after round g-1.
        """
        assert not self._ran
        self._ran = True
        while (ready := self._ready_lines()).size:
            self._generation(ready)
        self.percolated = self.infected_total == self._t.N
        return self

    def run_sequential(self, order: Sequence[int] | None = None):
        """One line inspected per step, in passes over ``order``; a line
        saturates iff it is at threshold when inspected.

        Stops after a pass that saturates no line; each pass that does is
        one round of the trace.  ``order`` is a permutation of all line ids
        (default: canonical order).  The scan finds ready lines itself, so
        its saturations build no sink.
        """
        assert not self._ran
        self._ran = True
        t = self._t
        if order is None:
            order = range(t.L)
        else:
            order = [as_int(x, "a line id") for x in order]
            if sorted(order) != list(range(t.L)):
                raise InputError("order must be a permutation of all line ids")
        while True:
            per_pass = [0] * t.d
            for lid in order:
                if self._is_ready(lid):
                    axis = lid // t.lines_per_axis
                    self._saturate_run(axis, [lid], None)
                    self.trace.line_ids.append(lid)
                    per_pass[axis] += 1
            if not any(per_pass):
                break
            self.trace.round_axis_counts.append(tuple(per_pass))
        self.percolated = self.infected_total == t.N
        return self

    def grow(self, codes) -> int:
        """Add the seeds with point codes ``codes``, in order, continuing the
        FIFO cascade after each, and stop at the first seed after which
        percolation is proved.

        Only for a state built from no seeds and advanced by ``grow`` alone.
        Seeds already grown, here or earlier, are skipped.  After each seed
        that proves nothing the state is at the fixed point of the seeds so
        far, so every line is queued and saturates at most once over the
        whole growth, the flat counts carry over from one drain to the next,
        and ``percolated`` is exact after each call.  Returns the 1-based
        position in ``codes`` of the seed that proved percolation, or 0 if
        none did; once one has, the state takes no more seeds.  ``seeds``
        takes the new seeds once, on return: all of them, or those up to the
        proving one.  A code out of range is refused before any seed is
        added.
        """
        assert not self.percolated and self._ran in (False, "grow")
        assert self._ran or not self.seeds.size  # built with no seeds
        t = self._t
        codes = _code_array(codes, t.N)
        values = codes.tolist()
        if values:
            _in_range(min(values), max(values), t.N)
        # the position of each code that repeats none before it and was not
        # grown before, or None when every code is new
        at = None
        grown = set(self.seeds.tolist())
        if len(set(values)) < len(values) or not grown.isdisjoint(values):
            at = []
            for i, code in enumerate(values):
                if code not in grown:
                    grown.add(code)
                    at.append(i)
            codes = codes[at]
        i = 0
        self.percolated = False
        while i < codes.size:
            # a kernel call ends at the first seed that makes a line ready;
            # covered seeds join the seeds but count nowhere
            self._ran = "grow"
            taken, ready = self._add_seeds(codes[i:])
            i += taken
            if self.infected_total == t.N or (
                ready and self._drain(deque(ready))
            ):
                self.percolated = True
                break
        self.seeds = np.sort(np.concatenate([self.seeds, codes[:i]]))
        if not self.percolated:
            return 0
        return i if at is None else at[i - 1] + 1

    def run_half_steps(self, *, stop_rule: bool = True):
        """Alternating single-axis generations (d=2 only), horizontal first.

        Half-step g (from 1) saturates every line of axis (g - 1) % 2 already
        at threshold as round g, which may be empty; the returned state's
        trace is the only record.  With ``stop_rule`` the run halts as soon
        as one axis holds enough parallel saturated lines to force full
        percolation, by its own tally of the lines its half-steps saturate.
        A vertical start is the run on the transposed seeds.
        """
        assert not self._ran
        t = self._t
        if t.d != 2:
            raise InputError("alternating process requires d = 2")
        self._ran = True
        axis, idle = 0, 0
        held = [0, 0]  # saturated lines per axis
        while idle < 2:
            ready = self._ready_lines(axis)
            self._generation(ready)
            held[axis] += ready.size
            if stop_rule and held[axis] >= self.spec.thresholds[1 - axis]:
                self.percolated = True
                return self
            idle = idle + 1 if ready.size == 0 else 0
            axis = 1 - axis
        self.percolated = self.infected_total == t.N
        return self


class InfectionState(_Cascade):
    """The dense kernel, for every d: a counter and a flag per line.

    ``line_count[i]`` is the number of infected points on line i and
    ``saturated[i]`` whether line i is full; ``_seeds_on``, built at
    construction, holds the seeds on each line.  It also counts the full
    flats of the lines the queue takes, and of the lines crossing a full
    plane that the plane will saturate.
    """

    def __init__(self, spec: GridSpec, codes):
        super().__init__(spec, codes)
        t = self._t
        # line id -> varying-axis digits of the seeds on that line
        self._seeds_on: dict[int, list[int]] = {}
        self.line_count = np.zeros(t.L, dtype=np.int64)
        self.saturated = np.zeros(t.L, dtype=bool)
        self.infected_total = 0
        digits = t.digits_of(self.seeds)
        self._count_seeds(digits, digits @ t.W.T + t.off)
        # the flats: per plane and axis of its lines, the lines it still
        # needs, keyed as the tables' ``plane_base`` says, and ``_flat`` by
        # free-axes mask, for three or more free axes and built on first use;
        # none are kept where they outnumber the lines
        self._flats = None
        if (t.n + 1) ** t.d <= t.N + 2 * t.L:
            self._flats = {}
            self._plane_need = t.plane_need.copy()
            # the lines counted by a full plane they cross (``_crossing``)
            self._counted = np.zeros(t.L, dtype=bool)

    # -- cascade core ---------------------------------------------------------

    def _count_seeds(self, digits: np.ndarray, lids: np.ndarray) -> None:
        """Count new uncovered seeds, of digits and line ids (k, d), on their
        lines and in the seed index."""
        np.add.at(self.line_count, lids.ravel(), 1)
        self.infected_total += lids.shape[0]
        seeds_on = self._seeds_on
        for lid, digit in zip(lids.ravel().tolist(), digits.ravel().tolist()):
            seeds_on.setdefault(lid, []).append(digit)

    def _ready_lines(self, axis: int | None = None) -> np.ndarray:
        t = self._t
        m = t.lines_per_axis
        lo, hi = (0, t.d) if axis is None else (axis, axis + 1)
        count = self.line_count.reshape(t.d, m)[lo:hi]
        ready = (count >= t.thr[lo:hi, None]) & ~self.saturated.reshape(t.d, m)[lo:hi]
        return lo * m + np.flatnonzero(ready)

    def _is_ready(self, lid: int) -> bool:
        axis = lid // self._t.lines_per_axis
        return not self.saturated[lid] and self.line_count[lid] >= self._t.thr[axis]

    def _saturate(self, lid: int, sink) -> None:
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
        seeds = self._seeds_on.get(lid)
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
        thr = self.spec.thresholds
        for b, base, s in cross:
            view = lc[base : base + s * n : s]
            view += new
            if sink is not None:
                hit = ((view == thr[b]) & new).nonzero()[0]
                if hit.size:
                    sink.extend((base + s * hit).tolist())

    def _saturate_run(self, axis: int, lids: list[int], sink) -> tuple[int, bool]:
        """Saturate a run of parallel lines: one line at a time below
        ``RUN_MIN`` lines, else as batches of at most
        ``BATCH_ELEMS`` points, in id order, each with one set of array
        operations.

        A run with a sink stops after the line that fills the grid with
        points.  Parallel lines share no point, and a batch changes no
        ``saturated`` flag of a crossing line, so a batch leaves the state,
        the sink and the stop exactly as ``_saturate`` on each line in id
        order would.  Slicing changes nothing but the size of the
        temporaries (a few tens of bytes per point).
        """
        k = len(lids)
        if k < RUN_MIN:
            for i, lid in enumerate(lids):
                self._saturate(lid, sink)
                if sink is not None and self.infected_total == self._t.N:
                    return i + 1, True
            return k, False
        rows = max(1, BATCH_ELEMS // self._t.n)
        done = 0
        for lo in range(0, k, rows):
            batch = np.asarray(lids[lo : lo + rows], dtype=np.int64)
            m, proved = self._saturate_batch(axis, batch, sink)
            done += m
            if proved:
                return done, True
        return done, False

    def _saturate_batch(self, axis: int, lids: np.ndarray, sink) -> tuple[int, bool]:
        """The body of ``_saturate_run`` for one batch ``lids`` (an array) of
        lines, shared by the queue's runs and the generations.  With a
        ``sink`` it is cut at the line that fills the grid before its arrays
        are built."""
        t = self._t
        n, d = t.n, t.d
        thr = self.spec.thresholds
        # parallel lines share no point: each gains its uninfected ones
        total = self.infected_total + np.cumsum(n - self.line_count[lids])
        proved = sink is not None and int(total[-1]) == t.N  # filled after a line
        k = int(np.searchsorted(total, t.N)) + 1 if proved else int(lids.size)
        lids = lids[:k]
        g = np.zeros((k, d), dtype=np.int64)  # digit vectors, 0 at ``axis``
        rem = lids - t.off_list[axis]
        for i in reversed(range(d)):
            if i != axis:
                rem, g[:, i] = np.divmod(rem, n)
        # lines share their axis-b crossing lines iff they share a plane {axis, b}
        bases = {b: g @ t.W[b] + t.off_list[b] for b in range(d) if b != axis}
        groups = {b: _groups(base) for b, base in bases.items()}
        mask = np.zeros((k, n), dtype=bool)
        for row, lid in enumerate(lids.tolist()):
            seeds = self._seeds_on.get(lid)
            if seeds:
                mask[row, seeds] = True
        digit = np.arange(n, dtype=np.int64)
        cross = []  # per other axis: (axis, base, groups, crossing ids per group)
        for b, base in bases.items():
            if groups[b] is None:
                lines = base[:, None] + t.W_list[b][axis] * digit
                mask |= self.saturated[lines]
            else:
                order, starts, sizes = groups[b]
                lines = base[order[starts], None] + t.W_list[b][axis] * digit
                row_group = np.empty(k, dtype=np.int64)
                row_group[order] = np.repeat(np.arange(starts.size), sizes)
                mask |= self.saturated[lines][row_group]
            cross.append((b, base, groups[b], lines))
        new = ~mask
        gained = int(total[k - 1]) - self.infected_total
        if gained:
            # (a batch that infects no point bumps no counter and sinks nothing)
            sunk = []  # (rows, ids) per crossing axis, in digit order per row
            for b, base, groups, lines in cross:
                hit = self._bump(lines, groups, new, None if sink is None else thr[b])
                if hit is not None:
                    rows, cols = np.divmod(np.flatnonzero(hit), n)
                    if rows.size:
                        sunk.append((rows, base[rows] + t.W_list[b][axis] * cols))
            if sunk:
                # by line, then by crossing axis and digit, as one line at a time
                rows = np.concatenate([r for r, _ in sunk])
                lines = np.concatenate([q for _, q in sunk])
                sink.extend(lines[np.argsort(rows, kind="stable")].tolist())
        self.saturated[lids] = True
        self.line_count[lids] = n
        self.infected_total += gained
        return k, proved

    def _bump(
        self, lines: np.ndarray, groups, new: np.ndarray, thr: int | None
    ) -> np.ndarray | None:
        """Raise the counters of the crossing lines of one axis by the new
        points ``new`` (k, n) of the k batch lines; with ``thr``, return
        where a crossing line reaches ``thr``, as the lines one by one would
        find it.

        ``groups`` is None when no two batch lines share a crossing line of
        this axis, and ``lines`` (k, n) holds each line's crossing ids.  Else
        it is ``_groups`` of the lines, and ``lines`` (G, n) holds the crossing
        ids of each group.  Within a group a line's new point raises a
        counter from c to c + 1, and the crossing line is sunk iff
        c + 1 == ``thr``.
        """
        lc = self.line_count
        if groups is None:
            # no running sums
            count = lc[lines] + new
            lc[lines] = count
            return None if thr is None else new & (count == thr)
        order, starts, sizes = groups
        new_g = new[order]
        count = lc[lines]
        total = np.add.reduceat(new_g, starts, axis=0, dtype=np.int64)
        lc[lines] = count + total
        if thr is None:
            return None
        # a group's crossing line is sunk where the group's running sum of
        # new points reaches thr - count
        run = np.cumsum(new_g, axis=0, dtype=np.int32)
        before = np.cumsum(total, axis=0) - total  # the running sum at each start
        need = (thr - count + before).astype(np.int32)
        hit = np.empty_like(new)
        hit[order] = new_g & (run == np.repeat(need, sizes, axis=0))
        return hit

    def _flat(self, free: int) -> tuple[list[int], np.ndarray, list]:
        """The flats with free axes ``free``, three or more: strides that
        index them by fixed digits, full flags, and per free axis e their
        full slices x_e = z."""
        if free not in self._flats:
            d, m = self._t.d, 1
            strides = [0] * d
            for i in reversed(range(d)):
                if not free >> i & 1:
                    strides[i], m = m, m * self._t.n
            slices = [np.zeros(m, np.int32) if free >> e & 1 else None for e in range(d)]
            self._flats[free] = (strides, np.zeros(m, dtype=bool), slices)
        return self._flats[free]

    def _fill(self, free: int, digits: list[int]) -> bool:
        """Count the flat with free axes ``free`` through ``digits``, just
        full, as the slice x_e = digits[e] of each flat one axis e larger,
        which is full with thr[e] full slices: each of its axis-e lines then
        holds thr[e] infected points.  Returns whether the grid filled."""
        if free == (1 << self._t.d) - 1:
            return True
        thr = self.spec.thresholds
        proved = False
        for e in range(self._t.d):
            if not free >> e & 1:
                strides, full, slices = self._flat(free | 1 << e)
                i = sum(map(operator.mul, digits, strides))
                count = slices[e][i] = slices[e].item(i) + 1
                if count == thr[e] and not full[i]:
                    full[i] = True
                    proved |= self._fill(free | 1 << e, digits)
        return proved

    def _count_queued(self, lids) -> bool:
        """Count the lines ``lids``, just queued, in their flats; returns
        whether they fill the grid.

        A line is a slice of each of its d - 1 planes.  Those counts are
        taken for all the lines at once, and only a plane that fills goes on
        to ``_fill``, whose flats are fewer.  A full plane's two needs are
        raised past reach, to n + 1, since no plane holds more than n lines
        of an axis, so that it fills once.  Once every fill of the lines is
        taken, the lines that the planes they filled will saturate
        (``_crossing``) are counted in turn, without being queued, and so on
        while planes fill.  A line is counted at most once: one so counted is
        marked in ``_counted`` and skipped when its counter reaches its
        threshold and it is queued, since counted twice it could fill a plane
        that is not full."""
        if self._flats is None or not lids:
            return False
        t = self._t
        lids = np.fromiter(lids, np.int64, len(lids))
        lids = lids[~self._counted[lids]]
        need = self._plane_need
        while lids.size:
            axis, rest = np.divmod(lids, t.lines_per_axis)
            keys = (t.plane_base[axis] + t.plane_index[rest]).ravel()
            np.subtract.at(need, keys, 1)
            filled = []
            for at in np.flatnonzero(need[keys] <= 0).tolist():
                key = keys.item(at)
                if need[key] <= 0:  # else a line before filled the plane
                    need[key] = need[key ^ 1] = t.n + 1
                    row, j = divmod(at, t.d - 1)
                    a, g = t.line_digits(lids[row])
                    e = j + (j >= a)
                    if self._fill(1 << a | 1 << e, g):
                        return True
                    filled.append((a, e, g))
            if not filled:
                break
            lids = np.concatenate([self._crossing(*plane) for plane in filled])
        return False

    def _crossing(self, a: int, e: int, g: list[int]) -> np.ndarray:
        """The lines not yet counted that the plane with free axes ``a`` and
        ``e`` through digits ``g``, just full, will saturate, now marked as
        counted.

        They are the lines of each other axis c one point short of thr[c]
        whose point in the plane is not infected: not a seed, and on no
        saturated line.  The plane fills in the closure, so each gains that
        point.  Axis c's lines through the plane are a view of its block of a
        per-line array, (n, n) over the free axes in ascending order."""
        t = self._t
        n, d = t.n, t.d
        lo, hi = min(a, e), max(a, e)
        sat, counted = self.saturated, self._counted

        def across(arr: np.ndarray, c: int) -> np.ndarray:
            m = t.off_list[c]
            block = arr[m : m + t.lines_per_axis].reshape((n,) * (d - 1))
            return block[tuple(
                slice(None) if i in (a, e) else g[i] for i in range(d) if i != c
            )]

        def origin(c: int) -> int:  # the axis-c line through (x_lo, x_hi) = 0
            W = t.W_list[c]
            return t.off_list[c] + sum(g[i] * W[i] for i in range(d) if i not in (a, e))

        # the infected points [x_lo, x_hi]: the axis-lo line x_hi and the
        # axis-hi line x_lo pass through point (x_lo, x_hi), and the seeds on
        # an axis-lo line are its x_lo digits
        infected = across(sat, lo)[None, :] | across(sat, hi)[:, None]
        step = t.W_list[lo][hi]
        on = map(self._seeds_on.get, range(origin(lo), origin(lo) + n * step, step))
        np.put(infected, [s * n + x for x, ss in enumerate(on) if ss for s in ss], True)
        others = [c for c in range(d) if c not in (a, e)]
        for c in others:
            infected |= across(sat, c)
        clear = ~infected
        fresh = []
        for c in others:
            short = across(self.line_count, c) == self.spec.thresholds[c] - 1
            hit = np.flatnonzero(short & clear & ~across(counted, c))
            x_lo, x_hi = np.divmod(hit, n)
            W = t.W_list[c]
            fresh.append(origin(c) + x_lo * W[lo] + x_hi * W[hi])
        lids = np.concatenate(fresh)
        counted[lids] = True
        return lids

    def _add_seeds(self, codes: np.ndarray) -> tuple[int, list[int]]:
        """Count the new seeds of codes ``codes``, in order, on their d
        lines, up to the first that brings a line to its threshold.
        Returns how many were taken and the lines the last one made ready, in
        axis order.  A seed already infected counts nowhere: its lines
        counted it when it was infected.

        No line saturates between two seeds here, so the counter of a line
        after a seed is its count before plus the seed's 1-based rank among
        the seeds on the line, and it reaches the threshold exactly once.

        A seed that fills the grid and makes no line ready is the last new
        code there can be: every threshold then exceeds n, so no line ever
        saturated and every point is a seed.
        """
        t = self._t
        k = codes.size
        digits = t.digits_of(codes)
        lids = digits @ t.W.T + t.off
        uncovered = np.flatnonzero(~self.saturated[lids].any(axis=1))
        m = uncovered.size
        if m < k:
            digits, lids = digits[uncovered], lids[uncovered]
        # seed by seed, its d lines; a line id names its axis too
        flat = lids.ravel()
        count = self.line_count[flat] + 1
        groups = _groups(flat)
        if groups is not None:
            order, starts, sizes = groups
            count[order] += np.arange(flat.size) - np.repeat(starts, sizes)
        # column b of ``lids`` holds axis-b lines
        hit = count.reshape(lids.shape) == t.thr
        stop = int(hit.any(axis=1).argmax()) if hit.any() else m
        taken, ready = k, []
        if stop < m:
            taken, ready = int(uncovered[stop]) + 1, lids[stop][hit[stop]].tolist()
            m = stop + 1
        self._count_seeds(digits[:m], lids[:m])
        return taken, ready


class Cascade2D(_Cascade):
    """The count kernel for d = 2: line counts alone, no per-point or
    per-line array.

    An axis-a line holds C[1-a] + s infected points, where C[a] counts the
    saturated axis-a lines.  The state is the saturated ids per axis, whose
    sizes are C, s for each unsaturated line that has seeds, the seeds of
    each line and Q, the number of lines of each axis ever queued.
    ``saturated``, ``line_count`` and ``infected_total`` are derived when
    read.

    An unsaturated axis-a line is ready iff s >= thr[a] - C[1-a].  The grid
    is the only flat above a line, so by the flat rule it is full once
    Q[1-a] >= thr[a]: every axis-a line then holds thr[a] points of queued
    lines.  The queue stops at that proof before a run, and a queue run
    saturates only queued lines, so C <= Q < thr there, and only
    ``_ready_lines``, for the generations and half-steps, lists the lines
    with s = 0.

    Ready lines are found by scanning s.  Saturating an axis-a line in a
    queue run looks up the axis-b lines with s = thr[b] - C[a], which is > 0
    there; C only grows, ``grow`` included, so a state makes at most
    thr[b] - 1 such scans per axis.  ``_ready_lines`` runs once per
    FIFO run, generation or half-step, about thr[0] + thr[1] + 2 times, as
    an axis gains ready lines only after the other's C rises:
    O((thr[0] + thr[1]) S) in all, for S lines holding seeds.
    """

    def __init__(self, spec: GridSpec, codes):
        if spec.d != 2:
            raise InputError(f"Cascade2D requires d = 2, got d = {spec.d}")
        super().__init__(spec, codes)
        n = spec.n
        self._queued = [0, 0]
        self._sat: tuple[set[int], set[int]] = (set(), set())
        self._s: tuple[dict[int, int], dict[int, int]] = ({}, {})
        # seeds on no saturated line
        self._uncovered = int(self.seeds.size)
        # line id -> varying-axis digits of its seeds, which are the ids of
        # the perpendicular lines through them less that axis's offset
        self._seeds_on: dict[int, list[int]] = {}
        for code in self.seeds.tolist():
            g0, g1 = divmod(code, n)
            self._seeds_on.setdefault(g1, []).append(g0)
            self._seeds_on.setdefault(n + g0, []).append(g1)
        for lid, digits in self._seeds_on.items():
            self._s[lid // n][lid] = len(digits)

    # -- derived counts -------------------------------------------------------

    @property
    def infected_total(self) -> int:
        c0, c1 = len(self._sat[0]), len(self._sat[1])
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
        c0, c1 = len(self._sat[0]), len(self._sat[1])
        count = np.repeat(np.array([c1, c0], dtype=np.int64), n)
        for s in self._s:
            if s:
                count[list(s)] += list(s.values())
        count[self.saturated] = n
        return count

    # -- cascade core ---------------------------------------------------------

    def _ready_lines(self, axis: int | None = None) -> np.ndarray:
        n = self._t.n
        ready: list[int] = []
        for a in (0, 1) if axis is None else (axis,):
            k = self.spec.thresholds[a] - len(self._sat[1 - a])
            if k <= 0:
                sat = self._sat[a]
                ready.extend(q for q in range(a * n, a * n + n) if q not in sat)
            else:
                ready.extend(sorted(q for q, v in self._s[a].items() if v >= k))
        return np.array(ready, dtype=np.int64)

    def _is_ready(self, lid: int) -> bool:
        a = lid // self._t.n
        return lid not in self._sat[a] and (
            len(self._sat[1 - a]) + self._s[a].get(lid, 0)
            >= self.spec.thresholds[a]
        )

    def _saturate_run(self, axis: int, lids: list[int], sink) -> tuple[int, bool]:
        """Saturate ``lids``, ascending axis-``axis`` lines, in id order, as
        the dense kernel does: each adds one to its C and covers its seeds.
        Given a ``sink``, each appends to it every perpendicular line that
        reaches its threshold, in ascending id as the dense kernel's crossing
        scan finds them, and the run stops after the line that fills the grid
        with points."""
        n = self._t.n
        a, b = axis, 1 - axis
        thr_b = self.spec.thresholds[b]
        sat_a, sat_b = self._sat[a], self._sat[b]
        s_a, s_b = self._s[a], self._s[b]
        seeds_on = self._seeds_on
        off = b * n
        for i, lid in enumerate(lids):
            sat_a.add(lid)
            self._uncovered -= s_a.pop(lid, 0)
            # the line's seeds on unsaturated perpendicular lines were
            # uncovered until now: each of those lines loses one from s, so
            # its count stays
            crossed = []
            for digit in seeds_on.get(lid, ()):
                m = off + digit
                if m not in sat_b:
                    s_b[m] -= 1
                    crossed.append(m)
            if sink is not None:
                # every other unsaturated axis-b line gained one point: those
                # now at C[a] + s = thr[b] have just reached their threshold,
                # and C[a] <= Q[a] < thr[b] makes s > 0
                k = thr_b - len(sat_a)
                sink.extend(sorted(
                    q for q, v in s_b.items() if v == k and q not in crossed
                ))
                if self.infected_total == self._t.N:
                    return i + 1, True
        return len(lids), False

    def _count_queued(self, lids) -> bool:
        """Count the lines ``lids``, just queued, in Q; returns whether they
        fill the grid."""
        n = self._t.n
        Q = self._queued
        for lid in lids:
            Q[lid // n] += 1
        thr = self.spec.thresholds
        return Q[0] >= thr[1] or Q[1] >= thr[0]

    def _add_seeds(self, codes: np.ndarray) -> tuple[int, list[int]]:
        """Count the new seeds of codes ``codes``, in order, in s of their
        two lines, up to the first that brings a line to its threshold;
        return how many were taken and the lines the last one made ready.
        Each code is split into its two digits in plain ints.  A seed
        already infected counts nowhere.  As in the dense kernel, a seed that
        fills the grid and makes no line ready is last; no line saturates
        here, so the s that makes a line ready is fixed."""
        n = self._t.n
        thr = self.spec.thresholds
        sat0, sat1 = self._sat
        k0, k1 = thr[0] - len(sat1), thr[1] - len(sat0)
        s0, s1 = self._s
        seeds_on = self._seeds_on
        for i, code in enumerate(codes.tolist()):
            g0, g1 = divmod(code, n)
            h = n + g0
            if g1 in sat0 or h in sat1:
                continue
            self._uncovered += 1
            seeds_on.setdefault(g1, []).append(g0)
            seeds_on.setdefault(h, []).append(g1)
            s0[g1] = v0 = s0.get(g1, 0) + 1
            s1[h] = v1 = s1.get(h, 0) + 1
            if v0 == k0 or v1 == k1:
                return i + 1, [g1] * (v0 == k0) + [h] * (v1 == k1)
        return codes.size, []


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _code_array(codes, N: int) -> np.ndarray:
    """``codes`` as int64 point codes, in order; anything but a 1-D integer
    array, such as point tuples, is refused.  The caller checks the range,
    but an unsigned code of N or more is refused here, as given, since the
    cast could wrap it negative."""
    try:
        arr = np.asarray(codes)
    except ValueError:  # ragged nesting, such as points of mixed length
        arr = np.empty(())
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise InputError("seeds must be a 1-D integer array of point codes; "
                         "encode points with encode_points(spec, points)")
    if arr.dtype.kind == "u" and arr.size:
        _in_range(0, int(arr.max()), N)
    return arr.astype(np.int64, copy=False)


def _in_range(lo: int, hi: int, N: int) -> None:
    """Refuse point codes, the least ``lo`` and the greatest ``hi``, unless
    all lie in [0, N)."""
    if lo < 0 or hi >= N:
        raise InputError(f"point code {lo if lo < 0 else hi} out of range [0, {N})")


def _groups(base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Group equal values of ``base``, nonnegative ints: the stable order that
    puts each group together, and the start and size of each group in that
    order; None when all values differ."""
    size = base.size
    # distinct keys (value, position) sort alike by any algorithm, and numpy's
    # plain sort beats its stable argsort, fivefold on thousands of values
    value, order = np.divmod(np.sort(base * size + np.arange(size)), size)
    head = np.empty(size + 1, dtype=bool)  # a group starts here, or the end
    head[0] = head[size] = True
    np.not_equal(value[1:], value[:-1], out=head[1:size])
    bounds = np.flatnonzero(head)
    if bounds.size > size:
        return None
    return order, bounds[:-1], bounds[1:] - bounds[:-1]


def new_state(spec: GridSpec, codes) -> Cascade2D | InfectionState:
    """A fresh cascade state seeded with the point codes ``codes``, on the
    kernel for ``spec``: ``Cascade2D`` when d = 2, ``InfectionState`` else."""
    kernel = Cascade2D if spec.d == 2 else InfectionState
    return kernel(spec, codes)


def closure(
    spec: GridSpec, initial: Iterable[Sequence[int]]
) -> Cascade2D | InfectionState:
    """The closure [A] of the points ``initial``: synchronous generations to
    the fixed point."""
    return new_state(spec, encode_points(spec, initial)).run_rounds()


def percolation_run(spec: GridSpec, codes: np.ndarray) -> Cascade2D | InfectionState:
    """Cascade with sound early stop; ``percolated`` is exact either way."""
    return new_state(spec, codes).run_fifo()


def _closed(spec: GridSpec, codes: np.ndarray) -> bool:
    """Whether no line holds its threshold of the distinct ``codes``.  A
    code's axis-b line drops its digit b, of stride n^(d-1-b).  Plain ints:
    at a sparse trial's few seeds, numpy's per-call cost exceeds the count."""
    n, codes, stride = spec.n, codes.tolist(), spec.n**spec.d
    for thr in spec.thresholds:
        block, stride = stride, stride // n
        held: dict[int, int] = {}
        for code in codes:
            lid = code // block * stride + code % stride
            held[lid] = k = held.get(lid, 0) + 1
            if k >= thr:
                return False
    return True


def percolates(spec: GridSpec, initial: Iterable[Sequence[int]]) -> bool:
    """Whether [A] is the whole grid, for the points ``initial``."""
    return bool(percolation_run(spec, encode_points(spec, initial)).percolated)


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
        sat = (counts.reshape(t.d, -1) >= t.thr[:, None]).ravel()
        member = sat[lut].any(axis=1)
        new = infected | member
        if np.array_equal(new, infected):
            break
        infected = new
    return {decode_point(spec, int(c)) for c in np.flatnonzero(infected)}
