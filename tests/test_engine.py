import itertools
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineperc import (
    GridSpec,
    InputError,
    LineId,
    closure,
    naive_closure,
    percolates,
)
from lineperc.engine import (
    Cascade2D,
    InfectionState,
    _closed,
    new_state,
    percolation_run,
)
from lineperc.grid import (
    _tables,
    decode_line,
    decode_point,
    encode_point,
    encode_points,
)
from lineperc.processes import run_alternating_2d, run_sequential, run_synchronous
from test_grid import points_on
from test_processes import flat_tallies, transposed


def block(r, d):
    return list(itertools.product(range(1, r + 1), repeat=d))


def random_instance(rng, *, dims=(1, 2, 3), n_hi=10, r_hi=4):
    d = int(rng.integers(dims[0], dims[-1] + 1))
    n = int(rng.integers(2, n_hi + 1))
    thresholds = tuple(int(x) for x in rng.integers(1, r_hi + 1, size=d))
    spec = GridSpec(n, d, thresholds)
    p = float(rng.uniform(0.05, 0.6))
    k = int(rng.binomial(spec.num_sites, p))
    codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
    return spec, codes


def infected_set(state):
    return set(state.infected_codes().tolist())


def test_figure1_cascade():
    spec = GridSpec.uniform(8, 2, 3)
    state = closure(spec, block(3, 2))
    assert state.percolated
    assert state.infected_total == 64
    assert len(state.saturated_lines()) == 16


def test_closure_frozen():
    spec = GridSpec.uniform(3, 2, 2)
    state = closure(spec, [(1, 1), (2, 2)])
    assert state.infected_points() == {(1, 1), (2, 2)}
    assert not state.percolated
    assert state._ready_lines().size == 0


def test_closure_l_shape():
    spec = GridSpec.uniform(3, 2, 2)
    state = closure(spec, [(1, 1), (2, 1), (1, 2)])
    expected = {(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)}
    assert state.infected_points() == expected
    assert naive_closure(spec, [(1, 1), (2, 1), (1, 2)]) == expected


def test_naive_closure_edges():
    for n, d, r in [(3, 2, 2), (2, 3, 1), (5, 1, 3)]:
        spec = GridSpec.uniform(n, d, r)
        assert naive_closure(spec, []) == set()
    spec = GridSpec.uniform(4, 2, 1)
    assert len(naive_closure(spec, [(2, 3)])) == 16


def test_threshold_one_single_point_fills_grid():
    # with all thresholds 1, percolation happens iff the seed is nonempty
    for n, d in [(4, 1), (4, 2), (3, 3)]:
        spec = GridSpec.uniform(n, d, 1)
        assert percolates(spec, [tuple([2] * d)])
        assert not percolates(spec, [])


def test_percolates_block_and_defect():
    rng = np.random.default_rng(2)
    for r, d, n in [(2, 2, 4), (3, 2, 5), (2, 3, 3)]:
        spec = GridSpec.uniform(n, d, r)
        assert percolates(spec, block(r, d))
        # r^d - 1 points never percolate
        for _ in range(20):
            codes = rng.choice(spec.num_sites, size=r**d - 1, replace=False)
            pts = [decode_point(spec, int(c)) for c in codes]
            assert not percolates(spec, pts)


def test_percolates_mixed_threshold_block():
    spec = GridSpec(5, 2, (2, 3))
    A = [(x, y) for x in range(1, 3) for y in range(1, 4)]  # [r_h] x [r_v]
    assert percolates(spec, A)
    assert naive_closure(spec, A) == {
        (x, y) for x in range(1, 6) for y in range(1, 6)
    }


def test_percolates_2d_early_stop():
    # in 2D the run halts once one axis holds threshold-many saturated lines
    spec = GridSpec.uniform(8, 2, 3)
    assert percolates(spec, block(3, 2))
    state = percolation_run(
        spec, np.array([encode_point(spec, p) for p in block(3, 2)])
    )
    assert len(state.trace.line_ids) <= 6
    assert not percolates(spec, [(1, 1), (5, 5)])


def test_points_where_codes_belong_are_refused():
    # below the point-level entry points a seed set is a 1-D array of codes;
    # point tuples, a set of them, ragged points or None must not pass as one
    spec2, spec3 = GridSpec.uniform(4, 2, 2), GridSpec.uniform(4, 3, 2)
    seeds = [block(2, 2), {(1, 1), (2, 2)}, [(1, 1), (2,)], None, [0.5, 1.5]]
    calls = [
        lambda x: Cascade2D(spec2, x),
        lambda x: InfectionState(spec2, x),
        lambda x: InfectionState(spec3, x),
        lambda x: new_state(spec2, x),
        lambda x: new_state(spec3, x),
        lambda x: percolation_run(spec2, x),
        lambda x: new_state(spec2, []).grow(x),
        lambda x: run_synchronous(spec3, x),
        lambda x: run_alternating_2d(spec2, x),
        lambda x: run_sequential(spec3, x),
    ]
    for call in calls:
        for x in seeds:
            with pytest.raises(InputError, match="encode_points"):
                call(x)
    for kernel in (Cascade2D, InfectionState):
        with pytest.raises(InputError, match="out of range"):
            kernel(spec2, [0, 16])


def test_point_entry_points_encode_once():
    # closure and percolates take points and run exactly the cascade of
    # their codes
    rng = np.random.default_rng(71)
    for _ in range(60):
        spec, codes = random_instance(rng)
        pts = [decode_point(spec, int(c)) for c in rng.permutation(codes)]
        assert np.array_equal(encode_points(spec, pts), np.sort(codes))
        got = closure(spec, pts)
        ref = new_state(spec, encode_points(spec, pts)).run_rounds()
        assert type(got) is type(ref)
        assert np.array_equal(got.saturated, ref.saturated)
        assert got.infected_total == ref.infected_total
        assert got.trace == ref.trace and got.percolated == ref.percolated
        stopped = percolation_run(spec, encode_points(spec, pts))
        assert percolates(spec, pts) == stopped.percolated == ref.percolated


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(7)
    for _ in range(150):
        spec, codes = random_instance(rng)
        state = new_state(spec, codes).run_rounds()
        pts = {decode_point(spec, int(c)) for c in codes}
        assert state.infected_points() == naive_closure(spec, pts)
        assert state.percolated == (state.infected_total == spec.num_sites)


def test_closed_certificate_matches_ready_lines():
    # _closed answers, without a kernel, whether a kernel would list no ready
    # line: on d = 1..4, thresholds of 1, above n and mixed, the empty set
    # and the whole grid
    rng = np.random.default_rng(29)
    kinds = Counter()
    for i in range(400):
        d = 1 + i % 4
        n = int(rng.integers(1, (8, 6, 4, 3)[d - 1] + 1))
        thresholds = tuple(int(x) for x in rng.integers(1, n + 3, size=d))
        spec = GridSpec(n, d, thresholds)
        k = (0, spec.num_sites, int(rng.integers(0, spec.num_sites + 1)))[i % 3]
        codes = np.sort(rng.choice(spec.num_sites, size=k, replace=False))
        closed = _closed(spec, codes)
        assert closed == (new_state(spec, codes)._ready_lines().size == 0)
        kinds["closed" if closed else "open"] += 1
        kinds["thr 1"] += 1 in thresholds
        kinds["thr > n"] += max(thresholds) > n
        kinds["mixed"] += len(set(thresholds)) > 1
    assert min(kinds.values()) > 50, kinds


def test_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(60):
        spec, codes = random_instance(rng)
        if codes.size == 0:
            continue
        sub = codes[rng.random(codes.size) < 0.6]
        small = infected_set(new_state(spec, sub).run_rounds())
        big = infected_set(new_state(spec, codes).run_rounds())
        assert small <= big


def test_idempotence():
    rng = np.random.default_rng(13)
    for _ in range(40):
        spec, codes = random_instance(rng)
        once = new_state(spec, codes).run_rounds()
        twice = new_state(spec, once.infected_codes()).run_rounds()
        assert infected_set(once) == infected_set(twice)


def test_sequential_order_agreement():
    # the closure does not depend on the order lines saturate in: the
    # sequential scan in random orders, on both kernels, ends where the
    # generations do
    rng = np.random.default_rng(17)
    for _ in range(60):
        spec, codes = random_instance(rng)
        rounds = infected_set(new_state(spec, codes).run_rounds())
        for kernel in (new_state, InfectionState):
            for _ in range(3):
                order = rng.permutation(spec.num_lines).tolist()
                seq = kernel(spec, codes).run_sequential(order)
                assert infected_set(seq) == rounds


def reference_scan(spec, codes, order):
    """The sequential scan on an explicit point set, with no engine code.

    Pass after pass over ``order``, each inspection recounts the inspected
    line's infected points and saturates the line iff the count reaches its
    threshold; the scan ends after a pass that changes nothing.  Returns the
    saturated ``line_ids``, the pass of each, numbered from 1, and the
    per-axis tally of each pass that saturates a line.
    """
    lines = [points_on(spec, decode_line(spec, lid)) for lid in range(spec.num_lines)]
    infected = {decode_point(spec, int(c)) for c in codes}
    saturated = set()
    line_ids, round_of, rows = [], [], []
    for scan in itertools.count(1):
        per_axis = [0] * spec.d
        for lid in order:
            if lid in saturated:
                continue
            axis = lid // spec.lines_per_axis
            if sum(p in infected for p in lines[lid]) >= spec.thresholds[axis]:
                saturated.add(lid)
                infected.update(lines[lid])
                line_ids.append(lid)
                round_of.append(scan)
                per_axis[axis] += 1
        if not any(per_axis):
            break
        rows.append(tuple(per_axis))
    return line_ids, round_of, rows


def test_sequential_scan_matches_reference():
    # both kernels share one scan loop, so compare it with the reference in
    # canonical and in random order
    rng = np.random.default_rng(29)
    kernels_seen = set()
    multi_pass = 0
    for _ in range(90):
        spec, codes = random_instance(rng, n_hi=7)
        orders = [None, rng.permutation(spec.num_lines).tolist()]
        for order in orders:
            expected = reference_scan(spec, codes, order or range(spec.num_lines))
            for kernel in (new_state, InfectionState):
                state = kernel(spec, codes).run_sequential(order)
                tr = state.trace
                got = (tr.line_ids, tr.round_of, tr.round_axis_counts)
                assert got == expected, (spec, codes.tolist(), order)
                kernels_seen.add(type(state).__name__)
            multi_pass += len(expected[2]) > 1
    assert kernels_seen == {"Cascade2D", "InfectionState"}
    assert multi_pass > 30


def assert_rounds(spec, trace):
    """The tallies count every event once, and the axes of the events of
    round g, which ``round_of`` derives from the tallies, are what row g-1
    counts."""
    trace.check()
    tally = Counter(
        (g, lid // spec.lines_per_axis) for g, lid in zip(trace.round_of, trace.line_ids)
    )
    for g, row in enumerate(trace.round_axis_counts, start=1):
        assert tuple(tally[g, a] for a in range(spec.d)) == row


def line_rounds(trace):
    """The set of lines saturated in each round of ``trace``."""
    rounds = [set() for _ in range(trace.num_rounds)]
    for g, lid in zip(trace.round_of, trace.line_ids):
        rounds[g - 1].add(lid)
    return rounds


def assert_queue_rounds_are_generations(queue, rounds):
    """The FIFO queue's rounds are the generations of ``run_rounds`` as
    sets, up to its stop: every round but the last equal, the last a subset,
    and all of them when the queue finds no proof."""
    assert queue.percolated == rounds.percolated
    got, want = line_rounds(queue.trace), line_rounds(rounds.trace)
    assert len(got) <= len(want)
    for g, lines in enumerate(got):
        assert lines <= want[g] if g == len(got) - 1 else lines == want[g]
    if not queue.percolated:
        assert got == want


def test_trace_semantics_on_every_schedule():
    rng = np.random.default_rng(71)
    for _ in range(90):
        spec, codes = random_instance(rng, dims=(1, 4), n_hi=6)
        for kernel in (new_state, InfectionState):
            def fresh():
                return kernel(spec, codes)

            queue, rounds = fresh().run_fifo(), fresh().run_rounds()
            tr = queue.trace
            assert_rounds(spec, tr)
            assert tr.num_rounds == (tr.round_of[-1] if tr.round_of else 0)
            assert_rounds(spec, rounds.trace)
            assert_queue_rounds_are_generations(queue, rounds)
            if spec.d == 2:
                # both starts: the transposed seeds start vertical
                for stop_rule in (True, False):
                    for t_spec, seeds in ((spec, codes), transposed(spec, codes)):
                        state = kernel(t_spec, seeds).run_half_steps(stop_rule=stop_rule)
                        assert_rounds(t_spec, state.trace)
            order = rng.permutation(spec.num_lines).tolist()
            tr = fresh().run_sequential(order).trace
            assert_rounds(spec, tr)
            assert 0 not in map(sum, tr.round_axis_counts)  # no idle pass
            grown = kernel(spec, ())
            for code in rng.permutation(spec.num_sites).tolist():
                grown.grow([code])
                assert_rounds(spec, grown.trace)
                if grown.percolated:
                    break


def test_ready_lines_of_one_axis_are_its_slice_of_all(monkeypatch):
    # the schedules ask a kernel for every ready line or for one axis's:
    # before every run of parallel lines, and so at mid-run states, the two
    # must agree on both kernels
    seen = Counter()

    def checking(saturate_run):
        def run(self, axis, lids, sink):
            every = self._ready_lines()
            per_axis = self.spec.lines_per_axis
            for a in range(self.spec.d):
                got = self._ready_lines(a)
                assert got.dtype == np.int64
                assert got.tolist() == [q for q in every.tolist() if q // per_axis == a]
            seen[type(self).__name__] += 1
            # the count kernel's other branch: an axis all of whose
            # unsaturated lines are ready, by the count of the others
            seen["full"] += isinstance(self, Cascade2D) and any(
                len(self._sat[1 - a]) >= self.spec.thresholds[a] for a in (0, 1)
            )
            return saturate_run(self, axis, lids, sink)
        return run

    for kernel in (Cascade2D, InfectionState):
        monkeypatch.setattr(kernel, "_saturate_run", checking(kernel._saturate_run))
    rng = np.random.default_rng(83)
    for _ in range(60):
        spec, codes = random_instance(rng, dims=(1, 3), n_hi=7)
        for kernel in (new_state, InfectionState):
            kernel(spec, codes).run_fifo()
            kernel(spec, codes).run_rounds()
            if spec.d == 2:
                kernel(spec, codes).run_half_steps(stop_rule=False)
    assert min(seen["Cascade2D"], seen["InfectionState"], seen["full"]) > 20, seen


def test_work_bound_counter():
    # every point's infection is processed exactly once
    rng = np.random.default_rng(19)
    for _ in range(40):
        spec, codes = random_instance(rng)
        state = new_state(spec, codes).run_fifo()
        assert state.infected_total == len(infected_set(state))


def test_line_count_invariants():
    # every schedule's counters count infected points exactly: the FIFO
    # queue's ``== threshold`` readiness, the batched generations and the
    # sequential scan alike
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec, codes = random_instance(rng)
        queue = new_state(spec, codes).run_fifo()
        states = [
            queue,
            run_synchronous(spec, codes)[0],
            run_sequential(spec, codes)[0],
        ]
        if spec.d == 2:
            alt, _ = run_alternating_2d(spec, codes, stop_rule=False)
            states.append(alt)
        t = _tables(spec)
        for state in states:
            infected = state.infected_codes()
            counts = np.bincount(t.lids_of(infected).ravel(), minlength=t.L)
            assert np.array_equal(counts, state.line_count)
            assert np.all(counts[state.saturated] == spec.n)
            # fixed point: no unsaturated line at or above threshold, unless
            # the queue stopped at a proof
            if state is not queue or not queue.percolated:
                ready = counts.reshape(spec.d, -1) >= t.thr[:, None]
                assert not np.any(ready.ravel() & ~state.saturated)
            assert state.infected_total == infected.size


def test_degenerate_small_n():
    # n below threshold: no line can saturate, closure stays A
    spec = GridSpec.uniform(2, 2, 3)
    state = closure(spec, [(1, 1), (2, 2), (1, 2)])
    assert state.infected_points() == {(1, 1), (2, 2), (1, 2)}
    assert not state.percolated
    assert percolates(spec, [(x, y) for x in (1, 2) for y in (1, 2)])  # full grid


def test_membership_and_explicit():
    spec = GridSpec.uniform(3, 2, 2)
    state = closure(spec, [(1, 1), (2, 1), (1, 2)])
    assert state.is_infected((3, 1))
    assert not state.is_infected((3, 3))
    # (1,1),(2,1) sit on the saturated row, (1,2) on the saturated column
    assert state.saturated_lines() == [LineId(0, (1,)), LineId(1, (1,))]
    assert closure(spec, [(1, 1), (2, 2)]).saturated_lines() == []


def test_grown_state_matches_fresh_cascade():
    # below the flip, a state grown seed by seed sits at the fixed point of
    # its prefix: every query agrees with a cascade built from that prefix,
    # on the dense kernel and on the kernel new_state picks (Cascade2D in 2D)
    rng = np.random.default_rng(29)
    flips = 0
    for _ in range(40):
        spec, codes = random_instance(rng, n_hi=6)
        points = [decode_point(spec, c) for c in range(spec.num_sites)]
        for kernel in (InfectionState, new_state):
            state = kernel(spec, ())
            for k, code in enumerate(codes.tolist(), start=1):
                proved = state.grow([code]) == 1
                assert state.percolated == proved
                state.trace.check()
                if proved:
                    flips += 1
                    assert percolation_run(spec, codes[:k]).percolated
                    assert not percolation_run(spec, codes[: k - 1]).percolated
                    assert np.array_equal(state.seeds, np.sort(codes[:k]))
                    break
                fresh = new_state(spec, codes[:k]).run_fifo()
                assert not fresh.percolated and state._ready_lines().size == 0
                assert np.array_equal(state.saturated, fresh.saturated)
                assert np.array_equal(state.line_count, fresh.line_count)
                assert state.infected_total == fresh.infected_total
                assert np.array_equal(state.infected_codes(), fresh.infected_codes())
                assert np.array_equal(state.seeds, fresh.seeds)
                pts = {decode_point(spec, int(c)) for c in codes[:k]}
                assert state.infected_points() == naive_closure(spec, pts)
                infected = [state.is_infected(p) for p in points]
                assert infected == [fresh.is_infected(p) for p in points]
                assert all(infected[int(c)] for c in codes[:k])
    assert flips >= 20


def test_grow_proves_whole_grid_below_threshold():
    # no line can saturate, so only the last seed, which fills the grid,
    # makes the grown state percolate
    for spec in (GridSpec(3, 1, (4,)), GridSpec(2, 2, (3, 5)), GridSpec(2, 3, (3, 3, 3))):
        for kernel in (new_state, InfectionState):
            state = kernel(spec, ())
            grown = [state.grow([code]) for code in range(spec.num_sites)]
            assert grown == [0] * (spec.num_sites - 1) + [1]
            assert state.trace.line_ids == []


def test_grow_rejects_bad_codes_and_ignores_repeats():
    spec = GridSpec.uniform(4, 2, 2)
    for kernel in (InfectionState, Cascade2D):
        state = kernel(spec, ())
        with pytest.raises(InputError):
            state.grow([16])
        assert state.grow([0]) == 0
        assert state.grow([0]) == 0
        assert state.infected_total == 1 and state.seeds.tolist() == [0]
        # a bad code anywhere refuses the whole array before any seed is added
        with pytest.raises(InputError):
            state.grow([5, -1])
        assert state.infected_total == 1 and state.seeds.tolist() == [0]


class _OneSeedAtATime(InfectionState):
    """Reference: the per-seed ingest that the array ingest replaced.  Each
    code goes through its own grow step, which counts the seed on its lines
    one at a time and drains the lines it makes ready."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.covered = 0  # seeds grown on a saturated line

    def grow(self, codes):
        for k, code in enumerate(np.asarray(codes, dtype=np.int64).tolist(), start=1):
            if self._grow_one(code):
                return k
        return 0

    def _grow_one(self, code):
        assert not self.percolated
        t = self._t
        if not 0 <= code < t.N:
            raise InputError(f"point code {code} out of range [0, {t.N})")
        self._ran = True
        if code in self.seeds:
            return False
        self.seeds = np.sort(np.append(self.seeds, code))
        digits = [code // s % t.n for s in t.pstride.tolist()]
        lids = [
            off + sum(g * w for g, w in zip(digits, row))
            for off, row in zip(t.off_list, t.W_list)
        ]
        if any(self.saturated[lid] for lid in lids):
            self.covered += 1  # already infected: its lines counted it then
            return False
        self.infected_total += 1
        ready = []
        for axis, lid in enumerate(lids):
            self._seeds_on.setdefault(lid, []).append(digits[axis])
            self.line_count[lid] += 1
            if self.line_count[lid] == self.spec.thresholds[axis]:
                ready.append(lid)
        proved = self.infected_total == t.N or (
            bool(ready) and self._drain(deque(ready))
        )
        self.percolated = proved
        return proved


def _same_growth(state, ref):
    assert state.trace == ref.trace
    assert np.array_equal(state.line_count, ref.line_count)
    assert np.array_equal(state.saturated, ref.saturated)
    assert state.infected_total == ref.infected_total
    assert state.percolated == ref.percolated
    assert np.array_equal(state.seeds, ref.seeds)
    assert state._seeds_on == ref._seeds_on
    if isinstance(state, InfectionState):
        assert flat_tallies(state) == flat_tallies(ref)


def test_array_ingest_matches_one_seed_at_a_time():
    # random code sequences, cut into random chunks, grow the same states on
    # both ingests: d = 1..4, uniform and mixed thresholds (some above n, so
    # that only a full grid proves), covered seeds and repeated codes
    rng = np.random.default_rng(83)
    flips = repeats = covered = fills = 0
    for it in range(240):
        d = 1 + it % 4
        n = int(rng.integers(2, {1: 30, 2: 14, 3: 8, 4: 5}[d]))
        thresholds = tuple(int(x) for x in rng.integers(1, n + 3, size=d))
        if it % 3 == 0:
            thresholds = (thresholds[0],) * d
        spec = GridSpec(n, d, thresholds)
        size = int(rng.integers(1, 2 * spec.num_sites + 1))
        if it % 2:
            codes = rng.integers(0, spec.num_sites, size=size)
        else:
            codes = rng.permutation(spec.num_sites)
        repeats += len(set(codes.tolist())) < codes.size
        kernels = [InfectionState] + ([Cascade2D] if d == 2 else [])
        for kernel in kernels:
            state, ref = kernel(spec, ()), _OneSeedAtATime(spec, ())
            lo = 0
            while lo < codes.size and not ref.percolated:
                hi = lo + int(rng.integers(1, 2 * n + 1))
                assert state.grow(codes[lo:hi]) == ref.grow(codes[lo:hi])
                _same_growth(state, ref)
                lo = hi
            flips += bool(ref.percolated)
            covered += ref.covered
            # a grid filled with no line saturated
            fills += bool(ref.percolated) and not ref.trace.line_ids
    assert flips > 150 and repeats > 100 and covered > 1000 and fills > 10


@pytest.mark.parametrize("d", [3, 4])
def test_flat_proof_stops_early(d):
    # full flats stop a run early in every d (d = 4 had no proof before):
    # the stop must agree with the oracle and cut the generations short, not
    # change them; mixed thresholds above n leave only the full grid of points
    rng = np.random.default_rng(97 + d)
    early = mixed_above = 0
    for it in range(60):
        n = int(rng.integers(2, {3: 8, 4: 6}[d]))
        thresholds = tuple(int(x) for x in rng.integers(1, n + 3, size=d))
        if it % 3 == 0:
            thresholds = (int(rng.integers(1, n + 1)),) * d
        spec = GridSpec(n, d, thresholds)
        mixed_above += max(thresholds) > n > min(thresholds)
        k = int(rng.binomial(spec.num_sites, rng.uniform(0.02, 0.5)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)

        def percolating(prefix):
            pts = {decode_point(spec, int(c)) for c in prefix}
            return len(naive_closure(spec, pts)) == spec.num_sites

        rounds = new_state(spec, codes).run_rounds()
        stopped = percolation_run(spec, codes)
        assert stopped.percolated == rounds.percolated == percolating(codes)
        assert_queue_rounds_are_generations(stopped, rounds)
        early += len(stopped.trace.line_ids) < len(rounds.trace.line_ids)
        # grow stops at the first seed whose prefix percolates
        order = rng.permutation(spec.num_sites)
        lo, hi = 0, spec.num_sites  # percolating(order[:hi]) and not order[:lo]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if percolating(order[:mid]) else (mid, hi)
        grown = InfectionState(spec, ())
        assert grown.grow(order) == hi and grown.percolated
    assert early > 10 and mixed_above > 10


def flats_prove(spec, lines):
    """A test-local flat rule: whether ``lines`` make the grid a full flat.

    A flat is a d-tuple of 0-based digits with None at each free axis, so a
    line has one None.  A flat is full when it is one of ``lines``, or when
    thr[e] of its slices across some free axis e are full.  A slice has one
    free axis fewer, so one pass in order of the free axes' count decides
    every flat."""
    n, d, thr = spec.n, spec.d, spec.thresholds
    full = set(lines)
    for k in range(2, d + 1):
        for free in itertools.combinations(range(d), k):
            fixed = [a for a in range(d) if a not in free]
            for digits in itertools.product(range(n), repeat=d - k):
                flat = [None] * d
                for a, z in zip(fixed, digits):
                    flat[a] = z
                for e in free:
                    held = sum(
                        tuple(flat[:e] + [z] + flat[e + 1:]) in full for z in range(n)
                    )
                    if held >= thr[e]:
                        full.add(tuple(flat))
                        break
    return (None,) * d in full


def first_proving_round(spec, codes):
    """The first round boundary g >= 0 of the synchronous generations,
    recomputed here from the points, at which the lines saturated in rounds
    1..g and the lines then ready prove the grid by ``flats_prove``; None if
    no boundary does."""
    n, d, thr = spec.n, spec.d, spec.thresholds

    def points(line):
        a = line.index(None)
        return [line[:a] + (z,) + line[a + 1:] for z in range(n)]

    lines = [
        rest[:a] + (None,) + rest[a:]
        for a in range(d)
        for rest in itertools.product(range(n), repeat=d - 1)
    ]
    infected = {tuple(c - 1 for c in decode_point(spec, code)) for code in codes.tolist()}
    saturated = set()
    for g in itertools.count():
        ready = {
            line for line in lines
            if line not in saturated
            and sum(p in infected for p in points(line)) >= thr[line.index(None)]
        }
        if flats_prove(spec, saturated | ready):
            return g
        if not ready:
            return None
        saturated |= ready
        infected.update(p for line in ready for p in points(line))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_queue_stops_once_queued_lines_prove_the_grid(d):
    # every line is counted in its flats as it enters the queue, and the
    # queue stops before the next run once the lines saturated or queued
    # prove the grid: a queue round ends where a generation does, and then
    # holds the next generation, so no stopped queue passes the first round
    # boundary at which the test-local flat rule, over the lines saturated or
    # ready there, proves the grid.  Random sets and the shortest
    # percolating prefix of a random order, whose proofs come later;
    # uniform and mixed thresholds, some above n
    rng = np.random.default_rng(131 + d)
    proved = later = mixed_above = 0
    for it in range(60):
        n = int(rng.integers(2, {2: 12, 3: 7, 4: 5}[d]))
        thresholds = tuple(int(x) for x in rng.integers(1, n + 3, size=d))
        if it % 3 == 0:
            thresholds = (int(rng.integers(1, n + 1)),) * d
        spec = GridSpec(n, d, thresholds)
        mixed_above += max(thresholds) > n >= min(thresholds)
        k = int(rng.binomial(spec.num_sites, rng.uniform(0.02, 0.6)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)

        def percolating(prefix):
            pts = {decode_point(spec, int(c)) for c in prefix}
            return len(naive_closure(spec, pts)) == spec.num_sites

        # grow stops at the first seed whose prefix percolates
        order = rng.permutation(spec.num_sites)
        lo, hi = 0, spec.num_sites  # percolating(order[:hi]) and not order[:lo]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if percolating(order[:mid]) else (mid, hi)
        for kernel in (new_state, InfectionState):
            grown = kernel(spec, ())
            assert grown.grow(order) == hi and grown.percolated

        for seeds in (codes, order[:hi]):
            g = first_proving_round(spec, seeds)
            # a grid with more flats than lines keeps none (d = 4, n = 2),
            # and its queue proves by points alone
            if (n + 1) ** d > spec.num_sites + 2 * spec.num_lines:
                g = None
            proved += g is not None
            later += bool(g)
            rounds = new_state(spec, seeds).run_rounds()
            for kernel in (new_state, InfectionState):
                stopped = kernel(spec, seeds).run_fifo()
                assert stopped.percolated == percolating(seeds)
                assert_queue_rounds_are_generations(stopped, rounds)
                if g is not None:
                    assert stopped.percolated and stopped.trace.num_rounds <= g
    assert proved > 20 and later > 5 and mixed_above > 10, (proved, later, mixed_above)


def record_counts(monkeypatch):
    """Log on each dense state, as ``counts``, the lines its flats count in
    order: ("queued", lines) for each call of ``_count_queued``, and
    ("plane", lines) for the lines each full plane adds through
    ``_crossing``."""
    count_queued, crossing = InfectionState._count_queued, InfectionState._crossing

    def logged_count(self, lids):
        self.__dict__.setdefault("counts", []).append(("queued", [int(q) for q in lids]))
        return count_queued(self, lids)

    def logged_crossing(self, a, e, g):
        lids = crossing(self, a, e, g)
        self.counts.append(("plane", lids.tolist()))
        return lids

    monkeypatch.setattr(InfectionState, "_count_queued", logged_count)
    monkeypatch.setattr(InfectionState, "_crossing", logged_crossing)


def check_counts(state, closed):
    """A per-line oracle of the flat counts of ``state``: every line counted
    saturates in ``closed``, the closure of the same seeds; a full plane
    counts no line counted before it; and each plane the counted lines do
    not fill needs its threshold less the lines counted in it, so the queue
    counted none of them twice.  Returns the number of lines planes
    counted."""
    counted, by_planes = set(), 0
    for kind, lines in getattr(state, "counts", ()):
        if kind == "plane":
            assert len(set(lines)) == len(lines) and counted.isdisjoint(lines)
            by_planes += len(lines)
        counted.update(lines)
    assert all(closed.saturated[q] for q in counted)
    if state._flats is not None:
        t = _tables(state.spec)
        held = np.zeros_like(t.plane_need)
        for q in counted:
            axis, rest = divmod(q, t.lines_per_axis)
            held[t.plane_base[axis] + t.plane_index[rest]] += 1
        full = (held >= t.plane_need).reshape(-1, 2).any(axis=1).repeat(2)
        assert np.array_equal(state._plane_need[~full], (t.plane_need - held)[~full])
    return by_planes


@pytest.mark.parametrize("d", [3, 4])
def test_full_planes_count_only_lines_that_saturate(d, monkeypatch):
    # a plane that fills counts, without queueing them, the crossing lines
    # one point short whose point in it is not infected: against the
    # per-line oracle, on the FIFO queue and on growth in a random order,
    # with uniform and mixed thresholds, some above n
    record_counts(monkeypatch)
    rng = np.random.default_rng(211 + d)
    by_planes = mixed_above = 0
    for it in range(50):
        n = int(rng.integers(2, {3: 8, 4: 5}[d]))
        thresholds = tuple(int(x) for x in rng.integers(1, n + 3, size=d))
        if it % 3 == 0:
            thresholds = (int(rng.integers(1, n + 1)),) * d
        spec = GridSpec(n, d, thresholds)
        mixed_above += max(thresholds) > n >= min(thresholds)

        def percolating(codes):
            pts = {decode_point(spec, int(c)) for c in codes}
            return len(naive_closure(spec, pts)) == spec.num_sites

        k = int(rng.binomial(spec.num_sites, rng.uniform(0.02, 0.5)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
        stopped = InfectionState(spec, codes).run_fifo()
        assert stopped.percolated == percolating(codes)
        by_planes += check_counts(stopped, InfectionState(spec, codes).run_rounds())
        order = rng.permutation(spec.num_sites)
        grown = InfectionState(spec, ())
        at = grown.grow(order)
        assert at and grown.percolated
        assert percolating(order[:at]) and not percolating(order[: at - 1])
        by_planes += check_counts(grown, InfectionState(spec, grown.seeds).run_rounds())
    assert by_planes > 150 and mixed_above > 10, (by_planes, mixed_above)


def test_full_plane_proves_before_its_run(monkeypatch):
    # a 2 x 2 block fills the plane x3 = 1, which four axis-3 lines holding
    # one seed each cross at points not infected: the plane counts them, and
    # they fill the planes x2 = 4 and x2 = 5, so the initial queue proves the
    # grid before any line saturates, where counting only queued lines
    # waited for the plane's run to sink them, 10 saturations in
    record_counts(monkeypatch)
    spec = GridSpec.uniform(8, 3, 2)
    pts = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1),
           (4, 4, 2), (5, 4, 3), (4, 5, 4), (5, 5, 5)]
    codes = encode_points(spec, pts)
    stopped = InfectionState(spec, codes).run_fifo()
    assert stopped.percolated and stopped.trace.line_ids == []
    assert len(naive_closure(spec, pts)) == spec.num_sites
    assert check_counts(stopped, closure(spec, pts)) == 4


def test_unsigned_codes_are_refused_as_given():
    # a uint64 code of 2^63 or more wrapped negative in the cast to int64,
    # and was refused as a code the caller never passed
    spec = GridSpec.uniform(4, 2, 2)
    kernels = (new_state, InfectionState, Cascade2D)
    for bad in (2**64 - 1, 2**63 + 5, 16):
        codes = np.array([3, bad, 5], dtype=np.uint64)
        message = f"point code {bad} out of range [0, 16)"
        for kernel in kernels:
            with pytest.raises(InputError) as refused:
                kernel(spec, codes)
            assert str(refused.value) == message
            state = kernel(spec, ())
            with pytest.raises(InputError) as refused:
                state.grow(codes)
            assert str(refused.value) == message
            assert state.seeds.size == 0 and state.infected_total == 0
    codes = np.array([5, 3, 5], dtype=np.uint64)
    for kernel in kernels:
        assert kernel(spec, codes).seeds.tolist() == [3, 5]
        state = kernel(spec, ())
        assert state.grow(codes) == 0 and state.seeds.tolist() == [3, 5]


def test_initial_out_of_range():
    spec = GridSpec.uniform(3, 2, 2)
    with pytest.raises(InputError):
        closure(spec, [(0, 1)])
    with pytest.raises(InputError):
        closure(spec, [(1, 4)])


@st.composite
def code_arrays(draw):
    """A spec of d = 1..3 with mixed thresholds and a code array in one of
    the forms a seed argument takes: as drawn (shuffled, with repeats),
    sorted with repeats, sorted and distinct, empty or single."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 12, 2: 5, 3: 3}[d]))
    spec = GridSpec(n, d, tuple(draw(st.integers(1, n + 1)) for _ in range(d)))
    codes = draw(st.lists(st.integers(0, spec.num_sites - 1), max_size=2 * spec.num_sites))
    form = draw(st.sampled_from(["drawn", "sorted", "distinct", "single"]))
    if form == "sorted":
        codes = sorted(codes)
    elif form == "distinct":
        codes = sorted(set(codes))
    elif form == "single":
        codes = codes[:1]
    return spec, np.asarray(codes, dtype=np.int64)


def seed_kernels(spec):
    return [InfectionState] + ([Cascade2D] if spec.d == 2 else [])


@settings(max_examples=200, deadline=None)
@example((GridSpec(4, 2, (2, 3)), np.array([], dtype=np.int64)))
@example((GridSpec(4, 2, (2, 3)), np.array([5], dtype=np.int64)))
@example((GridSpec(4, 2, (2, 3)), np.array([1, 4, 9, 15], dtype=np.int64)))
@example((GridSpec(4, 2, (2, 3)), np.array([9, 1, 9, 4, 1], dtype=np.int64)))
@given(code_arrays())
def test_seeds_are_np_unique_of_the_codes(instance):
    # the constructor's dedup, and encode_points', against np.unique as the
    # oracle; a state never aliases the caller's array, even when it keeps
    # codes that already ascend
    spec, codes = instance
    expect = np.unique(codes)
    for kernel in seed_kernels(spec):
        given_codes = codes.copy()
        state = kernel(spec, given_codes)
        assert state.seeds.dtype == np.int64
        assert np.array_equal(state.seeds, expect)
        given_codes += 1
        assert np.array_equal(state.seeds, expect)
        assert np.array_equal(kernel(spec, codes.tolist()).seeds, expect)
    points = [decode_point(spec, c) for c in codes.tolist()]
    assert np.array_equal(encode_points(spec, points), expect)
    # one code out of range anywhere: the least code if it is negative,
    # else the greatest, is named, as np.unique's ends would name it
    rng = np.random.default_rng(codes.size)
    for bad in (-1 - int(rng.integers(3)), spec.num_sites + int(rng.integers(3))):
        wrong = np.insert(codes, int(rng.integers(codes.size + 1)), bad)
        ends = np.unique(wrong)
        named = ends[0] if ends[0] < 0 else ends[-1]
        message = f"point code {named} out of range [0, {spec.num_sites})"
        for kernel in seed_kernels(spec):
            with pytest.raises(InputError) as refused:
                kernel(spec, wrong)
            assert str(refused.value) == message
            state = kernel(spec, ())
            with pytest.raises(InputError) as refused:
                state.grow(wrong)
            assert str(refused.value) == message
            assert state.seeds.size == 0 and state.infected_total == 0


def grow_by_np_unique(state, codes):
    """``grow`` as it was written with ``np.unique(..., return_index=True)``:
    the reference for its skip-repeats contract."""
    t = state._t
    codes = np.asarray(codes, dtype=np.int64)
    s = state.seeds.size
    new, at = np.unique(np.concatenate([state.seeds, codes]), return_index=True)
    if new.size and (new[0] < 0 or new[-1] >= t.N):
        bad = new[0] if new[0] < 0 else new[-1]
        raise InputError(f"point code {bad} out of range [0, {t.N})")
    if new.size < s + codes.size:  # a code repeats, or was grown before
        at = np.sort(at[at >= s]) - s
        codes = codes[at]
    else:
        at = None
    i = 0
    while i < codes.size:
        state._ran = "grow"
        taken, ready = state._add_seeds(codes[i:])
        i += taken
        if state.infected_total == t.N or (ready and state._drain(deque(ready))):
            state.seeds = np.sort(np.concatenate([state.seeds, codes[:i]]))
            state.percolated = True
            return i if at is None else int(at[i - 1]) + 1
    state.seeds = new
    state.percolated = False
    return 0


@st.composite
def grow_calls(draw):
    """A spec of d = 1..3 with mixed thresholds and grow calls on a small
    code range, so that codes repeat inside a call and across calls."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, {1: 12, 2: 6, 3: 3}[d]))
    spec = GridSpec(n, d, tuple(draw(st.integers(1, n + 1)) for _ in range(d)))
    code = st.integers(0, spec.num_sites - 1)
    calls = draw(st.lists(st.lists(code, max_size=2 * n), min_size=1, max_size=8))
    return spec, calls


@settings(max_examples=200, deadline=None)
@example((GridSpec(4, 2, (2, 3)), [[5, 5, 6, 5], [6, 7, 5, 1], [1, 2, 3, 0, 10, 14]]))
@given(grow_calls())
def test_grow_skips_repeats_as_np_unique_did(instance):
    spec, calls = instance
    for kernel in seed_kernels(spec):
        state, ref = kernel(spec, ()), kernel(spec, ())
        for codes in calls:
            assert state.grow(codes) == grow_by_np_unique(ref, codes)
            assert np.array_equal(state.seeds, ref.seeds)
            assert state.trace == ref.trace
            assert state.infected_total == ref.infected_total
            assert state.percolated == ref.percolated
            if state.percolated:
                break
