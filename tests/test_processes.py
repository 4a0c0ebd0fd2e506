import itertools

import numpy as np
import pytest

from lineperc import (
    GridSpec,
    InputError,
    LineCount2D,
    LineCountClass,
    classify_line_count,
    closure,
    is_slow,
    plane_statistics,
    preface_of,
    run_alternating_2d,
    run_sequential,
    run_synchronous,
)
from lineperc import engine, processes
from lineperc.engine import InfectionState, new_state, percolation_run
from lineperc.estimator import check_2d_process_properties
from lineperc.grid import encode_points
from lineperc.grid import _tables
from lineperc.processes import boosted_points, plane_statistics_recount, preface_text


def block(r, d):
    return list(itertools.product(range(1, r + 1), repeat=d))


def transposed(spec, codes):
    """The 2D spec and seed codes mirrored in the diagonal: the run on
    them is the run on ``spec`` and ``codes`` with the axes swapped, so the
    alternating run on them starts with the vertical lines of ``codes``."""
    g0, g1 = np.divmod(np.asarray(codes, dtype=np.int64), spec.n)
    return GridSpec(spec.n, 2, spec.thresholds[::-1]), g1 * spec.n + g0


def random_instance(rng, dims=(1, 3)):
    d = int(rng.integers(dims[0], dims[1] + 1))
    n = int(rng.integers(2, 11))
    r = int(rng.integers(1, 5))
    spec = GridSpec.uniform(n, d, r)
    k = int(rng.binomial(spec.num_sites, rng.uniform(0.05, 0.6)))
    codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
    return spec, codes


def test_synchronous_figure1():
    spec = GridSpec.uniform(8, 2, 3)
    state, trace = run_synchronous(spec, encode_points(spec, block(3, 2)))
    assert trace.num_rounds == 2
    assert trace.round_axis_counts[0] == (3, 3)
    assert state.infected_total == 64
    trace.check()


def test_synchronous_zero_rounds():
    spec = GridSpec.uniform(5, 2, 2)
    state, trace = run_synchronous(spec, encode_points(spec, [(1, 1), (3, 3)]))
    assert trace.num_rounds == 0
    assert state.infected_points() == {(1, 1), (3, 3)}


def test_synchronous_round_bound_on_percolating_runs():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        spec, codes = random_instance(rng, dims=(2, 2))
        state, trace = run_synchronous(spec, codes)
        if state.percolated and codes.size < spec.num_sites:
            assert trace.num_rounds <= 2 * spec.r + 1
            checked += 1
    assert checked > 10


def test_synchronous_rounds_trail_alternating_half_steps():
    # the bound that check_2d_process_properties uses: after k half-steps the
    # alternating run's saturated lines are among those after k synchronous
    # rounds, so the synchronous run ends by the stopped run's h + 2, and
    # h <= 2r - 1
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(3, 31))
        spec = GridSpec.uniform(n, 2, int(rng.integers(1, 6)))
        k = int(rng.binomial(spec.num_sites, rng.uniform(0.02, 0.5)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
        if not run_synchronous(spec, codes)[0].percolated or k == spec.num_sites:
            continue
        # both starts: the transposed seeds start with the vertical lines
        for seeds in (codes, transposed(spec, codes)[1]):
            _, trace = run_synchronous(spec, seeds)
            alt, _ = run_alternating_2d(spec, seeds, stop_rule=True)
            assert alt.percolated
            h = alt.trace.num_rounds
            assert trace.num_rounds <= h + 2 and h <= 2 * spec.r - 1
            # half-steps and generations are both numbered from 1
            alt_events = list(zip(alt.trace.line_ids, alt.trace.round_of))
            sync_events = list(zip(trace.line_ids, trace.round_of))
            for half in range(1, h + 1):
                done = {q for q, g in alt_events if g <= half}
                assert done <= {q for q, g in sync_events if g <= half}
        checked += 1
    assert checked > 100


def test_stopped_alternating_run_reaches_2r_minus_1_half_steps():
    # the bound h <= 2r - 1 is tight: after an empty first half-step, this
    # set saturates one line per half-step until the last
    spec = GridSpec.uniform(6, 2, 3)
    pts = [(1, 5), (3, 3), (3, 4), (4, 4), (5, 1), (5, 6), (6, 2), (6, 3), (6, 6)]
    codes = encode_points(spec, pts)
    state, lc = run_alternating_2d(spec, codes, stop_rule=True)
    assert state.percolated and state.trace.num_rounds == 2 * spec.r - 1
    assert lc == LineCount2D(h=(0, 1, 2), v=(1, 1))
    check_2d_process_properties(spec, codes)


def test_alternating_stop_rule_example():
    spec = GridSpec.uniform(8, 2, 3)
    state, lc = run_alternating_2d(spec, encode_points(spec, block(3, 2)))
    assert lc == LineCount2D(h=(3,), v=())
    assert state.percolated


def test_alternating_trivial():
    spec = GridSpec.uniform(8, 2, 3)
    state, lc = run_alternating_2d(spec, encode_points(spec, [(1, 1), (5, 5)]))
    assert lc == LineCount2D(h=(0,), v=())
    assert not state.percolated


def test_alternating_termination_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(120):
        spec, codes = random_instance(rng, dims=(2, 2))
        ref = new_state(spec, codes).run_rounds()
        alt, _ = run_alternating_2d(spec, codes, stop_rule=False)
        assert set(alt.infected_codes().tolist()) == set(
            ref.infected_codes().tolist()
        )


def test_alternating_requires_2d():
    with pytest.raises(InputError):
        run_alternating_2d(GridSpec.uniform(3, 3, 2), [])


def test_alternating_runs_horizontal_first():
    # one vertical line at threshold: the first half-step, horizontal, is
    # idle, and the second saturates it; on the transposed seeds it is a
    # horizontal line, which the first half-step takes
    spec = GridSpec.uniform(8, 2, 3)
    codes = encode_points(spec, [(1, 1), (1, 2), (1, 3)])
    for kernel in (InfectionState, engine.Cascade2D):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(processes, "new_state", kernel)
            state, lc = run_alternating_2d(spec, codes)
            assert lc == LineCount2D(h=(0,), v=(1,)) and not state.percolated
            assert state.trace.round_of == [2]
            state, lc = run_alternating_2d(*transposed(spec, codes))
            assert lc == LineCount2D(h=(1,), v=()) and not state.percolated
            assert state.trace.round_of == [1]


def test_classify_examples():
    assert classify_line_count(LineCount2D(h=(3,), v=()), 3) is LineCountClass.HORIZONTAL
    assert (
        classify_line_count(LineCount2D(h=(1,), v=(1, 2)), 3)
        is LineCountClass.VERTICAL
    )
    assert (
        classify_line_count(LineCount2D(h=(0,), v=()), 3)
        is LineCountClass.NO_PERCOLATION
    )
    with pytest.raises(InputError):
        classify_line_count(LineCount2D(h=(-1,), v=()), 3)


def test_classify_sum_conditions():
    # vertical: (1) sum_{i<k} v_i < r, (2) sum_{i<=k} h_i < r, (3) sum v_i >= r
    lc = LineCount2D(h=(1,), v=(1, 2))
    r = 3
    assert sum(lc.v[:-1]) < r and sum(lc.h) < r and sum(lc.v) >= r


def test_preface_and_slow():
    lc = LineCount2D(h=(1,), v=(1, 2))
    pref = preface_of(lc, 3)
    assert pref.direction is LineCountClass.VERTICAL
    assert pref.v == (1,)
    assert is_slow(pref, 1)
    assert not is_slow(pref, 0)
    assert preface_text(pref) == "h:1|v:1"

    horiz = preface_of(LineCount2D(h=(3,), v=()), 3)
    assert horiz.h == () and horiz.v == ()
    assert is_slow(horiz, 0)

    # a vertical preface with sum_{i<k} h_i = s+1 is not slow
    lc2 = LineCount2D(h=(2,), v=(1, 2))
    pref2 = preface_of(lc2, 3)
    assert not is_slow(pref2, 1)

    with pytest.raises(InputError):
        preface_of(LineCount2D(h=(0,), v=()), 3)


def test_stopped_runs_classify_uniquely():
    rng = np.random.default_rng(9)
    percolating = 0
    for _ in range(200):
        spec, codes = random_instance(rng, dims=(2, 2))
        state, lc = run_alternating_2d(spec, codes, stop_rule=True)
        cls = classify_line_count(lc, spec.r)
        if state.percolated and codes.size < spec.num_sites:
            assert cls in (LineCountClass.HORIZONTAL, LineCountClass.VERTICAL)
            percolating += 1
        elif not state.percolated:
            assert cls is LineCountClass.NO_PERCOLATION
    assert percolating > 10


class _OneLineAtATime(InfectionState):
    """Reference: saturates every run of parallel lines, from the FIFO queue
    or a generation, line by line through ``_saturate``, and records each run
    and what the per-line sinks collect."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sunk: dict[int, list[int]] = {}  # generation round -> sunk line ids
        self.runs: list[tuple] = []  # (lids, saturated, proved, sunk)

    def _saturate_run(self, axis, lids, sink):
        # the round of a ``run_rounds`` generation, whose tally the schedule
        # appends after its last run
        round_idx = self.trace.num_rounds + 1
        got = self.sunk.setdefault(round_idx, []) if sink is None else []
        done, proved, stop = len(lids), False, sink is not None
        for i, lid in enumerate(lids):
            assert lid // self.spec.lines_per_axis == axis
            # a queue run stops only when the grid fills with points; the
            # flat rule is the drain's, on the lines as they are queued
            self._saturate(lid, got)
            if stop and self.infected_total == self.spec.num_sites:
                done, proved = i + 1, True
                break
        if sink is not None:
            sink.extend(got)
        self.runs.append((list(lids), done, proved, got if stop else None))
        return done, proved


class _Recorded(InfectionState):
    """The dense kernel as is, recording each run as ``_OneLineAtATime``
    does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.runs: list[tuple] = []

    def _saturate_run(self, axis, lids, sink):
        before = len(sink) if sink is not None else 0
        done, proved = super()._saturate_run(axis, lids, sink)
        got = list(sink)[before:] if sink is not None else None
        self.runs.append((list(lids), done, proved, got))
        return done, proved


def flat_tallies(state):
    """Per free-axes mask, the full flags and full-slice counts of the
    flats; a mask whose flats are all empty reads as absent.  The planes'
    needs read as mask 0."""
    tallies = {}
    if state._flats is not None:
        tallies[0] = state._plane_need.tolist()
    for free, (_, full, slices) in (state._flats or {}).items():
        counts = [c.tolist() for c in slices if c is not None]
        if full.any() or any(map(any, counts)):
            tallies[free] = (full.tolist(), counts)
    return tallies


def _same_run(batched, reference):
    assert batched.trace == reference.trace
    assert np.array_equal(batched.line_count, reference.line_count)
    assert np.array_equal(batched.saturated, reference.saturated)
    assert batched.infected_total == reference.infected_total
    assert batched.percolated == reference.percolated
    if isinstance(batched, InfectionState):
        assert flat_tallies(batched) == flat_tallies(reference)
    if hasattr(batched, "runs") and hasattr(reference, "runs"):
        assert batched.runs == reference.runs


def _count_batches(monkeypatch):
    """Record (lines, lines saturated) for every call of the dense batch
    body, which runs of ``RUN_MIN`` or more lines reach in d >= 2."""
    calls = []
    body = InfectionState._saturate_batch

    def counted(self, axis, lids, sink):
        done, proved = body(self, axis, lids, sink)
        calls.append((int(lids.size), done))
        return done, proved

    monkeypatch.setattr(InfectionState, "_saturate_batch", counted)
    return calls


def test_batched_generations_match_one_line_at_a_time(monkeypatch):
    monkeypatch.setattr(engine, "RUN_MIN", 1)  # every run of lines in one batch
    calls = _count_batches(monkeypatch)
    rng = np.random.default_rng(47)
    for _ in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, {1: 30, 2: 16, 3: 8}[d]))
        spec = GridSpec(n, d, tuple(int(x) for x in rng.integers(1, 5, size=d)))
        k = int(rng.binomial(spec.num_sites, rng.uniform(0.05, 0.5)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)

        batched = InfectionState(spec, codes).run_rounds()
        ref = _OneLineAtATime(spec, codes).run_rounds()
        _same_run(batched, ref)
        _same_run(run_synchronous(spec, codes)[0], ref)
        # the next round is exactly what the per-line sinks collected
        rounds = {}
        for lid, g in zip(ref.trace.line_ids, ref.trace.round_of):
            rounds.setdefault(g, []).append(lid)
        for g, lids in rounds.items():
            if g > 1:
                assert sorted(ref.sunk[g - 1]) == lids
        assert not ref.sunk.get(len(rounds))

        if d == 2:
            # the dense kernel, and the 2D count kernel behind
            # ``run_alternating_2d``, against the one-line reference, from
            # both starts (the transposed seeds start vertical)
            for stop_rule in (True, False):
                for seeds in ((spec, codes), transposed(spec, codes)):
                    batched = InfectionState(*seeds).run_half_steps(stop_rule=stop_rule)
                    ref = _OneLineAtATime(*seeds).run_half_steps(stop_rule=stop_rule)
                    _same_run(batched, ref)
                    counted, lc = run_alternating_2d(*seeds, stop_rule=stop_rule)
                    with monkeypatch.context() as m:
                        m.setattr(processes, "new_state", _OneLineAtATime)
                        ref, ref_lc = run_alternating_2d(*seeds, stop_rule=stop_rule)
                    assert isinstance(ref, _OneLineAtATime)
                    _same_run(counted, ref)
                    assert lc == ref_lc
    assert sum(size > 1 for size, _ in calls) > 400


def test_sliced_batches_match_whole_batches(monkeypatch):
    # a 3D batch split into slices of one or two lines must leave the state,
    # the trace and the plane tallies exactly as the whole batch does
    monkeypatch.setattr(engine, "RUN_MIN", 1)
    calls = _count_batches(monkeypatch)
    rng = np.random.default_rng(53)
    spec = GridSpec.uniform(5, 3, 2)  # a 2 x 2 x 2 block fills whole planes
    instances = [(spec, encode_points(spec, block(2, 3)))]
    instances += [random_instance(rng, dims=(3, 3)) for _ in range(60)]
    split = 0
    for spec, codes in instances:
        rows = int(rng.integers(1, 3))
        first = len(calls)
        whole = InfectionState(spec, codes).run_rounds()
        mid = len(calls)
        with monkeypatch.context() as m:
            m.setattr(engine, "BATCH_ELEMS", rows * spec.n)
            sliced = InfectionState(spec, codes).run_rounds()
        _same_run(sliced, whole)
        split += len(calls) - mid > mid - first
    assert split > 35


def test_drain_runs_match_one_line_at_a_time(monkeypatch):
    # the FIFO queue hands the kernel runs of parallel lines; batched, cut
    # where the grid fills and sliced down to one or two lines, they must
    # leave the state, the trace, the sinks, the flats and the stop as one
    # line at a time does
    calls = _count_batches(monkeypatch)
    rng = np.random.default_rng(61)
    for it in range(480):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, {1: 30, 2: 16, 3: 9}[d]))
        thresholds = tuple(int(x) for x in rng.integers(1, 5, size=d))
        if it % 3 == 0:
            thresholds = (thresholds[0],) * d
        # a dense set can fill the grid with points in the middle of a run;
        # a last threshold above n keeps the flat rule, which the queue asks
        # before each run, from proving it first.  Half the sets have one,
        # the dense ones among them: a full plane counts the lines it will
        # saturate, so without it few queues reach a run of many lines
        dense = it % 4 == 3
        if it % 2:
            thresholds = thresholds[:-1] + (n + 1,)
        spec = GridSpec(n, d, thresholds)
        density = rng.uniform(0.8, 1.0) if dense else rng.uniform(0.02, 0.4)
        k = int(rng.binomial(spec.num_sites, density))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
        run_min = (1, 2, engine.RUN_MIN)[it % 3]
        rows = int(rng.integers(0, 3))
        with monkeypatch.context() as m:
            m.setattr(engine, "RUN_MIN", run_min)
            if rows:
                m.setattr(engine, "BATCH_ELEMS", rows * n)
            batched = _Recorded(spec, codes).run_fifo()
            _same_run(batched, _OneLineAtATime(spec, codes).run_fifo())
            # every grow prefix, the seeds in a random order
            batched, ref = _Recorded(spec, ()), _OneLineAtATime(spec, ())
            for code in rng.permutation(spec.num_sites).tolist():
                assert batched.grow([code]) == ref.grow([code])
                _same_run(batched, ref)
                if ref.percolated:
                    break
    assert sum(size > 1 for size, _ in calls) > 800
    assert sum(done < size for size, done in calls) > 12


def test_sequential_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(100):
        spec, codes = random_instance(rng)
        ref = new_state(spec, codes).run_rounds()
        seq, trace = run_sequential(spec, codes)
        assert set(seq.infected_codes().tolist()) == set(ref.infected_codes().tolist())
        trace.check()


def test_sequential_custom_order_matches_canonical():
    rng = np.random.default_rng(17)
    for _ in range(30):
        spec, codes = random_instance(rng, dims=(2, 3))
        canonical, _ = run_sequential(spec, codes)
        order = list(range(spec.num_lines))
        st_same, _ = run_sequential(spec, codes, order)
        assert set(st_same.infected_codes().tolist()) == set(
            canonical.infected_codes().tolist()
        )
        perm = rng.permutation(spec.num_lines).tolist()
        st_perm, _ = run_sequential(spec, codes, perm)
        assert set(st_perm.infected_codes().tolist()) == set(
            canonical.infected_codes().tolist()
        )


def test_sequential_rejects_bad_order():
    spec = GridSpec.uniform(3, 2, 2)
    codes = encode_points(spec, [(1, 1)])
    with pytest.raises(InputError):
        run_sequential(spec, codes, [0, 1, 2])
    # int() read 0.5 as line 0, which made this a permutation
    with pytest.raises(InputError, match="line id must be an integer"):
        run_sequential(spec, codes, [0.5, 1, 2, 3, 4, 5])
    assert run_sequential(spec, codes, np.arange(6))[1].line_ids == []


def test_schedule_invariance():
    rng = np.random.default_rng(31)
    for _ in range(120):
        spec, codes = random_instance(rng)
        base = set(new_state(spec, codes).run_rounds().infected_codes().tolist())
        sync, _ = run_synchronous(spec, codes)
        assert set(sync.infected_codes().tolist()) == base
        seq, _ = run_sequential(spec, codes)
        assert set(seq.infected_codes().tolist()) == base
        if spec.d == 2:
            alt, _ = run_alternating_2d(spec, codes, stop_rule=False)
            assert set(alt.infected_codes().tolist()) == base


# -- plane statistics -------------------------------------------------------


def test_plane_stats_trivial():
    spec = GridSpec.uniform(4, 3, 2)
    state = closure(spec, [(1, 1, 1)])
    stats = plane_statistics(spec, state)
    assert stats.n_k(1) == 0
    assert boosted_points(spec, state).sum() == 0


def test_plane_stats_single_line():
    spec = GridSpec.uniform(4, 3, 2)
    # two points on one axis-0 line saturate exactly that line
    state = closure(spec, [(1, 2, 3), (4, 2, 3)])
    assert len(state.saturated_lines()) == 1
    stats = plane_statistics(spec, state)
    assert stats.n_k(1) == 2  # the two planes containing the line
    assert stats.n_k(2) == 0
    assert boosted_points(spec, state).sum() == state.infected_total - 2


def test_plane_stats_monotone_and_bounded():
    rng = np.random.default_rng(41)
    for _ in range(40):
        spec, codes = random_instance(rng, dims=(3, 3))
        state = new_state(spec, codes).run_rounds()
        stats = plane_statistics(spec, state)
        prof = stats.n_k_profile(spec.r + 1)
        assert all(a >= b for a, b in zip(prof, prof[1:]))
        n_sat = int(state.saturated.sum())
        assert prof[0] <= min(2 * n_sat, 3 * spec.n)


def built_states(spec, codes):
    """The generations saturate batches of parallel lines at once, and the
    queue its runs, to the fixed point or to its proof."""
    return run_synchronous(spec, codes)[0], percolation_run(spec, codes)


def test_plane_stats_recount_matches_incremental():
    # all schedules must tally the planes as the line-by-line recount does
    rng = np.random.default_rng(43)
    for _ in range(40):
        spec, codes = random_instance(rng, dims=(3, 3))
        for state in built_states(spec, codes):
            fast = plane_statistics(spec, state)
            slow = plane_statistics_recount(spec, state)
            assert np.array_equal(fast.max_parallel, slow.max_parallel)


def first_line_boosted(spec, state):
    """Boosted points without a replay: each infected point that is not a
    seed is boosted for the plane normal to the earliest line through it in
    the trace."""
    t = _tables(spec)
    position = np.full(t.L, len(state.trace.line_ids))
    position[state.trace.line_ids] = np.arange(len(state.trace.line_ids))
    codes = np.setdiff1d(state.infected_codes(), state.seeds)
    axis = position[t.lids_of(codes)].argmin(axis=1)
    offset = t.digits_of(codes)[np.arange(codes.size), axis]
    boosted = np.zeros((3, spec.n), dtype=np.int64)
    np.add.at(boosted, (axis, offset), 1)
    return boosted


def test_boosted_points_match_first_line_oracle():
    # built states on every schedule, and grown states, whose covered seeds
    # are seeds all the same; every non-seed infected point is boosted once
    rng = np.random.default_rng(44)
    states = []
    for _ in range(40):
        spec, codes = random_instance(rng, dims=(3, 3))
        states += built_states(spec, codes)
    for it in range(60):
        spec, _ = random_instance(rng, dims=(3, 3))
        if it % 2:
            spec = GridSpec.uniform(6, 3, 2)
        state = InfectionState(spec, ())
        codes = rng.integers(0, spec.num_sites, size=40)
        for chunk in np.array_split(codes, int(rng.integers(1, 5))):
            if not state.percolated:
                state.grow(chunk)
        states.append(state)
    for state in states:
        spec = state.spec
        boosted = boosted_points(spec, state)
        assert np.array_equal(boosted, first_line_boosted(spec, state))
        assert boosted.sum() == state.infected_total - state.seeds.size


def test_plane_stats_requires_3d():
    # each 3D-only function refuses a 2D state in its own name
    spec = GridSpec.uniform(4, 2, 2)
    state = closure(spec, [(1, 1)])
    for fn in (plane_statistics, plane_statistics_recount, boosted_points):
        with pytest.raises(InputError, match=rf"^{fn.__name__} requires d = 3$"):
            fn(spec, state)
