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
from lineperc.engine import InfectionState, closure_from_codes
from lineperc.grid import encode_points
from lineperc.processes import plane_statistics_recount, preface_text


def block(r, d):
    return list(itertools.product(range(1, r + 1), repeat=d))


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
    state, trace = run_synchronous(spec, block(3, 2))
    assert trace.num_rounds == 2
    assert trace.round_axis_counts[0] == (3, 3)
    assert state.infected_total == 64
    trace.check()


def test_synchronous_zero_rounds():
    spec = GridSpec.uniform(5, 2, 2)
    state, trace = run_synchronous(spec, [(1, 1), (3, 3)])
    assert trace.num_rounds == 0
    assert state.infected_points() == {(1, 1), (3, 3)}


def test_synchronous_round_bound_on_percolating_runs():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(300):
        spec, codes = random_instance(rng, dims=(2, 2))
        state, trace = run_synchronous(spec, None, _codes=codes)
        if state.percolated and codes.size < spec.num_sites:
            assert trace.num_rounds <= 2 * spec.r + 1
            checked += 1
    assert checked > 10


def test_alternating_stop_rule_example():
    spec = GridSpec.uniform(8, 2, 3)
    state, lc = run_alternating_2d(spec, block(3, 2))
    assert lc == LineCount2D(h=(3,), v=())
    assert state.percolated


def test_alternating_trivial():
    spec = GridSpec.uniform(8, 2, 3)
    state, lc = run_alternating_2d(spec, [(1, 1), (5, 5)])
    assert lc == LineCount2D(h=(0,), v=())
    assert not state.percolated


def test_alternating_termination_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(120):
        spec, codes = random_instance(rng, dims=(2, 2))
        ref = closure_from_codes(spec, codes)
        alt, _ = run_alternating_2d(spec, None, stop_rule=False, _codes=codes)
        assert set(alt.infected_codes().tolist()) == set(
            ref.infected_codes().tolist()
        )


def test_alternating_requires_2d():
    with pytest.raises(InputError):
        run_alternating_2d(GridSpec.uniform(3, 3, 2), [])


def test_alternating_start_axis():
    spec = GridSpec.uniform(8, 2, 3)
    state, lc = run_alternating_2d(spec, block(3, 2), start_axis=1)
    assert lc.start_axis == 1
    assert state.percolated
    assert lc.v == (3,) and lc.h == ()


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
        state, lc = run_alternating_2d(spec, None, stop_rule=True, _codes=codes)
        cls = classify_line_count(lc, spec.r)
        if state.percolated and codes.size < spec.num_sites:
            assert cls in (LineCountClass.HORIZONTAL, LineCountClass.VERTICAL)
            percolating += 1
        elif not state.percolated:
            assert cls is LineCountClass.NO_PERCOLATION
    assert percolating > 10


class _OneLineAtATime(InfectionState):
    """Reference: saturates each batch of parallel lines line by line through
    ``_saturate``, and records what the per-line sink collects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sunk: dict[int, list[int]] = {}  # round index -> sunk line ids

    def _saturate_parallel(self, axis, lids, round_idx, step):
        sink = self.sunk.setdefault(round_idx, [])
        for i, lid in enumerate(lids.tolist()):
            assert lid // self.spec.lines_per_axis == axis
            self._saturate(lid, round_idx, step + i, sink)


def _same_run(batched, reference):
    for name in ("line_ids", "steps", "round_of", "round_axis_counts"):
        assert getattr(batched.trace, name) == getattr(reference.trace, name), name
    assert np.array_equal(batched.line_count, reference.line_count)
    assert np.array_equal(batched.saturated, reference.saturated)
    assert batched.infected_total == reference.infected_total
    assert batched.percolated == reference.percolated
    if batched.spec.d == 3:
        assert np.array_equal(batched._paral, reference._paral)
        assert np.array_equal(batched._boosted, reference._boosted)


def test_batched_generations_match_one_line_at_a_time(monkeypatch):
    rng = np.random.default_rng(47)
    multi_line_batches = 0
    for _ in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, {1: 30, 2: 16, 3: 8}[d]))
        spec = GridSpec(n, d, tuple(int(x) for x in rng.integers(1, 5, size=d)))
        k = int(rng.binomial(spec.num_sites, rng.uniform(0.05, 0.5)))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)

        batched = InfectionState(spec, None, _codes=codes).run_rounds()
        ref = _OneLineAtATime(spec, None, _codes=codes).run_rounds()
        _same_run(batched, ref)
        _same_run(run_synchronous(spec, None, _codes=codes)[0], ref)
        # the next round is exactly what the per-line sinks collected
        rounds = {}
        for lid, g in zip(ref.trace.line_ids, ref.trace.round_of):
            rounds.setdefault(g, []).append(lid)
        for g, lids in rounds.items():
            if g > 1:
                assert sorted(ref.sunk[g - 1]) == lids
        assert not ref.sunk.get(len(rounds))
        multi_line_batches += sum(c > 1 for row in batched.trace.round_axis_counts for c in row)

        if d == 2:
            # the dense batches, and the 2D count kernel behind
            # ``run_alternating_2d``, against the one-line reference
            for stop_rule in (True, False):
                for start_axis in (0, 1):
                    kw = dict(stop_rule=stop_rule, start_axis=start_axis)
                    batched = InfectionState(spec, None, _codes=codes)
                    halves = batched.run_half_steps(**kw)
                    ref = _OneLineAtATime(spec, None, _codes=codes)
                    assert ref.run_half_steps(**kw) == halves
                    _same_run(batched, ref)
                    counted, lc = run_alternating_2d(spec, None, _codes=codes, **kw)
                    with monkeypatch.context() as m:
                        m.setattr(processes, "new_state", _OneLineAtATime)
                        ref, ref_lc = run_alternating_2d(spec, None, _codes=codes, **kw)
                    assert isinstance(ref, _OneLineAtATime)
                    _same_run(counted, ref)
                    assert lc == ref_lc
    assert multi_line_batches > 100


def test_sliced_batches_match_whole_batches(monkeypatch):
    # a batch split into slices of one or two lines must leave the state,
    # the trace and the plane tallies exactly as the whole batch does
    rng = np.random.default_rng(53)
    instances = []
    for n, d in ((12, 2), (5, 3)):  # a 2 x .. x 2 block: batches of 9 to 12 lines
        spec = GridSpec.uniform(n, d, 2)
        instances.append((spec, encode_points(spec, block(2, d))))
    instances += [random_instance(rng) for _ in range(60)]
    split = 0
    for spec, codes in instances:
        rows = int(rng.integers(1, 3))

        # the dense kernel for every d: the 2D count kernel has no batches
        def rounds():
            return InfectionState(spec, None, _codes=codes).run_rounds(), None

        def half_steps(stop_rule):
            state = InfectionState(spec, None, _codes=codes)
            return state, state.run_half_steps(stop_rule=stop_rule)

        runs = [rounds]
        if spec.d == 2:
            runs += [lambda: half_steps(True), lambda: half_steps(False)]
        for run in runs:
            whole, whole_extra = run()
            with monkeypatch.context() as m:
                m.setattr(engine, "BATCH_ELEMS", rows * spec.n)
                sliced, sliced_extra = run()
            _same_run(sliced, whole)
            assert sliced_extra == whole_extra
            split += any(c > rows for row in whole.trace.round_axis_counts for c in row)
    assert split > 20


def test_sequential_equivalence():
    rng = np.random.default_rng(13)
    for _ in range(100):
        spec, codes = random_instance(rng)
        ref = closure_from_codes(spec, codes)
        seq, trace = run_sequential(spec, None, _codes=codes)
        assert set(seq.infected_codes().tolist()) == set(ref.infected_codes().tolist())
        trace.check()


def test_sequential_custom_order_matches_canonical():
    rng = np.random.default_rng(17)
    for _ in range(30):
        spec, codes = random_instance(rng, dims=(2, 3))
        canonical, _ = run_sequential(spec, None, _codes=codes)
        order = list(range(spec.num_lines))
        st_same, _ = run_sequential(spec, None, order, _codes=codes)
        assert set(st_same.infected_codes().tolist()) == set(
            canonical.infected_codes().tolist()
        )
        perm = rng.permutation(spec.num_lines).tolist()
        st_perm, _ = run_sequential(spec, None, perm, _codes=codes)
        assert set(st_perm.infected_codes().tolist()) == set(
            canonical.infected_codes().tolist()
        )


def test_sequential_rejects_bad_order():
    spec = GridSpec.uniform(3, 2, 2)
    with pytest.raises(InputError):
        run_sequential(spec, [(1, 1)], [0, 1, 2])


def test_schedule_invariance():
    rng = np.random.default_rng(31)
    for _ in range(120):
        spec, codes = random_instance(rng)
        base = set(closure_from_codes(spec, codes).infected_codes().tolist())
        sync, _ = run_synchronous(spec, None, _codes=codes)
        assert set(sync.infected_codes().tolist()) == base
        seq, _ = run_sequential(spec, None, _codes=codes)
        assert set(seq.infected_codes().tolist()) == base
        if spec.d == 2:
            alt, _ = run_alternating_2d(spec, None, stop_rule=False, _codes=codes)
            assert set(alt.infected_codes().tolist()) == base


# -- plane statistics -------------------------------------------------------


def test_plane_stats_trivial():
    spec = GridSpec.uniform(4, 3, 2)
    state = closure(spec, [(1, 1, 1)])
    stats = plane_statistics(spec, state)
    assert stats.n_k(1) == 0
    assert stats.boosted_total() == 0


def test_plane_stats_single_line():
    spec = GridSpec.uniform(4, 3, 2)
    # two points on one axis-0 line saturate exactly that line
    state = closure(spec, [(1, 2, 3), (4, 2, 3)])
    assert len(state.saturated_lines()) == 1
    stats = plane_statistics(spec, state)
    assert stats.n_k(1) == 2  # the two planes containing the line
    assert stats.n_k(2) == 0
    assert stats.boosted_total() == state.infected_total - 2


def test_plane_stats_monotone_and_bounded():
    rng = np.random.default_rng(41)
    for _ in range(40):
        spec, codes = random_instance(rng, dims=(3, 3))
        state = closure_from_codes(spec, codes)
        stats = plane_statistics(spec, state)
        prof = stats.n_k_profile(spec.r + 1)
        assert all(a >= b for a, b in zip(prof, prof[1:]))
        n_sat = int(state.saturated.sum())
        assert prof[0] <= min(2 * n_sat, 3 * spec.n)


def test_plane_stats_recount_matches_incremental():
    # the queue saturates one line at a time, the generations a batch of
    # parallel lines at once; both must tally the planes the same way
    rng = np.random.default_rng(43)
    for _ in range(40):
        spec, codes = random_instance(rng, dims=(3, 3))
        for state in (
            closure_from_codes(spec, codes),
            run_synchronous(spec, None, _codes=codes)[0],
        ):
            fast = plane_statistics(spec, state)
            slow = plane_statistics_recount(spec, state)
            assert np.array_equal(fast.max_parallel, slow.max_parallel)
            assert np.array_equal(fast.boosted, slow.boosted)


def test_plane_stats_requires_3d():
    spec = GridSpec.uniform(4, 2, 2)
    state = closure(spec, [(1, 1)])
    with pytest.raises(InputError):
        plane_statistics(spec, state)
