import itertools

import numpy as np
import pytest

from lineperc import (
    GridSpec,
    InputError,
    closure,
    naive_closure,
    percolates,
)
from lineperc.engine import (
    InfectionState,
    closure_from_codes,
    new_state,
    percolation_run,
)
from lineperc.grid import _tables, decode_line, decode_point, encode_point, points_on
from lineperc.processes import run_alternating_2d, run_sequential, run_synchronous


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
    assert state.pending == []


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


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(7)
    for _ in range(150):
        spec, codes = random_instance(rng)
        state = closure_from_codes(spec, codes)
        pts = {decode_point(spec, int(c)) for c in codes}
        assert state.infected_points() == naive_closure(spec, pts)
        assert state.percolated == (state.infected_total == spec.num_sites)


def test_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(60):
        spec, codes = random_instance(rng)
        if codes.size == 0:
            continue
        sub = codes[rng.random(codes.size) < 0.6]
        small = infected_set(closure_from_codes(spec, sub))
        big = infected_set(closure_from_codes(spec, codes))
        assert small <= big


def test_idempotence():
    rng = np.random.default_rng(13)
    for _ in range(40):
        spec, codes = random_instance(rng)
        once = closure_from_codes(spec, codes)
        twice = closure_from_codes(spec, once.infected_codes())
        assert infected_set(once) == infected_set(twice)


def test_sequential_order_agreement():
    # the closure does not depend on the order lines saturate in: the
    # sequential scan in random orders, on both kernels, ends where FIFO does
    rng = np.random.default_rng(17)
    for _ in range(60):
        spec, codes = random_instance(rng)
        fifo = infected_set(closure_from_codes(spec, codes))
        for kernel in (new_state, InfectionState):
            for _ in range(3):
                order = rng.permutation(spec.num_lines).tolist()
                seq = kernel(spec, None, _codes=codes).run_sequential(order)
                assert infected_set(seq) == fifo


def reference_scan(spec, codes, order):
    """The sequential scan on an explicit point set, with no engine code.

    Pass after pass over ``order``, each inspection recounts the inspected
    line's infected points and saturates the line iff the count reaches its
    threshold; the scan ends after a pass that changes nothing.  Returns the
    trace lists ``line_ids``, ``steps``, ``round_of``, ``round_axis_counts``.
    """
    lines = [points_on(spec, decode_line(spec, lid)) for lid in range(spec.num_lines)]
    infected = {decode_point(spec, int(c)) for c in codes}
    saturated = set()
    line_ids, steps, round_of = [], [], []
    for scan in itertools.count():
        changed = False
        for pos, lid in enumerate(order):
            if lid in saturated:
                continue
            axis = lid // spec.lines_per_axis
            if sum(p in infected for p in lines[lid]) >= spec.thresholds[axis]:
                saturated.add(lid)
                infected.update(lines[lid])
                line_ids.append(lid)
                steps.append(scan * spec.num_lines + pos)
                round_of.append(scan)
                changed = True
        if not changed:
            break
    per_axis = [0] * spec.d
    for lid in line_ids:
        per_axis[lid // spec.lines_per_axis] += 1
    return line_ids, steps, round_of, [tuple(per_axis)] if line_ids else []


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
                state = kernel(spec, None, _codes=codes).run_sequential(order)
                tr = state.trace
                got = (tr.line_ids, tr.steps, tr.round_of, tr.round_axis_counts)
                assert got == expected, (spec, codes.tolist(), order)
                kernels_seen.add(type(state).__name__)
            multi_pass += max(expected[2], default=0) > 0
    assert kernels_seen == {"Cascade2D", "InfectionState"}
    assert multi_pass > 30


def test_work_bound_counter():
    # every point's infection is processed exactly once
    rng = np.random.default_rng(19)
    for _ in range(40):
        spec, codes = random_instance(rng)
        state = closure_from_codes(spec, codes)
        assert state.infected_total == len(infected_set(state))


def test_line_count_invariants():
    # every schedule's counters count infected points exactly: the FIFO
    # queue's ``== threshold`` readiness, the batched generations and the
    # sequential scan alike
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec, codes = random_instance(rng)
        states = [
            closure_from_codes(spec, codes),
            run_synchronous(spec, None, _codes=codes)[0],
            run_sequential(spec, None, _codes=codes)[0],
        ]
        if spec.d == 2:
            alt, _ = run_alternating_2d(spec, None, stop_rule=False, _codes=codes)
            states.append(alt)
        t = _tables(spec)
        for state in states:
            mask = state.infected_mask()
            counts = np.bincount(
                t.lids_of(np.flatnonzero(mask)).ravel(), minlength=t.L
            )
            assert np.array_equal(counts, state.line_count)
            assert np.all(counts[state.saturated] == spec.n)
            # fixed point: no unsaturated line at or above threshold
            assert not np.any((counts >= t.thr_line) & ~state.saturated)
            assert state.infected_total == int(mask.sum())


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
    assert state.explicit_infected == set()
    frozen = closure(spec, [(1, 1), (2, 2)])
    assert frozen.explicit_infected == {(1, 1), (2, 2)}


def test_grown_state_matches_fresh_cascade():
    # below the flip, a state grown seed by seed sits at the fixed point of
    # its prefix: every query agrees with a cascade built from that prefix
    rng = np.random.default_rng(29)
    flips = 0
    for _ in range(40):
        spec, codes = random_instance(rng, n_hi=6)
        state = InfectionState(spec, ())
        for k, code in enumerate(codes.tolist(), start=1):
            proved = state.grow(code)
            assert state.percolated == proved
            state.trace.check()
            if proved:
                flips += 1
                assert percolation_run(spec, codes[:k]).percolated
                assert not percolation_run(spec, codes[: k - 1]).percolated
                assert np.array_equal(state._initial_codes, np.sort(codes[:k]))
                break
            fresh = closure_from_codes(spec, codes[:k])
            assert not fresh.percolated and state.pending == []
            assert np.array_equal(state.saturated, fresh.saturated)
            assert np.array_equal(state.line_count, fresh.line_count)
            assert state.infected_total == fresh.infected_total
            assert np.array_equal(state.infected_mask(), fresh.infected_mask())
            assert state.explicit_infected == fresh.explicit_infected
            assert np.array_equal(state._initial_codes, fresh._initial_codes)
            pts = {decode_point(spec, int(c)) for c in codes[:k]}
            assert state.infected_points() == naive_closure(spec, pts)
            assert all(state.is_infected(p) for p in pts)
    assert flips >= 10


def test_grow_proves_whole_grid_below_threshold():
    # no line can saturate, so only the last seed, which fills the grid,
    # makes the grown state percolate
    for spec in (GridSpec(3, 1, (4,)), GridSpec(2, 2, (3, 5)), GridSpec(2, 3, (3, 3, 3))):
        for kernel in (new_state, InfectionState):
            state = kernel(spec, ())
            grown = [state.grow(code) for code in range(spec.num_sites)]
            assert grown == [False] * (spec.num_sites - 1) + [True]
            assert state.trace.line_ids == []


def test_grow_rejects_bad_codes_and_ignores_repeats():
    spec = GridSpec.uniform(4, 2, 2)
    state = InfectionState(spec, ())
    with pytest.raises(InputError):
        state.grow(16)
    assert state.grow(0) is False
    assert state.grow(0) is False
    assert state.infected_total == 1 and state._initial_codes.tolist() == [0]


def test_initial_out_of_range():
    spec = GridSpec.uniform(3, 2, 2)
    with pytest.raises(InputError):
        closure(spec, [(0, 1)])
    with pytest.raises(InputError):
        closure(spec, [(1, 4)])
