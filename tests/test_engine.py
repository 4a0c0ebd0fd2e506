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
from lineperc.engine import InfectionState, closure_from_codes, percolation_run
from lineperc.grid import decode_point, encode_point


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


def test_fifo_lifo_agreement():
    rng = np.random.default_rng(17)
    for _ in range(60):
        spec, codes = random_instance(rng)
        fifo = InfectionState(spec, None, _codes=codes).run_fifo()
        lifo = InfectionState(spec, None, _codes=codes).run_fifo(lifo=True)
        assert infected_set(fifo) == infected_set(lifo)


def test_work_bound_counter():
    # every point's infection is processed exactly once
    rng = np.random.default_rng(19)
    for _ in range(40):
        spec, codes = random_instance(rng)
        state = closure_from_codes(spec, codes)
        assert state.infected_total == len(infected_set(state))


def test_line_count_invariants():
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec, codes = random_instance(rng)
        state = closure_from_codes(spec, codes)
        mask = state.infected_mask()
        from lineperc.grid import _tables

        t = _tables(spec)
        counts = np.bincount(
            t.lids_of(np.flatnonzero(mask)).ravel(), minlength=t.L
        )
        assert np.array_equal(counts, state.line_count)
        assert np.all(counts[state.saturated] == spec.n)
        # fixed point: no unsaturated line at or above threshold
        assert not np.any((counts >= t.thr_line) & ~state.saturated)


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


def test_initial_out_of_range():
    spec = GridSpec.uniform(3, 2, 2)
    with pytest.raises(InputError):
        closure(spec, [(0, 1)])
    with pytest.raises(InputError):
        closure(spec, [(1, 4)])
