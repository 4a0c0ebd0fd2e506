"""The 2D count kernel (``Cascade2D``) against the dense ``InfectionState``.

Every schedule, every ``grow`` prefix and the p* search must give the same
trace, counters, queries and line-count on both kernels.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineperc import GridSpec, processes, sampling
from lineperc.engine import Cascade2D, InfectionState, new_state
from lineperc.processes import run_alternating_2d
from lineperc.sampling import TrialSeed, critical_p_of_sample
from test_processes import transposed


def assert_same(fast, dense):
    assert isinstance(fast, Cascade2D) and type(dense) is InfectionState
    assert fast.trace == dense.trace
    assert np.array_equal(fast.saturated, dense.saturated)
    assert np.array_equal(fast.line_count, dense.line_count)
    assert fast.infected_total == dense.infected_total
    assert fast.percolated == dense.percolated
    assert np.array_equal(fast._ready_lines(), dense._ready_lines())
    assert np.array_equal(fast.seeds, dense.seeds)


@st.composite
def instances(draw):
    """A 2D spec with thresholds in [1, n + 2] and a seed list in grow order:
    empty, the whole grid, or any distinct codes."""
    n = draw(st.integers(1, 9))
    spec = GridSpec(n, 2, (draw(st.integers(1, n + 2)), draw(st.integers(1, n + 2))))
    codes = draw(
        st.one_of(
            st.just([]),
            st.permutations(range(n * n)),
            st.lists(st.integers(0, n * n - 1), max_size=n * n, unique=True),
        )
    )
    return spec, np.asarray(codes, dtype=np.int64)


def bernoulli_seeds(spec, p, seed):
    """A Bernoulli(p) seed set of ``spec``, in a random grow order."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.flatnonzero(rng.random(spec.num_sites) < p)).tolist()


# mid-size grids, past the n <= 9 of ``instances``, dense enough that sink
# lookups with k > 0 run on both axes
MID_SIZE = [
    (spec, bernoulli_seeds(spec, p, seed))
    for spec, p, seed in [
        (GridSpec(48, 2, (4, 7)), 0.04, 1),
        (GridSpec(64, 2, (4, 7)), 0.025, 2),
        (GridSpec(56, 2, (2, 40)), 0.02, 3),
        (GridSpec(64, 2, (2, 40)), 0.03, 4),
        (GridSpec(64, 2, (7, 4)), 0.02, 7),
    ]
]

EXAMPLES = [
    (GridSpec(6, 2, (1, 1)), [7]),  # threshold 1: one seed fills the grid
    (GridSpec(4, 2, (5, 6)), list(range(16))),  # thresholds above n, whole grid
    (GridSpec(5, 2, (2, 3)), []),  # the empty set
    (GridSpec(5, 2, (2, 3)), [0, 1, 5, 6, 10, 11]),  # the [r_h] x [r_v] block
    (GridSpec(8, 2, (3, 3)), [0, 9, 18, 27, 1, 10]),
    *MID_SIZE,
]


def with_examples(test):
    for spec, codes in EXAMPLES:
        test = example((spec, np.asarray(codes, dtype=np.int64)))(test)
    return test


@settings(max_examples=300, deadline=None)
@with_examples
@given(instances())
def test_queue_rounds_and_scans_match_dense(instance):
    spec, codes = instance
    order = np.random.default_rng(codes.size).permutation(spec.num_lines).tolist()
    schedules = [
        lambda s: s.run_fifo(),
        lambda s: s.run_rounds(),
        lambda s: s.run_sequential(),
        lambda s: s.run_sequential(order),
    ]
    for run in schedules:
        fast = Cascade2D(spec, codes)
        dense = InfectionState(spec, codes)
        run(fast)
        run(dense)
        assert_same(fast, dense)
        assert fast.infected_points() == dense.infected_points()


@settings(max_examples=300, deadline=None)
@with_examples
@given(instances())
def test_half_steps_and_line_count_match_dense(instance):
    # both starts: the transposed seeds start vertical
    for stop_rule in (True, False):
        for seeds in (instance, transposed(*instance)):
            fast, lc = run_alternating_2d(*seeds, stop_rule=stop_rule)
            with mock.patch.object(processes, "new_state", InfectionState):
                dense, dense_lc = run_alternating_2d(*seeds, stop_rule=stop_rule)
            assert_same(fast, dense)
            assert lc == dense_lc


@settings(max_examples=300, deadline=None)
@with_examples
@given(instances())
def test_every_grow_prefix_matches_dense(instance):
    spec, codes = instance
    fast = Cascade2D(spec, ())
    dense = InfectionState(spec, ())
    for code in codes.tolist():
        assert fast.grow([code]) == dense.grow([code])
        assert_same(fast, dense)
        if fast.percolated:
            break


def test_unsorted_codes_with_repeats_match_dense():
    # ``instances`` draws distinct codes only; a repeat is one seed, counted
    # once on each of its two lines
    for spec, codes in ((GridSpec.uniform(4, 2, 2), [7, 3, 7, 0]),
                        (GridSpec(5, 2, (2, 3)), [24, 6, 1, 6, 24, 11, 1])):
        fast, dense = Cascade2D(spec, codes), InfectionState(spec, codes)
        assert np.array_equal(fast.seeds, np.unique(codes))
        assert_same(fast, dense)
        assert fast._ready_lines().size  # a line holds two of the distinct seeds
        assert_same(fast.run_fifo(), dense.run_fifo())


def test_new_state_picks_the_kernel_from_d():
    assert type(new_state(GridSpec.uniform(4, 2, 2), ())) is Cascade2D
    for d in (1, 3):
        assert type(new_state(GridSpec.uniform(4, d, 2), ())) is InfectionState


def test_critical_p_matches_dense_kernel():
    # p*, the realized sites and the witness cascade, trial by trial
    cases = [
        ((40, (1, 1)), 150),
        ((64, (2, 2)), 300),
        ((64, (3, 3)), 250),
        ((48, (4, 4)), 150),
        ((64, (2, 3)), 100),
        ((48, (4, 1)), 100),
        ((48, (4, 7)), 40),
        ((64, (2, 40)), 40),
    ]
    trials = 0
    for (n, thresholds), count in cases:
        spec = GridSpec(n, 2, thresholds)
        for i in range(count):
            seed = TrialSeed(2024, i)
            fast = critical_p_of_sample(spec, seed)
            with mock.patch.object(sampling, "new_state", InfectionState):
                dense = critical_p_of_sample(spec, seed)
            assert fast.p_star == dense.p_star
            assert fast.n_realized == dense.n_realized
            assert fast.n_probes == dense.n_probes
            assert_same(fast.witness, dense.witness)
            trials += 1
    assert trials >= 1000


def test_mid_size_examples_run_sink_lookups_on_both_axes():
    # saturating an axis-a line looks up the axis-b lines at threshold with
    # k = thr[b] - C[a] > 0 while C[a] stays below thr[b]
    lookups, sinking = [0, 0], 0
    for spec, codes in MID_SIZE:
        state = Cascade2D(spec, codes)
        ready = state._ready_lines().size
        state.run_fifo()
        C = [0, 0]
        for lid in state.trace.line_ids:
            a = lid // spec.n
            C[a] += 1
            lookups[a] += C[a] < spec.thresholds[1 - a]
        # only a lookup sinks a line, and every sunk line is queued, though
        # the queue may prove the grid before it saturates
        sinking += sum(state._queued) > ready
    # thresholds (4, 7) allow 6 lookups on axis 0 and 3 on axis 1 per run,
    # and (7, 4) the reverse
    assert lookups[0] >= 12 and lookups[1] >= 6 and sinking >= 3, (lookups, sinking)
