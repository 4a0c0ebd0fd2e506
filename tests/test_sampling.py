import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta

from lineperc import GridSpec, InputError, TrialSeed, critical_p_of_sample, sample_initial
from lineperc.engine import percolation_run
from lineperc.sampling import realize_coupled, sample_codes


def test_sample_extremes():
    spec = GridSpec.uniform(6, 2, 2)
    assert sample_initial(spec, 0.0, TrialSeed(1, 0)) == set()
    assert len(sample_initial(spec, 1.0, TrialSeed(1, 0))) == 36
    with pytest.raises(InputError):
        sample_initial(spec, 1.5, TrialSeed(1, 0))


def test_sample_mean_matches_binomial():
    # mean |A| over many trials ~ n^d * p
    spec = GridSpec.uniform(10, 2, 2)
    trials = 100_000
    total = sum(
        sample_codes(spec, 0.1, TrialSeed(99, i)).size for i in range(trials)
    )
    assert abs(total / trials - 10.0) < 0.1  # 3 sigma is ~0.03 here


def test_sample_determinism_and_independence():
    spec = GridSpec.uniform(12, 2, 2)
    a = sample_codes(spec, 0.3, TrialSeed(5, 17))
    b = sample_codes(spec, 0.3, TrialSeed(5, 17))
    assert np.array_equal(np.sort(a), np.sort(b))
    c = sample_codes(spec, 0.3, TrialSeed(5, 18))
    assert not np.array_equal(np.sort(a), np.sort(c))


def test_coupled_realization_is_nested_and_sorted():
    spec = GridSpec.uniform(16, 2, 2)
    seed = TrialSeed(4, 2)
    prev = None
    for i, sample in enumerate(realize_coupled(spec, seed, cap0=0.01)):
        assert np.all(np.diff(sample.weights) >= 0)
        assert np.all(sample.weights < sample.cap)
        assert sample.codes.size == np.unique(sample.codes).size
        if prev is not None:
            assert set(prev.codes.tolist()) <= set(sample.codes.tolist())
        prev = sample
        if i >= 4:
            break


def test_pstar_flip_and_monotone_coupling():
    spec = GridSpec.uniform(12, 2, 2)
    for idx in range(25):
        seed = TrialSeed(123, idx)
        pc = critical_p_of_sample(spec, seed)
        assert 0 < pc.p_star <= 1
        # re-realize and verify the flip property directly
        for sample in realize_coupled(spec, seed):
            if sample.cap >= pc.p_star or sample.cap >= 1.0:
                k = int(np.searchsorted(sample.weights, pc.p_star, side="right"))
                assert sample.weights[k - 1] == pc.p_star
                assert percolation_run(spec, sample.codes[:k]).percolated
                assert not percolation_run(spec, sample.codes[: k - 1]).percolated
                # the search hands back its cascade on exactly that prefix
                assert pc.witness.percolated
                assert np.array_equal(
                    pc.witness._initial_codes, np.sort(sample.codes[:k])
                )
                # monotonicity: percolation is preserved above the flip
                assert percolation_run(spec, sample.codes).percolated
                break


@st.composite
def small_specs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 30, 2: 9, 3: 5}[d]))
    if draw(st.booleans()):
        thresholds = (draw(st.integers(1, 4)),) * d
    else:
        thresholds = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    return GridSpec(n, d, thresholds)


@settings(max_examples=120, deadline=None)
@given(
    spec=small_specs(),
    master_seed=st.integers(0, 2**64 - 1),
    trial_index=st.integers(0, 2**32),
)
def test_pstar_matches_linear_scan_oracle(spec, master_seed, trial_index):
    # oracle: a fresh cascade on every prefix of the weight order, in turn
    seed = TrialSeed(master_seed, trial_index)
    pc = critical_p_of_sample(spec, seed)
    if spec.n < max(spec.thresholds):
        assert pc.degenerate and pc.p_star == 1.0
        return
    scanned = 0
    for sample in realize_coupled(spec, seed):
        flip = next(
            (
                k
                for k in range(scanned + 1, sample.codes.size + 1)
                if percolation_run(spec, sample.codes[:k]).percolated
            ),
            None,
        )
        if flip is not None:
            break
        scanned = sample.codes.size
    assert not pc.degenerate
    assert pc.p_star == sample.weights[flip - 1]
    assert pc.n_realized == sample.codes.size
    assert np.array_equal(pc.witness._initial_codes, np.sort(sample.codes[:flip]))
    assert pc.witness.percolated
    pc.witness.trace.check()


def test_pstar_single_flip_along_weight_order():
    # percolation flips exactly once along the sorted weight sequence
    spec = GridSpec.uniform(8, 2, 3)
    for idx in range(8):
        seed = TrialSeed(55, idx)
        pc = critical_p_of_sample(spec, seed)
        for sample in realize_coupled(spec, seed):
            if sample.cap >= pc.p_star or sample.cap >= 1.0:
                flags = [
                    percolation_run(spec, sample.codes[:k]).percolated
                    for k in range(sample.codes.size + 1)
                ]
                flip = flags.index(True)
                assert all(not f for f in flags[:flip])
                assert all(flags[flip:])
                assert sample.weights[flip - 1] == pc.p_star
                break


def test_pstar_bit_determinism():
    spec = GridSpec.uniform(32, 2, 2)
    for idx in (0, 7):
        a = critical_p_of_sample(spec, TrialSeed(9, idx))
        b = critical_p_of_sample(spec, TrialSeed(9, idx))
        assert a == b


def test_pstar_d1_order_statistic():
    # d=1, r=2: p* is the 2nd smallest of n uniforms ~ Beta(2, n-1)
    spec = GridSpec.uniform(100, 1, 2)
    samples = [
        critical_p_of_sample(spec, TrialSeed(31, i)).p_star for i in range(3000)
    ]
    med = float(np.median(samples))
    target = beta.ppf(0.5, 2, 99)
    assert abs(med - target) < 0.1 * target


def test_pstar_degenerate():
    spec = GridSpec.uniform(2, 2, 3)  # n < r: cascade can never fire
    pc = critical_p_of_sample(spec, TrialSeed(0, 0))
    assert pc.degenerate and pc.p_star == 1.0
    assert pc.witness is None
