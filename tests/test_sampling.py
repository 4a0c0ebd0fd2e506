import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.stats import beta

from lineperc import GridSpec, InputError, TrialSeed, critical_p_of_sample, sampling
from lineperc.engine import percolation_run
from lineperc.sampling import MAX_DRAWN_SITES, _PhiloxKey, realize_coupled, sample_codes


def test_sample_extremes():
    spec = GridSpec.uniform(6, 2, 2)
    assert sample_codes(spec, 0.0, TrialSeed(1, 0)).tolist() == []
    assert sample_codes(spec, 1.0, TrialSeed(1, 0)).tolist() == list(range(36))
    with pytest.raises(InputError):
        sample_codes(spec, 1.5, TrialSeed(1, 0))


def test_sample_size_bound(monkeypatch):
    # refused before the draw, the whole-grid ``arange`` included; the first
    # cap of ``realize_coupled``, 2 * pc_guess, is set to p
    seed = TrialSeed(1, 0)
    for spec, p in ((GridSpec.uniform(8_000_000, 2, 2), 0.1),
                    (GridSpec.uniform(MAX_DRAWN_SITES + 1, 1, 1), 1.0)):
        with pytest.raises(InputError, match="sites"):
            sample_codes(spec, p, seed)
        monkeypatch.setattr(sampling, "pc_guess", lambda spec: p / 2)
        with pytest.raises(InputError, match="sites"):
            next(realize_coupled(spec, seed))


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


def test_trial_seed_refuses_keys_outside_64_bits():
    # each number is one Philox key word: -1 would alias 2^64 - 1, and 2^64
    # would alias 0
    for master, trial in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(InputError):
            TrialSeed(master, trial)
    top = TrialSeed(2**64 - 1, 2**64 - 1).generator().integers(0, 2**32, size=4)
    assert not np.array_equal(top, TrialSeed(0, 0).generator().integers(0, 2**32, size=4))


def test_trial_seed_refuses_keys_that_are_no_integers():
    # TrialSeed(1.5, 0) keyed the stream of TrialSeed(1, 0)
    for master, trial in ((1.5, 0), (0, 2.0), ("1", 0)):
        with pytest.raises(InputError, match="must be an integer"):
            TrialSeed(master, trial)
    # numpy integers key the same stream as the ints they hold
    draws = [s.generator().random(3).tolist()
             for s in (TrialSeed(np.uint64(5), np.int64(17)), TrialSeed(5, 17))]
    assert draws[0] == draws[1]


@pytest.mark.parametrize("master, trial", [(0, 0), (5, 17), (2**63, 1),
                                           (2**64 - 1, 2**64 - 1)])
def test_trial_stream_is_philox_keyed_by_the_seed_pair(master, trial):
    # the two words are the whole key: the same state and draws as Philox
    # keyed directly
    ours = TrialSeed(master, trial).generator()
    ref = Generator(Philox(key=[master, trial]))
    # key, counter, buffer and its position; arrays compare by their repr
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    draws = [(g.integers(0, 2**40, size=3).tolist(),
              g.binomial(10**6, 0.3, size=2).tolist(), g.random(3).tolist())
             for g in (ours, ref)]
    assert draws[0] == draws[1]


def test_each_call_opens_a_fresh_stream():
    seed = TrialSeed(5, 17)
    g, h = seed.generator(), seed.generator()
    assert g is not h and g.bit_generator is not h.bit_generator
    first = g.random(4)
    g.random(100)
    assert np.array_equal(h.random(4), first)


def test_philox_key_refuses_any_other_request():
    # it holds exactly the two 64-bit key words, so any other size or type
    # of request would key a stream wrongly
    key = _PhiloxKey(5, 17)
    assert key.generate_state(2, np.uint64).tolist() == [5, 17]
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (4, np.uint64),
                           (1, np.uint64)):
        with pytest.raises(RuntimeError):
            key.generate_state(n_words, dtype)


def cumulative_caps(spec, seed):
    """Yield (cap, codes, weights) of every site realized up to each cap of
    ``realize_coupled``, sorted by weight, then code."""
    codes = np.zeros(0, dtype=np.int64)
    weights = np.zeros(0, dtype=np.float64)
    for cap, new_codes, new_weights in realize_coupled(spec, seed):
        codes = np.concatenate([codes, new_codes])
        weights = np.concatenate([weights, new_weights])
        order = np.lexsort((codes, weights))
        codes, weights = codes[order], weights[order]
        yield cap, codes, weights


def test_each_cap_yields_only_its_new_sites_in_weight_order():
    # caps start at 2 * pc_guess: 7 caps from 0.026 and 5 from 0.08; on the
    # last spec r >= n/3 at d = 1, so pc_guess is 1 and the one cap is 1.0
    for spec in (GridSpec.uniform(16, 2, 2), GridSpec.uniform(5, 3, 2),
                 GridSpec.uniform(9, 1, 3)):
        seen = set()
        cap_prev = 0.0
        for cap, codes, weights in realize_coupled(spec, TrialSeed(4, 2)):
            assert codes.dtype == np.int64 and codes.shape == weights.shape
            assert np.all(np.diff(weights) >= 0)
            ties = np.diff(weights) == 0
            assert np.all(np.diff(codes)[ties] > 0)
            assert np.all((cap_prev <= weights) & (weights <= cap))
            assert seen.isdisjoint(codes.tolist())
            assert codes.size == np.unique(codes).size
            seen.update(codes.tolist())
            cap_prev = cap
        # the caps together realize every site once
        assert cap == 1.0 and seen == set(range(spec.num_sites))


def test_coupled_realization_is_nested_and_sorted():
    spec = GridSpec.uniform(16, 2, 2)
    seed = TrialSeed(4, 2)
    prev = None
    for i, (cap, codes, weights) in enumerate(cumulative_caps(spec, seed)):
        assert np.all(np.diff(weights) >= 0)
        assert np.all(weights < cap)
        assert codes.size == np.unique(codes).size
        if prev is not None:
            assert set(prev.tolist()) <= set(codes.tolist())
        prev = codes
        if i >= 4:
            break


def test_pstar_flip_and_monotone_coupling():
    spec = GridSpec.uniform(12, 2, 2)
    for idx in range(25):
        seed = TrialSeed(123, idx)
        pc = critical_p_of_sample(spec, seed)
        assert 0 < pc.p_star <= 1
        # re-realize and verify the flip property directly
        for cap, codes, weights in cumulative_caps(spec, seed):
            if cap >= pc.p_star or cap >= 1.0:
                k = int(np.searchsorted(weights, pc.p_star, side="right"))
                assert weights[k - 1] == pc.p_star
                assert percolation_run(spec, codes[:k]).percolated
                assert not percolation_run(spec, codes[: k - 1]).percolated
                # the search hands back its cascade on exactly that prefix
                assert pc.witness.percolated
                assert np.array_equal(pc.witness.seeds, np.sort(codes[:k]))
                # monotonicity: percolation is preserved above the flip
                assert percolation_run(spec, codes).percolated
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


def _linear_scan(spec, seed):
    """Oracle: a fresh cascade on every prefix of the weight order, in turn.
    Returns the realized codes and weights up to the cap holding the first
    percolating prefix, and that prefix's length."""
    scanned = 0
    for _, codes, weights in cumulative_caps(spec, seed):
        flip = next(
            (
                k
                for k in range(scanned + 1, codes.size + 1)
                if percolation_run(spec, codes[:k]).percolated
            ),
            None,
        )
        if flip is not None:
            return codes, weights, flip
        scanned = codes.size
    raise AssertionError("the full grid always percolates")


@settings(max_examples=120, deadline=None)
@given(
    spec=small_specs(),
    master_seed=st.integers(0, 2**64 - 1),
    trial_index=st.integers(0, 2**32),
)
def test_pstar_matches_linear_scan_oracle(spec, master_seed, trial_index):
    seed = TrialSeed(master_seed, trial_index)
    pc = critical_p_of_sample(spec, seed)
    if spec.n < min(spec.thresholds):
        assert pc.degenerate and pc.p_star == 1.0
        return
    codes, weights, flip = _linear_scan(spec, seed)
    assert not pc.degenerate
    assert pc.p_star == weights[flip - 1]
    assert pc.n_realized == codes.size
    assert np.array_equal(pc.witness.seeds, np.sort(codes[:flip]))
    assert pc.witness.percolated
    pc.witness.trace.check()


def test_pstar_single_flip_along_weight_order():
    # percolation flips exactly once along the sorted weight sequence
    spec = GridSpec.uniform(8, 2, 3)
    for idx in range(8):
        seed = TrialSeed(55, idx)
        pc = critical_p_of_sample(spec, seed)
        for cap, codes, weights in cumulative_caps(spec, seed):
            if cap >= pc.p_star or cap >= 1.0:
                flags = [
                    percolation_run(spec, codes[:k]).percolated
                    for k in range(codes.size + 1)
                ]
                flip = flags.index(True)
                assert all(not f for f in flags[:flip])
                assert all(flags[flip:])
                assert weights[flip - 1] == pc.p_star
                break


def test_pstar_bit_determinism():
    spec = GridSpec.uniform(32, 2, 2)
    for idx in (0, 7):
        a = critical_p_of_sample(spec, TrialSeed(9, idx))
        b = critical_p_of_sample(spec, TrialSeed(9, idx))
        assert a == b


def test_pstar_3d_search_saturates_only_up_to_its_proof():
    # the queue counts a line in its flats when it is queued, and a plane
    # that fills counts the crossing lines it will saturate, so a search
    # stops before the runs its counted lines already prove: the 20 searches
    # saturate 47 lines in all, where counting only queued lines took 890
    # and counting each line only once it had saturated 2479; p*, the
    # realized sites and the caps stay put
    spec = GridSpec.uniform(64, 3, 2)
    digest, saturated = hashlib.sha256(), 0
    for i in range(20):
        pc = critical_p_of_sample(spec, TrialSeed(3, i))
        saturated += len(pc.witness.trace.line_ids)
        digest.update(f"{pc.p_star.hex()} {pc.n_realized} {pc.n_probes}\n".encode())
    assert saturated == 47
    assert digest.hexdigest() == (
        "c0403946637fa67959248c46345c35a2488454ca2fbb22367e6e44147941797d"
    )


def test_pstar_d1_order_statistic():
    # d=1, r=2: p* is the 2nd smallest of n uniforms ~ Beta(2, n-1)
    spec = GridSpec.uniform(100, 1, 2)
    samples = [
        critical_p_of_sample(spec, TrialSeed(31, i)).p_star for i in range(3000)
    ]
    med = float(np.median(samples))
    target = beta.ppf(0.5, 2, 99)
    assert abs(med - target) < 0.1 * target


def test_pstar_mixed_thresholds_above_n_are_not_degenerate():
    # the axis-1 threshold exceeds n, but the axis-0 lines can still
    # saturate and fill the grid
    spec = GridSpec(4, 2, (2, 5))
    seed = TrialSeed(1, 0)
    pc = critical_p_of_sample(spec, seed)
    _, weights, flip = _linear_scan(spec, seed)
    assert flip == 10 and spec.num_sites == 16
    assert not pc.degenerate
    assert pc.p_star == weights[flip - 1] == 0.37649343144715874


def test_pstar_degenerate():
    spec = GridSpec.uniform(2, 2, 3)  # n < r: cascade can never fire
    pc = critical_p_of_sample(spec, TrialSeed(0, 0))
    assert pc.degenerate and pc.p_star == 1.0
    assert pc.witness is None
