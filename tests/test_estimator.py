import math

import numpy as np
import pytest
from scipy.stats import binom

from lineperc import (
    GridSpec,
    InputError,
    estimate_pc,
    estimate_theta,
    fit_exponent,
    wilson_interval,
)
from lineperc import estimator
from lineperc.engine import _closed, percolation_run
from lineperc.estimator import median_order_statistic_ci
from lineperc.sampling import TrialSeed, critical_p_of_sample, sample_codes
from lineperc.theory import SUPERCRITICAL, regime_of
from test_sampling import cumulative_caps


def test_theta_extremes():
    spec = GridSpec.uniform(6, 2, 2)
    assert estimate_theta(spec, 1.0, 10, 0).point_estimate == 1.0
    assert estimate_theta(spec, 0.0, 10, 0).point_estimate == 0.0
    with pytest.raises(InputError):
        estimate_theta(spec, 0.5, 0, 0)


def test_theta_whole_grid_below_threshold():
    # r > n: no line can saturate, yet p = 1 infects the whole grid, which
    # percolates; the 2D process checks must not call that a failure
    for n in (1, 2):
        spec = GridSpec.uniform(n, 2, 3)
        assert estimate_theta(spec, 1.0, 5, 0).point_estimate == 1.0


def test_theta_matches_level_formula_small():
    # r=2 at p = alpha n^{-3/2}: theta ~ 1 - exp(-alpha^2); n=512 is close
    spec = GridSpec.uniform(512, 2, 2)
    p = 512.0**-1.5
    est = estimate_theta(spec, p, 3000, 77)
    assert abs(est.point_estimate - (1 - math.exp(-1.0))) < 0.08
    assert est.ci_low <= est.point_estimate <= est.ci_high


def test_wilson_properties():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo < 1
    with pytest.raises(InputError):
        wilson_interval(5, 0)
    with pytest.raises(InputError):
        wilson_interval(7, 5)


def test_wilson_coverage_meta():
    # for a known Bernoulli(q) stream, the 95% CI covers q >= 90% of the time
    rng = np.random.default_rng(123)
    q = 0.3
    covered = 0
    reps = 400
    for _ in range(reps):
        hits = int(rng.binomial(100, q))
        lo, hi = wilson_interval(hits, 100)
        covered += int(lo <= q <= hi)
    assert covered / reps >= 0.90


def test_estimate_pc_median_and_ci():
    spec = GridSpec.uniform(32, 2, 2)
    est = estimate_pc(spec, 200, 7)
    assert est.samples[0] <= est.median <= est.samples[-1]
    assert est.ci_low <= est.median <= est.ci_high
    assert est.n_degenerate == 0
    with pytest.raises(InputError):
        estimate_pc(spec, 5, 7)


def test_estimate_pc_median_is_np_median(monkeypatch):
    # the median is read off the sorted samples by index; numpy, a test-only
    # oracle here as scipy is, must agree to the last bit: odd and even
    # counts, tied middle samples, and middle pairs whose mean rounds
    spec = GridSpec.uniform(16, 2, 2)
    for trials, seed in ((10, 3), (11, 3), (24, 8), (25, 8)):
        est = estimate_pc(spec, trials, seed)
        assert est.median.hex() == float(np.median(est.samples)).hex()
    tiny = 5e-324
    crafted = [
        [0.1, 0.2] * 6,
        [0.3] * 5 + [0.1, 0.7] * 3,
        [0.25, 0.5, 0.5, 0.5, 0.75] * 2,
        [1.0, np.nextafter(1.0, 0.0)] * 5,
        [tiny] * 10,  # subnormal: halving each middle sample would round
        [3 * tiny] * 12,
        [1 / 3, 2 / 3, 0.1, 0.7, 0.9, 1e-9, 0.3, 1e-300, 0.6, 0.4, 0.2],
    ]
    rng = np.random.default_rng(5)
    crafted += [rng.random(int(m)).tolist() for m in rng.integers(10, 40, size=20)]
    for values in crafted:
        rows = [(float(v), False) for v in values]
        monkeypatch.setattr(estimator, "run_trials", lambda *a, **k: rows)
        est = estimate_pc(spec, len(values), 1)
        assert est.median.hex() == float(np.median(values)).hex(), values


def test_estimate_pc_determinism_across_workers():
    spec = GridSpec.uniform(24, 2, 2)
    a = estimate_pc(spec, 60, 123)
    with estimator.worker_pool(4):
        b = estimate_pc(spec, 60, 123)
    assert np.array_equal(a.samples, b.samples)
    assert a.median == b.median
    ta = estimate_theta(spec, 0.01, 200, 9)
    with estimator.worker_pool(3):
        tb = estimate_theta(spec, 0.01, 200, 9)
    assert ta.successes == tb.successes


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands a pool that starts nothing in for ProcessPoolExecutor; returns
    the log of its life."""
    events = []

    class SerialPool:
        def __init__(self, max_workers):
            events.append(("start", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append("shutdown")
            return False

        def map(self, fn, payloads):
            events.append("map")
            return map(fn, payloads)

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", SerialPool)
    return events


def test_seeds_outside_64_bits_refused_before_any_trial(monkeypatch, serial_pool):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(estimator, "critical_p_of_sample", no_trial)
    monkeypatch.setattr(estimator, "sample_codes", no_trial)
    spec = GridSpec.uniform(64, 2, 2)
    with estimator.worker_pool(2):
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(InputError, match="master_seed"):
                estimate_pc(spec, 10, seed)
            with pytest.raises(InputError, match="master_seed"):
                estimate_theta(spec, 0.01, 10, seed)
    # the pool was built, which forks nothing, and given no task
    assert serial_pool == [("start", 2), "shutdown"]


def test_checked_pc_trial_opens_its_stream_once(monkeypatch):
    # the process checks reuse the search's cascade on A_{p*}
    opened = []
    generator = TrialSeed.generator

    def counted(self):
        opened.append(self.trial_index)
        return generator(self)

    monkeypatch.setattr(TrialSeed, "generator", counted)
    estimate_pc(GridSpec.uniform(24, 2, 2), 20, 5)
    assert sorted(opened) == list(range(20))


def test_estimate_pc_refuses_a_fractional_master_seed():
    # a master seed of 1.5 returned seed 1's estimate, labelled 1.5
    with pytest.raises(InputError, match="master_seed must be an integer"):
        estimate_pc(GridSpec.uniform(10, 2, 2), 20, 1.5)


def test_estimate_theta_refuses_a_fractional_trial_count():
    # 10.5 trials raised TypeError from range
    with pytest.raises(InputError, match="trials must be an integer"):
        estimate_theta(GridSpec.uniform(10, 2, 2), 0.1, 10.5, 1)


def test_process_checks_see_the_flip_prefix(monkeypatch):
    spec = GridSpec.uniform(12, 2, 2)
    seen = []
    check = estimator.check_2d_process_properties

    def recording(spec_, codes):
        seen.append(np.sort(codes))
        check(spec_, codes)

    monkeypatch.setattr(estimator, "check_2d_process_properties", recording)
    estimate_pc(spec, 25, 123)
    assert len(seen) == 25
    for idx, codes in enumerate(seen):
        seed = TrialSeed(123, idx)
        pc = critical_p_of_sample(spec, seed)
        for cap, realized, weights in cumulative_caps(spec, seed):
            if cap >= pc.p_star or cap >= 1.0:
                k = int(np.searchsorted(weights, pc.p_star, side="right"))
                assert np.array_equal(codes, np.sort(realized[:k]))
                break


@pytest.mark.parametrize(
    "spec, p, trials",
    [
        pytest.param(GridSpec(10, 2, (2, 2)), 0.1, 60, id="thresholds0"),
        pytest.param(GridSpec(10, 2, (2, 3)), 0.1, 60, id="thresholds1"),
        # theta-2d's shape: most sets are closed, so no kernel is built,
        # and the few that percolate still pass the 2D process checks
        pytest.param(GridSpec.uniform(1024, 2, 2), 1024**-1.7, 300, id="theta-2d"),
        pytest.param(GridSpec.uniform(8, 3, 2), 0.02, 60, id="3d"),
        # thresholds above n: the whole grid is closed, and percolates
        pytest.param(GridSpec(2, 3, (3, 4, 3)), 1.0, 5, id="whole-grid"),
    ],
)
def test_theta_outcomes_match_per_trial_oracle(spec, p, trials):
    est = estimate_theta(spec, p, trials, 3)
    codes = [sample_codes(spec, p, TrialSeed(3, i)) for i in range(trials)]
    oracle = tuple(bool(percolation_run(spec, c).percolated) for c in codes)
    assert est.outcomes == oracle
    assert sum(est.outcomes) == est.successes
    if p < 1:
        closed = sum(_closed(spec, c) for c in codes)
        assert closed > 0 and 0 < est.successes <= trials - closed
    else:
        assert est.successes == trials


@pytest.mark.parametrize(
    "requested, cores, pool_size",
    [(1000, 3, 3), (1000, 64, 64), (2, 64, 2), (4, 1, None), (1, 8, None)],
)
def test_workers_clamped_to_cores_and_chunks(
    monkeypatch, serial_pool, requested, cores, pool_size
):
    # the pool has min(requested, cores) workers, none if that is 1; an
    # estimate of one chunk (one trial) maps no task to it
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: cores)
    spec = GridSpec.uniform(10, 2, 2)
    with estimator.worker_pool(requested):
        one = estimate_theta(spec, 0.1, 1, 3)
        assert "map" not in serial_pool
        est = estimate_theta(spec, 0.1, 8, 3)
    assert serial_pool == (
        [] if pool_size is None else [("start", pool_size), "map", "shutdown"]
    )
    assert est.outcomes == estimate_theta(spec, 0.1, 8, 3).outcomes
    assert one.outcomes == est.outcomes[:1]


def test_worker_pool_serves_every_estimate_once_built(monkeypatch, serial_pool):
    events = serial_pool
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 8)
    spec = GridSpec.uniform(10, 2, 2)
    serial = estimate_theta(spec, 0.1, 40, 3).outcomes
    with estimator.worker_pool(4):
        # the pool is built on entry; one chunk runs here and maps nothing
        assert events == [("start", 4)]
        assert estimate_theta(spec, 0.1, 1, 3).outcomes == serial[:1]
        assert events == [("start", 4)]
        assert estimate_theta(spec, 0.1, 40, 3).outcomes == serial
        assert estimate_pc(spec, 40, 3).samples.size == 40
        assert events == [("start", 4), "map", "map"]
    assert events[-1] == "shutdown"
    with estimator.worker_pool(1):
        assert estimate_theta(spec, 0.1, 40, 3).outcomes == serial
    assert events == [("start", 4), "map", "map", "shutdown"]


def test_nested_worker_pools_restore_the_outer_pool(monkeypatch, serial_pool):
    events = serial_pool
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 8)
    spec = GridSpec.uniform(10, 2, 2)
    serial = estimate_theta(spec, 0.1, 40, 3).outcomes
    with estimator.worker_pool(4):
        outer = estimator._active.pool
        with estimator.worker_pool(1):
            assert estimator._active.pool is None
            assert estimate_theta(spec, 0.1, 40, 3).outcomes == serial
        assert estimator._active.pool is outer
        with estimator.worker_pool(2):
            assert estimate_theta(spec, 0.1, 40, 3).outcomes == serial
        assert estimator._active.pool is outer
        assert events == [("start", 4), ("start", 2), "map", "shutdown"]
        assert estimate_theta(spec, 0.1, 40, 3).outcomes == serial
    assert estimator._active.pool is None
    assert events == [("start", 4), ("start", 2), "map", "shutdown", "map",
                      "shutdown"]


def test_ecdf_matches_independent_theta():
    # P(p* <= p) = theta_p under the coupling
    spec = GridSpec.uniform(24, 2, 2)
    pc = estimate_pc(spec, 500, 21)
    p = pc.median
    th = estimate_theta(spec, p, 500, 22)
    width = (th.ci_high - th.ci_low) / 2 + 1.96 * math.sqrt(0.25 / 500)
    assert abs(pc.ecdf(p) - th.point_estimate) <= width + 0.02


def test_theta_monotone_in_p_under_shared_seeds():
    spec = GridSpec.uniform(24, 2, 2)
    ps = [0.002, 0.005, 0.01, 0.02, 0.04]
    pc = estimate_pc(spec, 300, 5)
    curve = [pc.ecdf(p) for p in ps]
    assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_median_order_statistic_ci():
    samples = np.sort(np.random.default_rng(3).random(101))
    lo, hi = median_order_statistic_ci(samples)
    med = float(np.median(samples))
    assert lo <= med <= hi


# the two quantiles of the default 95% median CI, computed as the CI does
_CI_QS = ((1.0 - 0.95) / 2, 1.0 - (1.0 - 0.95) / 2)


def test_binom_half_ppf_matches_scipy():
    # scipy's binom.ppf is the oracle for the exact order-statistic indices;
    # the integer walk must agree with the float one wherever it is cheap
    for m in range(10, 3001):
        for q in _CI_QS:
            want = int(binom.ppf(q, m, 0.5))
            assert estimator._binom_half_ppf(q, m) == want, (q, m)
            assert estimator._binom_half_ppf_exact(q, m) == want, (q, m)
    spaced = list(range(3001, estimator.MAX_TRIALS, 9973)) + [estimator.MAX_TRIALS]
    for m in spaced:
        for q in _CI_QS:
            assert estimator._binom_half_ppf(q, m) == int(binom.ppf(q, m, 0.5)), (q, m)


@pytest.mark.parametrize("m", [11, 35, 2001, 2999, 10**5 + 1])
def test_binom_half_ppf_settles_ties_exactly(m, monkeypatch):
    # at odd m, P(Bin(m, 1/2) <= (m - 1)/2) is exactly 1/2: the float cdf
    # lands within rounding of q = 0.5, so the integer walk decides.  scipy's
    # float ppf answers (m + 1)/2 at m = 35
    exact = estimator._binom_half_ppf_exact
    settled = []
    monkeypatch.setattr(
        estimator, "_binom_half_ppf_exact", lambda q, m: settled.append(m) or exact(q, m)
    )
    assert estimator._binom_half_ppf(0.5, m) == (m - 1) // 2
    assert estimator._binom_half_ppf(0.5, m + 1) == (m + 1) // 2
    assert settled == [m]


def test_binom_half_ppf_exact_walk_both_ways():
    # the smallest k with sum_{j<=k} C(m, j) >= q 2^m, by brute force
    for m in range(1, 60):
        for q in (1e-9, 0.025, 0.3, 0.5, 0.7, 0.975, 1 - 1e-9):
            a, b = q.as_integer_ratio()
            cdf = np.cumsum([math.comb(m, j) for j in range(m + 1)], dtype=object)
            want = next(k for k in range(m + 1) if cdf[k] * b >= a << m)
            assert estimator._binom_half_ppf(q, m) == want, (q, m)
            assert estimator._binom_half_ppf_exact(q, m) == want, (q, m)


def test_trials_above_the_bound_refused_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("chunks were built or a trial ran")

    monkeypatch.setattr(estimator, "_chunk_ranges", no_work)
    monkeypatch.setattr(estimator, "_chunk", no_work)
    spec = GridSpec.uniform(8, 2, 2)
    for trials in (estimator.MAX_TRIALS + 1, 10**12):
        with pytest.raises(InputError, match="trials"):
            estimate_pc(spec, trials, 1)
        with pytest.raises(InputError, match="trials"):
            estimate_theta(spec, 0.1, trials, 1)


def test_regime_of_examples():
    assert regime_of(100, 100.0**-1.7, 2) == 0
    assert regime_of(100, 100.0**-2.05, 2) == 1
    assert regime_of(100, 100.0**-1.3, 2) is SUPERCRITICAL
    with pytest.raises(InputError):
        regime_of(100, 0.0, 2)
    with pytest.raises(InputError):
        regime_of(100, 0.5, 1)


def test_fit_exponent_exact_power_law():
    pts = [(n, float(n) ** -2.0) for n in (16, 32, 64, 128)]
    fit = fit_exponent(pts)
    assert abs(fit.slope + 2.0) < 1e-12
    assert fit.stderr < 1e-12


def test_fit_exponent_validation():
    with pytest.raises(InputError):
        fit_exponent([(10, 1.0), (20, 0.5)])
    with pytest.raises(InputError):
        fit_exponent([(10, 1.0), (20, 0.5), (20, 0.4)])
    with pytest.raises(InputError):
        fit_exponent([(10, 1.0), (20, 0.5), (40, -0.2)])
