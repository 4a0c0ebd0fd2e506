import math

import numpy as np
import pytest

from lineperc import (
    SUPERCRITICAL,
    GridSpec,
    InputError,
    estimate_pc,
    estimate_theta,
    fit_exponent,
    regime_of,
    wilson_interval,
)
from lineperc import estimator
from lineperc.engine import percolation_run
from lineperc.estimator import median_order_statistic_ci
from lineperc.sampling import (
    TrialSeed,
    critical_p_of_sample,
    realize_coupled,
    sample_codes,
)


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


def test_estimate_pc_determinism_across_workers():
    spec = GridSpec.uniform(24, 2, 2)
    a = estimate_pc(spec, 60, 123, workers=1)
    b = estimate_pc(spec, 60, 123, workers=4)
    assert np.array_equal(a.samples, b.samples)
    assert a.median == b.median
    ta = estimate_theta(spec, 0.01, 200, 9, workers=1)
    tb = estimate_theta(spec, 0.01, 200, 9, workers=3)
    assert ta.successes == tb.successes


def test_checked_pc_trial_opens_its_stream_once(monkeypatch):
    # the process checks reuse the search's cascade on A_{p*}
    opened = []
    generator = TrialSeed.generator

    def counted(self):
        opened.append(self.trial_index)
        return generator(self)

    monkeypatch.setattr(TrialSeed, "generator", counted)
    estimate_pc(GridSpec.uniform(24, 2, 2), 20, 5, workers=1, process_checks=True)
    assert sorted(opened) == list(range(20))


def test_process_checks_see_the_flip_prefix(monkeypatch):
    spec = GridSpec.uniform(12, 2, 2)
    seen = []
    check = estimator.check_2d_process_properties

    def recording(spec_, codes, state):
        seen.append(np.sort(codes))
        check(spec_, codes, state)

    monkeypatch.setattr(estimator, "check_2d_process_properties", recording)
    estimate_pc(spec, 25, 123, workers=1)
    assert len(seen) == 25
    for idx, codes in enumerate(seen):
        seed = TrialSeed(123, idx)
        pc = critical_p_of_sample(spec, seed)
        for sample in realize_coupled(spec, seed):
            if sample.cap >= pc.p_star or sample.cap >= 1.0:
                k = int(np.searchsorted(sample.weights, pc.p_star, side="right"))
                assert np.array_equal(codes, np.sort(sample.codes[:k]))
                break


@pytest.mark.parametrize("thresholds", [(2, 2), (2, 3)])
def test_theta_outcomes_match_per_trial_oracle(thresholds):
    spec = GridSpec(10, 2, thresholds)
    est = estimate_theta(spec, 0.1, 60, 3)
    oracle = tuple(
        bool(percolation_run(spec, sample_codes(spec, 0.1, TrialSeed(3, i))).percolated)
        for i in range(60)
    )
    assert 0 < est.successes < 60
    assert est.outcomes == oracle
    assert sum(est.outcomes) == est.successes


@pytest.mark.parametrize(
    "requested, cores, pool_size",
    [(1000, 3, 3), (1000, 64, 8), (2, 64, 2), (4, 1, None), (1, 8, None)],
)
def test_workers_clamped_to_cores_and_chunks(monkeypatch, requested, cores, pool_size):
    # 8 trials make 8 chunks; a clamp to 1 worker runs serially, with no pool
    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: cores)
    spec = GridSpec.uniform(10, 2, 2)
    est = estimate_theta(spec, 0.1, 8, 3, workers=requested)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert est.outcomes == estimate_theta(spec, 0.1, 8, 3, workers=1).outcomes


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
