"""Acceptance suite: one test per criterion, at its stated tolerance.

Seeds, trial counts, and tolerances are pinned, so every verdict here is
reproducible bit-for-bit.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the one-line PASS/FAIL verdicts.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lineperc import (
    GridSpec,
    LineCountClass,
    certify_non_percolation,
    classify_line_count,
    gamma_of_r,
    lambda_r,
    min_percolating_size,
    naive_closure,
    run_alternating_2d,
    run_sequential,
    run_synchronous,
)
from lineperc.engine import new_state, percolation_run
from lineperc.estimator import estimate_pc, estimate_theta, fit_exponent, worker_pool
from lineperc.grid import decode_point, encode_point
from lineperc.processes import plane_statistics
from lineperc.sampling import TrialSeed, sample_codes
from lineperc.theory import check_binomial_bounds

SEED = 20250810
WORKERS = 4


@pytest.fixture(scope="module", autouse=True)
def one_pool():
    """Every estimate of the suite runs on one pool of WORKERS workers."""
    with worker_pool(WORKERS):
        yield


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    sys.stdout.flush()


def test_criterion_01_oracle_equivalence():
    """closure == naive == synchronous == alternating == sequential, 5000x."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for trial in range(5000):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        r = int(rng.integers(1, 5))
        p = float(rng.uniform(0.05, 0.6))
        spec = GridSpec.uniform(n, d, r)
        k = int(rng.binomial(spec.num_sites, p))
        codes = rng.choice(spec.num_sites, size=k, replace=False).astype(np.int64)
        base = set(new_state(spec, codes).run_rounds().infected_codes().tolist())
        pts = {decode_point(spec, int(c)) for c in codes}
        naive = {encode_point(spec, q) for q in naive_closure(spec, pts)}
        assert naive == base, f"naive mismatch at trial {trial}"
        sync, _ = run_synchronous(spec, codes)
        assert set(sync.infected_codes().tolist()) == base, trial
        seq, _ = run_sequential(spec, codes)
        assert set(seq.infected_codes().tolist()) == base, trial
        if d == 2:
            alt, _ = run_alternating_2d(spec, codes, stop_rule=False)
            assert set(alt.infected_codes().tolist()) == base, trial
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"criterion 1 runtime {dt:.1f}s exceeds 1 minute"
    verdict("criterion 1", True, f"5000 instances, exact equality, {dt:.1f}s")


def test_criterion_02_minimal_set_sizes():
    t0 = time.perf_counter()
    cases = [
        (GridSpec.uniform(3, 2, 2), 4),
        (GridSpec.uniform(4, 2, 2), 4),
        (GridSpec.uniform(4, 2, 3), 9),
        (GridSpec.uniform(3, 3, 2), 8),
        (GridSpec(4, 2, (2, 3)), 6),
    ]
    for spec, expected in cases:
        res = min_percolating_size(spec)
        assert res.min_size == expected, (spec, res.min_size, expected)
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"criterion 2 runtime {dt:.1f}s exceeds 5 minutes"
    verdict(
        "criterion 2",
        True,
        f"sizes r^d and M(2,3)=6 exact by exhaustive search, {dt:.1f}s",
    )


def test_criterion_03_polynomial_certificates():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for r, d, n in [(2, 2, 8), (3, 2, 6), (2, 3, 4)]:
        spec = GridSpec.uniform(n, d, r)
        for _ in range(1000):
            codes = rng.choice(spec.num_sites, size=r**d - 1, replace=False)
            pts = [decode_point(spec, int(c)) for c in codes]
            # certify_non_percolation verifies, in exact arithmetic, that the
            # polynomial vanishes on the full closure and that the engine
            # agrees the set does not percolate
            cert = certify_non_percolation(spec, pts)
            assert cert.percolates is False
    verdict(
        "criterion 3",
        True,
        f"3x1000 certificates vanish on closures, engine agrees, "
        f"{time.perf_counter() - t0:.1f}s",
    )


def test_criterion_04_theorem1_constant():
    lam = lambda_r(2)
    ns = [256, 512, 1024, 2048]
    devs = []
    cis = []
    for n in ns:
        est = estimate_pc(GridSpec.uniform(n, 2, 2), 4000, SEED)
        scale = n**1.5
        devs.append(abs(est.median * scale - lam))
        cis.append((est.ci_low * scale, est.ci_high * scale))
    assert devs[-1] <= 0.20 * lam, f"n=2048 deviation {devs[-1]:.4f} > 20% of lambda"
    inversions = [i for i in range(len(ns) - 1) if devs[i + 1] > devs[i]]
    assert len(inversions) <= 1, f"deviations not non-increasing: {devs}"
    for i in inversions:
        lo = max(cis[i][0], cis[i + 1][0])
        hi = min(cis[i][1], cis[i + 1][1])
        assert lo <= hi, f"inversion at n={ns[i]}->{ns[i+1]} without CI overlap"
    verdict(
        "criterion 4",
        True,
        f"median*n^1.5 devs {['%.4f' % d for d in devs]} vs lambda={lam:.4f}, "
        f"{len(inversions)} inversion(s) within CI overlap",
    )


def test_criterion_05_proposition41_levels():
    spec = GridSpec.uniform(2048, 2, 2)
    results = []
    for alpha in (0.5, 1.0, 2.0):
        p = alpha * 2048.0**-1.5
        est = estimate_theta(spec, p, 10_000, SEED)
        target = 1.0 - math.exp(-2.0 * alpha**2 / 2.0)
        assert abs(est.point_estimate - target) <= 0.08, (
            alpha,
            est.point_estimate,
            target,
        )
        results.append((alpha, est.point_estimate, target))
    verdict(
        "criterion 5",
        True,
        "; ".join(f"a={a}: {e:.4f} vs {t:.4f}" for a, e, t in results),
    )


def test_criterion_06_2d_critical_exponent():
    pts = []
    for n in [64, 128, 256, 512, 1024, 2048, 4096]:
        est = estimate_pc(GridSpec.uniform(n, 2, 2), 2500, SEED)
        pts.append((n, est.median))
    fit2 = fit_exponent(pts)
    assert abs(fit2.slope - (-1.5)) <= 0.05, fit2.slope
    pts = []
    for n in [64, 128, 256, 512, 1024]:
        est = estimate_pc(GridSpec.uniform(n, 2, 3), 2500, SEED)
        pts.append((n, est.median))
    fit3 = fit_exponent(pts)
    assert abs(fit3.slope - (-1.0 - 1.0 / 3.0)) <= 0.07, fit3.slope
    verdict(
        "criterion 6",
        True,
        f"r=2 slope {fit2.slope:.4f} (target -1.5 +-0.05); "
        f"r=3 slope {fit3.slope:.4f} (target -1.3333 +-0.07)",
    )


def test_criterion_07_3d_critical_exponent():
    pts = []
    for n in [32, 48, 64, 96, 128, 192, 256]:
        est = estimate_pc(GridSpec.uniform(n, 3, 2), 600, SEED)
        pts.append((n, est.median))
    fit2 = fit_exponent(pts)
    assert abs(fit2.slope - (-2.0)) <= 0.15, fit2.slope
    # soft check at reduced trials
    pts = []
    for n in [32, 48, 64, 96, 128]:
        est = estimate_pc(GridSpec.uniform(n, 3, 3), 300, SEED)
        pts.append((n, est.median))
    fit3 = fit_exponent(pts)
    predicted = -1.0 - 1.0 / (3.0 - float(gamma_of_r(3)))  # -11/7
    assert abs(fit3.slope - predicted) <= 0.2, fit3.slope
    verdict(
        "criterion 7",
        True,
        f"r=2 slope {fit2.slope:.4f} (target -2 +-0.15); "
        f"r=3 slope {fit3.slope:.4f} (target {predicted:.4f} +-0.2)",
    )


def test_criterion_08_regime_exponent():
    pts = []
    for n in [128, 256, 512, 1024]:
        p = float(n) ** -1.7
        est = estimate_theta(GridSpec.uniform(n, 2, 2), p, 100_000, SEED)
        pts.append((n, est.point_estimate))
    fit = fit_exponent(pts)
    assert abs(fit.slope - (-0.4)) <= 0.12, fit.slope
    verdict(
        "criterion 8", True, f"theta slope {fit.slope:.4f} (target -0.4 +-0.12)"
    )


def test_criterion_09_process_structure_properties():
    """Rounds <= 2r+1 and unique line-count class on every percolating run.

    Every 2D estimate of criteria 4-8 also asserts them on each percolating
    trial; this test exercises them directly across the
    near-critical density range.
    """
    checked = 0
    for r, n in [(2, 512), (3, 256)]:
        spec = GridSpec.uniform(n, 2, r)
        pc_scale = lambda_r(r) * float(n) ** (-1.0 - 1.0 / r)
        for factor in (0.7, 1.0, 1.4):
            p = min(1.0, factor * pc_scale)
            for i in range(400):
                codes = sample_codes(spec, p, TrialSeed(SEED + r, i))
                state = percolation_run(spec, codes)
                if not state.percolated or codes.size == spec.num_sites:
                    continue
                sync, trace = run_synchronous(spec, codes)
                assert sync.percolated
                assert trace.num_rounds <= 2 * r + 1, (r, n, p, trace.num_rounds)
                _, lc = run_alternating_2d(spec, codes, stop_rule=True)
                cls = classify_line_count(lc, r)
                assert cls in (LineCountClass.HORIZONTAL, LineCountClass.VERTICAL)
                checked += 1
    assert checked > 300
    verdict(
        "criterion 9",
        True,
        f"{checked} percolating runs: rounds <= 2r+1 and unique classification "
        "(also asserted inside every 2D estimate of criteria 4-8)",
    )


def test_criterion_10_pmf_sandwich_grid():
    failures = []
    for N in (10, 100, 1000, 10000):
        for p in (0.001, 0.01, 0.1, 0.5):
            rep = check_binomial_bounds(N, p)
            if rep["pmf_failures"]:
                failures.append((N, p, rep["pmf_failures"]))
    assert not failures, failures
    verdict(
        "criterion 10 (pmf sandwich)",
        True,
        "lower/upper pmf bounds hold for all k <= min(N, ceil(3mu)+10) on the "
        "full 4x4 grid",
    )


def test_criterion_10_chernoff_full_grid():
    """The one-sided Chernoff bounds hold on the full 4x4 grid.

    For every delta, P(X >= (1+delta)mu) <= exp(-delta^2 mu/3) and
    P(X <= (1-delta)mu) <= exp(-delta^2 mu/2), each tail summed exactly over
    k = 0..N.  The criterion demands zero failures over the full grid.
    """
    failures = []
    for N in (10, 100, 1000, 10000):
        for p in (0.001, 0.01, 0.1, 0.5):
            rep = check_binomial_bounds(N, p, deltas=(0.1, 0.3, 0.5, 0.9))
            bad = [d for d, ok in rep["chernoff_ok"].items() if not ok]
            if bad:
                failures.append((N, p, N * p, bad))
    verdict(
        "criterion 10 (Chernoff)",
        not failures,
        f"violations at (N, p, mu, deltas): {failures}" if failures else "all hold",
    )
    assert not failures, f"Chernoff tail bound violated at: {failures}"


def test_criterion_11_plane_count_containment():
    r = 2
    g = float(gamma_of_r(r))  # 1.0
    results = []
    for n in (64, 128):
        spec = GridSpec.uniform(n, 3, r)
        p = 0.2 * float(n) ** (-1.0 - 1.0 / (r - g))
        ok = 0
        for i in range(1000):
            codes = sample_codes(spec, p, TrialSeed(SEED, i))
            state = new_state(spec, codes).run_rounds()  # true termination
            stats = plane_statistics(spec, state)
            if all(
                stats.n_k(k) <= n ** (1.0 - k * g / (r - g)) for k in range(1, 4)
            ):
                ok += 1
        frac = ok / 1000
        assert frac >= 0.5, (n, frac)
        results.append((n, frac))
    verdict(
        "criterion 11",
        True,
        "; ".join(f"n={n}: N_k within bounds in {f:.1%} of runs" for n, f in results),
    )


def test_criterion_12_cli_determinism():
    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "lineperc", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ["theta", "--n", "64", "--d", "2", "--r", "2", "--p", "n^-1.5",
         "--trials", "300", "--seed", "11"],
        ["pc", "--n", "32", "--d", "2", "--r", "2", "--trials", "80",
         "--seed", "11"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "16,24,32",
         "--trials", "40", "--seed", "11", "--fit"],
    ]
    for cmd in commands:
        outs = [run(cmd + ["--threads", t]) for t in ("1", "4", "0")]
        assert outs[0] == outs[1] == outs[2], cmd
    verdict(
        "criterion 12",
        True,
        "theta/pc/sweep byte-identical across --threads {1, 4, max}",
    )
