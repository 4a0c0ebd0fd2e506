"""Monte Carlo estimation of theta_p and p_c, and scaling-exponent fits.

Trials fan out over a process pool when ``workers`` > 1; each trial is a pure
function of (master_seed, trial_index), and aggregation is positional, so
results are bit-identical for every worker count.

p_c is estimated as the median of the coupled per-sample p* values: under the
coupling P(p* <= p) equals theta_p exactly, so one cascade pipeline per trial
yields the whole curve.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom as _binom

from .engine import percolation_run
from .grid import GridSpec, InputError
from .processes import LineCountClass, classify_line_count, run_alternating_2d
from .sampling import TrialSeed, critical_p_of_sample, sample_codes
from .theory import SUPERCRITICAL, regime_of  # re-exported; formulas live in theory

__all__ = [
    "ThetaEstimate",
    "PcEstimate",
    "SlopeFit",
    "estimate_theta",
    "estimate_pc",
    "fit_exponent",
    "wilson_interval",
    "regime_of",
    "SUPERCRITICAL",
]

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if successes < 0 or successes > trials:
        raise InputError(f"successes {successes} out of range [0, {trials}]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class ThetaEstimate:
    spec: GridSpec
    p: float
    trials: int
    master_seed: int
    successes: int
    point_estimate: float
    ci_low: float
    ci_high: float
    wall_seconds: float
    outcomes: tuple[bool, ...] = field(repr=False)  # per trial, in trial order

    def to_json_dict(self) -> dict:
        # wall_seconds deliberately excluded: outputs must be byte-stable
        return {
            "n": self.spec.n,
            "d": self.spec.d,
            "thresholds": list(self.spec.thresholds),
            "p": self.p,
            "trials": self.trials,
            "seed": self.master_seed,
            "successes": self.successes,
            "theta": self.point_estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


@dataclass(frozen=True)
class PcEstimate:
    spec: GridSpec
    trials: int
    master_seed: int
    samples: np.ndarray  # sorted p* values
    median: float
    ci_low: float
    ci_high: float
    n_degenerate: int
    wall_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "d": self.spec.d,
            "thresholds": list(self.spec.thresholds),
            "trials": self.trials,
            "seed": self.master_seed,
            "median_pc": self.median,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "n_degenerate": self.n_degenerate,
        }

    def ecdf(self, p: float) -> float:
        """Empirical P(p* <= p); estimates theta_p under the coupling."""
        return float(np.searchsorted(self.samples, p, side="right")) / self.trials


@dataclass(frozen=True)
class SlopeFit:
    points: tuple[tuple[float, float], ...]  # (log n, log value)
    slope: float
    intercept: float
    stderr: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "points": [list(pt) for pt in self.points],
        }


# ---------------------------------------------------------------------------
# per-trial workers (top level for pickling)
# ---------------------------------------------------------------------------


def _theta_chunk(args) -> list[bool]:
    spec, p, master_seed, lo, hi, checks = args
    out = []
    for i in range(lo, hi):
        codes = sample_codes(spec, p, TrialSeed(master_seed, i))
        state = percolation_run(spec, codes)
        if state.percolated and checks and spec.d == 2 and spec.is_uniform:
            check_2d_process_properties(spec, codes, state)
        out.append(bool(state.percolated))
    return out


def _pc_chunk(args) -> list[tuple[float, bool]]:
    spec, master_seed, lo, hi, checks = args
    out = []
    for i in range(lo, hi):
        pc = critical_p_of_sample(spec, TrialSeed(master_seed, i))
        if checks and not pc.degenerate and spec.d == 2 and spec.is_uniform:
            # the checks read FIFO generations, which a grown state lacks
            codes = pc.witness._initial_codes
            state = percolation_run(spec, codes)
            assert state.percolated
            check_2d_process_properties(spec, codes, state)
        out.append((pc.p_star, pc.degenerate))
    return out


def _run_chunks(fn, payloads, workers: int):
    # a pool forks all its workers at the first submit, so never ask for
    # more than there are cores or chunks to run
    workers = min(workers, os.cpu_count() or 1, len(payloads))
    if workers <= 1:
        results = [fn(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, payloads))
    out = []
    for r in results:
        out.extend(r)
    return out


def _chunk_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    # fixed-size chunks independent of the worker count keep the fan-out
    # deterministic and the per-task overhead amortized
    chunk = max(1, min(256, (trials + 31) // 32))
    return [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


# ---------------------------------------------------------------------------
# process-structure assertions (d = 2, uniform threshold)
# ---------------------------------------------------------------------------


def check_2d_process_properties(spec: GridSpec, codes, state) -> None:
    """Invariant checks on a percolating 2D run.

    The synchronous process needs at most 2r+1 rounds when percolation
    occurs: once one axis holds enough parallel saturated lines (round g of
    the early-stopped run), every perpendicular line saturates by round g+1
    and the rest by round g+2.  If the cheap bound is inconclusive the exact
    synchronous run decides.  The stopped alternating run must classify as
    exactly one of horizontal/vertical line-count.  A seed set that is the
    whole grid percolates with no line saturated when r > n, and the process
    statements are about the other sets, so it is not checked.
    """
    r = spec.r
    if len(codes) == spec.num_sites:
        return
    if state.trace.round_of:
        rounds_bound = state.trace.round_of[-1] + 2
        if rounds_bound > 2 * r + 1:
            from .processes import run_synchronous

            _, trace = run_synchronous(spec, None, _codes=codes)
            assert trace.num_rounds <= 2 * r + 1, (
                f"synchronous rounds {trace.num_rounds} > {2 * r + 1}"
            )
    _, lc = run_alternating_2d(spec, None, stop_rule=True, _codes=codes)
    cls = classify_line_count(lc, r)
    assert cls in (LineCountClass.HORIZONTAL, LineCountClass.VERTICAL), (
        f"percolating run classified {cls} with line-count {lc}"
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_theta(
    spec: GridSpec,
    p: float,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    process_checks: bool = True,
) -> ThetaEstimate:
    """Fraction of percolating Bernoulli(p) trials with a Wilson 95% CI."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    t0 = time.perf_counter()
    payloads = [
        (spec, p, master_seed, lo, hi, process_checks)
        for lo, hi in _chunk_ranges(trials, workers)
    ]
    flags = _run_chunks(_theta_chunk, payloads, workers)
    successes = sum(flags)
    lo, hi = wilson_interval(successes, trials)
    return ThetaEstimate(
        spec=spec,
        p=p,
        trials=trials,
        master_seed=master_seed,
        successes=successes,
        point_estimate=successes / trials,
        ci_low=lo,
        ci_high=hi,
        wall_seconds=time.perf_counter() - t0,
        outcomes=tuple(flags),
    )


def median_order_statistic_ci(
    sorted_samples: np.ndarray, level: float = 0.95
) -> tuple[float, float]:
    """Distribution-free CI for the median from binomial order statistics."""
    m = len(sorted_samples)
    alpha = 1.0 - level
    lo_idx = int(_binom.ppf(alpha / 2, m, 0.5))
    hi_idx = int(_binom.ppf(1.0 - alpha / 2, m, 0.5))
    lo_idx = max(0, min(m - 1, lo_idx))
    hi_idx = max(0, min(m - 1, hi_idx))
    return float(sorted_samples[lo_idx]), float(sorted_samples[hi_idx])


def estimate_pc(
    spec: GridSpec,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    process_checks: bool = True,
) -> PcEstimate:
    """Median of the coupled per-sample p* values, with an order-statistic CI."""
    if trials < 10:
        raise InputError(f"need at least 10 trials, got {trials}")
    t0 = time.perf_counter()
    payloads = [
        (spec, master_seed, lo, hi, process_checks)
        for lo, hi in _chunk_ranges(trials, workers)
    ]
    rows = _run_chunks(_pc_chunk, payloads, workers)
    samples = np.sort(np.array([p for p, _ in rows], dtype=np.float64))
    ci_low, ci_high = median_order_statistic_ci(samples)
    return PcEstimate(
        spec=spec,
        trials=trials,
        master_seed=master_seed,
        samples=samples,
        median=float(np.median(samples)),
        ci_low=ci_low,
        ci_high=ci_high,
        n_degenerate=sum(1 for _, dg in rows if dg),
        wall_seconds=time.perf_counter() - t0,
    )


def fit_exponent(estimates: list[tuple[float, float]]) -> SlopeFit:
    """Unweighted least squares of log(value) on log(n)."""
    if len(estimates) < 3:
        raise InputError(f"need at least 3 points, got {len(estimates)}")
    ns = [n for n, _ in estimates]
    if len(set(ns)) < 3:
        raise InputError("need at least 3 distinct n values")
    if any(v <= 0 for _, v in estimates):
        raise InputError("all values must be positive for a log-log fit")
    x = np.log([n for n, _ in estimates])
    y = np.log([v for _, v in estimates])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    m = len(x)
    if m > 2:
        stderr = float(math.sqrt(float((resid**2).sum()) / (m - 2) / sxx))
    else:
        stderr = 0.0
    return SlopeFit(
        points=tuple(zip(x.tolist(), y.tolist())),
        slope=slope,
        intercept=intercept,
        stderr=stderr,
    )
