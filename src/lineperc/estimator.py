"""Monte Carlo estimation of theta_p and p_c, and scaling-exponent fits.

Every estimate is one ``run_trials`` call: trial i is a pure function of
(master_seed, i), and aggregation is positional, so results are
bit-identical for every worker count.  Inside a ``with worker_pool(workers):``
block every estimate runs on one pool of min(workers, cores) processes,
joined when the block ends; the CLI runs each command in one such block.
Outside a block, and for an estimate of one chunk, trials run serially here.

p_c is estimated as the median of the coupled per-sample p* values: under the
coupling P(p* <= p) equals theta_p exactly, so one cascade pipeline per trial
yields the whole curve.

A theta trial builds a kernel only for a seed set that is not closed (see
``engine``); below p_c, most sets are closed.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from .engine import _closed, percolation_run
from .grid import GridSpec, InputError, as_int
from .processes import LineCountClass, classify_line_count, run_alternating_2d
from .sampling import TrialSeed, critical_p_of_sample, sample_codes

_Z95 = 1.959963984540054

# run_trials keeps one result per trial and builds every chunk payload up
# front, so the trial count bounds its memory: a million pc trials hold about
# 100 MB of results
MAX_TRIALS = 1_000_000


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if successes < 0 or successes > trials:
        raise InputError(f"successes {successes} out of range [0, {trials}]")
    z = _Z95
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
        # wall_seconds deliberately excluded: outputs must be byte-stable;
        # the spec (n, d, thresholds) heads the CLI's record already
        return {
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
        # the spec heads the CLI's record, as for ``ThetaEstimate``
        return {
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
    slope: float
    stderr: float


# ---------------------------------------------------------------------------
# trials (top level for pickling)
# ---------------------------------------------------------------------------


def _theta_trial(spec: GridSpec, seed: TrialSeed, p: float) -> bool:
    codes = sample_codes(spec, p, seed)
    if codes.size < spec.num_sites and _closed(spec, codes):
        return False
    state = percolation_run(spec, codes)
    if state.percolated and spec.d == 2 and spec.is_uniform:
        check_2d_process_properties(spec, codes)
    return bool(state.percolated)


def _pc_trial(spec: GridSpec, seed: TrialSeed) -> tuple[float, bool]:
    pc = critical_p_of_sample(spec, seed)
    if not pc.degenerate and spec.d == 2 and spec.is_uniform:
        check_2d_process_properties(spec, pc.witness.seeds)
    return pc.p_star, pc.degenerate


def _chunk(args) -> list:
    fn, spec, master_seed, lo, hi, extra = args
    return [fn(spec, TrialSeed(master_seed, i), *extra) for i in range(lo, hi)]


# each thread's innermost worker_pool; not a ContextVar, since any value set
# in the context makes numpy's per-call lookup of its error state slower
_active = threading.local()


@contextmanager
def worker_pool(workers: int):
    """Run every estimate inside the block on one pool of worker processes.

    The pool has min(``workers``, cores) workers, forked at the first estimate
    with more than one chunk; an estimate of one chunk, and every estimate if
    that size is 1, runs serially in this process.  On exit the pool shuts
    down and its workers are joined.
    """
    size = min(workers, os.cpu_count() or 1)
    with ProcessPoolExecutor(size) if size > 1 else nullcontext() as pool:
        outer = getattr(_active, "pool", None)
        _active.pool = pool
        try:
            yield
        finally:
            _active.pool = outer


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    # fixed-size chunks independent of the worker count keep the fan-out
    # deterministic and the per-task overhead amortized
    chunk = max(1, min(256, (trials + 31) // 32))
    return [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]


def run_trials(
    fn, spec: GridSpec, trials: int, master_seed: int, *extra, least: int = 1
) -> list:
    """``fn(spec, TrialSeed(master_seed, i), *extra)`` for every trial i, in
    trial order.

    ``fn`` must be a top-level function, so that it pickles.  The trials run
    on the active ``worker_pool``, or serially outside one.  A trial count
    outside [``least``, MAX_TRIALS] and a master seed outside [0, 2^64), or
    either of them no integer, are refused before any trial.
    """
    if not least <= as_int(trials, "trials") <= MAX_TRIALS:
        raise InputError(f"trials must lie in [{least}, {MAX_TRIALS}], got {trials}")
    TrialSeed(master_seed, trials - 1)
    payloads = [
        (fn, spec, master_seed, lo, hi, extra) for lo, hi in _chunk_ranges(trials)
    ]
    pool = getattr(_active, "pool", None)
    serial = pool is None or len(payloads) == 1
    chunks = map(_chunk, payloads) if serial else pool.map(_chunk, payloads)
    return [x for chunk in chunks for x in chunk]


# ---------------------------------------------------------------------------
# process-structure assertions (d = 2, uniform threshold)
# ---------------------------------------------------------------------------


def check_2d_process_properties(spec: GridSpec, codes) -> None:
    """Invariant checks on a percolating 2D seed set.

    The stopped alternating run must classify as exactly one of
    horizontal/vertical line-count, which also proves that the set
    percolates.  The synchronous process needs at most 2r+1 rounds.  After k
    rounds it has saturated every line that the alternating run has after k
    half-steps (by induction on k: line counts are monotone in the saturated
    lines), so it holds the stop rule's r parallel lines by round h, the
    number of half-steps of the stopped run; every perpendicular line then
    saturates in round h+1 and the rest by round h+2.  And h <= 2r-1: only
    the first half-step of a stopped run can be empty, each axis holds at
    most r-1 saturated lines before the last half-step, and h = 2r would
    take one line per half-step after an empty first, which leaves every
    vertical line r-1 infected points after half-step 2r-1, so none is
    ready.  The check on h thus bounds the rounds without running the
    synchronous process.  A seed set that is the whole grid
    percolates with no line saturated when r > n, and the process statements
    are about the other sets, so it is not checked.
    """
    r = spec.r
    if len(codes) == spec.num_sites:
        return
    state, lc = run_alternating_2d(spec, codes, stop_rule=True)
    cls = classify_line_count(lc, r)
    assert cls in (LineCountClass.HORIZONTAL, LineCountClass.VERTICAL), (
        f"percolating run classified {cls} with line-count {lc}"
    )
    h = state.trace.num_rounds
    assert h <= 2 * r - 1, f"stopped alternating run: {h} > {2 * r - 1} half-steps"


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_theta(
    spec: GridSpec,
    p: float,
    trials: int,
    master_seed: int,
) -> ThetaEstimate:
    """Fraction of percolating Bernoulli(p) trials with a Wilson 95% CI."""
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    t0 = time.perf_counter()
    flags = run_trials(_theta_trial, spec, trials, master_seed, p)
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


def _central_term(m: int) -> float:
    """C(m, m // 2) / 2^m, within one ulp."""
    if m < 2000:
        return math.comb(m, m // 2) / (1 << m)  # int division rounds correctly
    # C(2j, j) / 4^j = (1 - 1/8j + 1/128j^2 + 5/1024j^3 - 21/32768j^4 + ...)
    # / sqrt(pi j); the next term is below 1e-18 at j >= 1000
    j = m // 2
    x = 1.0 / j
    t = (1 - x / 8 + x * x / 128 + 5 * x**3 / 1024 - 21 * x**4 / 32768) / math.sqrt(
        math.pi * j
    )
    # C(2j+1, j) / 2^(2j+1) = C(2j, j) / 4^j * (2j+1) / (2j+2)
    return t if m % 2 == 0 else t * (m / (m + 1))


def _walk_cdf(m: int, cdf, term, reaches, div):
    """Smallest k with ``reaches(S(k))``, S the cdf of Bin(m, 1/2) up to a
    common scale, walking from the centre c = m // 2, where S(c) = ``cdf``
    and C(m, c) = ``term`` on that scale.  Returns k, S(k - 1) and S(k)."""
    k = m // 2
    if reaches(cdf):
        while k > 0 and reaches(cdf - term):
            cdf -= term
            term = div(term * k, m - k + 1)
            k -= 1
    else:
        while k < m and not reaches(cdf):
            term = div(term * (m - k), k + 1)
            k += 1
            cdf += term
    return k, cdf - term, cdf


def _binom_half_ppf(q: float, m: int) -> int:
    """Smallest k with P(Bin(m, 1/2) <= k) >= q, decided exactly.

    This is the index ``scipy.stats.binom.ppf(q, m, 0.5)`` gives.  A float
    walk from the centre finds it in O(|k - m/2|) steps.  After s steps each
    float cdf value is within (3s + 4) eps/2 of the true one (one rounding for
    the centre, two per term, one per sum), so when S(k - 1) and S(k) both
    clear q by more than ``tol`` the answer is k.  Otherwise the same walk
    settles it in integers.
    """
    c = m // 2
    t = _central_term(m)
    half = 0.5 + t / 2 if m % 2 == 0 else 0.5
    k, below, at = _walk_cdf(m, half, t, lambda s: s >= q, operator.truediv)
    tol = (4 * abs(k - c) + 64) * sys.float_info.epsilon
    if at - q > tol and q - below > tol:
        return k
    return _binom_half_ppf_exact(q, m)


def _binom_half_ppf_exact(q: float, m: int) -> int:
    """``_binom_half_ppf`` in integers: sum_{j<=k} C(m, j) * b >= a * 2^m,
    with q = a / b exactly.  Every step works on m-bit numbers, so this is
    for the rare q that lies within rounding of a cdf value."""
    a, b = q.as_integer_ratio()
    target = a << m
    t = math.comb(m, m // 2)
    half = (1 << (m - 1)) + (t >> 1 if m % 2 == 0 else 0)
    return _walk_cdf(m, half, t, lambda s: s * b >= target, operator.floordiv)[0]


def median_order_statistic_ci(sorted_samples: np.ndarray) -> tuple[float, float]:
    """Distribution-free 95% CI for the median from binomial order statistics."""
    m = len(sorted_samples)
    alpha = 1.0 - 0.95  # a 95% interval
    lo_idx = _binom_half_ppf(alpha / 2, m)
    hi_idx = _binom_half_ppf(1.0 - alpha / 2, m)
    lo_idx = max(0, min(m - 1, lo_idx))
    hi_idx = max(0, min(m - 1, hi_idx))
    return float(sorted_samples[lo_idx]), float(sorted_samples[hi_idx])


def estimate_pc(
    spec: GridSpec,
    trials: int,
    master_seed: int,
) -> PcEstimate:
    """Median of the coupled per-sample p* values, with an order-statistic CI."""
    t0 = time.perf_counter()
    rows = run_trials(_pc_trial, spec, trials, master_seed, least=10)
    samples = np.sort(np.array([p for p, _ in rows], dtype=np.float64))
    ci_low, ci_high = median_order_statistic_ci(samples)
    # np.median's value, read off the sorted samples: (a + b) / 2 of the
    # middle two, which are one sample when the count is odd
    m = samples.size
    return PcEstimate(
        spec=spec,
        trials=trials,
        master_seed=master_seed,
        samples=samples,
        median=float((samples[(m - 1) // 2] + samples[m // 2]) / 2),
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
    stderr = float(math.sqrt(float((resid**2).sum()) / (len(x) - 2) / sxx))
    return SlopeFit(slope=slope, stderr=stderr)
