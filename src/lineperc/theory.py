"""Closed-form predictions and numeric checks for the percolation thresholds.

The 2D threshold constant lambda solves exp(-2*lambda^r / r!) = 1/2, so
lambda = (r! * ln 2 / 2)^(1/r).  In 3D the critical exponent is
-1 - 1/(r - gamma) with s the largest integer satisfying s(s+1) <= r and
gamma = (r + s(s+1)) / (2(s+1)), kept as an exact rational so the boundary
case gamma = s (exactly when r = s(s+1)) is detected without rounding.

``check_binomial_bounds`` verifies the binomial pmf sandwich and the
one-sided Chernoff tails used by the proofs numerically, in log space, and
reports every failing k and delta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import InputError

SUPERCRITICAL = "supercritical"


def _require_r(r: int) -> None:
    """Refuse an infection parameter below 2."""
    if r < 2:
        raise InputError(f"infection parameter must be >= 2, got {r}")


def lambda_r(r: int) -> float:
    """Unique positive root of exp(-2 x^r / r!) = 1/2."""
    _require_r(r)
    if r <= 170:
        return (math.factorial(r) * math.log(2.0) / 2.0) ** (1.0 / r)
    # r! is beyond a float: the same root from log r!
    return math.exp((math.lgamma(r + 1) + math.log(math.log(2.0) / 2.0)) / r)


def s_of_r(r: int) -> int:
    """Largest natural s with s(s+1) <= r, by direct enumeration."""
    _require_r(r)
    s = 0
    while (s + 1) * (s + 2) <= r:
        s += 1
    return s


def gamma_of_r(r: int) -> Fraction:
    """Effective threshold reduction (r + s(s+1)) / (2(s+1)), exact."""
    s = s_of_r(r)
    return Fraction(r + s * (s + 1), 2 * (s + 1))


def pc2_exponent(r: int) -> Fraction:
    """2D critical exponent: p_c scales as n^(-1 - 1/r)."""
    _require_r(r)
    return Fraction(-1, 1) - Fraction(1, r)


def pc3_exponent(r: int) -> Fraction:
    """3D critical exponent: p_c scales as n^(-1 - 1/(r - gamma))."""
    g = gamma_of_r(r)
    return Fraction(-1, 1) - 1 / (r - g)


def theta2_regime_exponents(r: int) -> list[tuple[int, int]]:
    """For each regime s' in [0, r-1]: the (n, np) exponents of theta.

    theta scales as n^(2s'+1) * (np)^(r(2s'+1) - s'(s'+1)) inside regime s'.
    """
    _require_r(r)
    return [(2 * s + 1, r * (2 * s + 1) - s * (s + 1)) for s in range(r)]


def regime_of(n: int, p: float, r: int):
    """The regime index s for (n, p), or SUPERCRITICAL above n^(-1-1/r).

    A p exactly equal to a regime boundary belongs to the smaller s.
    Comparisons are done as ln p vs exponent * ln n to avoid needless
    rounding.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    _require_r(r)
    if not (0.0 < p < 1.0):
        raise InputError(f"need 0 < p < 1, got {p}")
    ln_n = math.log(n)
    ln_p = math.log(p)
    if ln_p > (-1.0 - 1.0 / r) * ln_n:
        return SUPERCRITICAL
    for s in range(r - 1):
        if ln_p >= (-1.0 - 1.0 / (r - s - 1)) * ln_n:
            return s
    return r - 1


def predicted_theta2(n: int, p: float, r: int) -> float:
    """The regime formula n^(2s+1) (np)^(r(2s+1)-s(s+1)), up to constants.

    Returns 1.0 in the supercritical regime.  Computed in log space.
    """
    if p >= 1.0:
        raise InputError(f"need p < 1, got {p}")
    s = regime_of(n, p, r)
    if s == SUPERCRITICAL:
        return 1.0
    a, b = theta2_regime_exponents(r)[s]
    return math.exp(a * math.log(n) + b * (math.log(n) + math.log(p)))


# ---------------------------------------------------------------------------
# binomial bounds (numeric verification, exact log-space arithmetic)
# ---------------------------------------------------------------------------


def log_binom_pmf(N: int, p: float, k) -> np.ndarray:
    """log P(Bin(N, p) = k), vectorized over k, computed via lgamma."""
    k = np.asarray(k, dtype=np.int64)
    if np.any((k < 0) | (k > N)):
        raise InputError("k out of range [0, N]")
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    log_p = math.log(p) if p > 0 else -math.inf
    log_q = math.log1p(-p) if p < 1 else -math.inf
    gammaln = np.vectorize(math.lgamma, otypes=[float])
    out = (
        math.lgamma(N + 1)
        - gammaln(k + 1)
        - gammaln(N - k + 1)
        + _times_log(k, log_p)
        + _times_log(N - k, log_q)
    )
    return out


def _times_log(k: np.ndarray, log_x: float) -> np.ndarray:
    """k * log_x, and 0 where k = 0: 0 * log(0) is never evaluated."""
    return np.multiply(k, log_x, out=np.zeros(k.shape), where=k > 0)


def _logsumexp(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return -math.inf
    m = float(values.max())
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.exp(values - m).sum()))


def _log_tails(log_all: np.ndarray, mu: float, delta: float) -> tuple[float, float]:
    """log P(X <= (1-delta) mu) and log P(X >= (1+delta) mu) from the full pmf.

    Both events include k exactly at (1 -/+ delta) mu.  The slack absorbs
    float rounding of the cut points, so (1 + 0.1) * 50 = 55.00000000000001
    still puts k = 55 in the upper tail.
    """
    lo = (1.0 - delta) * mu
    hi = (1.0 + delta) * mu
    k_lo = math.floor(lo + 1e-9 * max(1.0, lo))
    k_hi = math.ceil(hi - 1e-9 * max(1.0, hi))
    return _logsumexp(log_all[: k_lo + 1]), _logsumexp(log_all[k_hi:])


def _chernoff_ok(N: int, p: float, deltas) -> dict[float, bool]:
    """Exact one-sided Chernoff checks for Bin(N, p), one verdict per delta.

    Each tail is summed over every k in 0..N in log space and compared with
    exp(-delta^2 mu / 3) (upper) and exp(-delta^2 mu / 2) (lower), the
    bounds of Mitzenmacher & Upfal, Thms 4.4 and 4.5.  They are theorems
    for 0 < delta < 1 only, so other deltas raise InputError.
    """
    for delta in deltas:
        if not (0.0 < delta < 1.0):
            raise InputError(f"delta must lie in (0, 1), got {delta}")
    mu = N * p
    log_all = log_binom_pmf(N, p, np.arange(N + 1, dtype=np.int64))
    out = {}
    for delta in deltas:
        log_lower, log_upper = _log_tails(log_all, mu, delta)
        out[float(delta)] = bool(
            log_upper <= -delta * delta * mu / 3.0
            and log_lower <= -delta * delta * mu / 2.0
        )
    return out


def _pmf_sandwich(N: int, p: float, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per k in ``ks``: whether exp(-2 mu) (mu/k)^k <= P(X = k), and whether
    P(X = k) <= exp(-mu) (2 e mu / k)^k, compared in log space (mu = N p).

    At k = 0 the factors (.../k)^k are 1.  At mu = 0 the bounds of every
    k >= 1 are 0, as is the pmf.
    """
    mu = N * p
    log_pmf = log_binom_pmf(N, p, ks)
    kpos = np.maximum(ks, 1).astype(np.float64)
    log_mu = math.log(mu) if mu > 0 else -math.inf
    log_2emu = math.log(2.0 * math.e * mu) if mu > 0 else -math.inf
    log_k = np.log(kpos)
    log_lower = np.where(ks == 0, -2.0 * mu, -2.0 * mu + kpos * (log_mu - log_k))
    log_upper = np.where(ks == 0, -mu, -mu + kpos * (log_2emu - log_k))
    return log_lower <= log_pmf, log_pmf <= log_upper


def check_binomial_bounds(
    N: int,
    p: float,
    *,
    k_max: int | None = None,
    deltas: tuple[float, ...] = (0.1, 0.3, 0.5, 0.9),
) -> dict:
    """Check the pmf sandwich for k = 0..k_max and the Chernoff tails of
    X ~ Bin(N, p), mu = N p.

    For k >= 1 and p <= 1/2 the sandwich is
    exp(-2 mu) (mu/k)^k <= P(X = k) <= exp(-mu) (2 e mu / k)^k,
    and for k = 0 it is exp(-2 mu) <= P(X = 0) <= exp(-mu).  ``k_max``
    defaults to min(N, ceil(3 mu) + 10).  ``chernoff_ok[delta]`` holds
    exactly when P(X >= (1+delta) mu) <= exp(-delta^2 mu / 3) and
    P(X <= (1-delta) mu) <= exp(-delta^2 mu / 2), both tails summed exactly
    over k = 0..N in log space; together they give
    P(|X - mu| >= delta mu) <= 2 exp(-delta^2 mu / 3).  p must lie in
    [0, 1] and every delta in (0, 1), else InputError.

    Returns {"pmf_failures": [k, ...], "chernoff_ok": {delta: bool}}, with
    ``pmf_failures`` None when p > 1/2, where the sandwich is not asserted.
    """
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    chernoff = _chernoff_ok(N, p, deltas)
    if p > 0.5:
        return {"pmf_failures": None, "chernoff_ok": chernoff}
    if k_max is None:
        k_max = min(N, int(math.ceil(3 * (N * p))) + 10)
    ks = np.arange(min(k_max, N) + 1, dtype=np.int64)
    lower, upper = _pmf_sandwich(N, p, ks)
    return {"pmf_failures": ks[~(lower & upper)].tolist(), "chernoff_ok": chernoff}


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryReport:
    r: int
    lam: float
    s: int
    gamma: Fraction
    pc2_exponent: Fraction
    pc3_exponent: Fraction
    theta2_regime_exponents: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "lambda": round(self.lam, 12),
            "s": self.s,
            "gamma": f"{self.gamma.numerator}/{self.gamma.denominator}",
            "pc2_exponent": float(self.pc2_exponent),
            "pc3_exponent": float(self.pc3_exponent),
            "theta2_regime_exponents": [
                {"s": s, "n_exponent": a, "np_exponent": b}
                for s, (a, b) in enumerate(self.theta2_regime_exponents)
            ],
        }


def theory_report(r: int) -> TheoryReport:
    lam = lambda_r(r)
    # lam^r / r! in logs, whose rounding grows with log r!
    log_fact = math.lgamma(r + 1)
    residual = abs(math.exp(-2.0 * math.exp(r * math.log(lam) - log_fact)) - 0.5)
    assert residual < max(1e-12, sys.float_info.epsilon * log_fact)
    return TheoryReport(
        r=r,
        lam=lam,
        s=s_of_r(r),
        gamma=gamma_of_r(r),
        pc2_exponent=pc2_exponent(r),
        pc3_exponent=pc3_exponent(r),
        theta2_regime_exponents=tuple(theta2_regime_exponents(r)),
    )
