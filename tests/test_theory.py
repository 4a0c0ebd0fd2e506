import math
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lineperc import (
    GridSpec,
    InputError,
    check_binomial_bounds,
    gamma_of_r,
    lambda_r,
    predicted_theta2,
    s_of_r,
    theory_report,
)
from lineperc.theory import (
    _logsumexp,
    _log_tails,
    log_binom_pmf,
    pc2_exponent,
    pc3_exponent,
    theta2_regime_exponents,
)


def s_of_r_floor(r):
    """The floor form floor(sqrt(r + 1/4) - 1/2) of s(r), in exact integers."""
    return (math.isqrt(4 * r + 1) - 1) // 2


def test_lambda_values():
    assert abs(lambda_r(2) - math.sqrt(math.log(2))) < 1e-15
    assert abs(lambda_r(2) - 0.832555) < 1e-6
    assert abs(lambda_r(3) - (3 * math.log(2)) ** (1 / 3)) < 1e-15
    with pytest.raises(InputError):
        lambda_r(1)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 10, 25])
def test_lambda_defining_equation(r):
    lam = lambda_r(r)
    assert abs(math.exp(-2 * lam**r / math.factorial(r)) - 0.5) < 1e-12


def test_lambda_above_float_factorials():
    # r! is beyond a float above r = 170, so lambda_r switches to log r!
    # there; below, it keeps its expression bit for bit, since it sets the
    # 2D p* search's first cap and with it every 2D p* byte
    for r in range(2, 171):
        assert lambda_r(r) == (math.factorial(r) * math.log(2.0) / 2.0) ** (1.0 / r)
    assert lambda_r(171) / lambda_r(170) == pytest.approx(171 / 170, rel=1e-3)
    for r in (170, 171, 200, 1000, 10**6):
        lam = lambda_r(r)
        log_ratio = r * math.log(lam) - math.lgamma(r + 1)
        assert math.exp(log_ratio) == pytest.approx(math.log(2) / 2, rel=1e-8)
        assert theory_report(r).lam == lam


def test_s_and_gamma_examples():
    assert s_of_r(2) == 1 and gamma_of_r(2) == 1
    assert pc3_exponent(2) == -2
    assert s_of_r(3) == 1 and gamma_of_r(3) == Fraction(5, 4)
    assert pc3_exponent(3) == Fraction(-11, 7)
    assert s_of_r(12) == 3 and gamma_of_r(12) == 3
    with pytest.raises(InputError):
        s_of_r(1)


def test_s_enumeration_matches_floor_formula():
    rs = np.arange(2, 1_000_001, dtype=np.int64)
    floor_form = (np.sqrt(4 * rs.astype(np.float64) + 1.0).astype(np.int64) - 1) // 2
    # exact check via the defining inequality s(s+1) <= r < (s+1)(s+2)
    s = floor_form
    assert np.all(s * (s + 1) <= rs)
    assert np.all((s + 1) * (s + 2) > rs)
    for r in (2, 3, 6, 7, 11, 12, 13, 10**6):
        assert s_of_r(r) == s_of_r_floor(r)


@pytest.mark.parametrize("r", list(range(2, 60)))
def test_gamma_brackets_s_exactly(r):
    s = s_of_r(r)
    g = gamma_of_r(r)
    assert Fraction(s) <= g < Fraction(s + 1)
    assert (g == s) == (r == s * (s + 1))


@pytest.mark.parametrize("r", list(range(2, 40)))
def test_regime_ordering_of_pc3_exponent(r):
    # n^(-1-1/(r-s-1)) << n^(-1-1/(r-gamma)) << n^(-1-1/(r-s)): the exponent
    # sits in [-1-1/(r-s-1), -1-1/(r-s)], closed exactly at the gamma = s end
    s = s_of_r(r)
    g = gamma_of_r(r)
    e = Fraction(-1) - 1 / (r - g)
    hi = Fraction(-1) - Fraction(1, r - s)
    assert e <= hi
    assert (e == hi) == (g == s)
    if r - s - 1 >= 1:
        lo = Fraction(-1) - Fraction(1, r - s - 1)
        assert lo < e


def test_regime_exponent_pairs():
    assert theta2_regime_exponents(2) == [(1, 2), (3, 4)]
    assert pc2_exponent(2) == Fraction(-3, 2)


def test_predicted_theta2():
    n = 100
    v = predicted_theta2(n, float(n) ** -1.7, 2)
    assert abs(math.log(v) / math.log(n) - (-0.4)) < 1e-9
    v = predicted_theta2(n, float(n) ** -2.05, 2)
    assert abs(math.log(v) / math.log(n) - (-1.2)) < 1e-9
    assert predicted_theta2(n, float(n) ** -1.3, 2) == 1.0
    with pytest.raises(InputError):
        predicted_theta2(n, 1.0, 2)


def test_log_binom_pmf_exact_small():
    # exact rational cross-check at N=10, p=1/2
    from fractions import Fraction as F
    from math import comb

    for k in range(11):
        exact = F(comb(10, k), 2**10)
        assert abs(float(log_binom_pmf(10, 0.5, k)) - math.log(exact)) < 1e-12


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_log_binom_pmf_degenerate_p_is_exact_and_silent(p):
    # the point mass at k = N p, computed without evaluating 0 * log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_binom_pmf(10, p, range(11))
        check_binomial_bounds(10, p, k_max=10)
    expected = np.full(11, -np.inf)
    expected[int(10 * p)] = 0.0
    assert np.array_equal(out, expected)


def test_binomial_checks_run_without_scipy():
    # scipy is a test-only oracle: with every scipy import refused, the
    # binomial checks still run, on criterion 10's largest N
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from lineperc.theory import check_binomial_bounds\n"
        "rep = check_binomial_bounds(10000, 0.01)\n"
        "assert rep['pmf_failures'] == [] and all(rep['chernoff_ok'].values())\n"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_binomial_bounds_examples():
    rep = check_binomial_bounds(100, 0.1)
    assert rep["pmf_failures"] == [] and all(rep["chernoff_ok"].values())
    assert check_binomial_bounds(50, 0.5, k_max=0)["pmf_failures"] == []
    rep = check_binomial_bounds(1000, 0.01, deltas=(0.5,))
    assert rep["chernoff_ok"] == {0.5: True}
    # p > 1/2: the pmf sandwich is not asserted
    rep = check_binomial_bounds(10, 0.7)
    assert rep["pmf_failures"] is None and all(rep["chernoff_ok"].values())
    for p in (-0.1, 1.5):
        with pytest.raises(InputError):
            check_binomial_bounds(10, p)
    with pytest.raises(InputError):
        check_binomial_bounds(10, 0.1, deltas=(1.5,))


def test_unfactored_two_sided_tail_is_whole_space_at_small_mean():
    # At (N, p) = (10, 0.01), mu = 0.1 < 1/(1+delta), so every k deviates
    # from mu by more than delta*mu: P(|X - mu| > delta mu) = 1, which no
    # exp(-delta^2 mu / 3) < 1 can bound.  The one-sided bounds still hold.
    N, p = 10, 0.01
    mu = N * p
    ks = np.arange(N + 1)
    log_all = log_binom_pmf(N, p, ks)
    for delta in (0.1, 0.3, 0.5, 0.9):
        assert mu < 1.0 / (1.0 + delta)
        log_tail = _logsumexp(log_all[np.abs(ks - mu) > delta * mu])
        assert abs(log_tail) < 1e-12
    rep = check_binomial_bounds(10, 0.01)
    assert rep["pmf_failures"] == [] and all(rep["chernoff_ok"].values())


def test_chernoff_tails_include_the_boundary_k():
    # (1 + 0.1) * 50 == 55.00000000000001 and (1 - 0.9) * 10 ==
    # 0.9999999999999998 in floats; k = 55 and k = 1 still belong to the tails
    log_all = log_binom_pmf(100, 0.5, np.arange(101))
    _, log_upper = _log_tails(log_all, 50.0, 0.1)
    assert abs(log_upper - _logsumexp(log_all[55:])) < 1e-12
    log_all = log_binom_pmf(1000, 0.01, np.arange(1001))
    log_lower, _ = _log_tails(log_all, 10.0, 0.9)
    assert abs(log_lower - _logsumexp(log_all[:2])) < 1e-12


def test_chernoff_tails_are_tight_at_small_mean():
    # At mu = 0.1 the lower tail is P(X = 0) and the upper tail P(X >= 1);
    # the lower tail clears exp(-delta^2 mu / 2) by at most 0.11 in log
    N, p = 10, 0.01
    mu = N * p
    log_all = log_binom_pmf(N, p, np.arange(N + 1))
    for delta in (0.1, 0.3, 0.5, 0.9):
        log_lower, log_upper = _log_tails(log_all, mu, delta)
        assert abs(log_lower - N * math.log1p(-p)) < 1e-12
        assert abs(log_upper - math.log(-math.expm1(N * math.log1p(-p)))) < 1e-12
        assert 0.0 < -delta * delta * mu / 2.0 - log_lower < 0.11
        assert log_upper < -delta * delta * mu / 3.0


@pytest.mark.parametrize("tails", [(0.0, -math.inf), (-math.inf, 0.0)])
def test_chernoff_verdict_needs_both_tails(monkeypatch, tails):
    # a tail of probability 1 breaks either bound, so the verdict must fail
    import lineperc.theory as theory

    monkeypatch.setattr(theory, "_log_tails", lambda log_all, mu, delta: tails)
    assert check_binomial_bounds(100, 0.1, deltas=(0.5,))["chernoff_ok"] == {0.5: False}


@pytest.mark.parametrize("shift", [0.0, 4.0, -4.0])
def test_pmf_failures_match_a_per_k_oracle(monkeypatch, shift):
    # each k's two inequalities, evaluated in plain floats through
    # math.lgamma; shift != 0 moves the pmf of every third k across one of
    # the bounds, so that failures are reported and must match
    import lineperc.theory as theory

    exact = theory.log_binom_pmf

    def shifted(N, p, k):
        out = np.array(exact(N, p, k), dtype=np.float64)
        out[np.asarray(k) % 3 == 1] += shift
        return out

    def fails(N, p, k):
        mu = N * p
        log_pmf = (math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
                   + k * math.log(p) + (N - k) * math.log1p(-p))
        log_pmf += shift if k % 3 == 1 else 0.0
        if k == 0:
            return not (-2.0 * mu <= log_pmf <= -mu)
        lower = -2.0 * mu + k * (math.log(mu) - math.log(k))
        upper = -mu + k * (math.log(2.0 * math.e * mu) - math.log(k))
        return not (lower <= log_pmf <= upper)

    monkeypatch.setattr(theory, "log_binom_pmf", shifted)
    failures = 0
    for N in (1, 5, 40, 300, 2000):
        for p in (1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5):
            bad = check_binomial_bounds(N, p, deltas=())["pmf_failures"]
            k_max = min(N, math.ceil(3 * (N * p)) + 10)
            assert bad == [k for k in range(k_max + 1) if fails(N, p, k)], (N, p)
            failures += len(bad)
    assert (failures > 0) == (shift != 0.0)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1])
def test_chernoff_delta_outside_unit_interval_rejected(delta):
    with pytest.raises(InputError):
        check_binomial_bounds(100, 0.1, deltas=(delta,))


def test_theory_report_fields():
    rep = theory_report(2)
    d = rep.to_json_dict()
    assert d["gamma"] == "1/1"
    assert d["s"] == 1
    assert abs(d["lambda"] - 0.832554611158) < 1e-12
    assert d["pc3_exponent"] == -2.0


def test_grid_spec_uniform_r_guard():
    spec = GridSpec(4, 2, (2, 3))
    with pytest.raises(InputError):
        spec.r  # noqa: B018
