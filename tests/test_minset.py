import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy

from lineperc import (
    GridSpec,
    InputError,
    certify_non_percolation,
    closure,
    eval_matrix,
    eval_rank,
    min_percolating_size,
    naive_closure,
    percolates,
    vanishing_polynomial,
)
from lineperc.grid import MAX_SMALL_GRID_SITES
from lineperc.minset import exponent_tuples


def block(r, d):
    return list(itertools.product(range(1, r + 1), repeat=d))


def test_exponent_tuples_colex():
    assert exponent_tuples(2, 2) == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (2, 3)])
def test_block_has_full_rank(r, d):
    assert eval_rank(block(r, d), r, d) == r**d


def test_rank_edges():
    assert eval_rank([], 2, 2) == 0
    assert eval_rank([(3, 7)], 2, 2) == 1
    # duplicates are ignored
    assert eval_rank([(1, 1), (1, 1), (2, 2)], 2, 2) == eval_rank(
        [(1, 1), (2, 2)], 2, 2
    )


def test_rank_below_full_for_small_sets():
    rng = np.random.default_rng(1)
    for r, d, n in [(2, 2, 6), (3, 2, 6), (2, 3, 4)]:
        spec = GridSpec.uniform(n, d, r)
        for _ in range(10):
            codes = rng.choice(spec.num_sites, size=r**d - 1, replace=False)
            pts = [
                tuple(int(c) // n ** (d - 1 - i) % n + 1 for i in range(d))
                for c in codes
            ]
            assert eval_rank(pts, r, d) <= len(pts) < r**d


def test_rank_matches_sympy():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, r**d + 3))
        pts = [tuple(int(x) for x in rng.integers(1, 7, size=d)) for _ in range(m)]
        mat = eval_matrix(pts, r, d)
        assert eval_rank(pts, r, d) == sympy.Matrix(mat).rank()


def test_vanishing_polynomial_examples():
    # full-rank block has no kernel
    assert vanishing_polynomial(block(2, 2), 2, 2) is None
    # single point in d=1: c0 + c1 x with c0 + c1 = 0
    poly = vanishing_polynomial([(1,)], 2, 1)
    assert poly is not None and poly.evaluate((1,)) == 0
    # diagonal: some nonzero bilinear polynomial vanishing on it
    poly = vanishing_polynomial([(1, 1), (2, 2), (3, 3)], 2, 2)
    assert poly is not None
    for p in [(1, 1), (2, 2), (3, 3)]:
        assert poly.evaluate(p) == 0
    assert any(c != 0 for c in poly.coefficients)


def test_vanishing_polynomial_matches_sympy_nullspace_dimension():
    rng = np.random.default_rng(9)
    for _ in range(15):
        r, d = 2, 2
        m = int(rng.integers(1, 6))
        pts = list(
            {tuple(int(x) for x in rng.integers(1, 6, size=d)) for _ in range(m)}
        )
        mat = sympy.Matrix(eval_matrix(pts, r, d))
        poly = vanishing_polynomial(pts, r, d)
        if mat.rank() == r**d:
            assert poly is None
        else:
            assert poly is not None
            # exact evaluation equals the sympy matrix-vector product
            vec = sympy.Matrix(
                [sympy.Rational(c.numerator, c.denominator) for c in poly.coefficients]
            )
            assert (mat * vec).is_zero_matrix


def test_certificate_vanishes_on_closure():
    spec = GridSpec.uniform(6, 2, 2)
    cert = certify_non_percolation(spec, [(1, 1), (2, 2), (3, 5)])
    assert cert.percolates is False
    state = closure(spec, [(1, 1), (2, 2), (3, 5)])
    for q in state.infected_points():
        assert cert.polynomial.evaluate(q) == 0


def test_certificate_empty_set():
    spec = GridSpec.uniform(4, 2, 2)
    cert = certify_non_percolation(spec, [])
    assert cert.closure_size == 0


def test_certificate_rejects_large_sets():
    spec = GridSpec.uniform(4, 2, 2)
    with pytest.raises(InputError):
        certify_non_percolation(spec, block(2, 2))
    with pytest.raises(InputError):
        certify_non_percolation(GridSpec.uniform(1, 2, 2), [(1, 1)])


def test_small_grid_bound_is_shared():
    # the certificate lists its closure point by point: it runs up to the
    # small-grid bound and refuses one site past it, as the oracle does
    at_bound = GridSpec.uniform(2000, 2, 2)
    assert at_bound.num_sites == MAX_SMALL_GRID_SITES
    assert certify_non_percolation(at_bound, [(1, 1), (7, 9)]).closure_size == 2
    over = GridSpec.uniform(2001, 2, 2)
    for check in (certify_non_percolation, naive_closure):
        with pytest.raises(InputError, match="sites"):
            check(over, [(1, 1)])


def test_percolating_sets_have_full_rank():
    # any percolating set must have eval rank exactly r^d
    rng = np.random.default_rng(13)
    spec = GridSpec.uniform(5, 2, 2)
    found = 0
    while found < 10:
        codes = rng.choice(25, size=6, replace=False)
        pts = [(int(c) // 5 + 1, int(c) % 5 + 1) for c in codes]
        if percolates(spec, pts):
            assert eval_rank(pts, 2, 2) == 4
            found += 1


def test_min_percolating_sizes_tiny():
    assert min_percolating_size(GridSpec.uniform(3, 2, 2)).min_size == 4
    res = min_percolating_size(GridSpec(4, 2, (2, 3)))
    assert res.min_size == 6
    assert percolates(GridSpec(4, 2, (2, 3)), res.witness)
    assert min_percolating_size(GridSpec.uniform(2, 3, 2)).min_size == 8


def test_min_size_full_grid_when_n_below_r():
    # n < r: only the full grid percolates
    assert min_percolating_size(GridSpec.uniform(2, 2, 3)).min_size == 4


def test_search_space_refusal():
    with pytest.raises(InputError, match="search space"):
        min_percolating_size(GridSpec.uniform(10, 3, 4))


def test_max_size_cap():
    res = min_percolating_size(GridSpec.uniform(4, 2, 2), max_size=3)
    assert res.min_size is None
    assert res.sizes_searched == (1, 2, 3)


def test_exactness_coefficients_are_rational():
    poly = vanishing_polynomial([(1, 2), (2, 1), (3, 3)], 2, 2)
    assert all(isinstance(c, Fraction) for c in poly.coefficients)
