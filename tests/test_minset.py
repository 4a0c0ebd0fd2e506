import itertools
import math

import numpy as np
import pytest
import sympy

from lineperc import (
    GridSpec,
    InputError,
    VanishingPolynomial,
    certify_non_percolation,
    closure,
    decode_point,
    eval_matrix,
    eval_rank,
    min_percolating_size,
    naive_closure,
    percolates,
    vanishing_polynomial,
)
from lineperc import minset
from lineperc.grid import MAX_SMALL_GRID_SITES
from lineperc.minset import exponent_tuples


def block(r, d):
    return list(itertools.product(range(1, r + 1), repeat=d))


def test_exponent_tuples_colex():
    assert exponent_tuples((2, 2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert exponent_tuples((2, 3)) == [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    assert exponent_tuples((1, 4)) == [(0, 0), (0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("r,d", [(2, 2), (3, 2), (2, 3)])
def test_block_has_full_rank(r, d):
    assert eval_rank(block(r, d), (r,) * d) == r**d


def test_rank_edges():
    assert eval_rank([], (2, 2)) == 0
    assert eval_rank([(3, 7)], (2, 2)) == 1
    # duplicates are ignored
    assert eval_rank([(1, 1), (1, 1), (2, 2)], (2, 2)) == eval_rank(
        [(1, 1), (2, 2)], (2, 2)
    )


def test_eval_rank_refuses_fractional_points():
    # (1.5, 1) was read as (1, 1), a duplicate, so the rank was 1
    with pytest.raises(InputError, match="coordinate must be an integer"):
        eval_rank([(1.5, 1), (1, 1)], (2, 2))
    assert eval_rank([(np.int64(2), 1), (1, 1)], (2, 2)) == 2


def test_eval_matrix_refuses_fractional_points():
    # (1.5, 2) built the row of (1, 2)
    with pytest.raises(InputError, match="coordinate must be an integer"):
        eval_matrix([(1.5, 2)], (2, 2))
    assert eval_matrix([(np.int64(1), 2)], (2, 2)) == eval_matrix([(1, 2)], (2, 2))


def test_polynomial_evaluation_refuses_fractional_points():
    poly = vanishing_polynomial([(1, 1)], (2, 2))
    with pytest.raises(InputError, match="coordinate must be an integer"):
        poly.evaluate((1.5, 1))
    assert poly.evaluate((np.int64(1), 1)) == 0


def test_polynomial_evaluation_refuses_points_of_another_dimension():
    # zip truncated (3,) to the value at (3, 1)
    poly = vanishing_polynomial([(1, 1), (5, 2), (3, 7)], (2, 2))
    for p in ((3,), (3, 1, 9)):
        with pytest.raises(InputError, match="coordinates, expected 2"):
            poly.evaluate(p)
    assert poly.evaluate((3, 1)) == -12


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
            assert eval_rank(pts, (r,) * d) <= len(pts) < r**d


def test_rank_matches_sympy():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = int(rng.integers(2, 4))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, r**d + 3))
        pts = [tuple(int(x) for x in rng.integers(1, 7, size=d)) for _ in range(m)]
        mat = eval_matrix(pts, (r,) * d)
        assert eval_rank(pts, (r,) * d) == sympy.Matrix(mat).rank()


def test_vanishing_polynomial_examples():
    # full-rank block has no kernel
    assert vanishing_polynomial(block(2, 2), (2, 2)) is None
    # single point in d=1: c0 + c1 x with c0 + c1 = 0
    poly = vanishing_polynomial([(1,)], (2,))
    assert poly is not None and poly.evaluate((1,)) == 0
    # diagonal: some nonzero bilinear polynomial vanishing on it
    poly = vanishing_polynomial([(1, 1), (2, 2), (3, 3)], (2, 2))
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
        mat = sympy.Matrix(eval_matrix(pts, (r,) * d))
        poly = vanishing_polynomial(pts, (r,) * d)
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


def test_certificates_refuse_more_than_max_monomials():
    # one check where r^d is formed: 2^64 monomials would be a list of 2^64
    # coefficients, and r^d = 10^4 a 10^4 x 10^4 big-int elimination
    assert minset.MAX_MONOMIALS == 64
    assert len(exponent_tuples((8, 8))) == len(exponent_tuples((2,) * 6)) == 64
    for r, d in ((2, 64), (100, 2), (3, 4), (65, 1)):
        with pytest.raises(InputError, match=r"r\^d"):
            vanishing_polynomial([], (r,) * d)
        with pytest.raises(InputError, match=r"r\^d"):
            eval_matrix([(1,) * d], (r,) * d)
        with pytest.raises(InputError, match=r"r\^d"):
            eval_rank([(1,) * d], (r,) * d)
    with pytest.raises(InputError, match=r"r\^d"):
        certify_non_percolation(GridSpec.uniform(100, 2, 100), [(1, 1)])
    for r, d in ((0, 2), (2, 0)):
        with pytest.raises(InputError, match="need r >= 1"):
            vanishing_polynomial([], (r,) * d)


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
            assert eval_rank(pts, (2, 2)) == 4
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
    assert res.subsets_tested == 16 + 120 + 560  # every subset of size <= 3
    assert min_percolating_size(GridSpec.uniform(4, 2, 2), max_size=0).min_size is None
    with pytest.raises(InputError, match="max_size"):
        min_percolating_size(GridSpec.uniform(4, 2, 2), max_size=-1)


def test_sizes_below_every_threshold_are_counted_not_enumerated(monkeypatch):
    # fewer points than every threshold saturate no line, so those sizes
    # are skipped but their subsets still count as tested; the results are
    # those of the search that enumerated them
    cases = {
        GridSpec(4, 2, (2, 3)): (6, 6885),
        GridSpec.uniform(3, 2, 2): (4, 130),
        # the whole grid is below every threshold and percolates alone
        GridSpec(2, 2, (5, 5)): (4, 15),
    }
    for spec, (size, tested) in cases.items():
        res = min_percolating_size(spec)
        assert res.min_size == size
        assert res.subsets_tested == tested
    calls = []
    body = minset._BitCascade.percolates

    def counted(self, bits):
        calls.append(bits)
        return body(self, bits)

    monkeypatch.setattr(minset._BitCascade, "percolates", counted)
    res = min_percolating_size(GridSpec.uniform(10, 3, 4), max_size=2)
    assert res.subsets_tested == 1000 + 499500 and calls == []


def test_coefficients_are_coprime_ints_with_positive_lead():
    poly = vanishing_polynomial([(1, 2), (2, 1), (3, 3)], (2, 2))
    assert all(type(c) is int for c in poly.coefficients)
    assert math.gcd(*poly.coefficients) == 1
    assert next(c for c in poly.coefficients if c) > 0


def test_vanishing_polynomial_pinned_text():
    # the kernel vector of the first free column, in coprime integers
    poly = vanishing_polynomial([(1, 1), (5, 2), (3, 7)], (2, 2))
    assert poly.text() == "37 + -17*x1 + -31*x2 + 11*x1*x2"


def test_box_bounds_must_be_integers():
    for thresholds in ((2.5, 2), (2, 2.0)):
        with pytest.raises(InputError, match="threshold must be an integer"):
            eval_rank([(1, 1)], thresholds)
    assert eval_rank([(1, 1)], (np.int64(2), 2)) == 1


def test_vanishing_polynomial_refuses_bad_coefficients():
    # zip used to truncate a short tuple, so (1,) evaluated to 1 everywhere
    for coeffs in ((1,), (0, 0, 0, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(InputError):
            VanishingPolynomial((2, 2), coeffs)
    assert VanishingPolynomial((2, 2), (0, 0, 0, 1)).evaluate((3, 3)) == 9


MIXED_GRIDS = [(4, (2, 3)), (5, (3, 2)), (4, (1, 4)), (5, (2, 5)), (4, (4, 1)),
               (3, (2, 2, 3)), (3, (1, 2, 3))]


@pytest.mark.parametrize("n,thresholds", MIXED_GRIDS)
def test_certificates_on_mixed_grids(n, thresholds):
    spec = GridSpec(n, len(thresholds), thresholds)
    size = math.prod(thresholds)
    rng = np.random.default_rng(size)
    for _ in range(20):
        codes = rng.choice(spec.num_sites, size=size - 1, replace=False)
        pts = [decode_point(spec, int(c)) for c in codes]
        cert = certify_non_percolation(spec, pts)
        assert cert.percolates is False
    corner = list(itertools.product(*(range(1, r + 1) for r in thresholds)))
    assert percolates(spec, corner)
    assert vanishing_polynomial(corner, thresholds) is None
    with pytest.raises(InputError, match="needs n >= r"):
        certify_non_percolation(GridSpec(max(thresholds) - 1, len(thresholds),
                                         thresholds), [])


@pytest.mark.parametrize(
    "n,thresholds",
    [(3, (2, 3)), (4, (2, 3)), (4, (3, 2)), (3, (1, 3)), (2, (1, 2, 2)),
     (4, (2, 4)), (2, (1, 1, 2))],
)
def test_min_size_is_threshold_product_on_mixed_grids(n, thresholds):
    spec = GridSpec(n, len(thresholds), thresholds)
    res = min_percolating_size(spec)
    assert res.min_size == math.prod(thresholds)
    assert percolates(spec, res.witness)


def test_rank_and_nullspace_match_sympy_on_a_mixed_box():
    rng = np.random.default_rng(21)
    for thresholds in ((2, 3), (3, 1, 2)):
        size = math.prod(thresholds)
        for _ in range(15):
            m = int(rng.integers(1, size + 2))
            pts = [tuple(int(x) for x in rng.integers(1, 6, size=len(thresholds)))
                   for _ in range(m)]
            mat = sympy.Matrix(eval_matrix(pts, thresholds))
            assert eval_rank(pts, thresholds) == mat.rank()
            poly = vanishing_polynomial(pts, thresholds)
            if mat.rank() == size:
                assert poly is None
                continue
            vec = sympy.Matrix(poly.coefficients)
            assert (mat * vec).is_zero_matrix
            # the vector lies in sympy's nullspace and is the basis vector of
            # the first free column, up to scale
            basis = mat.nullspace()[0]
            assert vec.T.rank() == 1 and sympy.Matrix.hstack(basis, vec).rank() == 1
