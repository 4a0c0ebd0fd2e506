"""Exact-arithmetic certificates and searches for minimal percolating sets.

A set A with |A| < r^d admits a nonzero polynomial of per-variable degree at
most r-1 vanishing on A; the same polynomial vanishes on the whole closure,
because a saturating line pins r roots of a degree-(r-1) univariate
restriction.  Since no nonzero such polynomial vanishes on all of [n]^d for
n >= r, the polynomial is a certificate that A does not percolate.

Everything here is integer/rational arithmetic: ranks come from
fraction-free (Bareiss) elimination over Python ints, kernel vectors from
exact back-substitution with Fractions.  No floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .engine import closure, percolates
from .grid import (
    GridSpec,
    InputError,
    Point,
    _tables,
    as_int,
    decode_point,
    require_small_grid,
    validate_point,
)

SEARCH_SPACE_LIMIT = 10**7
# the most monomials r^d a certificate takes: its evaluation matrix has up to
# r^d rows and columns of big ints, and elimination costs about (r^d)^4
# (0.007 s at r^d = 16, 0.18 s at 64 and 1.15 s at 100, d = 2)
MAX_MONOMIALS = 64


def _monomial_count(r: int, d: int) -> int:
    """r^d, the number of monomials of per-variable degree at most r-1 in d
    variables; refuses r or d below 1 and r^d above ``MAX_MONOMIALS``."""
    if r < 1 or d < 1:
        raise InputError(f"need r >= 1 and d >= 1, got r={r}, d={d}")
    if r**d > MAX_MONOMIALS:
        raise InputError(
            f"r^d = {r}^{d} exceeds the {MAX_MONOMIALS} monomials a certificate takes"
        )
    return r**d


def exponent_tuples(r: int, d: int) -> list[tuple[int, ...]]:
    """All alpha in {0..r-1}^d in colexicographic order (first axis fastest);
    refused as ``_monomial_count`` refuses."""
    _monomial_count(r, d)
    return [tuple(reversed(t)) for t in itertools.product(range(r), repeat=d)]


def eval_matrix(points: Sequence[Sequence[int]], r: int, d: int) -> list[list[int]]:
    """Evaluation matrix: rows = points, columns = monomials v^alpha (colex)."""
    alphas = exponent_tuples(r, d)
    rows = []
    for p in points:
        p = _as_point(p)
        if len(p) != d:
            raise InputError(f"point {p} has {len(p)} coordinates, expected {d}")
        if any(c < 1 for c in p):
            raise InputError(f"point {p} has non-positive coordinates")
        rows.append([_monomial(p, a) for a in alphas])
    return rows


def _as_point(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(as_int(c, "a point coordinate") for c in p)


def _monomial(p: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    out = 1
    for c, a in zip(p, alpha):
        out *= c**a
    return out


def _row_echelon_bareiss(matrix: list[list[int]]) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free elimination; returns (rank, pivot columns, echelon rows).

    Pivots are chosen as the first nonzero entry in column order, rows are
    swapped into place, and the Bareiss update keeps every intermediate value
    an exact integer.
    """
    m = [row[:] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    pr = 0
    for pc in range(n_cols):
        found = None
        for i in range(pr, n_rows):
            if m[i][pc] != 0:
                found = i
                break
        if found is None:
            continue
        if found != pr:
            m[pr], m[found] = m[found], m[pr]
        piv = m[pr][pc]
        for i in range(pr + 1, n_rows):
            fi = m[i][pc]
            for j in range(pc, n_cols):
                q, rem = divmod(piv * m[i][j] - fi * m[pr][j], prev)
                assert rem == 0  # Bareiss updates divide exactly
                m[i][j] = q
        prev = piv
        pivots.append(pc)
        pr += 1
        if pr == n_rows:
            break
    return len(pivots), pivots, m


def eval_rank(points: Iterable[Sequence[int]], r: int, d: int) -> int:
    """Exact rank of the evaluation matrix over the rationals."""
    pts = _dedupe(points)
    if not pts:
        return 0
    rank, _, _ = _row_echelon_bareiss(eval_matrix(pts, r, d))
    return rank


def _dedupe(points: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for p in points:
        p = _as_point(p)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


@dataclass(frozen=True)
class VanishingPolynomial:
    """A nonzero polynomial of per-variable degree <= r-1, exact coefficients.

    ``coefficients[i]`` multiplies the monomial with exponents
    ``exponent_tuples(r, d)[i]``.
    """

    r: int
    d: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        assert any(c != 0 for c in self.coefficients)

    def evaluate(self, p: Sequence[int]) -> Fraction:
        alphas = exponent_tuples(self.r, self.d)
        p = _as_point(p)
        return sum(
            (c * _monomial(p, a) for c, a in zip(self.coefficients, alphas)),
            start=Fraction(0),
        )

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        alphas = exponent_tuples(self.r, self.d)
        return [(a, c) for a, c in zip(alphas, self.coefficients) if c != 0]

    def text(self) -> str:
        parts = []
        for alpha, c in self.terms():
            mon = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(alpha)
                if e > 0
            )
            parts.append(f"{c}" if not mon else f"{c}*{mon}")
        return " + ".join(parts)


def vanishing_polynomial(
    points: Iterable[Sequence[int]], r: int, d: int
) -> VanishingPolynomial | None:
    """A kernel vector of the evaluation map, or None when the map has full
    column rank r^d.

    Deterministic choice: the kernel basis vector attached to the first free
    column, normalized to coprime integer coefficients with positive leading
    sign.  Verified by exact evaluation at every input point.
    """
    n_cols = _monomial_count(r, d)
    pts = _dedupe(points)
    if not pts:
        coeffs = [Fraction(0)] * n_cols
        coeffs[0] = Fraction(1)
        return VanishingPolynomial(r, d, tuple(coeffs))
    rank, pivots, ech = _row_echelon_bareiss(eval_matrix(pts, r, d))
    if rank == n_cols:
        return None
    free = next(c for c in range(n_cols) if c not in pivots)
    x = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for i in range(rank - 1, -1, -1):
        pc = pivots[i]
        acc = Fraction(0)
        for j in range(pc + 1, n_cols):
            if x[j]:
                acc += x[j] * ech[i][j]
        x[pc] = -acc / ech[i][pc]
    x = _normalize(x)
    poly = VanishingPolynomial(r, d, tuple(x))
    for p in pts:
        assert poly.evaluate(p) == 0
    return poly


def _normalize(coeffs: list[Fraction]) -> list[Fraction]:
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


@dataclass(frozen=True)
class NonPercolationCertificate:
    polynomial: VanishingPolynomial
    closure_size: int
    percolates: bool  # always False


def certify_non_percolation(
    spec: GridSpec, points: Iterable[Sequence[int]]
) -> NonPercolationCertificate:
    """Produce and verify a vanishing-polynomial certificate for |A| < r^d.

    The polynomial is checked, in exact arithmetic, to vanish on every point
    of the closure (not just on A), and the cascade engine independently
    confirms non-percolation.  The closure is listed point by point, so the
    grid must be small (``MAX_SMALL_GRID_SITES``), and r^d at most
    ``MAX_MONOMIALS``.
    """
    r = spec.r  # uniform thresholds required
    size = _monomial_count(r, spec.d)
    require_small_grid(spec, "certify_non_percolation")
    if spec.n < r:
        raise InputError(f"certificate argument needs n >= r, got n={spec.n} < r={r}")
    pts = [validate_point(spec, p) for p in points]
    pts = _dedupe(pts)
    if len(pts) >= size:
        raise InputError(f"no certificate for |A| = {len(pts)} >= r^d = {size}")
    poly = vanishing_polynomial(pts, r, spec.d)
    assert poly is not None  # rank <= |A| < r^d
    state = closure(spec, pts)
    closed = state.infected_points()
    for q in closed:
        assert poly.evaluate(q) == 0
    assert not state.percolated
    return NonPercolationCertificate(poly, len(closed), False)


# ---------------------------------------------------------------------------
# exhaustive minimal-set search (tiny instances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinSetResult:
    min_size: int | None
    witness: tuple[Point, ...] | None
    subsets_tested: int


class _BitCascade:
    """Closure on bitmask states for exhaustive search (n^d small)."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.full = (1 << spec.num_sites) - 1
        self.masks: list[int] = []
        self.thrs: list[int] = []
        t = _tables(spec)
        codes = range(spec.num_sites)
        for lid in range(spec.num_lines):
            m = 0
            for c in codes[t.line_slice(lid)]:
                m |= 1 << c
            self.masks.append(m)
            self.thrs.append(spec.thresholds[lid // t.lines_per_axis])

    def percolates(self, bits: int) -> bool:
        if bits == self.full:
            return True
        state = bits
        sat = 0
        changed = True
        masks = self.masks
        thrs = self.thrs
        while changed:
            changed = False
            for i, m in enumerate(masks):
                if not (sat >> i) & 1 and (state & m).bit_count() >= thrs[i]:
                    state |= m
                    sat |= 1 << i
                    if state == self.full:
                        return True
                    changed = True
        return False


def _product_block_codes(spec: GridSpec) -> list[int]:
    """Codes of the corner block [r_1] x ... x [r_d]."""
    t = _tables(spec)
    ranges = [range(thr) for thr in spec.thresholds]
    return [
        int(sum(g * s for g, s in zip(digits, t.pstride)))
        for digits in itertools.product(*ranges)
    ]


def min_percolating_size(
    spec: GridSpec, *, max_size: int | None = None
) -> MinSetResult:
    """Smallest percolating set size by exhaustive search in increasing size.

    A percolating set below full-grid size must put threshold-many initial
    points on some line (nothing is infected before the first saturation);
    the first cascade pass doubles as that pruning test, so closed sets cost
    one scan.  The corner block [r_1] x ... x [r_d] is probed first at its
    own size.  Sizes below every threshold are not enumerated: such a set,
    unless it is the whole grid, saturates no line, and its C(n^d, size)
    subsets count as tested.  Refuses when C(n^d, size) exceeds
    SEARCH_SPACE_LIMIT, and a negative ``max_size``.
    """
    if max_size is not None and max_size < 0:
        raise InputError(f"max_size must be >= 0, got {max_size}")
    n_sites = spec.num_sites
    cap = min(max_size if max_size is not None else n_sites, n_sites)
    cascade = _BitCascade(spec)
    block = _product_block_codes(spec)
    block_size = len(block)
    tested = 0
    site_bits = [1 << c for c in range(n_sites)]
    for m in range(1, cap + 1):
        space = comb(n_sites, m)
        if space > SEARCH_SPACE_LIMIT:
            raise InputError(
                f"search space C({n_sites}, {m}) = {space} exceeds "
                f"limit {SEARCH_SPACE_LIMIT}"
            )
        if m < min(spec.thresholds) and m < n_sites:
            tested += space
            continue
        if m == block_size and spec.n >= max(spec.thresholds):
            bits = 0
            for c in block:
                bits |= 1 << c
            tested += 1
            if cascade.percolates(bits):
                witness = tuple(sorted(_decode_codes(spec, block)))
                return MinSetResult(m, witness, tested)
        for combo in itertools.combinations(range(n_sites), m):
            bits = 0
            for c in combo:
                bits |= site_bits[c]
            tested += 1
            if cascade.percolates(bits):
                witness = tuple(sorted(_decode_codes(spec, combo)))
                return MinSetResult(m, witness, tested)
    return MinSetResult(None, None, tested)


def _decode_codes(spec: GridSpec, codes) -> list[Point]:
    return [decode_point(spec, int(c)) for c in codes]
