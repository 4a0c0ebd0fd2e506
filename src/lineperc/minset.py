"""Exact integer certificates and searches for minimal percolating sets.

Take the box of thresholds [r_1] x ... x [r_d] and the r_1 ... r_d monomials
whose degree in x_i is below r_i.  A set A with |A| < r_1 ... r_d admits a
nonzero polynomial in their span vanishing on A; the same polynomial
vanishes on the whole closure, because a saturating line in direction i
pins r_i roots of a univariate restriction of degree below r_i.  Since no
nonzero such polynomial vanishes on all of [n]^d when n >= every r_i (Alon's
Combinatorial Nullstellensatz), the polynomial is a certificate that A does
not percolate.

Everything here is integer arithmetic over Python ints: ranks come from
fraction-free (Bareiss) elimination, and kernel vectors from a
back-substitution scaled by the last Bareiss pivot, in which every division
is exact (Cramer's rule).  No floating point and no fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd, prod
from typing import Iterable, Sequence

from .engine import closure, percolates
from .grid import (
    GridSpec,
    InputError,
    Point,
    _tables,
    as_int,
    decode_point,
    encode_point,
    require_small_grid,
    validate_point,
)

SEARCH_SPACE_LIMIT = 10**7
# the most monomials r^d = r_1 ... r_d a certificate takes: its evaluation
# matrix has up to r^d rows and columns of big ints, and elimination costs
# about (r^d)^4 (a kernel vector of r^d - 1 points takes 0.0008 s at r^d =
# 16, 0.06-0.08 s at 64 and 0.48-0.54 s at 100, d = 2, on a 2-core VM)
MAX_MONOMIALS = 64


def _box(bounds: Sequence[int]) -> list[tuple[int, ...]]:
    """All alpha with 0 <= alpha_i < bounds[i], in colexicographic order
    (first axis fastest)."""
    return [tuple(reversed(t)) for t in itertools.product(*map(range, reversed(bounds)))]


def exponent_tuples(thresholds: Sequence[int]) -> list[tuple[int, ...]]:
    """The exponent box of ``thresholds``: every alpha with alpha_i < r_i, in
    colexicographic order.  Refuses a bound that is no integer, an empty box
    and one of more than ``MAX_MONOMIALS`` monomials."""
    bounds = tuple(as_int(r, "a threshold") for r in thresholds)
    if not bounds or min(bounds) < 1:
        raise InputError(f"need r >= 1 and d >= 1, got thresholds {bounds}")
    if prod(bounds) > MAX_MONOMIALS:
        raise InputError(
            f"r^d = {prod(bounds)} monomials of thresholds {bounds} exceed the "
            f"{MAX_MONOMIALS} a certificate takes"
        )
    return _box(bounds)


def eval_matrix(
    points: Sequence[Sequence[int]], thresholds: Sequence[int]
) -> list[list[int]]:
    """Evaluation matrix: rows = points, columns = monomials v^alpha (colex)."""
    alphas = exponent_tuples(thresholds)
    d = len(alphas[0])
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


def eval_rank(points: Iterable[Sequence[int]], thresholds: Sequence[int]) -> int:
    """Exact rank of the evaluation matrix over the rationals."""
    pts = _dedupe(points)
    if not pts:
        return 0
    rank, _, _ = _row_echelon_bareiss(eval_matrix(pts, thresholds))
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
    """A nonzero polynomial with degree below r_i in x_i, integer coefficients.

    ``coefficients[i]`` multiplies the monomial with exponents
    ``exponent_tuples(thresholds)[i]``; refuses a coefficient tuple that is
    all zero or of another length.
    """

    thresholds: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self):
        size = len(exponent_tuples(self.thresholds))
        if len(self.coefficients) != size:
            raise InputError(
                f"{len(self.coefficients)} coefficients for {size} monomials"
            )
        if not any(self.coefficients):
            raise InputError("a vanishing polynomial must be nonzero")

    def evaluate(self, p: Sequence[int]) -> int:
        row = eval_matrix([p], self.thresholds)[0]
        return sum(c * v for c, v in zip(self.coefficients, row))

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        alphas = exponent_tuples(self.thresholds)
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
    points: Iterable[Sequence[int]], thresholds: Sequence[int]
) -> VanishingPolynomial | None:
    """A kernel vector of the evaluation map, or None when the map has full
    column rank r_1 ... r_d.

    Deterministic choice: the kernel basis vector attached to the first free
    column, scaled to coprime integer coefficients with positive leading
    sign.  The free column takes the last Bareiss pivot, the maximal minor
    on the pivot columns, so by Cramer's rule every back-substitution step
    divides exactly.  Verified by exact evaluation at every input point.
    """
    n_cols = len(exponent_tuples(thresholds))
    pts = _dedupe(points)
    rank, pivots, ech = _row_echelon_bareiss(eval_matrix(pts, thresholds))
    if rank == n_cols:
        return None
    free = next(c for c in range(n_cols) if c not in pivots)
    x = [0] * n_cols
    x[free] = ech[rank - 1][pivots[-1]] if pivots else 1
    for i in range(rank - 1, -1, -1):
        pc = pivots[i]
        acc = sum(x[j] * ech[i][j] for j in range(pc + 1, n_cols) if x[j])
        x[pc], rem = divmod(-acc, ech[i][pc])
        assert rem == 0  # Cramer's rule: the minor divides exactly
    g = gcd(*x)
    sign = -1 if next(v for v in x if v) < 0 else 1
    poly = VanishingPolynomial(tuple(thresholds), tuple(sign * v // g for v in x))
    for p in pts:
        assert poly.evaluate(p) == 0
    return poly


@dataclass(frozen=True)
class NonPercolationCertificate:
    polynomial: VanishingPolynomial
    closure_size: int
    percolates: bool  # always False


def _certificate_box(spec: GridSpec) -> list[tuple[int, ...]]:
    """``exponent_tuples(spec.thresholds)``, refused when n is below a
    threshold: then a nonzero polynomial of the box may vanish on [n]^d."""
    alphas = exponent_tuples(spec.thresholds)
    r = max(spec.thresholds)
    if spec.n < r:
        raise InputError(
            f"certificate argument needs n >= r for every threshold r, "
            f"got n={spec.n} < r={r}"
        )
    return alphas


def certify_non_percolation(
    spec: GridSpec, points: Iterable[Sequence[int]]
) -> NonPercolationCertificate:
    """Produce and verify a vanishing-polynomial certificate for
    |A| < r^d = r_1 ... r_d.

    The polynomial is checked, in exact arithmetic, to vanish on every point
    of the closure (not just on A), and the cascade engine independently
    confirms non-percolation.  The closure is listed point by point, so the
    grid must be small (``MAX_SMALL_GRID_SITES``), and r^d at most
    ``MAX_MONOMIALS``.
    """
    size = len(_certificate_box(spec))
    require_small_grid(spec, "certify_non_percolation")
    pts = _dedupe(validate_point(spec, p) for p in points)
    if len(pts) >= size:
        raise InputError(f"no certificate for |A| = {len(pts)} >= r^d = {size}")
    poly = vanishing_polynomial(pts, spec.thresholds)
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
    corner = (
        [tuple(a + 1 for a in alpha) for alpha in _box(spec.thresholds)]
        if spec.n >= max(spec.thresholds)
        else []
    )
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
        if m == len(corner):
            tested += 1
            if cascade.percolates(sum(site_bits[encode_point(spec, p)] for p in corner)):
                return MinSetResult(m, tuple(sorted(corner)), tested)
        for combo in itertools.combinations(range(n_sites), m):
            bits = 0
            for c in combo:
                bits |= site_bits[c]
            tested += 1
            if cascade.percolates(bits):
                witness = tuple(sorted(decode_point(spec, c) for c in combo))
                return MinSetResult(m, witness, tested)
    return MinSetResult(None, None, tested)
