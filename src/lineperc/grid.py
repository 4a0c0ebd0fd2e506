"""Grid geometry for axis-parallel line percolation on [n]^d.

Points are 1-based d-tuples, matching the usual [n]^d convention; every
internal array index is 0-based and the codecs in this module are the only
place the two meet.  A line is identified by the axis it runs along plus the
d-1 coordinates it holds fixed, and carries a canonical integer id in
[0, d*n^(d-1)).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np


class InputError(ValueError):
    """Raised for invalid user input: bad spec, point, line id, or flag."""


Point = tuple[int, ...]

# every line gets a few counters and flags, so the line count bounds the
# memory a grid needs; 2^24 lines is about 300 MB of per-line arrays.  One
# saturation touches the n points of a line, so the side length has the same
# bound, which binds only at d = 1
MAX_LINES = 1 << 24

# a grid with n >= 2 and at most MAX_LINES lines has d <= 20, and the per-spec
# tables hold d x d strides, so this binds only the one-point grids n = 1
MAX_DIMENSION = 64

# the small-grid tools (the ``naive_closure`` oracle, non-percolation
# certificates and ``minset verify``) hold one value per site
MAX_SMALL_GRID_SITES = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """The universe [n]^d together with per-axis infection thresholds.

    ``thresholds[a]`` is the number of infected points a line running along
    axis ``a`` needs before it saturates.  The uniform model has all
    thresholds equal to a single infection parameter r.
    """

    n: int
    d: int
    thresholds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "side length"))
        object.__setattr__(self, "d", require_dimension(self.d))
        object.__setattr__(
            self, "thresholds", tuple(as_int(t, "threshold") for t in self.thresholds)
        )
        if self.n < 1:
            raise InputError(f"side length must be >= 1, got {self.n}")
        if len(self.thresholds) != self.d:
            raise InputError(
                f"need {self.d} thresholds, got {len(self.thresholds)}"
            )
        if any(t < 1 for t in self.thresholds):
            raise InputError(f"thresholds must be >= 1, got {self.thresholds}")
        # a line holds at most n <= MAX_LINES points, so no higher threshold
        # is ever reached
        if any(t > MAX_LINES for t in self.thresholds):
            raise InputError(f"thresholds must be <= {MAX_LINES}, got {self.thresholds}")
        if self.n > MAX_LINES:
            raise InputError(
                f"side length {self.n} is more than the supported {MAX_LINES}"
            )
        # the count can run to hundreds of digits, so it is not shown
        if self.num_lines > MAX_LINES:
            raise InputError(
                f"[{self.n}]^{self.d} has more than the supported {MAX_LINES} lines"
            )

    @classmethod
    def uniform(cls, n: int, d: int, r: int) -> "GridSpec":
        require_dimension(d)  # before the d thresholds are built
        return cls(n, d, (r,) * d)

    @property
    def num_sites(self) -> int:
        return self.n**self.d

    @property
    def lines_per_axis(self) -> int:
        return self.n ** (self.d - 1)

    @property
    def num_lines(self) -> int:
        return self.d * self.lines_per_axis

    @property
    def is_uniform(self) -> bool:
        return len(set(self.thresholds)) == 1

    @property
    def r(self) -> int:
        """The uniform infection parameter; error for mixed thresholds."""
        if not self.is_uniform:
            raise InputError(f"thresholds {self.thresholds} are not uniform")
        return self.thresholds[0]


def as_int(value, what: str) -> int:
    """``value`` as an int, or InputError if it is no integer: a float is
    refused rather than truncated, and numpy integers are accepted."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def require_dimension(d: int) -> int:
    """Refuse a dimension that is no integer or lies outside
    [1, MAX_DIMENSION]; returns it as an int."""
    d = as_int(d, "dimension")
    if not 1 <= d <= MAX_DIMENSION:
        raise InputError(f"dimension must lie in [1, {MAX_DIMENSION}], got {d}")
    return d


def require_small_grid(spec: GridSpec, what: str) -> None:
    """Refuse ``spec`` for ``what``, which holds one value per site, when it
    has more than ``MAX_SMALL_GRID_SITES`` sites."""
    if spec.num_sites > MAX_SMALL_GRID_SITES:
        raise InputError(
            f"{what} is for grids of at most {MAX_SMALL_GRID_SITES} sites; "
            f"[{spec.n}]^{spec.d} has {spec.num_sites}"
        )


@dataclass(frozen=True, order=True)
class LineId:
    """An axis-parallel line: the free axis plus the d-1 fixed coordinates.

    ``fixed`` lists the constant coordinates in increasing axis order,
    skipping ``axis``.  For d=1 it is empty.
    """

    axis: int
    fixed: tuple[int, ...]


# ---------------------------------------------------------------------------
# cached per-spec index tables
# ---------------------------------------------------------------------------


class _SpecTables:
    """Integer strides and lookup matrices for one GridSpec.

    For a point with 0-based digits (g_0..g_{d-1}), code = sum g_i * n^(d-1-i),
    and the id of the line through it along axis b is
    off[b] + sum_{i != b} g_i * W[b, i].  Both maps are affine in every digit,
    which is what lets the cascade walk a whole line with strided slices.
    """

    def __init__(self, spec: GridSpec):
        n, d = spec.n, spec.d
        self.spec = spec
        self.n = n
        self.d = d
        self.N = spec.num_sites
        self.L = spec.num_lines
        self.lines_per_axis = spec.lines_per_axis
        self.pstride = np.array([n ** (d - 1 - i) for i in range(d)], dtype=np.int64)
        self.off = np.array(
            [b * self.lines_per_axis for b in range(d)], dtype=np.int64
        )
        W = np.zeros((d, d), dtype=np.int64)
        for b in range(d):
            j = 0
            for i in range(d):
                if i == b:
                    continue
                W[b, i] = n ** (d - 2 - j)
                j += 1
        self.W = W
        self.thr = np.array(spec.thresholds, dtype=np.int64)
        # plain-int copies for per-point scalar arithmetic, where numpy's
        # per-call overhead would dominate
        self.off_list = self.off.tolist()
        self.W_list = W.tolist()
        self._rev_others = [[i for i in reversed(range(d)) if i != b] for b in range(d)]
        # the planes of the engine's flat rule.  An axis-b line lies in the
        # plane {b, e} of each other axis e, the j-th of which is j + (j >= b),
        # and ``plane_index`` places that plane among its m = n^(d-2)
        # parallels, as i.  Plane {x, y}, x < y, is p = (y (y - 1) / 2 + x) m
        # + i and counts its axis-x and axis-y lines at keys 2p and 2p + 1:
        # the line's key is plane_base[b, j] + 2i, and plane_need per key is
        # the thr[e] that fills the plane
        b = np.arange(d)[:, None]
        j = np.arange(d - 1)
        e = j + (j >= b)
        x, y = np.minimum(b, e), np.maximum(b, e)
        m = n ** max(d - 2, 0)
        self.plane_base = 2 * m * (y * (y - 1) // 2 + x) + (b > e)
        thr = spec.thresholds
        need = [(thr[y], thr[x]) for y in range(d) for x in range(y)]
        need = np.array(need, dtype=np.int64).reshape(-1, 1, 2)
        self.plane_need = np.repeat(need, m, axis=1).ravel()

    @cached_property
    def plane_index(self) -> np.ndarray:
        """2i by line id less its axis offset (rows) and by j (columns),
        where i indexes the line's plane through its j-th other axis among
        the parallel planes: it is that id with the axis's digit, of weight
        n^(d-2-j), dropped.  Built on first use, in int32, it is less than
        half the size of a kernel's int64 ``line_count``."""
        w = (self.n ** np.arange(self.d - 2, -1, -1)).astype(np.int32)
        rest = np.arange(self.lines_per_axis, dtype=np.int32)[:, None]
        return 2 * (rest // (w * self.n) * w + rest % w)

    def digits_of(self, codes: np.ndarray) -> np.ndarray:
        """0-based digit matrix, shape (len(codes), d)."""
        return (codes[:, None] // self.pstride[None, :]) % self.n

    def lids_of(self, codes: np.ndarray) -> np.ndarray:
        """Ids of the d lines through each code, shape (len(codes), d)."""
        return self.digits_of(codes) @ self.W.T + self.off

    def line_digits(self, lid: int) -> tuple[int, list[int]]:
        """Decode a line id to (axis, full 0-based digit vector with 0 at axis)."""
        axis, rem = divmod(int(lid), self.lines_per_axis)
        g = [0] * self.d
        for i in self._rev_others[axis]:
            rem, g[i] = divmod(rem, self.n)
        return axis, g

    def line_slice(self, lid: int) -> slice:
        """Codes of the n points of line ``lid``, as a slice of a per-code
        array (``range(N)[slice]`` lists them)."""
        axis, g = self.line_digits(lid)
        base = int(sum(gd * s for gd, s in zip(g, self.pstride)))
        step = int(self.pstride[axis])
        return slice(base, base + step * self.n, step)


@lru_cache(maxsize=64)
def _tables(spec: GridSpec) -> _SpecTables:
    return _SpecTables(spec)


# ---------------------------------------------------------------------------
# point and line codecs
# ---------------------------------------------------------------------------


def validate_point(spec: GridSpec, p: Sequence[int]) -> Point:
    p = tuple(as_int(c, "a point coordinate") for c in p)
    if len(p) != spec.d:
        raise InputError(f"point {p} has {len(p)} coordinates, expected {spec.d}")
    if any(c < 1 or c > spec.n for c in p):
        raise InputError(f"point {p} out of range [1, {spec.n}]^{spec.d}")
    return p


def encode_point(spec: GridSpec, p: Sequence[int]) -> int:
    p = validate_point(spec, p)
    t = _tables(spec)
    return int(sum((c - 1) * s for c, s in zip(p, t.pstride)))


def decode_point(spec: GridSpec, code: int) -> Point:
    code = as_int(code, "a point code")
    if code < 0 or code >= spec.num_sites:
        raise InputError(f"point code {code} out of range [0, {spec.num_sites})")
    t = _tables(spec)
    return tuple(int(code // s % spec.n) + 1 for s in t.pstride)


def encode_points(spec: GridSpec, points: Iterable[Sequence[int]]) -> np.ndarray:
    """Sorted array of distinct point codes (validates every point)."""
    codes = [encode_point(spec, p) for p in points]
    return _distinct_codes(np.asarray(codes, dtype=np.int64))


def _distinct_codes(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of the 1-D int64 array ``codes``, always a new array,
    for less on the few tens of codes of a sparse trial: a copy when they
    already ascend, as a grown state's seeds do, else a sort and a mask."""
    if codes.size > 1 and np.count_nonzero(codes[1:] <= codes[:-1]):
        codes = np.sort(codes)
        return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return codes.copy()


def decode_line(spec: GridSpec, lid: int) -> LineId:
    """The line of id ``lid``, validated, as ``_SpecTables.line_digits`` reads it."""
    lid = as_int(lid, "a line id")
    if lid < 0 or lid >= spec.num_lines:
        raise InputError(f"line id {lid} out of range [0, {spec.num_lines})")
    axis, g = _tables(spec).line_digits(lid)
    return LineId(axis, tuple(c + 1 for i, c in enumerate(g) if i != axis))


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------


def lines_through(spec: GridSpec, p: Sequence[int]) -> list[LineId]:
    """The d axis-parallel lines through p, one per axis."""
    p = validate_point(spec, p)
    out = []
    for axis in range(spec.d):
        fixed = tuple(c for i, c in enumerate(p) if i != axis)
        out.append(LineId(axis, fixed))
    return out


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def format_point(p: Sequence[int]) -> str:
    return ",".join(str(c) for c in p)


def parse_point(spec: GridSpec, text: str) -> Point:
    parts = text.strip().split(",")
    try:
        coords = [int(x) for x in parts if x != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse point {text!r}") from exc
    return validate_point(spec, coords)


def format_line(line: LineId) -> str:
    return f"{line.axis}:" + ",".join(str(c) for c in line.fixed)
