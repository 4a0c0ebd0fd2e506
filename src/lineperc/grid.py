"""Grid geometry for axis-parallel line percolation on [n]^d.

Points are 1-based d-tuples, matching the usual [n]^d convention; every
internal array index is 0-based and the codecs in this module are the only
place the two meet.  A line is identified by the axis it runs along plus the
d-1 coordinates it holds fixed, and carries a canonical integer id in
[0, d*n^(d-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np


class InputError(ValueError):
    """Raised for invalid user input: bad spec, point, line id, or flag."""


Point = tuple[int, ...]

# every line gets a few counters and flags, so the line count bounds the
# memory a grid needs; 2^24 lines is about 300 MB of per-line arrays.  One
# saturation touches the n points of a line, so the side length has the same
# bound, which binds only at d = 1
MAX_LINES = 1 << 24

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
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        if self.d < 1:
            raise InputError(f"dimension must be >= 1, got {self.d}")
        if self.n < 1:
            raise InputError(f"side length must be >= 1, got {self.n}")
        if len(self.thresholds) != self.d:
            raise InputError(
                f"need {self.d} thresholds, got {len(self.thresholds)}"
            )
        if any(t < 1 for t in self.thresholds):
            raise InputError(f"thresholds must be >= 1, got {self.thresholds}")
        if self.num_lines > MAX_LINES:
            raise InputError(
                f"[{self.n}]^{self.d} has {self.num_lines} lines, "
                f"more than the supported {MAX_LINES}"
            )
        if self.n > MAX_LINES:
            raise InputError(
                f"side length {self.n} is more than the supported {MAX_LINES}"
            )

    @classmethod
    def uniform(cls, n: int, d: int, r: int) -> "GridSpec":
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
        self.thr_line = np.repeat(
            np.array(spec.thresholds, dtype=np.int64), self.lines_per_axis
        )
        # plain-int copies for per-point scalar arithmetic, where numpy's
        # per-call overhead would dominate
        self.pstride_list = self.pstride.tolist()
        self.off_list = self.off.tolist()
        self.W_list = W.tolist()

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
        for i in reversed([i for i in range(self.d) if i != axis]):
            rem, dig = divmod(rem, self.n)
            g[i] = dig
        return axis, g


@lru_cache(maxsize=64)
def _tables(spec: GridSpec) -> _SpecTables:
    return _SpecTables(spec)


# ---------------------------------------------------------------------------
# point and line codecs
# ---------------------------------------------------------------------------


def validate_point(spec: GridSpec, p: Sequence[int]) -> Point:
    p = tuple(int(c) for c in p)
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
    if code < 0 or code >= spec.num_sites:
        raise InputError(f"point code {code} out of range [0, {spec.num_sites})")
    t = _tables(spec)
    return tuple(int(code // s % spec.n) + 1 for s in t.pstride)


def encode_points(spec: GridSpec, points: Iterable[Sequence[int]]) -> np.ndarray:
    """Sorted array of distinct point codes (validates every point)."""
    codes = [encode_point(spec, p) for p in points]
    return np.unique(np.asarray(codes, dtype=np.int64))


def encode_line(spec: GridSpec, line: LineId) -> int:
    if line.axis < 0 or line.axis >= spec.d:
        raise InputError(f"axis {line.axis} out of range [0, {spec.d})")
    if len(line.fixed) != spec.d - 1:
        raise InputError(
            f"line {line} has {len(line.fixed)} fixed coordinates, expected {spec.d - 1}"
        )
    if any(c < 1 or c > spec.n for c in line.fixed):
        raise InputError(f"line {line} fixed coordinates out of range [1, {spec.n}]")
    val = 0
    for c in line.fixed:
        val = val * spec.n + (c - 1)
    return line.axis * spec.lines_per_axis + val


def decode_line(spec: GridSpec, lid: int) -> LineId:
    if lid < 0 or lid >= spec.num_lines:
        raise InputError(f"line id {lid} out of range [0, {spec.num_lines})")
    axis, rem = divmod(int(lid), spec.lines_per_axis)
    fixed = []
    for _ in range(spec.d - 1):
        rem, dig = divmod(rem, spec.n)
        fixed.append(dig + 1)
    return LineId(axis, tuple(reversed(fixed)))


def all_lines(spec: GridSpec) -> Iterator[LineId]:
    """All d*n^(d-1) lines in canonical (axis-major, lexicographic) order."""
    for lid in range(spec.num_lines):
        yield decode_line(spec, lid)


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


def points_on(spec: GridSpec, line: LineId) -> list[Point]:
    """The n points of a line, ordered by the varying coordinate."""
    encode_line(spec, line)  # validates
    out = []
    for t in range(1, spec.n + 1):
        coords = list(line.fixed)
        coords.insert(line.axis, t)
        out.append(tuple(coords))
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


def parse_line(spec: GridSpec, text: str) -> LineId:
    head, _, rest = text.strip().partition(":")
    try:
        axis = int(head)
        fixed = tuple(int(x) for x in rest.split(",") if x != "")
    except ValueError as exc:
        raise InputError(f"cannot parse line {text!r}") from exc
    line = LineId(axis, fixed)
    encode_line(spec, line)  # validates
    return line
