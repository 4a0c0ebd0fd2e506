import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineperc import (
    Cascade2D,
    GridSpec,
    InputError,
    LineCountClass,
    LineId,
    Preface,
    closure,
    decode_line,
    decode_point,
    encode_point,
    estimate_theta,
    eval_matrix,
    format_line,
    format_point,
    is_slow,
    lines_through,
    parse_point,
    plane_statistics,
    regime_of,
)
from lineperc.grid import MAX_DIMENSION, MAX_LINES
from lineperc.theory import log_binom_pmf, pc2_exponent, theta2_regime_exponents


# Geometry oracles written from the definitions alone: a line is its free
# axis plus its fixed coordinates, and its id counts the fixed coordinates
# in base n within its axis's block of n^(d-1) ids.


def encode_line(spec, line):
    """The canonical id of ``line``."""
    assert 0 <= line.axis < spec.d and len(line.fixed) == spec.d - 1
    assert all(1 <= c <= spec.n for c in line.fixed)
    val = 0
    for c in line.fixed:
        val = val * spec.n + (c - 1)
    return line.axis * spec.lines_per_axis + val


def points_on(spec, line):
    """The n points of a line, ordered by the varying coordinate."""
    encode_line(spec, line)  # checks the line lies in the grid
    out = []
    for t in range(1, spec.n + 1):
        coords = list(line.fixed)
        coords.insert(line.axis, t)
        out.append(tuple(coords))
    return out


def test_spec_validation():
    GridSpec(1, 1, (1,))
    with pytest.raises(InputError):
        GridSpec(0, 2, (1, 1))
    with pytest.raises(InputError):
        GridSpec(3, 0, ())
    with pytest.raises(InputError):
        GridSpec(3, 2, (1,))
    with pytest.raises(InputError):
        GridSpec(3, 2, (1, 0))
    assert GridSpec.uniform(5, 3, 2).thresholds == (2, 2, 2)
    with pytest.raises(InputError):
        GridSpec(3, 2, (1, 2)).r  # noqa: B018


def test_spec_refuses_fractional_thresholds():
    # int() truncated a threshold of 2.7 to 2
    with pytest.raises(InputError, match="threshold must be an integer"):
        GridSpec(4, 2, (2.7, 2))


def test_spec_refuses_fractional_side_and_dimension():
    # n = 4.5 was accepted, and closure on it raised TypeError; d = 2.0 got
    # as far as (2,) * 2.0
    with pytest.raises(InputError, match="side length must be an integer"):
        GridSpec(4.5, 2, (2, 2))
    with pytest.raises(InputError, match="dimension must be an integer"):
        GridSpec.uniform(4, 2.0, 2)


def test_spec_takes_numpy_integers_as_ints():
    spec = GridSpec(np.int64(4), np.int32(2), (np.int64(2), np.uint8(3)))
    assert spec == GridSpec(4, 2, (2, 3))
    assert all(type(v) is int for v in (spec.n, spec.d, *spec.thresholds))


def test_encode_point_refuses_fractional_coordinates():
    # int() truncated (1.9, 1) to (1, 1), code 0
    spec = GridSpec.uniform(4, 2, 2)
    with pytest.raises(InputError, match="coordinate must be an integer"):
        encode_point(spec, (1.9, 1))
    assert encode_point(spec, (np.int64(2), np.int32(1))) == 4


def test_closure_refuses_fractional_points():
    # the cascade ran on (1, 1) and (1, 2)
    spec = GridSpec.uniform(4, 2, 2)
    with pytest.raises(InputError, match="coordinate must be an integer"):
        closure(spec, [(1.5, 1.5), (1, 2.7)])


def test_decode_refuses_a_fractional_code_or_line_id():
    # decode_point(spec, 1.5) gave (1, 2), the point of code 1, and
    # decode_line(spec, 2.7) gave the line of id 2
    spec = GridSpec.uniform(4, 2, 2)
    with pytest.raises(InputError, match="point code must be an integer"):
        decode_point(spec, 1.5)
    with pytest.raises(InputError, match="line id must be an integer"):
        decode_line(spec, 2.7)
    assert decode_point(spec, np.int64(1)) == (1, 2)
    assert decode_line(spec, np.int32(5)) == LineId(1, (2,))


def test_spec_line_budget():
    assert GridSpec(MAX_LINES // 2, 2, (2, 2)).num_lines == MAX_LINES
    with pytest.raises(InputError):
        GridSpec(MAX_LINES // 2 + 1, 2, (2, 2))
    with pytest.raises(InputError):
        GridSpec(10**6, 3, (2, 2, 2))
    # one line, but as long as the line budget allows
    assert GridSpec(MAX_LINES, 1, (1,)).num_lines == 1
    with pytest.raises(InputError, match="side length"):
        GridSpec(MAX_LINES + 1, 1, (1,))
    # no line holds more points than that, so no higher threshold is reached
    assert GridSpec(4, 2, (2, MAX_LINES)).thresholds == (2, MAX_LINES)
    with pytest.raises(InputError, match="thresholds"):
        GridSpec(4, 2, (2, MAX_LINES + 1))
    # a one-point grid has d lines, so the dimension has its own bound, checked
    # before the d thresholds are built: (2,) * 2^63 raises OverflowError
    assert GridSpec.uniform(1, MAX_DIMENSION, 1).num_lines == MAX_DIMENSION
    with pytest.raises(InputError, match="dimension"):
        GridSpec(1, MAX_DIMENSION + 1, (1,) * (MAX_DIMENSION + 1))
    with pytest.raises(InputError, match="dimension"):
        GridSpec.uniform(2, 2**63, 2)
    # the refusal names the bound, not the count of d * n^(d-1) lines
    with pytest.raises(InputError, match=f"more than the supported {MAX_LINES} lines"):
        GridSpec.uniform(MAX_LINES, MAX_DIMENSION, 2)


def test_lines_through_2d():
    spec = GridSpec.uniform(8, 2, 3)
    ls = lines_through(spec, (3, 5))
    assert ls == [LineId(0, (5,)), LineId(1, (3,))]


def test_lines_through_1d():
    spec = GridSpec.uniform(4, 1, 2)
    assert lines_through(spec, (2,)) == [LineId(0, ())]


def test_lines_through_3d_pairwise_intersection():
    spec = GridSpec.uniform(4, 3, 2)
    p = (1, 2, 3)
    ls = lines_through(spec, p)
    assert len(ls) == 3 and len(set(ls)) == 3
    pts = [set(points_on(spec, l)) for l in ls]
    for s in pts:
        assert p in s
    for i in range(3):
        for j in range(i + 1, 3):
            assert pts[i] & pts[j] == {p}


def test_points_on_examples():
    spec = GridSpec.uniform(3, 2, 2)
    assert points_on(spec, LineId(0, (2,))) == [(1, 2), (2, 2), (3, 2)]
    spec3 = GridSpec.uniform(2, 3, 2)
    assert points_on(spec3, LineId(2, (1, 1))) == [(1, 1, 1), (1, 1, 2)]


def test_incidence_round_trip():
    spec = GridSpec.uniform(3, 3, 2)
    for lid in range(spec.num_lines):
        line = decode_line(spec, lid)
        for q in points_on(spec, line):
            assert line in lines_through(spec, q)


def test_encode_examples():
    spec = GridSpec.uniform(8, 2, 3)
    assert encode_line(spec, LineId(0, (1,))) == 0
    assert encode_line(spec, LineId(1, (1,))) == 8


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (5, 2), (4, 3), (5, 3)])
def test_encode_decode_bijection_exhaustive(n, d):
    spec = GridSpec.uniform(n, d, 1)
    seen = set()
    for lid in range(spec.num_lines):
        line = decode_line(spec, lid)
        assert encode_line(spec, line) == lid
        seen.add(line)
    assert len(seen) == d * n ** (d - 1)


def test_counting_invariants():
    spec = GridSpec.uniform(4, 3, 2)
    lines = [decode_line(spec, lid) for lid in range(spec.num_lines)]
    assert len(lines) == 3 * 16
    for line in lines:
        assert len(points_on(spec, line)) == spec.n
    # every point on exactly d lines
    for code in range(spec.num_sites):
        assert len(lines_through(spec, decode_point(spec, code))) == 3


def test_input_errors():
    spec = GridSpec.uniform(4, 2, 2)
    with pytest.raises(InputError):
        lines_through(spec, (0, 1))
    with pytest.raises(InputError):
        lines_through(spec, (1, 5))
    with pytest.raises(InputError):
        decode_line(spec, 8)
    with pytest.raises(InputError):
        decode_point(spec, 16)


SPEC2 = GridSpec.uniform(4, 2, 2)
REFUSALS = {
    "Cascade2D in 3D": (lambda: Cascade2D(GridSpec.uniform(4, 3, 2), []),
                        "Cascade2D requires d = 2"),
    "point of the wrong length": (lambda: encode_point(SPEC2, (1, 2, 3)),
                                  "has 3 coordinates, expected 2"),
    "eval_matrix at coordinate 0": (lambda: eval_matrix([(0, 1)], (2, 2)),
                                    "non-positive"),
    "is_slow with s < 0": (
        lambda: is_slow(Preface(LineCountClass.VERTICAL, (0,), (1,)), -1),
        "slowness parameter must be >= 0"),
    "plane_statistics in 2D": (lambda: plane_statistics(SPEC2, closure(SPEC2, [])),
                               "requires d = 3"),
    "pc2_exponent at r = 1": (lambda: pc2_exponent(1), "must be >= 2"),
    "theta2_regime_exponents at r = 1": (lambda: theta2_regime_exponents(1),
                                         "must be >= 2"),
    "regime_of at n = 1": (lambda: regime_of(1, 0.5, 2), "need n >= 2"),
    "log_binom_pmf with k > N": (lambda: log_binom_pmf(5, 0.5, [6]),
                                 r"k out of range \[0, N\]"),
    "log_binom_pmf with p > 1": (lambda: log_binom_pmf(5, 1.5, [1]),
                                 r"p must lie in \[0, 1\]"),
    "estimate_theta with p > 1": (lambda: estimate_theta(SPEC2, 1.5, 10, 0),
                                  r"p must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_raise_input_error(case):
    # refusals that only a bad call reaches, one per module and check
    call, match = REFUSALS[case]
    with pytest.raises(InputError, match=match):
        call()


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_point_codec_round_trip(data):
    n = data.draw(st.integers(1, 9))
    d = data.draw(st.integers(1, 4))
    spec = GridSpec.uniform(n, d, 1)
    p = tuple(data.draw(st.integers(1, n)) for _ in range(d))
    assert decode_point(spec, encode_point(spec, p)) == p


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_line_codec_round_trip(data):
    n = data.draw(st.integers(1, 9))
    d = data.draw(st.integers(1, 4))
    spec = GridSpec.uniform(n, d, 1)
    axis = data.draw(st.integers(0, d - 1))
    fixed = tuple(data.draw(st.integers(1, n)) for _ in range(d - 1))
    line = LineId(axis, fixed)
    assert decode_line(spec, encode_line(spec, line)) == line


def test_text_formats():
    spec = GridSpec.uniform(8, 2, 3)
    assert format_point((3, 5)) == "3,5"
    assert parse_point(spec, " 3,5 ") == (3, 5)
    assert format_line(LineId(1, (3,))) == "1:3"
    assert format_line(LineId(0, ())) == "0:"
    with pytest.raises(InputError):
        parse_point(spec, "3,x")
