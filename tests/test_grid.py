import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineperc import (
    GridSpec,
    InputError,
    LineId,
    all_lines,
    decode_line,
    decode_point,
    encode_line,
    encode_point,
    format_line,
    format_point,
    lines_through,
    parse_line,
    parse_point,
    points_on,
)
from lineperc.grid import MAX_LINES


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
    for line in all_lines(spec):
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
    lines = list(all_lines(spec))
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
        points_on(spec, LineId(2, (1,)))
    with pytest.raises(InputError):
        decode_line(spec, 8)
    with pytest.raises(InputError):
        decode_point(spec, 16)
    with pytest.raises(InputError):
        encode_line(spec, LineId(0, (1, 1)))


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
    assert parse_line(spec, "1:3") == LineId(1, (3,))
    spec1 = GridSpec.uniform(4, 1, 1)
    assert format_line(LineId(0, ())) == "0:"
    assert parse_line(spec1, "0:") == LineId(0, ())
    with pytest.raises(InputError):
        parse_point(spec, "3,x")
    with pytest.raises(InputError):
        parse_line(spec, "9:1")
