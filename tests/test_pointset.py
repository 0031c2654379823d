import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections.errors import FsetParseError, SizeCapError
from fqdirections.generators import gen_random
from fqdirections.pointset import (
    PointSet,
    format_fset,
    parse_fset,
    read_fset,
    write_fset,
)
from oracles import apply_linear_map, matrix_rank_mod


def test_constructors_agree():
    a = PointSet.from_points(5, 2, [(0, 0), (1, 2), (4, 4)])
    b = PointSet.from_indices(5, 2, [0, 7, 24])
    c = PointSet.from_coords(5, 2, np.array([[0, 0], [1, 2], [4, 4]]))
    assert a == b == c
    assert len(a) == 3
    assert a.contains((1, 2))
    assert not a.contains((2, 1))


def test_point_validation():
    with pytest.raises(ValueError):
        PointSet.from_points(5, 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        PointSet.from_points(5, 2, [(5, 0)])
    with pytest.raises(ValueError):
        PointSet.from_points(5, 2, [(-1, 0)])
    with pytest.raises(ValueError):
        PointSet.from_points(5, 2, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        PointSet.from_indices(5, 2, [25])
    for coords in ([[0, 5]], [[0, -1]], [[0, 0, 1]], [[1]], [0, 1]):
        with pytest.raises(ValueError):
            PointSet.from_coords(3, 2, coords)
    # floats and bools are refused, not truncated to the integers below them
    for indices in ([1.7, 4.2], [1.0], [True], np.array([0.5])):
        with pytest.raises(ValueError, match="must be integers"):
            PointSet.from_indices(3, 2, indices)
    for coords in ([[0.5, 1.9]], np.array([[True, False]])):
        with pytest.raises(ValueError, match="must be integers"):
            PointSet.from_coords(3, 2, coords)
    for point in ((0.5, 1.2), (True, 0), (1.0, 0)):
        with pytest.raises(ValueError, match="not integers"):
            PointSet.from_points(3, 2, [point])
    with pytest.raises(ValueError, match="must be integers"):
        PointSet.from_points(3, 2, [(0, 1)]).translate((0.5, 0))
    # numpy integers and empty input, whatever its dtype, still build sets
    assert PointSet.from_indices(3, 2, np.array([4, 1], dtype=np.uint8)).points() == [(0, 1), (1, 1)]
    assert PointSet.from_points(3, 2, [(np.int64(1), np.uint16(2))]).points() == [(1, 2)]
    assert PointSet.from_coords(3, 2, np.array([[2, 0]], dtype=np.int32)).points() == [(2, 0)]
    assert len(PointSet.from_indices(3, 2, [])) == len(PointSet.from_coords(3, 2, np.empty((0, 2)))) == 0
    assert len(gen_random(3, 2, 0, seed=1)) == 0


def test_bools_mixed_into_integer_lists_are_refused():
    # numpy reads [True, 2] as int64, so list input is checked element by element
    for indices in ([True, 2], [2, np.True_], (i == 0 or i for i in range(3))):
        with pytest.raises(ValueError, match="must be integers"):
            PointSet.from_indices(3, 2, indices)
    for coords in ([[True, 2]], [[0, 1], [2, False]], [np.array([0, 1]), [np.True_, 1]]):
        with pytest.raises(ValueError, match="must be integers"):
            PointSet.from_coords(3, 2, coords)
    with pytest.raises(ValueError, match="must be integers"):
        PointSet.from_points(3, 2, [(0, 1)]).translate((True, 0))
    assert PointSet.from_coords(3, 2, [np.array([1, 2]), [0, 1]]).points() == [(0, 1), (1, 2)]


def test_from_indices_takes_an_array_whole():
    # an ndarray goes to the dtype check as it is, with no list of numpy scalars in between
    picks = np.array([7, 3, 0], dtype=np.int32)
    assert PointSet.from_indices(3, 2, picks).indices().tolist() == [0, 3, 7]
    for indices in (np.array([True, False]), np.array([1.0, 2.0]), np.array([[True]])):
        with pytest.raises(ValueError, match="must be integers"):
            PointSet.from_indices(3, 2, indices)
    assert PointSet.from_indices(3, 2, np.array([], dtype=np.float64)).cardinality == 0


def test_empty_and_full():
    assert len(PointSet.empty(3, 2)) == 0
    assert len(PointSet.full(3, 2)) == 9
    assert PointSet.full(3, 2).contains((2, 2))


def test_size_cap_enforced():
    with pytest.raises(SizeCapError):
        PointSet.empty(257, 3)
    with pytest.raises(SizeCapError):
        PointSet.full(2, 25)


def test_contains_validates_the_point():
    E = PointSet.from_points(5, 2, [(4, 4)])
    assert E.contains((4, 4))
    assert not E.contains((0, 0))
    assert not PointSet.from_points(5, 2, [(0, 0)]).contains((4, 4))
    assert not PointSet.empty(5, 2).contains((0, 0))
    for bad in ((0, -1), (5, 0), (4,), (4, 4, 0), (0.5, 0), (4.0, 4), (True, 0)):
        with pytest.raises(ValueError):
            E.contains(bad)
    assert E.contains((np.int64(4), np.uint8(4)))


def test_indices_are_ascending_read_only_and_small():
    q, d = 101, 3
    picks = np.random.default_rng(5).choice(q**d, size=q + 1, replace=False)
    tracemalloc.start()
    try:
        E = PointSet.from_indices(q, d, picks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense q^d indicator would take 1 MB
    assert peak < 64 * 1024
    idx = E.indices()
    assert idx.dtype == np.int64
    assert np.array_equal(idx, np.sort(picks))
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0] = 1
    assert np.array_equal(PointSet.full(3, 2).indices(), np.arange(9))
    assert not PointSet.full(3, 2).indices().flags.writeable


def test_coords_ascending_order():
    E = PointSet.from_points(3, 2, [(2, 1), (0, 2), (1, 0)])
    assert E.points() == [(0, 2), (1, 0), (2, 1)]


def test_translate_wraps():
    E = PointSet.from_points(5, 2, [(4, 4), (0, 1)])
    T = E.translate((1, 1))
    assert set(T.points()) == {(0, 0), (1, 2)}
    with pytest.raises(ValueError):
        E.translate((1,))


def test_equality_ignores_construction_order():
    a = PointSet.from_points(3, 2, [(1, 1), (2, 0)])
    b = PointSet.from_points(3, 2, [(2, 0), (1, 1)])
    assert a == b
    assert a != PointSet.from_points(3, 2, [(1, 1)])
    assert a != "not a set"


def test_indicator_and_spectrum_cache():
    E = PointSet.from_points(3, 2, [(0, 0), (1, 2)])
    ind = E.indicator()
    assert ind.values[0] == 1
    assert float(ind.values.sum().real) == 2
    s1 = E.spectrum()
    assert s1 is E.spectrum()
    # mean coefficient equals density: Ehat(0) = |E| / q^d
    assert abs(s1.values[0] - 2 / 9) < 1e-12
    power = E.spectrum_power()
    assert power is E.spectrum_power()
    with pytest.raises(ValueError):
        power[0] = 0


# -- linear maps -----------------------------------------------------------

def test_matrix_rank_mod():
    assert matrix_rank_mod(np.eye(3, dtype=int), 5) == 3
    assert matrix_rank_mod(np.array([[1, 2], [2, 4]]), 5) == 1
    assert matrix_rank_mod(np.array([[2, 1], [1, 1]]), 5) == 2  # det = 1
    # rank depends on the modulus: determinant 5 vanishes mod 5 only
    m = np.array([[1, 2], [3, 11]])
    assert matrix_rank_mod(m, 5) == 1
    assert matrix_rank_mod(m, 7) == 2


def test_apply_linear_map_permutes_grid():
    E = PointSet.from_points(5, 2, [(1, 0), (0, 1), (3, 3)])
    A = [[2, 1], [1, 1]]
    image = apply_linear_map(E, A)
    expected = {((2 * x + y) % 5, (x + y) % 5) for x, y in E.points()}
    assert set(image.points()) == expected
    with pytest.raises(ValueError):
        apply_linear_map(E, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        apply_linear_map(E, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_apply_linear_map_identity():
    E = PointSet.from_points(7, 3, [(1, 2, 3), (0, 0, 6)])
    assert apply_linear_map(E, np.eye(3, dtype=int)) == E


# -- .fset serialization ---------------------------------------------------

def test_format_fset_canonical():
    E = PointSet.from_points(5, 2, [(3, 4), (0, 0), (1, 1)])
    assert format_fset(E) == "5 2\n0 0\n1 1\n3 4\n"


def test_round_trip(tmp_path):
    E = PointSet.from_points(7, 3, [(0, 0, 0), (6, 5, 4), (1, 2, 3)])
    path = tmp_path / "set.fset"
    write_fset(E, path)
    assert read_fset(path) == E
    # canonical writer: a second round trip is byte-identical
    assert format_fset(read_fset(path)) == format_fset(E)


def test_parse_ignores_blank_lines():
    E = parse_fset("3 2\n\n0 1\n\n2 2\n")
    assert E.points() == [(0, 1), (2, 2)]


def test_parse_header_only_is_empty_set():
    E = parse_fset("3 2\n")
    assert len(E) == 0


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("", None, "empty input"),
        ("3\n", 1, "header"),
        ("a b\n", 1, "two integers"),
        ("4 2\n", 1, "not prime"),
        ("3 0\n", 1, "dimension"),
        ("3 2\n1\n", 2, "expected 2 coordinates"),
        ("3 2\n1 x\n", 2, "integers"),
        ("3 2\n1 5\n", 2, "outside"),
        ("3 2\n1 1\n1 1\n", 3, "duplicate"),
    ],
)
def test_parse_errors_name_line_numbers(text, lineno, fragment):
    with pytest.raises(FsetParseError) as err:
        parse_fset(text)
    assert fragment in str(err.value)
    if lineno is not None:
        assert f"line {lineno}:" in str(err.value)
        assert err.value.line == lineno


def test_parse_respects_size_cap():
    with pytest.raises(FsetParseError) as err:
        parse_fset("257 3\n")
    assert "line 1:" in str(err.value)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_round_trip_property(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    d = data.draw(st.integers(min_value=1, max_value=3))
    n = data.draw(st.integers(min_value=0, max_value=min(15, q**d)))
    idx = data.draw(
        st.lists(st.integers(min_value=0, max_value=q**d - 1), min_size=n, max_size=n, unique=True)
    )
    E = PointSet.from_indices(q, d, idx)
    assert parse_fset(format_fset(E)) == E
