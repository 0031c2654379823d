import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections import directions, grid
from fqdirections.directions import (
    ambient_direction_count,
    ambient_directions,
    canonical_codes,
    canonical_direction,
    canonicalize_rows,
    coordinate_subspace_directions,
    direction_set,
    directions_of_codes,
    sort_directions,
)
from fqdirections.field import PrimeField, prime_field
from fqdirections.generators import gen_coordinate_subspace, gen_random
from fqdirections.incidence import mu_slope_counts
from fqdirections.pointset import PointSet
from fqdirections.salem import difference_bound_check

import oracles


def test_canonical_direction_leading_one():
    assert canonical_direction((2, 4), 5) == (1, 2)
    assert canonical_direction((0, 3), 5) == (0, 1)
    assert canonical_direction((0, 0, 4), 5) == (0, 0, 1)
    assert canonical_direction((1, 0), 5) == (1, 0)
    with pytest.raises(ValueError):
        canonical_direction((0, 0), 5)


def test_canonical_direction_reduces_mod_q():
    assert canonical_direction((7, 1), 5) == (1, 3)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_canonical_direction_scaling_invariance(q):
    for idx in range(1, q**3):
        z = oracles.index_to_point(idx, q, 3)
        rep = canonical_direction(z, q)
        for c in range(1, q):
            scaled = tuple((c * v) % q for v in z)
            assert canonical_direction(scaled, q) == rep


def test_canonicalize_rows_matches_scalar():
    q = 7
    F = PrimeField(q)
    rows = np.array([oracles.index_to_point(i, q, 2) for i in range(1, q**2)])
    out = canonicalize_rows(rows, F)
    for row, got in zip(rows, out):
        assert tuple(int(v) for v in got) == canonical_direction(tuple(row), q)


@pytest.mark.parametrize(
    "q,d,points",
    [
        (5, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
        (3, 2, [(0, 0), (1, 1), (2, 1)]),
        (5, 3, [(0, 0, 0), (1, 2, 3), (4, 4, 1), (2, 0, 2)]),
        (7, 2, [(0, 0), (1, 3), (2, 6), (5, 5)]),
    ],
)
def test_direction_set_matches_orbit_enumeration(q, d, points):
    E = PointSet.from_points(q, d, points)
    assert direction_set(E) == oracles.directions_enumerate(points, q)


def test_line_determines_one_direction():
    line = PointSet.from_points(5, 2, [(x, 0) for x in range(5)])
    assert direction_set(line) == {(1, 0)}


def test_two_points_one_direction():
    E = PointSet.from_points(7, 3, [(1, 2, 3), (4, 5, 6)])
    assert len(direction_set(E)) == 1


def test_small_sets_have_no_directions():
    assert direction_set(PointSet.empty(5, 2)) == set()
    assert direction_set(PointSet.from_points(5, 2, [(2, 2)])) == set()


def test_ambient_direction_count():
    assert ambient_direction_count(5, 2) == 6
    assert ambient_direction_count(3, 3) == 13
    assert ambient_direction_count(7, 2) == 8
    assert ambient_direction_count(2, 4) == 15


@pytest.mark.parametrize("q", [4, 1 << 17, True])
def test_ambient_direction_count_rejects_modulus_like_prime_field(q):
    with pytest.raises((TypeError, ValueError)) as field_error:
        PrimeField(q)
    with pytest.raises((TypeError, ValueError)) as count_error:
        ambient_direction_count(q, 2)
    assert count_error.type is field_error.type
    assert str(count_error.value) == str(field_error.value)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (5, 2), (3, 3)])
def test_ambient_directions_enumeration(q, d):
    dirs = ambient_directions(q, d)
    assert len(dirs) == ambient_direction_count(q, d)
    # every nonzero vector canonicalizes into the set
    for idx in range(1, q**d):
        z = oracles.index_to_point(idx, q, d)
        assert canonical_direction(z, q) in dirs


def test_full_grid_determines_everything():
    E = PointSet.full(3, 2)
    assert direction_set(E) == ambient_directions(3, 2)


@pytest.mark.parametrize("q,d,n", [(3, 3, 2), (5, 3, 1), (5, 4, 2)])
def test_coordinate_subspace_directions(q, d, n):
    dirs = coordinate_subspace_directions(q, d, n)
    assert len(dirs) == ambient_direction_count(q, n)
    assert all(len(v) == d for v in dirs)
    assert all(all(c == 0 for c in v[n:]) for v in dirs)
    # they are exactly the directions of the subspace point set
    H = gen_coordinate_subspace(q, d, n)
    assert direction_set(H) == dirs


def test_subspace_direction_count_formula():
    for q, d in [(3, 3), (5, 3), (7, 2)]:
        for k in range(1, d):
            H = gen_coordinate_subspace(q, d, k)
            assert len(direction_set(H)) == (q**k - 1) // (q - 1)


def test_sort_directions_is_total_and_stable():
    E = gen_random(5, 2, 10, seed=5)
    dirs = direction_set(E)
    ordered = sort_directions(dirs, 5)
    assert set(ordered) == dirs
    assert ordered == sorted(ordered)


def test_direction_count_bound_by_pairs():
    # |D(E)| is at most the number of unordered pairs
    E = gen_random(7, 2, 4, seed=9)
    assert len(direction_set(E)) <= 6


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_direction_set_oracle_property(seed):
    E = gen_random(5, 2, 5, seed=seed)
    assert direction_set(E) == oracles.directions_enumerate(E.points(), 5)


@st.composite
def _point_sets(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=3))
    picks = draw(st.sets(st.integers(min_value=0, max_value=q**d - 1), max_size=min(q**d, 12)))
    return PointSet.from_indices(q, d, sorted(picks))


def _assert_routes_agree(E):
    dirs = direction_set(E)
    assert dirs == oracles.directions_enumerate(E.points(), E.q)
    assert difference_bound_check(E).direction_count == len(dirs)


@given(_point_sets())
@settings(max_examples=60, deadline=None)
def test_direction_count_routes_agree(E):
    _assert_routes_agree(E)


@pytest.mark.parametrize(
    "E",
    [PointSet.empty(5, 2), PointSet.from_points(5, 2, [(2, 2)]), PointSet.full(3, 2), PointSet.full(2, 3)],
    ids=["empty", "singleton", "full-3-2", "full-2-3"],
)
def test_direction_count_routes_agree_edge_sets(E):
    _assert_routes_agree(E)


@given(_point_sets())
@settings(max_examples=30, deadline=None)
def test_direction_count_routes_agree_across_pair_blocks(E):
    # 7 pairs are fewer than the |E|^2 of any set of three or more points, so
    # sets counted into a dense histogram are swept in several row blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_PAIR_BLOCK", 7)
        _assert_routes_agree(E)


def test_directions_of_codes_skips_zero_and_repeats():
    F = PrimeField(5)
    codes = np.array([0, 7, 7, 14, 0, 5], dtype=np.int64)  # (1,2), (1,2), (2,4), (1,0)
    assert directions_of_codes(codes, F, 2) == {(1, 2), (1, 0)}
    assert directions_of_codes(np.zeros(3, dtype=np.int64), F, 2) == set()
    assert directions_of_codes(np.array([], dtype=np.int64), F, 2) == set()


# -- canonical-code tables and the computed path ---------------------------


@st.composite
def _index_stacks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=max(1, d - 1)))
    n = draw(st.integers(min_value=0, max_value=min(q**d, 10)))
    sets = draw(st.integers(min_value=1, max_value=4))
    points = st.lists(st.integers(min_value=0, max_value=q**d - 1), min_size=n, max_size=n, unique=True)
    return q, d, k, np.array(draw(st.lists(points, min_size=sets, max_size=sets)), dtype=np.int64).reshape(sets, n)


def _pair_differences(indices, q, d):
    points = [grid.decode(int(i), q, d) for i in indices]
    return [tuple((a - b) % q for a, b in zip(x, y)) for x in points for y in points if x != y]


@pytest.mark.parametrize("side", ["table", "computed"])
@given(_index_stacks())
@settings(max_examples=60, deadline=None)
def test_canonical_codes_on_both_sides_of_the_table_limit(side, case):
    # at the limit q^d both F_q^d and F_q^(k+1) are tabled; just below
    # q^(k+1) neither is
    q, d, k, indices = case
    field = prime_field(q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(directions, "_CANONICAL_TABLES", {})
        mp.setattr(directions, "_TABLE_CELLS", q**d if side == "table" else q ** min(k + 1, d) - 1)
        codes, counts, owner = grid.difference_multiplicities(indices, q, d)
        expected = {
            b * q**d + grid.encode(canonical_direction(z, q), q)
            for b, row in enumerate(indices)
            for z in _pair_differences(row, q, d)
        }
        assert canonical_codes(codes, field, d).tolist() == sorted(expected)
        for b, row in enumerate(indices):
            points = [grid.decode(int(i), q, d) for i in row]
            mine = codes[owner == b] - b * q**d
            assert directions_of_codes(mine, field, d) == oracles.directions_enumerate(points, q)
        if d >= 2:
            nondeg, degenerate = mu_slope_counts(codes, counts, owner, len(indices), indices.shape[1], q, d, k)
            for b, row in enumerate(indices):
                expected_nondeg = [0] * q**k
                expected_degenerate = 0
                for z in _pair_differences(row, q, d):
                    if z[0]:
                        expected_nondeg[grid.encode(canonical_direction(z[: k + 1], q)[1:], q)] += 1
                    elif not any(z[: k + 1]):
                        expected_degenerate += 1
                assert nondeg[b].tolist() == expected_nondeg
                assert degenerate[b] == expected_degenerate
        built = directions._CANONICAL_TABLES
        if side == "table":
            assert (q, d) in built and (d < 2 or (q, k + 1) in built)
        else:
            assert not built
        for table in built.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


def test_large_grid_builds_no_table(monkeypatch):
    # a table for F_101^3 would take about 200 ms and a transient 94 MB to build
    monkeypatch.setattr(directions, "_CANONICAL_TABLES", {})
    E = gen_random(101, 3, 40, seed=2)
    assert direction_set(E) == oracles.directions_enumerate(E.points(), 101)
    assert (101, 3) not in directions._CANONICAL_TABLES
