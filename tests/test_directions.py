import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fqdirections import directions, grid
from fqdirections.directions import (
    ambient_direction_count,
    canonical_direction,
    class_codes,
    class_masses,
    class_ranks,
    class_slope_counts,
    code_ranks,
    coordinate_subspace_directions,
    direction_set,
    sort_directions,
    subspace_classes,
)
from fqdirections.field import PrimeField, prime_field
from fqdirections.generators import gen_coordinate_subspace, gen_random
from fqdirections.pointset import PointSet
from fqdirections.rng import mix64, sample_block
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
    rows = np.array([oracles.index_to_point(i, q, 2) for i in range(1, q**2)])
    out = oracles.canonicalize_rows(rows, q)
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
    with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
        ambient_direction_count(5, 0)


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
    dirs = coordinate_subspace_directions(q, d, d)
    assert len(dirs) == ambient_direction_count(q, d)
    # every nonzero vector canonicalizes into the set
    for idx in range(1, q**d):
        z = oracles.index_to_point(idx, q, d)
        assert canonical_direction(z, q) in dirs


def test_full_grid_determines_everything():
    E = PointSet.full(3, 2)
    assert direction_set(E) == coordinate_subspace_directions(3, 2, 2)


@pytest.mark.parametrize("q,d,n", [(3, 3, 2), (5, 3, 1), (5, 4, 2)])
def test_coordinate_subspace_directions(q, d, n):
    dirs = coordinate_subspace_directions(q, d, n)
    assert len(dirs) == ambient_direction_count(q, n)
    assert all(len(v) == d for v in dirs)
    assert all(all(c == 0 for c in v[n:]) for v in dirs)
    # they are exactly the directions of the subspace point set
    H = gen_coordinate_subspace(q, d, n)
    assert direction_set(H) == dirs


@pytest.mark.parametrize("n", [0, 4])
def test_coordinate_subspace_directions_rejects_dimension_out_of_range(n):
    with pytest.raises(ValueError, match=rf"^subspace dimension must be in \[1, 3\], got {n}$"):
        coordinate_subspace_directions(5, 3, n)


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


# -- class masses, class-rank tables and the computed path ------------------


@functools.cache
def _class_order(q, d):
    """Canonical codes of F_q^d, 0 first, then ascending, from canonical_direction: a class's rank is its place."""
    codes = {grid.encode(canonical_direction(grid.decode(i, q, d), q), q) for i in range(1, q**d)}
    return (0, *sorted(codes))


def _tallied_masses(indices, q, d):
    """M of each set of a stack, tallied by canonical_direction over its ordered pairs, x = y on class 0."""
    rank = {code: r for r, code in enumerate(_class_order(q, d))}
    masses = np.zeros((len(indices), len(rank)), dtype=np.int64)
    for b, row in enumerate(indices):
        points = [grid.decode(int(i), q, d) for i in row]
        diffs = collections.Counter(tuple((a - c) % q for a, c in zip(x, y)) for x in points for y in points)
        for z, count in diffs.items():
            masses[b, rank[grid.encode(canonical_direction(z, q), q)] if any(z) else 0] += count
    return masses


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


def _stacked_canonical_codes(indices, q, d):
    """Set b's canonical codes, offset by b q^d, from canonical_direction over its pair differences."""
    found = set()
    for b, row in enumerate(indices):
        points = grid.decode_indices(row, q, d)
        diffs = (points[:, None, :] - points[None, :, :]).reshape(-1, d) % q
        for z in np.unique(diffs[diffs.any(axis=1)], axis=0).tolist():
            found.add(b * q**d + grid.encode(canonical_direction(z, q), q))
    return sorted(found)


@pytest.mark.parametrize("side", ["table", "computed"])
@given(_index_stacks())
@settings(max_examples=60, deadline=None)
def test_canonical_codes_on_both_sides_of_the_table_limit(side, case):
    # class masses, D(E) and the brute slope counts at the table's limit, where
    # F_q^d is tabled, and just below it, where nothing is
    q, d, k, indices = case
    field, cells, sets = prime_field(q), q**d, len(indices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(directions, "_RANK_TABLES", {})
        mp.setattr(directions, "_TABLE_CELLS", cells if side == "table" else cells - 1)
        codes, counts = grid.difference_multiplicities(indices, q, d)
        masses = class_masses(codes, counts, sets, field, d)
        assert np.array_equal(masses, _tallied_masses(indices, q, d))
        for row in indices:
            points = [grid.decode(int(i), q, d) for i in row]
            assert direction_set(PointSet.from_indices(q, d, row)) == oracles.directions_enumerate(points, q)
        if d >= 2:
            nondeg, degenerate = class_slope_counts(masses, q, d, k)
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
        built = directions._RANK_TABLES
        assert list(built) == ([(q, d)] if side == "table" else [])
        for table in built.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


@st.composite
def _mass_cases(draw):
    # F_257^2's 66,049 cells are just above the table's 2^16
    q, d = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (257, 2)]))
    cells = q**d
    dense = draw(st.booleans())
    least_dense = math.isqrt(cells - 1) + 1
    if dense:
        n = draw(st.integers(min_value=least_dense, max_value=max(least_dense, min(cells, 12))))
    else:
        n = draw(st.integers(min_value=0, max_value=least_dense - 1))
    sets = draw(st.integers(min_value=1, max_value=1 if cells > 1 << 16 else 3))
    points = st.lists(st.integers(min_value=0, max_value=cells - 1), min_size=n, max_size=n, unique=True)
    picks = np.array(draw(st.lists(points, min_size=sets, max_size=sets)), dtype=np.int64).reshape(sets, n)
    return q, d, dense, picks


@given(_mass_cases())
@example((257, 2, True, np.random.default_rng(3).permutation(257**2)[:257][None]))
@example((257, 2, False, np.random.default_rng(4).permutation(257**2)[:40][None]))
@settings(max_examples=40, deadline=None)
def test_class_masses_match_a_scalar_tally(case):
    # both branches of the mu kernel: a dense count when n^2 >= q^d, else a sort
    q, d, dense, picks = case
    sets, n = picks.shape
    assert (n * n >= q**d) == dense
    codes, counts = grid.difference_multiplicities(picks, q, d)
    masses = class_masses(codes, counts, sets, prime_field(q), d)
    assert masses.dtype == np.int64
    assert np.array_equal(masses, _tallied_masses(picks, q, d))
    assert masses.sum(axis=1).tolist() == [n * n] * sets
    assert masses[:, 0].tolist() == [n] * sets
    assert (q, d) in directions._RANK_TABLES or q**d > directions._TABLE_CELLS
    assert (257, 2) not in directions._RANK_TABLES


@pytest.mark.parametrize("q, n", [(2, 1), (2, 5), (3, 3), (5, 2), (7, 3), (13, 3), (257, 2), (101, 3)])
def test_class_ranks_round_trip(q, n):
    ranks = np.arange(1 + (q**n - 1) // (q - 1))
    codes = class_codes(ranks, q, n)
    assert np.array_equal(code_ranks(codes, q, n), ranks)
    # ascending canonical codes, each its own class's representative
    assert codes[0] == 0 and (np.diff(codes) > 0).all()
    reps = grid.decode_indices(codes[1:], q, n)
    assert np.array_equal(oracles.canonicalize_rows(reps, q), reps)
    if q**n <= 1 << 17:
        assert tuple(codes.tolist()) == _class_order(q, n)


def test_subspace_classes_are_the_zero_tailed_classes():
    for q, d in [(2, 4), (3, 3), (5, 3), (7, 2)]:
        codes = class_codes(np.arange(1 + (q**d - 1) // (q - 1)), q, d)
        for n in range(1, d + 1):
            expected = np.flatnonzero(codes % q ** (d - n) == 0)[1:]
            assert np.array_equal(subspace_classes(q, d, n), expected)


def _refuse_sort(codes):
    raise AssertionError("class codes were sorted")


def test_large_grid_builds_no_table(monkeypatch):
    # a table for F_101^3 would take about 200 ms and a transient 94 MB to build
    monkeypatch.setattr(directions, "_RANK_TABLES", {})
    E = gen_random(101, 3, 102, seed=2)
    E.difference_multiplicity()
    # D(E) is read off the class masses: nothing sorts the class codes
    monkeypatch.setattr(grid, "distinct", _refuse_sort)
    dirs = direction_set(E)
    assert dirs == oracles.directions_enumerate(E.points(), 101)
    assert all(type(c) is int for rep in dirs for c in rep)
    assert (101, 3) not in directions._RANK_TABLES


@pytest.mark.parametrize("q, d, n", [(5, 3, 2), (3, 4, 3), (101, 3, 1)])
def test_coordinate_subspace_directions_sort_nothing(q, d, n, monkeypatch):
    points = gen_coordinate_subspace(q, d, n).points()
    monkeypatch.setattr(grid, "distinct", _refuse_sort)
    assert coordinate_subspace_directions(q, d, n) == oracles.directions_enumerate(points, q)


def _rows_canonical_codes(local, q, n):
    return grid.encode_coords(oracles.canonicalize_rows(grid.decode_indices(local, q, n), q), q)


@pytest.mark.parametrize(
    "q, n, local",
    [
        # F_257^2 holds 66,049 cells, just above the table's 2^16: every vector
        (257, 2, np.arange(257**2, dtype=np.int64)),
        (101, 3, np.concatenate([[0, 1, 101**3 - 1], np.random.default_rng(5).integers(0, 101**3, 20000)])),
    ],
)
def test_computed_canonical_codes_match_rows(q, n, local, monkeypatch):
    monkeypatch.setattr(directions, "_RANK_TABLES", {})
    assert q**n > directions._TABLE_CELLS
    field, canon = prime_field(q), _rows_canonical_codes(local, q, n)
    assert np.array_equal(directions._scaled_codes(local, field, n), canon)
    assert np.array_equal(class_ranks(local, field, n), code_ranks(canon, q, n))
    assert not directions._RANK_TABLES


# -- per-set class counts of a campaign block --------------------------------


def _random_stack(q, d, size, sets):
    return sample_block(q**d, size, [mix64(29, q, d, size, b) for b in range(sets)])


def _subspace_stack(q, d, k):
    return gen_coordinate_subspace(q, d, k).indices()[None]


@pytest.mark.parametrize(
    "q, d, k, picks",
    [
        # theorem-main at k = d - 1 (random-mid's cell) and at k < d - 1
        (11, 3, 2, _random_stack(11, 3, 122, 20)),
        (5, 3, 1, _random_stack(5, 3, 6, 100)),
        (3, 4, 1, _random_stack(3, 4, 4, 50)),
        (7, 4, 2, _random_stack(7, 4, 50, 27)),
        # salem-bounds at q + 1, 2q and q^2 + 1 (salem-mid's cells)
        (13, 3, 1, _random_stack(13, 3, 14, 10)),
        (13, 3, 1, _random_stack(13, 3, 26, 10)),
        (13, 3, 1, _random_stack(13, 3, 170, 10)),
        # sharpness: the one-set blocks H_k
        (5, 3, 1, _subspace_stack(5, 3, 1)),
        (5, 3, 2, _subspace_stack(5, 3, 2)),
        (3, 4, 3, _subspace_stack(3, 4, 3)),
        # one-point sets determine no direction
        (3, 2, 1, _random_stack(3, 2, 1, 7)),
        # 29 and 30 sets of F_13^3 hold 63,713 and 65,910 cells, either side of 2^16
        # (harness._BLOCK_CELLS); both count alike
        (13, 3, 2, _random_stack(13, 3, 14, 29)),
        (13, 3, 2, _random_stack(13, 3, 14, 30)),
        # one set of a grid above the class-rank table's limit
        (101, 3, 1, _random_stack(101, 3, 102, 1)),
    ],
)
def test_direction_marks_match_sorted_canonical_codes(q, d, k, picks, monkeypatch):
    # a class is marked when the set's mu charges it: |D(E)| and the H_(k+1)
    # tail are counts of nonzero class masses, checked against sorted codes
    field, cells, sets = prime_field(q), q**d, len(picks)
    codes, mu_counts = grid.difference_multiplicities(picks, q, d)
    owner, vector = np.divmod(np.array(_stacked_canonical_codes(picks, q, d), dtype=np.int64), cells)
    stride = q ** (d - k - 1)
    monkeypatch.setattr(grid, "distinct", _refuse_sort)
    masses = class_masses(codes, mu_counts, sets, field, d)
    counts = np.count_nonzero(masses[:, 1:], axis=1)
    assert counts.tolist() == np.bincount(owner, minlength=sets).tolist()
    tails = np.count_nonzero(masses[:, subspace_classes(q, d, k + 1)], axis=1)
    assert tails.tolist() == np.bincount(owner[vector % stride == 0], minlength=sets).tolist()
    if picks.shape[1] == 1:
        assert not counts.any()
    if picks.shape[1] == q**k:
        assert counts.tolist() == [ambient_direction_count(q, k)]
