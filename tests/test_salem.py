import math
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections.directions import direction_set
from fqdirections.errors import NumericalInconsistencyError
from fqdirections.generators import (
    gen_coordinate_subspace,
    gen_embedded,
    gen_paraboloid,
    gen_random,
)
from fqdirections.incidence import nu_sweep
from fqdirections.pointset import PointSet
from fqdirections.salem import (
    _fourth_moments,
    difference_bound_check,
    difference_profile,
    salem_report,
)

import oracles
from oracles import mu_spectrum_identity_defect


@pytest.mark.parametrize(
    "q,d,points",
    [
        (5, 2, [(0, 0), (1, 2), (4, 4), (3, 0)]),
        (3, 3, [(0, 0, 0), (1, 1, 1), (2, 0, 1)]),
        (7, 2, [(0, 0), (1, 3), (2, 6), (5, 5), (6, 1)]),
    ],
)
def test_profile_matches_direct_count(q, d, points):
    E = PointSet.from_points(q, d, points)
    prof = difference_profile(E)
    table = oracles.mu_direct(points, q)
    for z, count in table.items():
        assert prof.mu_of(z) == count
    assert prof.support_size == len(table)
    assert prof.total == len(points) ** 2


@pytest.mark.parametrize("q,d,n", [(5, 2, 8), (3, 3, 9), (7, 2, 10)])
def test_profile_invariants(q, d, n):
    for seed in range(5):
        E = gen_random(q, d, n, seed=seed)
        prof = difference_profile(E)
        # total mass, center value, symmetry
        assert int(prof.mu.sum()) == n * n
        assert prof.mu_of((0,) * d) == n
        for z in oracles.mu_direct(E.points(), q):
            neg = tuple((-c) % q for c in z)
            assert prof.mu_of(z) == prof.mu_of(neg)


def test_profile_empty_set():
    prof = difference_profile(PointSet.empty(3, 2))
    assert prof.support_size == 0
    assert prof.total == 0
    assert prof.max_multiplicity() == 0


def test_sum_of_squares_exact():
    for q, d, n, seed in [(5, 2, 9, 2), (13, 3, 600, 7)]:
        E = gen_random(q, d, n, seed=seed)
        prof = difference_profile(E)
        table = oracles.mu_direct(E.points(), q)
        assert prof.sum_of_squares() == sum(v * v for v in table.values())
    # int64 is exact only while |E|^3 < 2^63, i.e. |E| < 2^21
    prof.total = (1 << 21) ** 2
    with pytest.raises(OverflowError):
        prof.sum_of_squares()
    prof.total = (1 << 21) ** 2 - 1
    assert prof.sum_of_squares() == sum(v * v for v in table.values())


@pytest.mark.parametrize("q,d,n", [(3, 2, 5), (5, 2, 9), (5, 3, 20), (7, 2, 12)])
def test_mu_spectrum_identity(q, d, n):
    for seed in range(3):
        E = gen_random(q, d, n, seed=seed)
        assert mu_spectrum_identity_defect(E) < 1e-6 * n * n


def test_salem_constant_hyperplane():
    # a line in F_q^2 concentrates: C = sqrt(q)
    for q in (5, 7, 11):
        line = gen_coordinate_subspace(q, 2, 1)
        rep = salem_report(line)
        assert abs(rep.salem_constant - math.sqrt(q)) < 1e-9
        assert abs(rep.max_nonzero_coeff - 1 / q) < 1e-12


def test_salem_constant_paraboloid():
    # d = 2 paraboloid: every nonzero coefficient has modulus exactly q^(-3/2)
    for q in (3, 5, 7, 11, 13):
        rep = salem_report(gen_paraboloid(q, 2))
        assert abs(rep.max_nonzero_coeff - q**-1.5) < 1e-12
        assert abs(rep.salem_constant - 1.0) < 1e-9
        assert rep.is_salem_at(2.0)


def test_salem_constant_embedded_sets_concentrate():
    # zero-padded coordinates leave coefficients of size |E|/q^d in the
    # orthogonal directions, so C = sqrt(|E|) at least
    base = gen_paraboloid(5, 2)
    E = gen_embedded(base, 3)
    rep = salem_report(E)
    assert rep.salem_constant >= math.sqrt(len(base)) - 1e-9
    assert not rep.is_salem_at(2.0)


def test_salem_degenerate_sets():
    assert salem_report(PointSet.empty(5, 2)).salem_constant == 0.0
    assert salem_report(PointSet.full(5, 2)).salem_constant == 0.0
    single = salem_report(PointSet.from_points(5, 2, [(1, 1)]))
    # a single point has |Ehat| = q^-d everywhere: C = q^d * q^-d / 1 = 1
    assert abs(single.salem_constant - 1.0) < 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: PointSet.empty(5, 2),
        lambda: PointSet.full(5, 2),
        lambda: PointSet.from_points(5, 2, [(1, 1)]),
        lambda: gen_paraboloid(7, 2),
        lambda: gen_random(101, 3, 102, seed=3),
    ],
    ids=["empty", "full", "singleton", "paraboloid", "random-101-3"],
)
def test_salem_constant_has_one_route(make):
    # salem_report and difference_bound_check share one flatness helper: the
    # same bits, and the largest coefficient is read off the cached power
    E = make()
    rep = salem_report(E)
    assert rep.salem_constant.hex() == difference_bound_check(E).salem_constant.hex()
    if 0 < len(E) < E.q**E.dim:
        assert rep.max_nonzero_coeff.hex() == math.sqrt(float(E.spectrum_power()[1:].max())).hex()
    else:
        assert rep.max_nonzero_coeff == rep.salem_constant == 0.0


def test_bound_check_fields():
    E = gen_random(7, 2, 7, seed=1)
    rec = difference_bound_check(E)
    assert rec.set_size == 7
    assert rec.bound_ii == pytest.approx(min(49 / 7, 7))
    assert rec.bound_iii == 7
    assert rec.bound_diff == min(49, 49)
    assert rec.ratio_ii == pytest.approx(rec.direction_count / rec.bound_ii)
    assert rec.ratio_diff == pytest.approx(rec.diff_size / rec.bound_diff)
    assert rec.parseval_defect_rel < 1e-6


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (5, 3), (7, 2)])
def test_quotient_bound_always_holds(q, d):
    # |D(E)| * (q-1) >= |E-E| - 1: each direction class holds at most q-1
    # nonzero differences; exact, so asserted on every generator
    sets = [
        gen_random(q, d, q + 1, seed=3),
        gen_random(q, d, 2 * q, seed=4),
        gen_coordinate_subspace(q, d, d - 1),
        gen_paraboloid(q, d),
    ]
    for E in sets:
        rec = difference_bound_check(E)
        assert rec.quotient_bound_holds
        assert rec.direction_count * (q - 1) >= rec.diff_size - 1


def test_subspace_ratios_degrade():
    # the k-plane keeps |D| at the subspace count while bound_ii grows: this
    # is the sharpness obstruction, visible as a small ratio
    rec = difference_bound_check(gen_coordinate_subspace(7, 2, 1))
    assert rec.direction_count == 1
    assert rec.ratio_ii < 0.25


@pytest.mark.parametrize("shape", [(1, 1_030_301), (3, 70_001), (2, 2**15 + 1), (20, 1_331), (126, 9)])
def test_fourth_moments_keep_numpys_pairwise_bits(shape):
    # a row wider than 2^15 is squared and summed a block at a time, the
    # blocks' sums added in numpy's pairwise tree; summing the blocks one
    # after another would round differently on the wide rows
    rng = np.random.default_rng(shape[1])
    power = rng.random(shape) * rng.random(shape) ** 8
    assert np.array_equal(_fourth_moments(power), np.sum(np.square(power), axis=1))


def test_bound_check_of_a_cached_spectrum_maps_no_pages(monkeypatch):
    # at F_101^3 the fourth-moment squares fit a reused block, not a fresh
    # 8 MB table on pages of its own (spectral.empty_table)
    E = gen_random(101, 3, 102, seed=4)
    E.spectrum_power()
    E.difference_multiplicity()
    mapped = []

    class CountedPages(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            mapped.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", CountedPages)
    rec = difference_bound_check(E)
    assert mapped == []
    assert rec.parseval_defect_rel <= 1e-6


def test_parseval_mismatch_raises(monkeypatch):
    E = gen_random(5, 2, 6, seed=9)
    bad = np.zeros(25)
    monkeypatch.setattr(E, "spectrum_power", lambda: bad, raising=False)
    with pytest.raises(NumericalInconsistencyError):
        difference_bound_check(E)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_profile_oracle_property(seed):
    E = gen_random(5, 2, 7, seed=seed)
    prof = difference_profile(E)
    table = oracles.mu_direct(E.points(), 5)
    assert {z: prof.mu_of(z) for z in table} == table
    assert prof.support_size == len(table)


def test_sparse_queries_allocate_no_dense_table():
    # q^d = 226,981 cells against 62^2 = 3,844 pairs: the counts of mu, D(E)
    # and the brute nu sweep must stay O(|E|^2); only .mu builds the table
    q, d = 61, 3
    E = gen_random(q, d, 62, seed=3)
    E.indices()
    table_bytes = 8 * q**d
    tracemalloc.start()
    try:
        support = difference_profile(E).support_size
        dirs = direction_set(E)
        sweep = nu_sweep(E, 1, "brute")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes
    table = oracles.mu_direct(E.points(), q)
    assert support == len(table)
    assert dirs == oracles.directions_enumerate(E.points(), q)
    assert sum(r.nu_nondegenerate for r in sweep) == sum(v for z, v in table.items() if z[0])
    dense = np.zeros(q**d, dtype=np.int64)
    for z, count in table.items():
        dense[oracles.point_to_index(z, q)] = count
    assert np.array_equal(difference_profile(E).mu, dense)
