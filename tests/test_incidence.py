from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections.errors import NumericalInconsistencyError
from fqdirections.generators import gen_coordinate_subspace, gen_random
from fqdirections.incidence import (
    ROUNDING_GUARD,
    all_slopes,
    degenerate_pair_count,
    nu_brute,
    nu_spectral,
    nu_sweep,
    pair_differences,
    remainder_spectral,
    slope_counts,
    theorem_main_threshold,
)
from fqdirections.field import prime_field
from fqdirections.pointset import PointSet
from fqdirections.spectral import indicator_power

import oracles


def test_all_slopes_order_and_count():
    slopes = all_slopes(3, 2)
    assert len(slopes) == 9
    assert slopes[0] == (0, 0)
    assert slopes[1] == (0, 1)
    assert slopes[3] == (1, 0)
    assert all_slopes(5, 1) == [(0,), (1,), (2,), (3,), (4,)]


def test_full_space_counts():
    # every ordered pair with z1 != 0 satisfies exactly one slope: 9 * 2 = 18
    # per slope; k = d-1 leaves no degenerate pairs (z = 0 would force x = y)
    E = PointSet.full(3, 2)
    for t in range(3):
        rep = nu_brute(E, (t,))
        assert rep.nu == 18
        assert rep.nu_nondegenerate == 18
    assert degenerate_pair_count(E, 1) == 0


def test_line_counts():
    line = PointSet.from_points(5, 2, [(x, 0) for x in range(5)])
    assert nu_brute(line, (0,)).nu == 20
    for t in range(1, 5):
        assert nu_brute(line, (t,)).nu == 0


@pytest.mark.parametrize("q,d,k", [(3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 3, 2), (5, 3, 2)])
def test_brute_matches_pair_oracle(q, d, k):
    for seed in range(5):
        E = gen_random(q, d, min(q + 2, q**d), seed=seed)
        pts = E.points()
        for slope in all_slopes(q, k):
            assert nu_brute(E, slope).nu == oracles.nu_pairs(pts, q, slope)


@pytest.mark.parametrize("q,d,k", [(3, 2, 1), (5, 2, 1), (7, 2, 1), (3, 3, 1), (3, 3, 2), (5, 3, 1), (5, 3, 2)])
def test_spectral_equals_brute_exactly(q, d, k):
    for seed in range(10):
        E = gen_random(q, d, min(2 * q, q**d), seed=1000 * seed + q)
        for slope in all_slopes(q, k):
            b = nu_brute(E, slope)
            s = nu_spectral(E, slope)
            assert s.nu == b.nu
            assert s.nu_nondegenerate == b.nu_nondegenerate
            assert s.main_term == b.main_term
            assert s.diagonal_term == b.diagonal_term


def test_terms_are_exact_fractions():
    E = gen_random(5, 2, 6, seed=3)
    rep = nu_brute(E, (2,))
    assert rep.main_term == Fraction(6 * 5, 5)
    assert rep.diagonal_term == Fraction(6 * 4, 5)
    # decomposition: nu = main - diagonal + remainder
    assert abs(float(rep.main_term - rep.diagonal_term) + rep.remainder - rep.nu) < 1e-9


@pytest.mark.parametrize("q,d,k", [(3, 2, 1), (5, 3, 1), (5, 3, 2)])
def test_remainder_nonnegative(q, d, k):
    for seed in range(20):
        E = gen_random(q, d, q + 1, seed=seed)
        for slope in all_slopes(q, k):
            assert remainder_spectral(E, slope) >= -1e-6


def test_degenerate_pairs():
    # pairs agreeing on the first k+1 coordinates are counted at every slope
    E = PointSet.from_points(5, 3, [(1, 1, 0), (1, 1, 2), (1, 1, 3), (0, 0, 0)])
    assert degenerate_pair_count(E, 1) == 6
    assert degenerate_pair_count(E, 2) == 0
    for slope in all_slopes(5, 1):
        rep = nu_brute(E, slope)
        assert rep.nu >= 6
    # k = d-1 never has degenerate pairs
    assert degenerate_pair_count(gen_random(5, 2, 10, seed=1), 1) == 0


def test_k_validation():
    E = gen_random(5, 2, 4, seed=0)
    with pytest.raises(ValueError):
        nu_brute(E, ())
    with pytest.raises(ValueError):
        nu_spectral(E, (1, 2))
    with pytest.raises(ValueError):
        theorem_main_threshold(E, 0)
    with pytest.raises(ValueError):
        theorem_main_threshold(E, 2)


def test_slope_entries_reduced_mod_q():
    E = gen_random(5, 2, 6, seed=11)
    assert nu_brute(E, (7,)).nu == nu_brute(E, (2,)).nu
    assert nu_spectral(E, (7,)).nu == nu_spectral(E, (2,)).nu


def test_empty_and_tiny_sets():
    E = PointSet.empty(3, 2)
    for slope in all_slopes(3, 1):
        assert nu_brute(E, slope).nu == 0
        assert nu_spectral(E, slope).nu == 0
    single = PointSet.from_points(3, 2, [(1, 1)])
    for slope in all_slopes(3, 1):
        assert nu_spectral(single, slope).nu == 0


def test_guard_band_rejects_inconsistent_float():
    # for k = 1 the frequency (t, -1, 0, ...) is probed by slope t alone, so
    # raising its power pushes exactly that slope's value 0.3 off an integer
    q, d = 5, 3
    E = gen_random(q, d, 9, seed=2)
    power = E.spectrum_power().copy()
    for t in (1, 3):
        power[t * q ** (d - 1) + (q - 1) * q ** (d - 2)] += 0.3 / q ** (2 * d - 1)
    E._spectrum_power = power
    for t in (0, 2, 4):
        nu_spectral(E, (t,))
    for t in (1, 3):
        with pytest.raises(NumericalInconsistencyError, match=rf"at slope \({t},\)$"):
            nu_spectral(E, (t,))
    # the sweep names the first slope outside the band
    with pytest.raises(NumericalInconsistencyError, match=r"at slope \(1,\)$"):
        theorem_main_threshold(E, 1)
    # brute counting never reads the spectrum
    assert theorem_main_threshold(E, 1, method="brute").holds
    assert ROUNDING_GUARD == 1e-4


def _points(q, d):
    return st.lists(
        st.tuples(*[st.integers(0, q - 1)] * d), unique=True, max_size=min(q**d, 14)
    )


@st.composite
def _sets_and_k(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(2, 4 if q < 5 else 3))
    k = draw(st.integers(1, d - 1))
    return PointSet.from_points(q, d, draw(_points(q, d))), k


@given(_sets_and_k())
@settings(max_examples=60, deadline=None)
def test_sweep_kernels_match_pair_oracle(case):
    # covers the empty set, singletons and k < d-1 with degenerate pairs
    E, k = case
    pts = E.points()
    expected = [oracles.nu_pairs(pts, E.q, t) for t in all_slopes(E.q, k)]
    degenerate = sum(1 for x in pts for y in pts if x != y and x[: k + 1] == y[: k + 1])
    assert degenerate_pair_count(E, k) == degenerate
    for method in ("spectral", "brute"):
        reports = nu_sweep(E, k, method)
        assert [r.slope for r in reports] == all_slopes(E.q, k)
        assert [r.nu for r in reports] == expected
        assert [r.nu_nondegenerate for r in reports] == [n - degenerate for n in expected]
        outcomes = theorem_main_threshold(E, k, method).outcomes
        assert [(o.nu, o.nu_nondegenerate) for o in outcomes] == [(r.nu, r.nu_nondegenerate) for r in reports]


@given(_sets_and_k())
@settings(max_examples=30, deadline=None)
def test_pair_differences_read_off_mu(case):
    E, _ = case
    pts = E.points()
    expected = sorted(tuple((a - b) % E.q for a, b in zip(x, y)) for x in pts for y in pts if x != y)
    assert [tuple(row) for row in pair_differences(E).tolist()] == expected


def test_sweep_multi_block(monkeypatch):
    # one slope row per gather block and a few points per pair block must
    # reproduce the single-block sweep exactly, remainders included
    cases = [(gen_random(5, 3, 30, seed=5), 1), (gen_random(5, 3, 30, seed=5), 2), (gen_random(3, 4, 25, seed=1), 2)]
    single = [(nu_sweep(E, k, "spectral"), nu_sweep(E, k, "brute")) for E, k in cases]
    monkeypatch.setattr("fqdirections.incidence._SLOPE_BLOCK", 1)
    monkeypatch.setattr("fqdirections.grid._PAIR_BLOCK", 7)
    for (cached, k), (spectral, brute) in zip(cases, single):
        E = PointSet.from_indices(cached.q, cached.dim, cached.indices())  # no cached mu or spectrum
        pts = E.points()
        assert [r.nu for r in brute] == [oracles.nu_pairs(pts, E.q, t) for t in all_slopes(E.q, k)]
        assert nu_sweep(E, k, "spectral") == spectral
        assert nu_sweep(E, k, "brute") == brute
        assert [r.nu for r in spectral] == [r.nu for r in brute]


@pytest.mark.parametrize("q,d,k,sets", [(11, 3, 2, 8), (11, 3, 1, 5), (7, 4, 2, 3), (5, 3, 1, 6), (3, 4, 3, 4)])
def test_stacked_slope_counts_rows_equal_one_set_calls(q, d, k, sets):
    # a campaign block's remainders must be the bits its sets give alone
    members = [gen_random(q, d, q**k + 1, seed) for seed in range(sets)]
    power = indicator_power(np.array([E.indices() for E in members]), prime_field(q), d)
    nu, remainders = slope_counts(power, q**k + 1, q, d, k)
    for b, E in enumerate(members):
        alone_nu, alone_remainders = slope_counts(E.spectrum_power()[None], E.cardinality, q, d, k)
        assert np.array_equal(nu[b], alone_nu[0])
        assert np.array_equal(remainders[b], alone_remainders[0])


def test_threshold_report_above():
    E = gen_random(5, 2, 6, seed=4)  # |E| = 6 > q^k = 5
    rep = theorem_main_threshold(E, 1)
    assert rep.above_threshold
    assert rep.threshold == 5
    assert rep.lower_bound == Fraction(6 * 5 - 6 * 4, 5)
    assert rep.holds
    assert rep.witness_failures == ()
    assert rep.min_nu >= 2
    assert len(rep.outcomes) == 5


def test_threshold_report_below():
    # a line at the threshold size: nu vanishes at every other slope
    line = PointSet.from_points(5, 2, [(x, 0) for x in range(5)])
    rep = theorem_main_threshold(line, 1)
    assert not rep.above_threshold
    assert not rep.holds
    assert len(rep.witness_failures) == 4


def test_threshold_methods_agree():
    for seed in range(5):
        E = gen_random(3, 3, 10, seed=seed)
        for k in (1, 2):
            a = theorem_main_threshold(E, k, method="spectral")
            b = theorem_main_threshold(E, k, method="brute")
            assert [o.nu for o in a.outcomes] == [o.nu for o in b.outcomes]
            assert a.holds == b.holds
    with pytest.raises(ValueError):
        theorem_main_threshold(E, 1, method="magic")


def test_sweep_sum_identity():
    # summing nu over all slopes: a pair with z1 != 0 satisfies exactly one
    # slope tuple, a degenerate pair satisfies all q^k, any other pair none
    q = 5
    for E in (gen_random(q, 3, 12, seed=6), gen_coordinate_subspace(q, 3, 2)):
        pts = E.points()
        n = len(pts)
        p0 = sum(1 for x in pts for y in pts if x != y and x[0] == y[0])
        for k in (1, 2):
            deg = degenerate_pair_count(E, k)
            total = sum(nu_brute(E, s).nu for s in all_slopes(q, k))
            assert total == (n * (n - 1) - p0) + q**k * deg


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_spectral_brute_property(seed):
    E = gen_random(3, 3, 7, seed=seed)
    for k in (1, 2):
        for slope in all_slopes(3, k):
            assert nu_spectral(E, slope).nu == nu_brute(E, slope).nu
