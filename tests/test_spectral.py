import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections.errors import SizeCapError
from fqdirections.field import PrimeField
from fqdirections.generators import gen_random
from fqdirections.spectral import (
    GridFunction,
    Spectrum,
    check_size_cap,
    forward_transform,
    indicator_power,
    inverse_transform,
    plancherel_defect,
)

import oracles


def random_function(q, d, seed):
    rng = np.random.default_rng(seed)
    n = q**d
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GridFunction(PrimeField(q), d, vals)


def test_check_size_cap():
    assert check_size_cap(5, 3) == 125
    with pytest.raises(SizeCapError):
        check_size_cap(5, 3, size_cap=100)
    with pytest.raises(ValueError):
        check_size_cap(5, 0)


def test_grid_function_validation():
    F = PrimeField(3)
    with pytest.raises(ValueError):
        GridFunction(F, 2, np.zeros(8))
    g = GridFunction.zeros(F, 2)
    assert g.values.shape == (9,)
    assert g.reshaped().shape == (3, 3)
    c = g.copy()
    c.values[0] = 1
    assert g.values[0] == 0


@pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_forward_matches_direct_double_sum(q, d):
    f = random_function(q, d, seed=q * 100 + d)
    fast = forward_transform(f).values
    slow = oracles.dft_direct(f.values, q, d)
    assert np.max(np.abs(fast - slow)) < 1e-10


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2)])
def test_inverse_round_trip(q, d):
    f = random_function(q, d, seed=q + d)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-9
    assert isinstance(forward_transform(f), Spectrum)
    assert type(back) is GridFunction


def test_delta_function_is_flat():
    # a point mass at the origin has fhat(m) = q^-d for every m
    F = PrimeField(5)
    g = GridFunction.zeros(F, 2)
    g.values[0] = 1.0
    spec = forward_transform(g)
    assert np.max(np.abs(spec.values - 1 / 25)) < 1e-12


def test_constant_function_is_a_point_mass():
    F = PrimeField(5)
    g = GridFunction(F, 2, np.ones(25))
    spec = forward_transform(g)
    assert abs(spec.values[0] - 1.0) < 1e-12
    assert np.max(np.abs(spec.values[1:])) < 1e-12


def test_shift_multiplies_by_character():
    # shifting the source by s multiplies fhat(m) by chi(-s.m)
    q, d = 7, 1
    F = PrimeField(q)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=q) + 1j * rng.normal(size=q)
    spec = forward_transform(GridFunction(F, d, vals)).values
    shifted = forward_transform(GridFunction(F, d, np.roll(vals, 1))).values
    for m in range(q):
        assert abs(shifted[m] - spec[m] * F.character(-m)) < 1e-10


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (7, 3)])
def test_plancherel_defect_tiny(q, d):
    f = random_function(q, d, seed=17)
    norm = float(np.sum(np.abs(f.values) ** 2))
    assert plancherel_defect(f) < 1e-9 * max(1.0, norm)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_plancherel_property(seed):
    f = random_function(5, 2, seed)
    norm = float(np.sum(np.abs(f.values) ** 2))
    assert plancherel_defect(f) < 1e-9 * max(1.0, norm)


def test_linearity():
    q, d = 5, 2
    a = random_function(q, d, 1)
    b = random_function(q, d, 2)
    combo = GridFunction(a.field, d, 2.0 * a.values - 3j * b.values)
    lhs = forward_transform(combo).values
    rhs = 2.0 * forward_transform(a).values - 3j * forward_transform(b).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("q,d,n,sets", [(3, 2, 4, 6), (5, 3, 9, 4), (11, 3, 30, 3), (2, 5, 7, 5), (7, 4, 20, 2)])
def test_indicator_power_rows_equal_single_set_power(q, d, n, sets):
    # a row of the stacked transform is bit-identical to the set's own
    # spectrum, so guard-band errors name the same floats either way
    members = [gen_random(q, d, n, seed) for seed in range(sets)]
    stack = indicator_power(np.array([E.indices() for E in members]), PrimeField(q), d)
    for row, E in zip(stack, members):
        assert np.array_equal(row, E.spectrum_power())
