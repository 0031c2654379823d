import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections.errors import SizeCapError
from fqdirections.field import PrimeField, prime_field
from fqdirections.generators import gen_random
from fqdirections.pointset import PointSet
from fqdirections.salem import difference_bound_check, difference_profile
from fqdirections.spectral import (
    GridFunction,
    Spectrum,
    _axis_by_axis,
    _live_rows,
    check_size_cap,
    empty_table,
    forward_transform,
    indicator_power,
    indicator_spectrum,
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


@pytest.mark.parametrize(
    "q,d,n,sets", [(3, 2, 4, 6), (5, 3, 9, 4), (11, 3, 30, 3), (2, 5, 7, 5), (7, 4, 20, 2), (7, 1, 6, 4), (13, 1, 5, 6)]
)
def test_indicator_power_rows_equal_single_set_power(q, d, n, sets):
    # a row of the stacked transform is bit-identical to the set's own
    # spectrum, so guard-band errors name the same floats either way
    members = [gen_random(q, d, n, seed) for seed in range(sets)]
    stack = indicator_power(np.array([E.indices() for E in members]), PrimeField(q), d)
    for row, E in zip(stack, members):
        assert np.array_equal(row, E.spectrum_power())


# -- live-row transform against the whole-cube loop ------------------------


def dense_forward(values, q, d):
    return oracles.dense_axis_by_axis(values, prime_field(q).roots, q, d, conjugate=True) * float(q) ** (-d)


def stack_transform(stack, q, d, conjugate):
    """The live-row loop on a (B, q^d) stack of general tables, unscaled."""
    rows, keys = _live_rows(stack, q)
    return _axis_by_axis(rows, keys, len(stack), prime_field(q), d, conjugate)


@st.composite
def _index_stacks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=3 if q == 7 else 4))
    n = draw(st.integers(min_value=0, max_value=min(q**d, 12)))
    sets = draw(st.integers(min_value=1, max_value=5))
    points = st.lists(st.integers(min_value=0, max_value=q**d - 1), min_size=n, max_size=n, unique=True)
    return q, d, np.array(draw(st.lists(points, min_size=sets, max_size=sets)), dtype=np.int64).reshape(sets, n)


@given(_index_stacks())
@settings(max_examples=150, deadline=None)
def test_indicator_stack_matches_dense_loop(case):
    q, d, indices = case
    masks = np.zeros((len(indices), q**d), dtype=np.complex128)
    np.put_along_axis(masks, indices, 1.0, axis=1)
    spectrum = indicator_spectrum(indices, prime_field(q), d)
    assert np.array_equal(spectrum, dense_forward(masks, q, d))
    assert np.array_equal(indicator_power(indices, prime_field(q), d), np.abs(spectrum) ** 2)


@given(_index_stacks(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_general_stack_matches_dense_loop(case, seed):
    # random values on a random subset of rows, whole tables left empty
    q, d, indices = case
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(len(indices), q**d)) + 1j * rng.normal(size=(len(indices), q**d))
    stack.reshape(-1, q)[rng.random(len(indices) * q ** (d - 1)) < 0.6] = 0
    stack[rng.random(len(indices)) < 0.3] = 0
    for conjugate in (True, False):
        reference = oracles.dense_axis_by_axis(stack, prime_field(q).roots, q, d, conjugate)
        assert np.array_equal(stack_transform(stack, q, d, conjugate), reference)


@pytest.mark.parametrize(
    "q,d,points",
    [
        (5, 3, []),  # empty set
        (5, 3, [0]),  # singleton on the first row
        (5, 3, [124]),  # singleton on the last row
        (7, 2, [17]),
        (3, 3, list(range(27))),  # full grid
        (2, 1, [1]),
        (3, 1, []),
        (7, 1, [0, 3, 6]),
        (7, 1, list(range(7))),
    ],
)
def test_live_row_edge_cases(q, d, points):
    E = PointSet.from_indices(q, d, points)
    reference = dense_forward(E.indicator().values, q, d)
    assert np.array_equal(E.spectrum().values, reference)
    assert np.array_equal(forward_transform(E.indicator()).values, reference)
    inverse = oracles.dense_axis_by_axis(reference, prime_field(q).roots, q, d, conjugate=False)
    assert np.array_equal(inverse_transform(E.spectrum()).values, inverse)


@pytest.mark.parametrize("q,d", [(5, 3), (7, 2), (3, 1), (2, 1)])
def test_stack_mixing_empty_and_nonempty_tables(q, d):
    stack = np.zeros((4, q**d), dtype=np.complex128)
    stack[1, 0] = 1.0
    stack[3, [1, q**d - 1]] = [2.0, -1j]
    reference = oracles.dense_axis_by_axis(stack, prime_field(q).roots, q, d, conjugate=True)
    assert np.array_equal(stack_transform(stack, q, d, conjugate=True), reference)
    assert not stack_transform(stack, q, d, conjugate=True)[[0, 2]].any()


@pytest.mark.parametrize("q,d", [(5, 3), (7, 2), (3, 1), (101, 2)])
def test_one_live_row_matches_dense_loop(q, d):
    # numpy would send a one-row product to gemv, which rounds unlike gemm
    rng = np.random.default_rng(q * d)
    for row in (0, q ** (d - 1) - 1):
        values = np.zeros(q**d, dtype=np.complex128)
        values[row * q : (row + 1) * q] = rng.normal(size=q) + 1j * rng.normal(size=q)
        spec = forward_transform(GridFunction(prime_field(q), d, values))
        assert np.array_equal(spec.values, dense_forward(values, q, d))


@given(_index_stacks())
@settings(max_examples=60, deadline=None)
def test_pointset_spectrum_equals_transform_of_indicator(case):
    q, d, indices = case
    E = PointSet.from_indices(q, d, indices[0])
    assert np.array_equal(E.spectrum().values, forward_transform(E.indicator()).values)


def test_spectrum_power_peak_memory():
    # the transform holds two complex tables, one of which becomes the cached
    # spectrum; the power (float) is built after the other is freed
    q, d = 61, 3
    E = gen_random(q, d, q + 1, seed=5)
    tracemalloc.start()
    try:
        E.spectrum_power()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * q**d


def test_dense_transform_peak_memory():
    # every row live: each pass reads one buffer and writes the other, with
    # no third table for a product whose input and output overlap
    q, d = 61, 3
    f = GridFunction(prime_field(q), d, np.random.default_rng(3).random(q**d) + 1.0)
    tracemalloc.start()
    try:
        forward_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * q**d


def test_large_modulus_character_blocks_stay_small():
    # at q = 4093 the whole q x q character matrix would be 256 MiB; blocks of
    # 2^18 characters keep the transform's own scratch to a few MiB
    q = 4093
    E = gen_random(q, 1, 60, seed=4)
    tracemalloc.start()
    try:
        spectrum = E.spectrum().values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    frequencies = [0, 1, 2, 63, 64, 2047, 4092]
    expected = oracles.dft_direct(E.indicator().values, q, 1, frequencies)
    assert np.allclose(spectrum[frequencies], expected, rtol=0, atol=1e-12)


_OWN_PAGES = pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no huge-page advice on this platform")


def _owner(a):
    """The object that owns an array's memory, through views and buffer exports."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@_OWN_PAGES
def test_empty_table_maps_large_tables_on_their_own_pages():
    small = empty_table(1000, np.complex128)
    assert _owner(small) is None and small.shape == (1000,)
    big = empty_table(1 << 19, np.float64)  # 4 MiB
    assert isinstance(_owner(big), mmap.mmap)
    assert big.shape == (1 << 19,) and big.dtype == np.float64 and big.flags.writeable
    assert big.ctypes.data % (1 << 21) == 0
    big[:] = 2.0
    assert big.sum() == 2.0 * (1 << 19)


@_OWN_PAGES
def test_page_backed_power_and_fourth_moment_keep_their_bits():
    # q = 101, d = 3: the spectrum, its power and the fourth-moment squares
    # are all page-backed tables; values must match the plain numpy route
    E = gen_random(101, 3, 102, seed=1)
    power = E.spectrum_power()
    assert isinstance(_owner(E.spectrum().values), mmap.mmap) and isinstance(_owner(power), mmap.mmap)
    assert np.array_equal(power, np.abs(E.spectrum().values) ** 2)
    rec = difference_bound_check(E)
    lhs = difference_profile(E).sum_of_squares()
    rhs = float(101) ** 9 * float(np.sum(power**2))
    assert rec.parseval_defect_rel == abs(lhs - rhs) / max(1.0, float(lhs))
