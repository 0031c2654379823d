import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections import grid, spectral
from fqdirections.errors import SizeCapError
from fqdirections.field import PrimeField, is_prime, prime_field
from fqdirections.generators import gen_random
from fqdirections.harness import CampaignConfig, run_campaign
from fqdirections.pointset import PointSet
from fqdirections.salem import difference_bound_check, difference_profile
from fqdirections.spectral import (
    GridFunction,
    _LIVE_DIGIT_Q,
    _WHOLE_STACK_MACS,
    _axis_by_axis,
    _characters,
    _indicator_rows,
    _live_rows,
    _whole_stack_power,
    check_size_cap,
    empty_table,
    forward_transform,
    indicator_power,
)

import oracles
from oracles import plancherel_defect


def random_function(q, d, seed):
    rng = np.random.default_rng(seed)
    n = q**d
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GridFunction(PrimeField(q), d, vals)


def test_check_size_cap():
    assert check_size_cap(5, 3) == 125
    assert check_size_cap(2, 24) == 1 << 24
    for q, d in ((2, 25), (257, 3)):
        with pytest.raises(SizeCapError):
            check_size_cap(q, d)
    with pytest.raises(ValueError):
        check_size_cap(5, 0)
    # a huge dimension is refused without taking the power or spelling it out
    with pytest.raises(SizeCapError, match=r"^grid of 3\^10000000 = over 10\^30 entries exceeds the cap 16777216$"):
        check_size_cap(3, 10**7)


def test_grid_function_validation():
    F = PrimeField(3)
    with pytest.raises(ValueError):
        GridFunction(F, 2, np.zeros(8))
    g = GridFunction(F, 2, np.zeros(9))
    assert g.values.shape == (9,)
    assert g.values.dtype == np.complex128


@pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_forward_matches_direct_double_sum(q, d):
    f = random_function(q, d, seed=q * 100 + d)
    fast = forward_transform(f).values
    slow = oracles.dft_direct(f.values, q, d)
    assert np.max(np.abs(fast - slow)) < 1e-10


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2)])
def test_inverse_round_trip(q, d):
    # transforming twice reflects and scales, fhathat(x) = q^-d f(-x), so
    # q^d times the reflected transform inverts the transform
    f = random_function(q, d, seed=q + d)
    twice = forward_transform(forward_transform(f))
    reflected = grid.encode_coords(-grid.decode_indices(np.arange(q**d), q, d) % q, q)
    assert np.max(np.abs(twice.values[reflected] * float(q) ** d - f.values)) < 1e-9
    assert type(twice) is GridFunction


def test_delta_function_is_flat():
    # a point mass at the origin has fhat(m) = q^-d for every m
    F = PrimeField(5)
    g = GridFunction(F, 2, np.zeros(25))
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
        assert abs(shifted[m] - spec[m] * F.roots[-m % q]) < 1e-10


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
    return oracles.dense_axis_by_axis(values, prime_field(q).roots, q, d) * float(q) ** (-d)


def stack_transform(stack, q, d):
    """The live-row loop on a (B, q^d) stack of general tables."""
    rows, keys = _live_rows(stack, q)
    return _axis_by_axis(rows, keys, len(stack), prime_field(q), d)


def indicator_masks(indices, q, d):
    masks = np.zeros((len(indices), q**d), dtype=np.complex128)
    np.put_along_axis(masks, indices, 1.0, axis=1)
    return masks


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_power_matches_spectrum(q, d, indices):
    # the power read off the last pass is the complex ending's |Ehat|^2 byte
    # for byte, signs of zero included
    power = indicator_power(indices, prime_field(q), d)
    spectrum = dense_forward(indicator_masks(indices, q, d), q, d)
    for b in range(len(indices)):
        assert_same_bytes(power[b], np.abs(spectrum[b]) ** 2)
    E = PointSet.from_indices(q, d, indices[0])
    assert_same_bytes(E.spectrum_power(), np.abs(E.spectrum().values) ** 2)


@st.composite
def _index_stacks(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=3 if q == 7 else 4))
    n = draw(st.integers(min_value=0, max_value=min(q**d, 12)))
    sets = draw(st.integers(min_value=1, max_value=5))
    points = st.lists(st.integers(min_value=0, max_value=q**d - 1), min_size=n, max_size=n, unique=True)
    return q, d, np.array(draw(st.lists(points, min_size=sets, max_size=sets)), dtype=np.int64).reshape(sets, n)


def assert_both_paths_match_dense_loop(q, d, indices):
    # indicator_power's two paths give the whole-cube loop's power byte for byte
    field = prime_field(q)
    whole = _whole_stack_power(indices, field, d)
    live = _axis_by_axis(*_indicator_rows(indices, q, d), len(indices), field, d, power=True)
    assert_same_bytes(whole, np.abs(dense_forward(indicator_masks(indices, q, d), q, d)) ** 2)
    assert_same_bytes(live, whole)
    assert_same_bytes(indicator_power(indices, field, d), whole)


@given(_index_stacks())
@settings(max_examples=150, deadline=None)
def test_indicator_stack_matches_dense_loop(case):
    q, d, indices = case
    masks = indicator_masks(indices, q, d)
    assert np.array_equal(stack_transform(masks, q, d), dense_forward(masks, q, d))
    assert_power_matches_spectrum(q, d, indices)
    assert_both_paths_match_dense_loop(q, d, indices)


@pytest.mark.parametrize(
    "q,d,n,sets,whole",
    [
        (13, 3, 14, 24, True),  # either side of _WHOLE_STACK_MACS
        (13, 3, 14, 25, False),
        (13, 3, 170, 24, True),
        (13, 3, 170, 25, False),
        (131, 1, 5, 122, True),  # above _LIVE_DIGIT_Q, d = 1
        (131, 1, 5, 123, False),
        (521, 1, 40, 7, True),  # characters built in blocks
        (521, 1, 40, 8, False),
        (7, 1, 3, 1, True),  # one set
        (11, 3, 122, 1, True),
        (31, 3, 32, 1, False),
        (5, 3, 0, 3, True),  # empty sets
        (31, 3, 0, 3, False),
    ],
)
def test_power_paths_agree_either_side_of_cutoff(q, d, n, sets, whole):
    assert (sets * d * q ** (d + 1) <= _WHOLE_STACK_MACS) == whole
    rng = np.random.default_rng(q * n + sets)
    indices = np.array([np.sort(rng.choice(q**d, n, replace=False)) for _ in range(sets)]).reshape(sets, n)
    assert_both_paths_match_dense_loop(q, d, indices)


@given(_index_stacks(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_general_stack_matches_dense_loop(case, seed):
    # random values on a random subset of rows, whole tables left empty
    q, d, indices = case
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(len(indices), q**d)) + 1j * rng.normal(size=(len(indices), q**d))
    stack.reshape(-1, q)[rng.random(len(indices) * q ** (d - 1)) < 0.6] = 0
    stack[rng.random(len(indices)) < 0.3] = 0
    spectra = stack_transform(stack, q, d)
    assert np.array_equal(spectra, dense_forward(stack, q, d))
    rows, keys = _live_rows(stack, q)
    power = _axis_by_axis(rows, keys, len(stack), prime_field(q), d, power=True)
    assert_same_bytes(power, np.abs(spectra) ** 2)


@pytest.mark.parametrize(
    "q,d,points",
    [
        (3, 3, list(range(27))),  # full grid
        (5, 3, list(range(125))),
        (7, 1, [0, 3, 6]),
        (101, 1, [2, 50, 99]),
        (5, 3, [5, 6, 9]),  # one live row
        (7, 2, [14, 17, 20]),
        (101, 3, None),
        (131, 2, None),  # above _LIVE_DIGIT_Q
    ],
)
def test_power_ending_fixed_cases(q, d, points):
    if points is None:
        indices = np.array([gen_random(q, d, q + 1, seed).indices() for seed in range(2)])
    else:
        indices = np.array([points])
    assert_power_matches_spectrum(q, d, indices)


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


@pytest.mark.parametrize("q,d", [(5, 3), (7, 2), (3, 1), (2, 1)])
def test_stack_mixing_empty_and_nonempty_tables(q, d):
    stack = np.zeros((4, q**d), dtype=np.complex128)
    stack[1, 0] = 1.0
    stack[3, [1, q**d - 1]] = [2.0, -1j]
    assert np.array_equal(stack_transform(stack, q, d), dense_forward(stack, q, d))
    assert not stack_transform(stack, q, d)[[0, 2]].any()


@pytest.mark.parametrize("q,d", [(5, 3), (7, 2), (3, 1), (101, 2)])
def test_one_live_row_matches_dense_loop(q, d):
    # numpy would send a one-row product to gemv, which rounds unlike gemm
    rng = np.random.default_rng(q * d)
    for row in (0, q ** (d - 1) - 1):
        values = np.zeros(q**d, dtype=np.complex128)
        values[row * q : (row + 1) * q] = rng.normal(size=q) + 1j * rng.normal(size=q)
        spec = forward_transform(GridFunction(prime_field(q), d, values))
        assert np.array_equal(spec.values, dense_forward(values, q, d))


@pytest.mark.parametrize(
    "q,d,sets,points,seed",
    [(3, 2, 5, 1, 0), (3, 2, 5, 1, 1), (5, 3, 4, 1, 0), (5, 3, 4, 1, 1), (3, 4, 3, 2, 0), (3, 4, 3, 2, 1)],
)
def test_one_live_child_per_parent_matches_dense_loop(q, d, sets, points, seed):
    # each parent of a later pass has one live digit; a one-term product
    # rounds unlike the whole row, so the block is padded to two
    rng = np.random.default_rng(seed)
    indices = np.array([rng.choice(q**d, points, replace=False) for _ in range(sets)])
    masks = indicator_masks(indices, q, d)
    assert np.array_equal(stack_transform(masks, q, d), dense_forward(masks, q, d))
    assert_power_matches_spectrum(q, d, indices)
    stack = masks * (rng.normal(size=masks.shape) + 1j * rng.normal(size=masks.shape))
    assert np.array_equal(stack_transform(stack, q, d), dense_forward(stack, q, d))


@pytest.mark.parametrize("q,d", [(101, 3), (131, 2)])
def test_large_modulus_set_matches_dense_loop(q, d):
    # q = 101, d = 3, |E| = q + 1 is the benchmark's large set: its later
    # passes skip most digits.  q = 131 is above _LIVE_DIGIT_Q, where the
    # BLAS splits a row's sum in two and every digit is kept.
    E = gen_random(q, d, q + 1, seed=7)
    assert np.array_equal(E.spectrum().values, dense_forward(E.indicator().values, q, d))


@pytest.mark.parametrize("q", [3, 13, 101, max(p for p in range(_LIVE_DIGIT_Q + 1) if is_prime(p))])
def test_blas_zero_terms_leave_gemm_sums_unchanged(q):
    # The live-digit passes rest on this property of the installed numpy and
    # BLAS: a rows @ chars product over the live digits only, zero-padded to
    # width >= 2, equals the product over all q digits with zeros in place,
    # in the layouts the transform uses.  If an upgrade breaks it, this test
    # names the cause.
    rng = np.random.default_rng(q)
    chars = _characters(prime_field(q))
    assert _characters(prime_field(q)) is chars and not chars.flags.writeable
    for live in (1, 2, q // 2, q - 1):
        digits = np.sort(rng.choice(q, live, replace=False))
        values = rng.normal(size=(live, q)) + 1j * rng.normal(size=(live, q))
        whole = np.zeros((q, q), dtype=np.complex128)
        whole[digits] = values
        width = max(2, live)
        rows = np.zeros((width, q), dtype=np.complex128)
        rows[:live] = values
        padded = np.zeros(width, dtype=np.int64)
        padded[:live] = digits
        assert np.array_equal(np.matmul(rows.T, chars[padded]), np.matmul(whole.T, chars.T))


@given(_index_stacks())
@settings(max_examples=60, deadline=None)
def test_pointset_spectrum_equals_transform_of_indicator(case):
    q, d, indices = case
    E = PointSet.from_indices(q, d, indices[0])
    assert np.array_equal(E.spectrum().values, forward_transform(E.indicator()).values)


def test_spectrum_power_peak_memory():
    # the transform holds its two complex buffers and nothing else of q^d
    # size: the power is squared into one and reordered into the other
    q, d = 61, 3
    E = gen_random(q, d, q + 1, seed=5)
    tracemalloc.start()
    try:
        E.spectrum_power()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * q**d


def test_spectrum_power_retains_one_table():
    # the cached power is a float view of one transform buffer; no complex
    # spectrum is cached beside it
    q, d = 61, 3
    E = gen_random(q, d, q + 1, seed=5)
    tracemalloc.start()
    try:
        E.spectrum_power()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.25 * 16 * q**d
    assert E._spectrum is None


def test_whole_stack_power_peak_memory():
    # the largest block of q^2 + 1 points in F_11^3 holds the two complex
    # stack buffers and index-sized scratch: the power is squared into one
    # and reordered into the other
    q, d, sets = 11, 3, 24
    indices = np.array([gen_random(q, d, q * q + 1, seed).indices() for seed in range(sets)])
    assert sets * d * q ** (d + 1) <= _WHOLE_STACK_MACS
    _characters(prime_field(q))
    tracemalloc.start()
    try:
        indicator_power(indices, prime_field(q), d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * sets * q**d


def _routes(monkeypatch):
    """Record the (sets, q, d) of each stack indicator_power sends down each of its two paths."""
    routes = {"whole": [], "live": []}

    def whole(indices, field, dim):
        routes["whole"].append((len(indices), field.q, dim))
        return _whole_stack_power(indices, field, dim)

    def live(rows, keys, tables, field, dim, power=False):
        routes["live"].append((tables, field.q, dim))
        return _axis_by_axis(rows, keys, tables, field, dim, power)

    monkeypatch.setattr(spectral, "_whole_stack_power", whole)
    monkeypatch.setattr(spectral, "_axis_by_axis", live)
    return routes


@pytest.mark.parametrize(
    "kind,q,d,k,sizes,trials,mode,blocks",
    [
        ("theorem-main", 3, 2, 1, (4, 5, 6), 1, "exhaustive", [84, 126, 126]),
        ("theorem-main", 11, 3, 2, ("q^k+1",), 20, "random", [20]),
        ("theorem-main", 11, 3, 2, ("q^k+1",), 100, "random", [4, 24, 24, 24, 24]),
        ("salem-bounds", 13, 3, None, ("q+1", "2*q", "q^2+1"), 10, "random", [10, 10, 10]),
    ],
)
def test_small_grid_blocks_are_transformed_whole(monkeypatch, kind, q, d, k, sizes, trials, mode, blocks):
    config = CampaignConfig(
        kind=kind, q_list=(q,), d_list=(d,), k_list=(k,) if k else (), sizes=sizes, trials=trials, mode=mode
    )
    routes = _routes(monkeypatch)
    run_campaign(config)
    assert routes["live"] == []
    assert sorted(routes["whole"]) == [(sets, q, d) for sets in blocks]


def test_large_grid_stacks_take_the_live_loop(monkeypatch):
    routes = _routes(monkeypatch)
    run_campaign(
        CampaignConfig(
            kind="theorem-main", q_list=(31,), d_list=(3,), k_list=(1,), sizes=("q+1",), trials=3, mode="random"
        )
    )
    gen_random(101, 3, 102, seed=1).spectrum_power()
    assert routes["whole"] == []
    assert routes["live"] == [(2, 31, 3), (1, 31, 3), (1, 101, 3)]


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
def test_empty_table_advises_huge_pages_to_its_end(monkeypatch):
    # 4 MiB and 8,000 bytes fill no whole number of 2 MiB pages; the tail
    # past the last whole one is advised too, inside the mapping
    advised = []

    class RecordedPages(mmap.mmap):
        def madvise(self, option, start, length):
            advised.append((option, start, length))
            return super().madvise(option, start, length)

    monkeypatch.setattr(mmap, "mmap", RecordedPages)
    table = empty_table((1 << 19) + 1000, np.float64)
    pages = _owner(table)
    data = table.ctypes.data - np.frombuffer(pages, np.uint8, count=1).ctypes.data
    ((option, start, length),) = advised
    assert isinstance(pages, RecordedPages) and option == mmap.MADV_HUGEPAGE
    assert start <= data and data + table.nbytes <= start + length <= len(pages)


@_OWN_PAGES
def test_page_backed_power_and_fourth_moment_keep_their_bits():
    # q = 101, d = 3: the spectrum and its power are page-backed tables and
    # the fourth-moment squares are taken a block at a time; values must
    # match the plain numpy route
    E = gen_random(101, 3, 102, seed=1)
    power = E.spectrum_power()
    assert isinstance(_owner(E.spectrum().values), mmap.mmap) and isinstance(_owner(power), mmap.mmap)
    assert np.array_equal(power, np.abs(E.spectrum().values) ** 2)
    rec = difference_bound_check(E)
    lhs = difference_profile(E).sum_of_squares()
    rhs = float(101) ** 9 * float(np.sum(power**2))
    assert rec.parseval_defect_rel == abs(lhs - rhs) / max(1.0, float(lhs))
