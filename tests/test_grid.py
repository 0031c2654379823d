import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqdirections import grid

import oracles


@pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (5, 3), (7, 2)])
def test_encode_decode_roundtrip(q, d):
    for idx in range(q**d):
        point = grid.decode(idx, q, d)
        assert grid.encode(point, q) == idx
        assert oracles.index_to_point(idx, q, d) == point


def test_first_coordinate_most_significant():
    assert grid.encode((1, 0, 0), 3) == 9
    assert grid.encode((0, 1, 0), 3) == 3
    assert grid.encode((0, 0, 1), 3) == 1
    assert grid.decode(0, 5, 2) == (0, 0)
    assert grid.decode(24, 5, 2) == (4, 4)


def test_radix_weights():
    assert list(grid.radix_weights(5, 3)) == [25, 5, 1]
    assert list(grid.radix_weights(2, 1)) == [1]


@pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (3, 3)])
def test_vectorized_matches_scalar(q, d):
    indices = np.arange(q**d, dtype=np.int64)
    coords = grid.decode_indices(indices, q, d)
    for idx in indices:
        assert tuple(coords[idx]) == grid.decode(int(idx), q, d)
    back = grid.encode_coords(coords, q)
    assert np.array_equal(back, indices)


@given(
    st.integers(min_value=2, max_value=13),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_roundtrip_property(q, d, data):
    idx = data.draw(st.integers(min_value=0, max_value=q**d - 1))
    assert grid.encode(grid.decode(idx, q, d), q) == idx


# -- the difference-multiplicity kernel -------------------------------------

def _assert_mu_matches_oracle(picks: np.ndarray, q: int, d: int) -> None:
    codes, counts = grid.difference_multiplicities(picks, q, d)
    assert np.array_equal(codes, np.sort(codes))
    for b, points in enumerate(picks):
        mine = codes // q**d == b
        table = {grid.decode(int(c) - b * q**d, q, d): int(m) for c, m in zip(codes[mine], counts[mine])}
        assert table == oracles.mu_direct([grid.decode(int(i), q, d) for i in points], q)


@st.composite
def _stacks(draw, dense: bool):
    # the kernel counts densely exactly when |E|^2 >= q^d, so the size picks the branch
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 4))
    sizes = [n for n in range(min(q**d, 12) + 1) if (n * n >= q**d) == dense]
    if not sizes:
        d = 1
        sizes = [n for n in range(q + 1) if (n * n >= q) == dense]
    n = draw(st.sampled_from(sizes))
    sets = draw(st.integers(1, 5))
    picks = [draw(st.lists(st.integers(0, q**d - 1), min_size=n, max_size=n, unique=True)) for _ in range(sets)]
    return q, d, np.array(picks, dtype=np.int64).reshape(sets, n)


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sort"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_difference_multiplicities_match_oracle(dense, data):
    q, d, picks = data.draw(_stacks(dense))
    _assert_mu_matches_oracle(picks, q, d)


@given(_stacks(dense=True))
@settings(max_examples=30, deadline=None)
def test_difference_multiplicities_across_row_blocks(stack):
    q, d, picks = stack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_PAIR_BLOCK", 7)
        _assert_mu_matches_oracle(picks, q, d)


@pytest.mark.parametrize(
    "q,d,picks",
    [
        (5, 2, np.empty((3, 0), dtype=np.int64)),
        (7, 3, np.array([[0], [342], [100]])),
        (3, 2, np.tile(np.arange(9), (2, 1))),
        (2, 4, np.arange(16)[None]),
        (7, 1, np.array([[0, 3, 6], [1, 2, 5]])),
        (13, 1, np.arange(13)[None]),
        # set 1's offset q^d is above 2^31, so the int64 output carries it
        # though the codes are built in uint32 (q^d < 2^32)
        (46349, 2, np.array([[0, 5, 46349 * 7 + 3, 46349**2 - 1], [1, 2, 3, 46349 * 46348]])),
    ],
    ids=["empty", "singletons", "full-3-2", "full-2-4", "d1", "full-d1", "int64"],
)
def test_difference_multiplicities_edge_stacks(q, d, picks):
    _assert_mu_matches_oracle(picks, q, d)


def _kernel_calls(name: str, picks: np.ndarray, q: int, d: int) -> list:
    """The dtype of the codes the kernel passes to each call of np.<name> (sort or bincount)."""
    seen = []
    real = getattr(np, name)

    def spy(codes, *args, **kwargs):
        seen.append(codes.dtype)
        return real(codes, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, name, spy)
        grid.difference_multiplicities(picks, q, d)
    return seen


@pytest.mark.parametrize(
    "q,d,picks,dtype",
    [
        # q^d = 2^16 cells: the top borrow q^d wraps to 0 in uint16
        (2, 16, np.array([[0, (1 << 16) - 1]]), np.uint16),
        (257, 2, np.array([[0, 256, 257 * 256, 257**2 - 1], [3, 5, 600, 66000]]), np.uint32),
        (65537, 2, np.array([[0, 65536, 65537 * 65536, 65537**2 - 1]]), np.uint64),
    ],
    ids=["uint16", "uint32", "uint64"],
)
def test_difference_multiplicities_code_dtypes(q, d, picks, dtype):
    # codes are built in the narrowest unsigned dtype that holds a group's
    # G q^d codes; every stack here is on the sort branch
    assert set(_kernel_calls("sort", picks, q, d)) == {np.dtype(dtype)}
    _assert_mu_matches_oracle(picks, q, d)


@pytest.mark.parametrize(
    "pair_block,q,d,n,sets,counter,calls",
    [
        (32, 3, 2, 4, 5, "bincount", 3),  # groups of 2, 2 and 1 sets of 16 pairs
        (50, 5, 2, 3, 5, "sort", 3),  # groups of 2, 2 and 1 sets in 25 cells each
        (32, 3, 2, 8, 2, "bincount", 4),  # 64 pairs > 32: each set in two row blocks of 4 rows
    ],
    ids=["dense", "sort", "row-blocks"],
)
def test_difference_multiplicities_ragged_groups(monkeypatch, pair_block, q, d, n, sets, counter, calls):
    monkeypatch.setattr(grid, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(n)
    picks = np.array([rng.choice(q**d, n, replace=False) for _ in range(sets)])
    assert len(_kernel_calls(counter, picks, q, d)) == calls
    _assert_mu_matches_oracle(picks, q, d)


def test_difference_multiplicities_peak_memory():
    # 10 sets of 170 points in F_13^3, dense branch: the result holds about
    # 343 KB, and the kernel's traced peak stays under 1 MB
    rng = np.random.default_rng(13)
    picks = np.sort([rng.choice(13**3, 170, replace=False) for _ in range(10)], axis=1)
    grid.difference_multiplicities(picks, 13, 3)
    tracemalloc.start()
    try:
        codes, counts = grid.difference_multiplicities(picks, 13, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.nbytes + counts.nbytes > 300_000
    assert peak < 1 << 20
