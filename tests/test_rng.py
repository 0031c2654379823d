import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from fqdirections import rng
from fqdirections.rng import mix64, sample_block, sample_without_replacement
from oracles import XorShift64Star

# Frozen stream prefixes; recomputed independently from the recurrence
# x ^= x >> 12; x ^= x << 25; x ^= x >> 27; out = x * 2685821657736338717 mod 2^64.
STREAM_SEED_1 = [
    5180492295206395165,
    12380297144915551517,
    13389498078930870103,
    5599127315341312413,
]
STREAM_SEED_42 = [
    6255019084209693600,
    14430073426741505498,
    14575455857230217846,
    17414512882241728735,
]


def test_frozen_stream_vectors():
    r = XorShift64Star(1)
    assert [r.next_u64() for _ in range(4)] == STREAM_SEED_1
    r = XorShift64Star(42)
    assert [r.next_u64() for _ in range(4)] == STREAM_SEED_42


def test_zero_seed_is_remapped():
    r = XorShift64Star(0)
    first = r.next_u64()
    assert first != 0
    assert first == XorShift64Star(0x9E3779B97F4A7C15).next_u64()


def test_seed_is_masked_to_64_bits():
    assert XorShift64Star(1 << 64 | 7).next_u64() == XorShift64Star(7).next_u64()


def test_below_bounds_and_errors():
    r = XorShift64Star(3)
    draws = [r.below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in draws)
    assert len(set(draws)) == 10  # 200 draws hit every residue
    with pytest.raises(ValueError):
        r.below(0)


def test_mix64_is_deterministic_and_order_sensitive():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2, 3) != mix64(3, 2, 1)
    assert mix64(0) != mix64()
    assert 0 <= mix64(2**80, 5) < 2**64


def test_sample_without_replacement_basic():
    picks = sample_without_replacement(10, 4, 7)
    assert len(picks) == len(set(picks)) == 4
    assert all(0 <= v < 10 for v in picks)
    assert picks == sample_without_replacement(10, 4, 7)
    assert sample_without_replacement(10, 4, 8) != picks


def test_sample_without_replacement_full_permutation():
    picks = sample_without_replacement(8, 8, 123)
    assert sorted(picks) == list(range(8))


def test_sample_without_replacement_edges():
    assert sample_without_replacement(5, 0, 1) == []
    with pytest.raises(ValueError):
        sample_without_replacement(3, 4, 1)
    with pytest.raises(ValueError):
        sample_without_replacement(3, -1, 1)


def test_sample_covers_all_values_across_seeds():
    seen = set()
    for seed in range(60):
        seen.update(sample_without_replacement(25, 3, seed))
    assert seen == set(range(25))


# -- block draws against the scalar generator --------------------------------

# 0 is remapped, 2^64 + 7 masks to 7; the rest are ordinary nonzero states
EDGE_SEEDS = [0, 5, 2**64 - 1, 2**64 + 7]
W = rng._TABLE_STEPS


def _assert_matches_scalar(total, count, seeds):
    block = sample_block(total, count, seeds)
    assert block.dtype == np.int64
    assert block.shape == (len(seeds), count)
    for seed, row in zip(seeds, block.tolist()):
        assert row == oracles.fisher_yates_sample(total, count, seed)


@st.composite
def _requests(draw):
    total = draw(st.one_of(st.integers(1, 3 * W), st.integers(1, 1 << 24)))
    count = draw(st.integers(0, min(total, 3 * W + 1)))
    seed = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
    seeds = draw(st.lists(seed, min_size=1, max_size=5))
    return total, count, seeds


@settings(max_examples=150, deadline=None)
@given(_requests())
def test_sample_block_matches_scalar_fisher_yates(request):
    _assert_matches_scalar(*request)


@pytest.mark.parametrize("count", [0, 1, W - 1, W, W + 1, 2 * W, 2 * W + 1, 1000])
def test_sample_block_across_table_chunks(count):
    _assert_matches_scalar(5000, count, EDGE_SEEDS)
    _assert_matches_scalar(5000, count, [EDGE_SEEDS[1]])
    # a full permutation, the last draw's bound being 1
    _assert_matches_scalar(max(count, 1), count, EDGE_SEEDS)


def test_sample_block_over_several_gathers():
    seeds = [mix64(11, seed) for seed in range(2 * rng._JUMP_ROWS + 3)] + EDGE_SEEDS
    _assert_matches_scalar(1 << 24, W + 5, seeds)


@pytest.mark.parametrize("total", range(1, W + 1))
def test_sample_block_where_draws_collide_most(total):
    # with count near total almost every target was written by an earlier step
    for count in range(max(0, total - 3), total + 1):
        _assert_matches_scalar(total, count, EDGE_SEEDS)


@pytest.mark.parametrize("total, count", [(4, 4), (9, 6), (W, W), (W + 1, W - 2), (2 * W + 3, 2 * W + 3)])
def test_sample_block_collisions_over_several_gathers(total, count):
    seeds = [mix64(13, seed) for seed in range(2 * rng._JUMP_ROWS + 2)]
    _assert_matches_scalar(total, count, seeds)


def test_sample_block_repeated_seed_gives_identical_rows():
    # 0 and 2^64 both stand for the remapped zero seed
    seeds = [5, 0, 5, 2**64, 9, 5, 0]
    block = sample_block(12, 12, seeds)
    for seed, row in zip(seeds, block.tolist()):
        assert row == block[seeds.index(seed)].tolist() == oracles.fisher_yates_sample(12, 12, seed)
    assert block[1].tolist() == block[3].tolist()
    _assert_matches_scalar(1 << 40, 100, [7] * 130)


def test_sample_block_memory_is_sized_by_the_draws_not_the_total():
    seeds, count = [mix64(17, seed) for seed in range(8)], 200
    sample_block(1 << 63, count, seeds)  # builds the cached jump table
    tracemalloc.start()
    try:
        sample_block(1 << 63, count, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (16, B, 64) uint64 gather and a few (B, count) int64 arrays
    assert peak < 32 * 8 * len(seeds) * count


def test_sample_block_edges():
    assert sample_block(10, 3, []).shape == (0, 3)
    assert sample_block(10, 0, [1, 2]).shape == (2, 0)
    with pytest.raises(ValueError):
        sample_block(3, 4, [1])
    with pytest.raises(ValueError):
        sample_block(3, -1, [1])
    assert sample_block(1 << 63, 2, [5])[0].tolist() == oracles.fisher_yates_sample(1 << 63, 2, 5)
    with pytest.raises(ValueError):
        sample_block((1 << 63) + 1, 2, [5])
    assert sample_block(10, 4, [7])[0].tolist() == sample_without_replacement(10, 4, 7)


def test_sample_block_error_text_is_brief():
    # numbers of 5001 digits are named, not spelled out (str would refuse them)
    with pytest.raises(ValueError, match=r"^cannot sample int64 indices from over 10\^30 values$"):
        sample_block(10**5000, 1, [1])
    with pytest.raises(ValueError, match=r"^cannot sample over 10\^30 of 3 values without replacement$"):
        sample_block(3, 10**5000, [1])
