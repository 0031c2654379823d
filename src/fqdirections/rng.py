"""Deterministic seeded randomness for reproducible set sampling.

The point samplers must produce identical sets for identical seeds on every
platform, so instead of a platform library RNG the package pins xorshift64*:

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;  output = x * 2685821657736338717

with all arithmetic mod 2^64.  A zero seed is remapped to a fixed nonzero
constant (the all-zero state is a fixed point of the shifts).  Test vectors
live in the README and the test suite.  The scalar reference for the
stream, XorShift64Star, lives beside the test oracles in tests/oracles.py.

Bounded draws use a plain modulo reduction; the bias is below bound / 2^64,
irrelevant at desk scale, and keeps the draw count per request fixed.

Index samples are drawn a block of seeds at a time (sample_block).  The
state update is linear over F_2, so the state i steps after a seed is the
XOR, over the seed's 16 nibbles, of the state i steps after the seed that
holds only that nibble.  One read-only jump table of those states for
i = 1.._TABLE_STEPS gives every draw of every seed in a block by one
gather, before the shuffle starts; longer samples restart from a chunk's
last state (Marsaglia, "Xorshift RNGs", J. Stat. Softw. 8(14), 2003;
Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", INFORMS J. Comput. 20(3), 2008).  The stream is the scalar
reference's, bit for bit.

The partial Fisher-Yates pass is resolved for a whole block at once, with
no loop over draws.  Step i swaps positions i and j_i >= i, so:

    out[i] = j_i, unless an earlier step m had j_m = j_i: then the value
             the last such step placed;
    step m places what position m held before step m: m itself, unless an
             earlier step wrote position m: then what the last such placed.

Following "the last earlier step that wrote here" ends at a step that read
its own untouched position, whose index is the placed value.  One stable
per-row sort of the targets finds every link, and pointer jumping follows
them all, about log2(count) rounds; memory stays O(B count) whatever total.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .errors import brief

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit seed via chained splitmix64 rounds.

    Used to derive independent per-trial seeds from (master seed, cell
    coordinates, trial index) without correlated streams.
    """
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ (part & _MASK64))
    return acc


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: States per seed that one jump-table gather yields; longer samples chain.
_TABLE_STEPS = 64
#: Seeds per gather: bounds its (16, rows, _TABLE_STEPS) uint64 temporary to 512 KB.
_JUMP_ROWS = 64
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_ROWS = np.arange(0, 256, 16)[:, None]


@functools.cache
def _jump_table() -> np.ndarray:
    """T[16 k + v, i]: the state i + 1 steps after the seed whose only nonzero nibble, k, holds v."""
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    units = np.empty((64, _TABLE_STEPS), dtype=np.uint64)
    for i in range(_TABLE_STEPS):
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        units[:, i] = x
    units = units.reshape(16, 4, _TABLE_STEPS)
    table = np.zeros((16, 16, _TABLE_STEPS), dtype=np.uint64)
    for bit in range(4):
        # nibble values with top bit `bit` are the smaller ones XOR that bit's unit seed
        table[:, 1 << bit : 2 << bit] = table[:, : 1 << bit] ^ units[:, bit, None]
    table = table.reshape(256, _TABLE_STEPS)
    table.flags.writeable = False
    return table


def _jump(states: np.ndarray, steps: int) -> np.ndarray:
    """The states 1..steps (steps <= _TABLE_STEPS) after each nonzero state, as a (B, steps) array."""
    table = _jump_table()[:, :steps]
    slots = ((states >> _NIBBLE_SHIFTS) & np.uint64(15)).astype(np.intp) + _NIBBLE_ROWS
    out = np.empty((len(states), steps), dtype=np.uint64)
    for row in range(0, len(states), _JUMP_ROWS):
        rows = slice(row, row + _JUMP_ROWS)
        np.bitwise_xor.reduce(table.take(slots[:, rows], axis=0), axis=0, out=out[rows])
    return out


def sample_block(total: int, count: int, seeds: Sequence[int]) -> np.ndarray:
    """sample_without_replacement(total, count, seed) for every seed, as a (B, count) int64 array.

    total may be at most 2^63, so that every index fits int64.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > total:
        raise ValueError(f"cannot sample {brief(count)} of {brief(total)} values without replacement")
    if total > 1 << 63:
        raise ValueError(f"cannot sample int64 indices from {brief(total)} values")
    state = np.array([(int(seed) & _MASK64) or _ZERO_SEED_REPLACEMENT for seed in seeds], dtype=np.uint64)
    outputs = np.empty((len(state), count), dtype=np.uint64)
    for start in range(0, count, _TABLE_STEPS):
        states = _jump(state, min(_TABLE_STEPS, count - start))
        outputs[:, start : start + states.shape[1]] = states
        state = states[:, -1]
    outputs *= np.uint64(_MULTIPLIER)
    # step i draws j_i = i + below(total - i) and swaps positions i and j_i;
    # every step resolves at once by the identity in the module docstring
    steps = np.arange(count, dtype=np.uint64)
    outputs %= np.uint64(total) - steps
    outputs += steps
    targets = outputs.view(np.int64)
    # steps are flat, row * count + i; each row's sorted stably by target
    order = np.argsort(targets, axis=1, kind="stable")
    ordered = np.take_along_axis(targets, order, axis=1)
    offsets = np.arange(len(targets))[:, None] * count
    step = order + offsets
    same = ordered[:, 1:] == ordered[:, :-1]
    # a step with j_p = p links to itself; nothing reads what it places
    last = np.ones(targets.shape, dtype=bool)
    last[:, :-1] = ~same
    last &= ordered < count
    placed = np.arange(targets.size)
    placed[(ordered + offsets)[last]] = step[last]
    while True:
        jumped = placed[placed]
        if np.array_equal(jumped, placed):
            break
        placed = jumped
    # a step sharing an earlier step's target draws what that step placed
    out = targets.ravel().copy()
    out[step[:, 1:][same]] = placed[step[:, :-1][same]] % count
    return out.reshape(targets.shape)


def sample_without_replacement(total: int, count: int, seed: int) -> list[int]:
    """First `count` entries of a seeded partial Fisher-Yates shuffle of range(total).

    Memory stays O(count) even for large totals.
    The one-seed case of sample_block.
    """
    return sample_block(total, count, [seed])[0].tolist()
