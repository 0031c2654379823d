"""Mixed-radix indexing of the dense grid over F_q^d.

Every dense table in the package (indicators, grid functions, spectra,
difference multiplicities) is a flat length-q^d array indexed with
coordinate 1 most significant:

    index(x) = x_1 * q^(d-1) + x_2 * q^(d-2) + ... + x_d

so index 0 is the origin and indices increase lexicographically.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def radix_weights(q: int, d: int) -> np.ndarray:
    """Per-coordinate place values [q^(d-1), ..., q, 1]."""
    return q ** np.arange(d - 1, -1, -1, dtype=np.int64)


def encode(point: Sequence[int], q: int) -> int:
    idx = 0
    for c in point:
        idx = idx * q + int(c)
    return idx


def decode(index: int, q: int, d: int) -> tuple[int, ...]:
    coords = []
    for _ in range(d):
        index, c = divmod(index, q)
        coords.append(c)
    return tuple(reversed(coords))


def encode_coords(coords: np.ndarray, q: int) -> np.ndarray:
    """Vectorized encode of an (n, d) coordinate array to (n,) flat indices."""
    coords = np.asarray(coords, dtype=np.int64)
    return coords @ radix_weights(q, coords.shape[1])


def decode_indices(indices: np.ndarray, q: int, d: int) -> np.ndarray:
    """Vectorized decode of flat indices to an (n, d) coordinate array."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((len(indices), d), dtype=np.int64)
    rest = indices
    for j in range(d - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, q)
    return out


def distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array.

    The sort-and-compare form of np.unique.  numpy 2.x's np.unique routes
    integer input through a hash set whose per-element allocations fragment
    the heap: with 16 MB spectra in the same process, peak RSS came out
    16-32 MB higher in some runs at q = 101, d = 3.
    """
    ordered = np.sort(codes)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def iter_points(q: int, d: int) -> Iterator[tuple[int, ...]]:
    """All points of F_q^d in ascending index order."""
    for idx in range(q**d):
        yield decode(idx, q, d)
