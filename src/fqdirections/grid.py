"""Mixed-radix indexing of the dense grid over F_q^d.

Every dense table in the package (indicators, grid functions, spectra,
difference multiplicities) is a flat length-q^d array indexed with
coordinate 1 most significant:

    index(x) = x_1 * q^(d-1) + x_2 * q^(d-2) + ... + x_d

so index 0 is the origin and indices increase lexicographically.

difference_multiplicities is the package's one pair kernel: every set's
sparse mu, off which D(E), E - E, sum mu^2 and every nu(t) are read, as one
(codes, counts) pair whose codes carry set b's offset b q^d (code // q^d).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Pairs per row block of a dense mu count, unless the histogram has more
#: cells; bounds memory, not results.
_PAIR_BLOCK = 1 << 16


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


def difference_multiplicities(indices: np.ndarray, q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse mu(z) = #{(x, y) in E x E : x - y = z} of each set of a (B, n) index stack.

    Returns (codes, counts) ascending by code: support codes, set b's offset
    by b q^d, and their multiplicities.  The code of x - y is index(x) -
    index(y) plus q^(d-j) for each coordinate j with x_j < y_j, built one
    coordinate at a time in int32 unless B q^d needs int64.  Counting is by
    dense bincount when |E|^2 >= q^d, a row block of at most
    max(_PAIR_BLOCK, B q^d) pairs at a time, else by sort and run length: no
    table outgrows the pairs.
    """
    sets, n = indices.shape
    cells = q**d
    dtype = np.int32 if sets * cells < 1 << 31 else np.int64
    flat = indices.astype(dtype)
    shifted = flat + (cells * np.arange(sets, dtype=dtype))[:, None]
    borrows = [(flat // int(w) % q, dtype(q * w)) for w in radix_weights(q, d)]

    def codes(rows: slice) -> np.ndarray:
        block = shifted[:, rows, None] - flat[:, None, :]
        for digit, borrow in borrows:
            block += (digit[:, rows, None] < digit[:, None, :]) * borrow
        return block.ravel()

    if n * n >= cells:
        hist = np.zeros(sets * cells, dtype=np.int64)
        rows = max(1, max(_PAIR_BLOCK, sets * cells) // max(1, sets * n))
        for start in range(0, n, rows):
            hist += np.bincount(codes(slice(start, start + rows)), minlength=sets * cells)
        support = np.flatnonzero(hist)
        counts = hist[support]
    else:
        ordered = np.sort(codes(slice(None)))
        keep = np.ones(len(ordered), dtype=bool)
        keep[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(keep)
        support = ordered[starts].astype(np.int64)
        counts = np.diff(starts, append=len(ordered))
    return support, counts
