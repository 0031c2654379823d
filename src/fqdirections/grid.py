"""Mixed-radix indexing of the dense grid over F_q^d.

Every dense table in the package (indicators, grid functions, spectra,
difference multiplicities) is a flat length-q^d array indexed with
coordinate 1 most significant:

    index(x) = x_1 * q^(d-1) + x_2 * q^(d-2) + ... + x_d

so index 0 is the origin and indices increase lexicographically.

difference_multiplicities is the package's one pair kernel: every set's
sparse mu, off which E - E and sum mu^2 are read, and D(E) and every nu(t)
off its class masses (directions.class_masses), as one (codes, counts)
pair whose codes carry set b's offset b q^d (code // q^d).
It works a group of sets at a time, each group's pair codes in a code space
of its own sets' cells only, so they are built in the narrowest unsigned
dtype that holds it: uint16 on grids of at most 2^16 cells.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Pair codes a group of sets builds at once, or one set's row block of a
#: dense mu count unless its table has more cells; bounds memory, not results.
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
    16-32 MB higher in some runs at q = 101, d = 3.  It also imports
    numpy.ma on its first call, 38-55 ms of a fresh process's set-up.
    """
    ordered = np.sort(codes)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def difference_multiplicities(indices: np.ndarray, q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse mu(z) = #{(x, y) in E x E : x - y = z} of each set of a (B, n) index stack.

    Returns (codes, counts) ascending by code: int64 support codes, set b's
    offset by b q^d, and their int64 multiplicities.  The code of x - y is
    index(x) - index(y) plus q^(d-j+1) for each coordinate j with x_j < y_j.

    Sets go a group of G = max(1, _PAIR_BLOCK // max(q^d, n^2)) at a time.
    A group's codes are offset within the group, so they are built in
    np.min_scalar_type(G q^d - 1), from digits in np.min_scalar_type(q - 1);
    unsigned arithmetic wraps, but the sum is exact since the true code fits.
    Counting is by bincount into the group's G q^d slice of a dense table
    when n^2 >= q^d (a set of n^2 > _PAIR_BLOCK pairs in row blocks of at
    most max(_PAIR_BLOCK, q^d) pairs), else by sort and run length: no table
    outgrows the pairs.
    """
    sets, n = indices.shape
    cells = q**d
    group = max(1, _PAIR_BLOCK // max(cells, n * n))
    dtype = np.min_scalar_type(group * cells - 1)
    flat = indices.astype(dtype)
    local = flat + (np.arange(sets) % group * cells).astype(dtype)[:, None]
    weights = radix_weights(q, d)
    digits = [(indices // int(w) % q).astype(np.min_scalar_type(q - 1)) for w in weights]
    borrows = list(zip(digits, (q * weights).astype(dtype)))

    def codes(members: slice, rows: slice) -> np.ndarray:
        block = local[members, rows, None] - flat[members, None, :]
        for digit, borrow in borrows:
            block += (digit[members, rows, None] < digit[members, None, :]) * borrow
        return block.ravel()

    # an empty stack still makes one (empty) group
    groups = [slice(start, start + group) for start in range(0, max(sets, 1), group)]
    if n * n >= cells:
        hist = np.zeros(sets * cells, dtype=np.int64)
        rows = max(_PAIR_BLOCK, cells) // n
        for members in groups:
            part = hist[members.start * cells : members.stop * cells]
            part[:] = np.bincount(codes(members, slice(0, rows)), minlength=len(part))
            for start in range(rows, n, rows):
                part += np.bincount(codes(members, slice(start, start + rows)), minlength=len(part))
        support = np.flatnonzero(hist)
        return support, hist[support]
    parts = []
    for members in groups:
        ordered = np.sort(codes(members, slice(None)))
        keep = np.ones(len(ordered), dtype=bool)
        keep[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(keep)
        support = ordered[starts].astype(np.int64)
        support += members.start * cells
        parts.append((support, np.diff(starts, append=len(ordered))))
    supports, counts = zip(*parts)
    return np.concatenate(supports), np.concatenate(counts)
