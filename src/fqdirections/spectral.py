"""Fourier transforms of complex-valued functions on F_q^d.

The forward transform is

    fhat(m) = q^(-d) * sum_x chi(-x . m) f(x)

and by character orthogonality the inverse carries no normalization:

    f(x) = sum_m chi(x . m) fhat(m).

Both are computed axis by axis: d successive length-q one-dimensional
transforms, pass j (j = 0, ..., d-1) along coordinate d-j.  No
fast-transform algorithm is used; at desk scale none is needed.

A pass only multiplies rows whose untransformed prefix (x_1, ..., x_(d-1-j))
holds a nonzero value; every other row of its input is zero and is neither
stored nor multiplied.  Pass j therefore costs q^(j+2) operations per live
prefix: at most q^(d+1), O(d * q^(d+1)) in all, and for a set of n points at
most n * q^(j+2).  At q = 101, d = 3 a random set of 102 points leaves 102 of
10,201 rows live in pass 0, about 64% in pass 1 and all in pass 2.
indicator_spectrum and indicator_power feed the loop straight from point
indices, for one set or a stack of sets at once (campaigns evaluate a block
of sets together), so no dense indicator table is built.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import grid
from .errors import SizeCapError
from .field import PrimeField

#: Default cap on dense table entries (q^d); configurable per grid.
DEFAULT_SIZE_CAP = 1 << 24


def check_size_cap(q: int, dim: int, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Return q**dim, or raise SizeCapError if it exceeds the cap."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    n = q**dim
    if n > size_cap:
        raise SizeCapError(f"grid of {q}^{dim} = {n} entries exceeds the cap {size_cap}")
    return n


def empty_table(n: int, dtype) -> np.ndarray:
    """An uninitialised flat table; from 4 MiB up on pages of its own, unmapped when freed.

    On the heap, a block numpy cached above a dead table pinned its pages and
    peak RSS hung on allocation order.  Whole 2 MiB pages fault in as huge pages.
    """
    nbytes = n * np.dtype(dtype).itemsize
    if nbytes < 1 << 22 or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(n, dtype)
    pages = mmap.mmap(-1, nbytes + (1 << 21), flags=mmap.MAP_PRIVATE)
    start = -np.frombuffer(pages, np.uint8, count=1).ctypes.data % (1 << 21)
    pages.madvise(mmap.MADV_HUGEPAGE, start, nbytes >> 21 << 21)
    return np.frombuffer(pages, dtype, count=n, offset=start)


@dataclass(eq=False)
class GridFunction:
    """A dense complex-valued function on F_q^d in mixed-radix layout."""

    field: PrimeField
    dim: int
    values: np.ndarray
    size_cap: int = dataclass_field(default=DEFAULT_SIZE_CAP, repr=False)

    def __post_init__(self) -> None:
        n = check_size_cap(self.field.q, self.dim, self.size_cap)
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (n,):
            raise ValueError(
                f"expected a flat table of {self.field.q}^{self.dim} = {n} values, "
                f"got shape {values.shape}"
            )
        self.values = values

    @classmethod
    def zeros(cls, field: PrimeField, dim: int, size_cap: int = DEFAULT_SIZE_CAP) -> "GridFunction":
        n = check_size_cap(field.q, dim, size_cap)
        return cls(field, dim, np.zeros(n, dtype=np.complex128), size_cap)

    def reshaped(self) -> np.ndarray:
        """View of the table as a d-dimensional cube, axis 0 = coordinate 1."""
        return self.values.reshape((self.field.q,) * self.dim)

    def copy(self) -> "GridFunction":
        return type(self)(self.field, self.dim, self.values.copy(), self.size_cap)


class Spectrum(GridFunction):
    """Fourier coefficients fhat(m) for all m, same layout as the source."""


def _transform_last_axis(cube: np.ndarray, field: PrimeField, conjugate: bool, out: np.ndarray) -> np.ndarray:
    """One-dimensional character transform along the last axis.

    out[..., m] = sum_x cube[..., x] * chi(-+ m*x), written into out, a
    C-ordered array of cube's shape, with the character read from the
    field's root table.  Output rows are produced in blocks so the q x q
    character matrix never exceeds a few MiB even for large q.  Each block's
    product is written straight into the output rather than through a
    full-size temporary: at q = 101, d = 3 that kept 16 MB off the peak
    resident size of a spectrum query.
    """
    q = field.q
    roots = np.conj(field.roots) if conjugate else field.roots
    xs = np.arange(q)
    step = max(1, (1 << 22) // q)
    for start in range(0, q, step):
        ms = np.arange(start, min(start + step, q))
        block = roots[np.multiply.outer(ms, xs) % q]
        np.matmul(cube, block.T, out=out[..., start : start + len(ms)])
    return out


def _axis_by_axis(
    rows: np.ndarray, keys: np.ndarray, tables: int, field: PrimeField, dim: int, conjugate: bool
) -> np.ndarray:
    """Transform a stack of `tables` flat q^d tables, given only their live rows.

    View the stack as (tables * q^(d-1), q) rows along coordinate d.  rows
    holds the rows with a nonzero value and keys their ascending row numbers
    b q^(d-1) + (x_1, ..., x_(d-1)) in mixed radix; every other row is
    zero.  Returns the (tables, q^d) transform.

    Pass j (j = 0, ..., d-1) transforms coordinate d-j.  A row of its input
    is fixed by its key (b, x_1, ..., x_(d-1-j)) and the frequencies that
    earlier passes produced, and it is zero unless its key prefixes a live
    key of pass 0.  So each pass holds only its P live keys, as a
    (P, q, ..., q) array whose last axis is coordinate d-j, and passes its
    output, keyed by the distinct key // q, to the next.  Every row meets
    the same character products as in the whole cube, through the same kind
    of matrix product, so values are bit-identical to transforming the
    whole cube; zero rows are neither stored nor multiplied.
    """
    q = field.q
    if dim == 1:
        # a table is one row, which alone numpy sends to gemv; so does each (1, q) row of a stack
        rows = rows[:, None]
    elif len(keys) == 1 and tables * q ** (dim - 1) > 1:
        # numpy sends a one-row product to gemv, which rounds unlike the gemm
        # that transforms a whole table; a zero row beside it keeps the gemm
        zero = np.zeros((1, q), dtype=np.complex128)
        if keys[0]:
            keys, rows = np.array([keys[0] - 1, keys[0]]), np.concatenate([zero, rows])
        else:
            keys, rows = np.array([0, 1]), np.concatenate([rows, zero])
    # Two whole-stack buffers serve every pass: a pass writes its output into
    # the front of one, its live rows are scattered into the other as the
    # next pass's input, and the last output is reordered into the spare one.
    spare = empty_table(tables * q**dim, np.complex128)
    work = empty_table(tables * q**dim, np.complex128)
    for j in range(dim):
        out = _transform_last_axis(rows, field, conjugate, work[: rows.size].reshape(rows.shape))
        if j == dim - 1:
            break
        # keys ascend, so a key's parent key // q starts a new parent exactly
        # where it differs from the previous one
        up, digit = np.divmod(keys, q)
        starts = np.ones(len(up), dtype=bool)
        starts[1:] = up[1:] != up[:-1]
        keys = up[starts]
        # a key's last digit is the coordinate the next pass transforms: give
        # each key's frequencies their slot under its parent (where every
        # parent has all q digits that slot is where they already are, and
        # the buffers swap roles), then view that coordinate last, as the
        # whole-cube loop's rotation did
        shape = (len(keys), q) + out.shape[1:]
        if len(digit) == len(keys) * q:
            block = out.reshape(shape)
            work, spare = spare, work
        else:
            block = spare[: math.prod(shape)].reshape(shape)
            block.fill(0)
            block[np.cumsum(starts) - 1, digit] = out
        rows = block.transpose(0, *range(2, j + 3), 1)
    # out is (live tables, m_d, ..., m_1): each pass put its frequency last
    spectra = out.reshape((len(keys),) + (q,) * dim).transpose(0, *range(dim, 0, -1))
    result = spare.reshape((tables,) + (q,) * dim)
    if len(keys) == tables:
        result[...] = spectra
    else:
        result.fill(0)
        result[keys] = spectra
    return spare.reshape(tables, q**dim)


def _live_rows(values: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-pass rows with a nonzero value of a flat table or a flattened stack, and their keys."""
    table = values.reshape(-1, q)
    keys = np.flatnonzero((table != 0).any(axis=1))
    # with every row live the table itself is the input, not a second copy
    return (table if len(keys) == len(table) else table[keys]), keys


def _forward_values(rows: np.ndarray, keys: np.ndarray, tables: int, field: PrimeField, dim: int) -> np.ndarray:
    vals = _axis_by_axis(rows, keys, tables, field, dim, conjugate=True)
    vals *= float(field.q) ** (-dim)
    return vals


def forward_transform(f: GridFunction) -> Spectrum:
    """Fourier transform: fhat(m) = q^(-d) sum_x chi(-x.m) f(x)."""
    rows, keys = _live_rows(f.values, f.field.q)
    return Spectrum(f.field, f.dim, _forward_values(rows, keys, 1, f.field, f.dim)[0], f.size_cap)


def indicator_spectrum(indices: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    """Ehat(m) for a stack of sets, one row per row of flat point indices.

    indices is (B, n): B sets of n distinct points each.  The transform is
    fed the sets' live rows straight from the indices, so no dense indicator
    is built.  Row b equals forward_transform of set b's indicator bit for
    bit.
    """
    q = field.q
    prefixes, last = np.divmod(indices, q)
    point_keys = (q ** (dim - 1) * np.arange(len(indices))[:, None] + prefixes).ravel()
    keys = grid.distinct(point_keys)
    rows = np.zeros((len(keys), q), dtype=np.complex128)
    rows[np.searchsorted(keys, point_keys), last.ravel()] = 1.0
    return _forward_values(rows, keys, len(indices), field, dim)


def indicator_power(indices: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    """|Ehat(m)|^2 for a stack of sets, one row per row of flat point indices.

    indices is (B, n): B sets of n distinct points each.  Row b equals
    PointSet.spectrum_power() of set b bit for bit.
    """
    return np.abs(indicator_spectrum(indices, field, dim)) ** 2


def inverse_transform(spec: GridFunction) -> GridFunction:
    """Inverse transform: f(x) = sum_m chi(x.m) fhat(m)."""
    rows, keys = _live_rows(spec.values, spec.field.q)
    vals = _axis_by_axis(rows, keys, 1, spec.field, spec.dim, conjugate=False)
    return GridFunction(spec.field, spec.dim, vals[0], spec.size_cap)


def plancherel_defect(f: GridFunction) -> float:
    """|sum_m |fhat(m)|^2 - q^(-d) sum_x |f(x)|^2|.

    Exactly zero in exact arithmetic; callers assert it stays below
    1e-9 * max(1, sum_x |f(x)|^2).
    """
    spec = forward_transform(f)
    lhs = float(np.sum(np.abs(spec.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) * float(f.field.q) ** (-f.dim)
    return abs(lhs - rhs)
