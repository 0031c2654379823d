"""The Fourier transform of complex-valued functions on F_q^d.

The transform is

    fhat(m) = q^(-d) * sum_x chi(-x . m) f(x),

computed axis by axis: d successive length-q one-dimensional transforms,
pass j (j = 0, ..., d-1) along coordinate d-j.  No fast-transform
algorithm is used; at desk scale none is needed.

A pass only multiplies rows whose untransformed prefix (x_1, ..., x_(d-1-j))
holds a nonzero value; every other row of its input is zero and is neither
stored nor multiplied.  Pass 0 costs q^2 operations per live row.  A later
pass j multiplies each live parent prefix (x_1, ..., x_(d-1-j)) only at the
digits x_(d-j) of its live children, padded to the widest parent's count
(at least 2): q^(j+1) * width operations per parent, q^(j+2) when every
digit is live, O(d * q^(d+1)) in all.  At q = 101, d = 3 a random set of
102 points leaves about 102 of 10,201 rows live in pass 0; pass 1 has about
64 parents with 1.6 live digits each (width 3 to 5), and pass 2 one parent
with about 64 live digits of 101: about 70 million complex multiply-adds
where every digit would take 171 million.  Digits are skipped only for
q <= 128, where a row's whole sum is one block of the BLAS inner loop.

indicator_power takes one set or a stack of B sets at once (campaigns
evaluate a block of sets together) and has two paths.  A stack of at most
2^21 multiply-adds B d q^(d+1) is transformed whole: its indicators are
written into one buffer and each pass is one product of every row.  A
campaign block holds at most 2^16 grid cells, so every block with
d q <= 32 takes this path, as do blocks of up to 47 sets on F_11^3 and 24
on F_13^3.  On grids this small the live loop's per-parent gathers and
small products cost more than the zero products they skip: a block of 20
sets of 122 points in F_11^3 took 1.78 ms live and 1.06 ms whole (medians,
one BLAS thread).  A larger stack feeds the live loop straight from its
point indices and builds no dense indicator; there sparse sets gain from
the skips (a set of q + 1 points in F_31^3 took 1.5 times as long whole).  Either path
reads |Ehat|^2 off the last pass and keeps no complex spectrum, and a row
equals |forward_transform of the set's indicator|^2 bit for bit.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import grid
from .errors import SizeCapError, brief
from .field import PrimeField

#: Cap on dense table entries (q^d).
DEFAULT_SIZE_CAP = 1 << 24


def check_size_cap(q: int, dim: int) -> int:
    """Return q**dim, or raise SizeCapError if it exceeds DEFAULT_SIZE_CAP.

    A q >= 2 exceeds the 2^24 cap in every dimension from 25 on, so a huge
    dimension is refused without taking the power.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if (q >= 2 and dim >= DEFAULT_SIZE_CAP.bit_length()) or q**dim > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"grid of {q}^{dim} = {brief(q, dim)} entries exceeds the cap {DEFAULT_SIZE_CAP}")
    return q**dim


def empty_table(n: int, dtype) -> np.ndarray:
    """An uninitialised flat table; from 4 MiB up on pages of its own, unmapped when freed.

    On the heap, a block numpy cached above a dead table pinned its pages and
    peak RSS hung on allocation order.  The table starts on a 2 MiB boundary
    and is advised huge pages up to the 2 MiB boundary past its end, which
    the mapping's spare 4 MiB holds, so its tail faults in as one huge page
    rather than hundreds of 4 KiB ones.
    """
    nbytes = n * np.dtype(dtype).itemsize
    if nbytes < 1 << 22 or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(n, dtype)
    pages = mmap.mmap(-1, nbytes + (1 << 22), flags=mmap.MAP_PRIVATE)
    start = -np.frombuffer(pages, np.uint8, count=1).ctypes.data % (1 << 21)
    pages.madvise(mmap.MADV_HUGEPAGE, start, -(-nbytes >> 21) << 21)
    return np.frombuffer(pages, dtype, count=n, offset=start)


@dataclass(eq=False)
class GridFunction:
    """A dense complex-valued function on F_q^d in mixed-radix layout."""

    field: PrimeField
    dim: int
    values: np.ndarray

    def __post_init__(self) -> None:
        n = check_size_cap(self.field.q, self.dim)
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (n,):
            raise ValueError(
                f"expected a flat table of {self.field.q}^{self.dim} = {n} values, "
                f"got shape {values.shape}"
            )
        self.values = values


#: Most characters the transform builds at once: the q x q matrix is whole,
#: and cached, only for q <= 512.
_CHARACTER_BLOCK = 1 << 18

#: Most multiply-adds, B d q^(d+1), of a stack that indicator_power
#: transforms whole rather than through the live loop (see the module docstring).
_WHOLE_STACK_MACS = 1 << 21

#: Largest q whose rows skip their dead digits.  OpenBLAS's zgemm sums an
#: inner dimension longer than 128 in blocks and rounds at each block end; a
#: row of more digits would meet those ends at other digits once its zero
#: terms were gone, so larger q keep every digit.
_LIVE_DIGIT_Q = 128


@cache
def _characters(field: PrimeField) -> np.ndarray:
    """The matrix chi(-x m) over x, m in F_q; built once per q, read-only."""
    q = field.q
    chars = np.conj(field.roots)[np.multiply.outer(np.arange(q), np.arange(q)) % q]
    chars.flags.writeable = False
    return chars


def _transform_last_axis(
    cube: np.ndarray, field: PrimeField, out: np.ndarray, digits: np.ndarray | None = None
) -> np.ndarray:
    """One-dimensional character transform along the last axis, unscaled.

    out[..., m] = sum_x cube[..., x] * chi(-m*x), written into out, a
    C-ordered array of cube's shape with its last axis q long.  With digits,
    a (P, width) array of q <= _LIVE_DIGIT_Q, cube is (P, ..., width) and
    parent p's last axis holds the digits x = digits[p] only: each parent is
    multiplied by the rows of the cached q x q matrix at its own digits.
    Without, the characters come from that matrix for q <= 512 and are
    built in blocks of at most 2^18 above.  Each product is written straight
    into the output rather than through a full-size temporary: at q = 101,
    d = 3 that kept 16 MB off the peak resident size of a spectrum query.
    """
    q = field.q
    if digits is not None:
        chars = _characters(field)[digits]
        return np.matmul(cube, chars.reshape(len(chars), *(1,) * (cube.ndim - 3), *chars.shape[1:]), out=out)
    if q * q <= _CHARACTER_BLOCK:
        return np.matmul(cube, _characters(field).T, out=out)
    roots = np.conj(field.roots)
    xs = np.arange(q)
    step = _CHARACTER_BLOCK // q
    for start in range(0, q, step):
        ms = np.arange(start, min(start + step, q))
        block = roots[np.multiply.outer(ms, xs) % q]
        np.matmul(cube, block.T, out=out[..., start : start + len(ms)])
    return out


def _axis_by_axis(
    rows: np.ndarray, keys: np.ndarray, tables: int, field: PrimeField, dim: int, power: bool = False
) -> np.ndarray:
    """Transform a stack of `tables` flat q^d tables, given only their live rows.

    View the stack as (tables * q^(d-1), q) rows along coordinate d.  rows
    holds the rows with a nonzero value and keys their ascending row numbers
    b q^(d-1) + (x_1, ..., x_(d-1)) in mixed radix; every other row is
    zero.  Returns the (tables, q^d) forward transform, or with power the
    float |transform|^2, read off the last pass's output.

    Pass j (j = 0, ..., d-1) transforms coordinate d-j.  A row of its input
    is fixed by its key (b, x_1, ..., x_(d-1-j)) and the frequencies that
    earlier passes produced, and it is zero unless its key prefixes a live
    key of pass 0.  Pass 0 multiplies the live rows by the q x q character
    matrix.  Each later pass gathers every parent key's live children (the
    keys that share key // q) into a (P, width, q, ..., q) block, width the
    largest child count and at least 2, padded with zero rows, and
    multiplies each parent by the character rows of its own digits only,
    padding included.  Where every parent has the same count the block is
    the previous output reshaped, not a copy.  Where the widest parent has
    all q digits, and for every q > _LIVE_DIGIT_Q, children sit at their
    digits and the shared matrix serves.

    Values equal those of the whole-cube loop (tests/oracles.
    dense_axis_by_axis) times q^-d bit for bit.  Each output value is one gemm sum over
    the input digits in ascending order; the whole cube adds the same terms
    plus zero products for the dead digits, and a zero term leaves the sum
    as it is.  That needs three things, each seen to fail without it:
    - the sum must be one block of the BLAS inner loop, hence q <= 128;
    - numpy sends a product with one row to gemv, and a product with one
      inner term rounds differently too, hence the zero neighbour row of a
      lone live row and the width-2 pad;
    - the operand order stays rows @ chars, as in the whole cube: chars @
      rows accumulates in another order.
    Only the sign of an exact zero may differ, and only in a table that
    holds no nonzero value (where a lone live row's zero neighbour lies).
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
    # the front of one, its live rows are gathered into the other as the
    # next pass's input, and the last output (or its power) is reordered.
    spare = empty_table(tables * q**dim, np.complex128)
    work = empty_table(tables * q**dim, np.complex128)
    digits = None
    for j in range(dim):
        shape = rows.shape[:-1] + (q,)
        out = _transform_last_axis(rows, field, work[: math.prod(shape)].reshape(shape), digits)
        if j == dim - 1:
            break
        # keys ascend, so a key's parent key // q starts a new parent exactly
        # where it differs from the previous one
        up, digit = np.divmod(keys, q)
        first = np.ones(len(up), dtype=bool)
        first[1:] = up[1:] != up[:-1]
        parent = np.cumsum(first) - 1
        keys = up[first]
        width = q if q > _LIVE_DIGIT_Q else max(2, int(np.bincount(parent).max(initial=0)))
        # a key's last digit is the coordinate the next pass transforms:
        # gather each parent's children by rank (by digit once some parent
        # has all q, so that the shared matrix serves), then view that
        # coordinate last, as the whole-cube loop's rotation did
        slot, digits = digit, None
        if width < q:
            slot = np.arange(len(up)) - np.flatnonzero(first)[parent]
            digits = np.zeros((len(keys), width), dtype=digit.dtype)
            digits[parent, slot] = digit
        shape = (len(keys), width) + out.shape[1:]
        if len(up) == len(keys) * width:
            block = out.reshape(shape)
            work, spare = spare, work
        else:
            block = spare[: math.prod(shape)].reshape(shape)
            block.fill(0)
            block[parent, slot] = out
        rows = block.transpose(0, *range(2, j + 3), 1)
    # elementwise ops run in out's own order; only the ending's result is reordered
    out *= float(q) ** (-dim)
    target = spare
    if power:
        out = np.abs(out, out=spare.view(np.float64)[: out.size].reshape(out.shape))
        np.square(out, out=out)
        target = work.view(np.float64)[: tables * q**dim]
    # out is (live tables, m_d, ..., m_1): each pass put its frequency last
    spectra = out.reshape((len(keys),) + (q,) * dim).transpose(0, *range(dim, 0, -1))
    result = target.reshape((tables,) + (q,) * dim)
    if len(keys) == tables:
        result[...] = spectra
    else:
        result.fill(0)
        result[keys] = spectra
    return target.reshape(tables, q**dim)


def _live_rows(values: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-pass rows with a nonzero value of a flat table or a flattened stack, and their keys."""
    table = values.reshape(-1, q)
    keys = np.flatnonzero((table != 0).any(axis=1))
    # with every row live the table itself is the input, not a second copy
    return (table if len(keys) == len(table) else table[keys]), keys


def forward_transform(f: GridFunction) -> GridFunction:
    """Fourier transform: fhat(m) = q^(-d) sum_x chi(-x.m) f(x), in the layout of f."""
    return GridFunction(f.field, f.dim, _axis_by_axis(*_live_rows(f.values, f.field.q), 1, f.field, f.dim)[0])


def _indicator_rows(indices: np.ndarray, q: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-pass rows with a point, and their keys, of a (B, n) stack of sets' flat point indices."""
    prefixes, last = np.divmod(indices, q)
    point_keys = (q ** (dim - 1) * np.arange(len(indices))[:, None] + prefixes).ravel()
    keys = grid.distinct(point_keys)
    rows = np.zeros((len(keys), q), dtype=np.complex128)
    rows[np.searchsorted(keys, point_keys), last.ravel()] = 1.0
    return rows, keys


def _whole_stack_power(indices: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    """|Ehat(m)|^2 for a (B, n) stack of sets, every row of every pass multiplied.

    The stacked form of the whole-cube loop (tests/oracles.dense_axis_by_axis)
    in the live loop's two buffers: the stack's indicators are written into
    one, each pass is one product of all B q^(d-1) rows into the other, and
    the transformed coordinate is copied back to the front.  The last pass
    ends as _axis_by_axis does, so a row equals the live loop's bit for bit.
    """
    q, tables = field.q, len(indices)
    size = tables * q**dim
    cube = empty_table(size, np.complex128)
    work = empty_table(size, np.complex128)
    cube.fill(0)
    cube.reshape(tables, q**dim)[np.arange(tables)[:, None], indices] = 1.0
    # at d = 1 a table is one row, which numpy sends to gemv; a (B, q) gemm would round otherwise
    rows = (tables, 1, q) if dim == 1 else (tables * q ** (dim - 1), q)
    stack = (tables,) + (q,) * dim
    for j in range(dim):
        _transform_last_axis(cube.reshape(rows), field, work.reshape(rows))
        if j < dim - 1:
            np.copyto(cube.reshape(stack), np.moveaxis(work.reshape(stack), -1, 1))
    work *= float(q) ** (-dim)
    power = np.abs(work, out=cube.view(np.float64)[:size])
    np.square(power, out=power)
    result = work.view(np.float64)[:size]
    np.copyto(result.reshape(stack), np.moveaxis(power.reshape(stack), -1, 1))
    return result.reshape(tables, q**dim)


def indicator_power(indices: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    """|Ehat(m)|^2 for a stack of sets, read off the last transform pass.

    indices is (B, n): B sets of n distinct points each.  Float rows in a
    transform buffer; row b is np.abs(forward_transform(indicator).values) ** 2
    bit for bit, for set b's dense indicator.  A stack of at most
    _WHOLE_STACK_MACS multiply-adds B d q^(d+1) is transformed whole from
    its indicators; a larger one goes through the live-row loop, which
    builds no indicator.
    """
    if len(indices) * dim * field.q ** (dim + 1) <= _WHOLE_STACK_MACS:
        return _whole_stack_power(indices, field, dim)
    return _axis_by_axis(*_indicator_rows(indices, field.q, dim), len(indices), field, dim, power=True)
