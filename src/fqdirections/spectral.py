"""Fourier transforms of complex-valued functions on F_q^d.

The forward transform is

    fhat(m) = q^(-d) * sum_x chi(-x . m) f(x)

and by character orthogonality the inverse carries no normalization:

    f(x) = sum_m chi(x . m) fhat(m).

Both are computed axis by axis: d successive length-q one-dimensional
transforms, O(d * q^(d+1)) scalar operations in total.  No fast-transform
algorithm is used; at desk scale none is needed.  indicator_power runs the
same transform on a stack of indicator tables at once, for campaigns that
evaluate a block of sets together.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

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


def _transform_last_axis(cube: np.ndarray, field: PrimeField, conjugate: bool) -> np.ndarray:
    """One-dimensional character transform along the last axis.

    out[..., m] = sum_x cube[..., x] * chi(-+ m*x), with the character read
    from the field's root table.  Output rows are produced in blocks so the
    q x q character matrix never exceeds a few MiB even for large q.  Each
    block's product is written straight into the output rather than through
    a full-size temporary: at q = 101, d = 3 that kept 16 MB off the peak
    resident size of a spectrum query.
    """
    q = field.q
    roots = np.conj(field.roots) if conjugate else field.roots
    xs = np.arange(q)
    out = np.empty(cube.shape, dtype=np.complex128)
    step = max(1, (1 << 22) // q)
    for start in range(0, q, step):
        ms = np.arange(start, min(start + step, q))
        block = roots[np.multiply.outer(ms, xs) % q]
        np.matmul(cube, block.T, out=out[..., start : start + len(ms)])
    return out


def _axis_by_axis(values: np.ndarray, field: PrimeField, dim: int, conjugate: bool) -> np.ndarray:
    """Transform the last axis of values, a flat table or a stack of them, as a d-cube."""
    batch = values.shape[:-1]
    cube = values.reshape(batch + (field.q,) * dim)
    # Transform the last axis, rotate it to the front of the cube; after dim
    # rounds every axis is transformed exactly once and the original order
    # is restored.  Each table of a stack goes through the same per-table
    # products, so its row is bit-identical to transforming it alone.
    for _ in range(dim):
        cube = np.moveaxis(_transform_last_axis(cube, field, conjugate), -1, len(batch))
    return cube.reshape(values.shape)


def _forward_values(values: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    vals = _axis_by_axis(values, field, dim, conjugate=True)
    vals *= float(field.q) ** (-dim)
    return vals


def forward_transform(f: GridFunction) -> Spectrum:
    """Fourier transform: fhat(m) = q^(-d) sum_x chi(-x.m) f(x)."""
    return Spectrum(f.field, f.dim, _forward_values(f.values, f.field, f.dim), f.size_cap)


def indicator_power(indices: np.ndarray, field: PrimeField, dim: int) -> np.ndarray:
    """|Ehat(m)|^2 for a stack of sets, one row per row of flat point indices.

    indices is (B, n): B sets of n distinct points each.  Row b equals
    PointSet.spectrum_power() of set b bit for bit.
    """
    mask = np.zeros((len(indices), field.q**dim), dtype=np.complex128)
    np.put_along_axis(mask, indices, 1.0, axis=1)
    return np.abs(_forward_values(mask, field, dim)) ** 2


def inverse_transform(spec: GridFunction) -> GridFunction:
    """Inverse transform: f(x) = sum_m chi(x.m) fhat(m)."""
    vals = _axis_by_axis(spec.values, spec.field, spec.dim, conjugate=False)
    return GridFunction(spec.field, spec.dim, vals, spec.size_cap)


def plancherel_defect(f: GridFunction) -> float:
    """|sum_m |fhat(m)|^2 - q^(-d) sum_x |f(x)|^2|.

    Exactly zero in exact arithmetic; callers assert it stays below
    1e-9 * max(1, sum_x |f(x)|^2).
    """
    spec = forward_transform(f)
    lhs = float(np.sum(np.abs(spec.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) * float(f.field.q) ** (-f.dim)
    return abs(lhs - rhs)
