"""Difference multiplicities, spectral flatness, and difference-set bounds.

The difference multiplicity of E is mu(z) = #{(x, y) in E x E : x - y = z};
its support is the difference set E - E.  Exact identities used throughout:

    sum_z mu(z) = |E|^2        mu(0) = |E|        mu(z) = mu(-z)
    muhat(m) = q^d |Ehat(m)|^2
    sum_z mu(z)^2 = q^(3d) sum_m |Ehat(m)|^4

Spectral flatness is reported as a measured constant

    C_E = max_{m != 0} |Ehat(m)| * q^d / sqrt(|E|)

never as a boolean: the classification threshold is caller policy.  A set
with C_E bounded as q grows exhibits square-root cancellation; a subspace
has C_E = q^(dim/2) * something large, a paraboloid has C_E = 1 on the nose.

mu is the package's one primitive, cached per set as the sparse (codes,
counts) pair of grid.difference_multiplicities, a stack's codes offset by
b q^d for set b: |E - E| and sum mu^2 are read off its support, D(E) and
the brute incidence route off its canonical codes, and campaigns
cross-check it against the spectral route in every block.  The dense q^d
table is built only when asked for.

The spectral side of the fourth-moment identity, sum_m |Ehat(m)|^4, is
summed off the cached power a block of at most 2^15 columns at a time,
with the bits of one np.sum and no second q^d table (_fourth_moments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Sequence

import numpy as np

from . import grid
from .directions import _direction_marks, canonical_support
from .errors import NumericalInconsistencyError
from .field import PrimeField
from .pointset import PointSet

#: Relative tolerance for the fourth-moment Parseval identity.
PARSEVAL_TOLERANCE = 1e-6

#: |E|^2 from which sum mu^2 <= |E|^3 may no longer fit in int64.
_SQUARES_EXACT_TOTAL = 1 << 42

#: Most columns of a power stack that difference_bounds squares at once.
_SQUARES_BLOCK = 1 << 15


@dataclass(eq=False)
class DifferenceProfile:
    """Sparse difference multiplicities (ascending support codes, counts) with their exact invariants."""

    field: PrimeField
    dim: int
    codes: np.ndarray
    counts: np.ndarray
    total: int

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def support_size(self) -> int:
        return len(self.codes)

    @cached_property
    def mu(self) -> np.ndarray:
        """The dense q^d table of mu, built on first use."""
        mu = np.zeros(self.q**self.dim, dtype=np.int64)
        mu[self.codes] = self.counts
        return mu

    def mu_of(self, z: Sequence[int]) -> int:
        code = grid.encode([c % self.q for c in z], self.q)
        at = int(np.searchsorted(self.codes, code))
        return int(self.counts[at]) if at < len(self.codes) and self.codes[at] == code else 0

    def max_multiplicity(self) -> int:
        return int(self.counts.max()) if len(self.counts) else 0

    def sum_of_squares(self) -> int:
        """sum_z mu(z)^2 as an exact Python integer.

        Summed in int64, which is exact because sum mu^2 <= max mu * sum mu
        <= |E|^3 < 2^63 while |E| < 2^21; larger sets raise OverflowError.
        """
        _check_squares_exact(self.total)
        return int(self.counts @ self.counts)


def _check_squares_exact(total: int) -> None:
    if total >= _SQUARES_EXACT_TOTAL:
        raise OverflowError(
            f"sum of squared multiplicities may overflow int64 for |E|^2 = {total} (exact below |E| = 2^21)"
        )


def difference_profile(E: PointSet) -> DifferenceProfile:
    """mu(z) counted exactly over ordered pairs (x = y included), read off E's cached sparse mu."""
    codes, counts = E.difference_multiplicity()
    return DifferenceProfile(field=E.field, dim=E.dim, codes=codes, counts=counts, total=E.cardinality**2)


@dataclass(frozen=True)
class SalemReport:
    """Measured spectral flatness of a set."""

    q: int
    dim: int
    set_size: int
    max_nonzero_coeff: float
    salem_constant: float

    def is_salem_at(self, threshold: float) -> bool:
        return self.salem_constant <= threshold


def _flatness(power: np.ndarray, size: int, q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """max_(m != 0) |Ehat(m)| and C_E of each set of a (B, q^d) power stack of size-`size` sets.

    Both are 0 for the empty and the full set (no nonzero coefficient
    survives in exact arithmetic).
    """
    if size == 0 or size == q**d:
        return np.zeros(len(power)), np.zeros(len(power))
    max_coeff = np.sqrt(power[:, 1:].max(axis=1))
    return max_coeff, max_coeff * float(q) ** d / sqrt(size)


def salem_report(E: PointSet) -> SalemReport:
    """Scan the spectrum away from m = 0 and report the measured constant (_flatness for one set)."""
    q, d, size = E.q, E.dim, E.cardinality
    max_coeff, salem = _flatness(E.spectrum_power()[None], size, q, d)
    return SalemReport(q, d, size, max_coeff.item(), salem.item())


@dataclass(frozen=True)
class BoundCheckRecord:
    """Measured direction/difference counts against the theorem-shaped bounds.

    bound_ii = min(|E|^2 / q, q^(d-1)) and bound_iii = |E| are the direction
    lower-bound shapes for spectrally flat sets; bound_diff = min(|E|^2, q^d)
    is the difference-set shape.  Ratios are measured, not asserted: implied
    constants live in the eye of the beholder.  quotient_bound_holds is the
    one exact statement: |D(E)| * (q - 1) >= |E - E| - 1, because at most
    q - 1 nonzero differences share a direction class.
    """

    q: int
    dim: int
    set_size: int
    direction_count: int
    diff_size: int
    bound_ii: float
    bound_iii: int
    bound_diff: int
    ratio_ii: float
    ratio_iii: float
    ratio_diff: float
    salem_constant: float
    parseval_defect_rel: float
    quotient_bound_holds: bool


def bound_shapes(size: int, q: int, d: int) -> dict[str, float | int]:
    """BoundCheckRecord's bound_ii, bound_iii and bound_diff for sets of `size` points in F_q^d."""
    square = size * size
    return {"bound_ii": min(square / q, float(q ** (d - 1))), "bound_iii": size, "bound_diff": min(square, q**d)}


def _fourth_moments(power: np.ndarray) -> np.ndarray:
    """np.sum(np.square(power), axis=1) bit for bit, squaring at most _SQUARES_BLOCK columns at a time.

    numpy sums a contiguous row pairwise: a row of more than 128 values is
    split at half its length rounded down to a multiple of 8, and the two
    parts' sums are added.  Splitting a wide row the same way until each
    part fits one block of a reused scratch, and adding the parts' np.sum
    in the same tree order, gives the same bits.  A row of at most
    _SQUARES_BLOCK values is one block: np.square, then np.sum.
    """
    sets, cells = power.shape
    return _pairwise_squares(power, np.empty(sets * min(cells, _SQUARES_BLOCK)), 0, cells)


def _pairwise_squares(power: np.ndarray, scratch: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The sum of squares of power's columns start:stop in numpy's pairwise tree, each block squared into scratch."""
    width = stop - start
    if width <= _SQUARES_BLOCK:
        squares = scratch[: len(power) * width].reshape(len(power), width)
        return np.sum(np.square(power[:, start:stop], out=squares), axis=1)
    middle = start + width // 2 - width // 2 % 8
    return _pairwise_squares(power, scratch, start, middle) + _pairwise_squares(power, scratch, middle, stop)


def difference_bounds(
    power: np.ndarray, mu: tuple, size: int, field: PrimeField, d: int, trials: Sequence[int] | None = None
) -> dict[str, np.ndarray]:
    """BoundCheckRecord's per-set fields for a stack of B sets of `size` points, one length-B array each.

    power is the (B, q^d) stack of |Ehat|^2 and mu the stack's sparse mu, the
    (codes, counts) pair of grid.difference_multiplicities.  Raises
    NumericalInconsistencyError for the first set whose fourth-moment
    identity misses PARSEVAL_TOLERANCE, naming its trial when trials are given.
    """
    q = field.q
    sets = len(power)
    codes, counts = mu
    _check_squares_exact(size * size)
    dirs = np.count_nonzero(_direction_marks(canonical_support(codes, field, d), q**d, sets), axis=1)
    # set b's run of mu starts at its offset b q^d, and is empty only when the set is
    runs = np.searchsorted(codes, q**d * np.arange(sets))
    diff_size = np.diff(runs, append=len(codes))
    lhs = np.add.reduceat(counts * counts, runs) if size else np.zeros(sets, np.int64)
    rhs = float(q) ** (3 * d) * _fourth_moments(power)
    defect_rel = np.abs(lhs - rhs) / np.maximum(1.0, lhs)
    bad = np.flatnonzero(~(defect_rel <= PARSEVAL_TOLERANCE))
    if len(bad):
        b = bad[0]
        raise NumericalInconsistencyError(
            f"fourth-moment identity defect {defect_rel[b]:.3e} exceeds {PARSEVAL_TOLERANCE:g} "
            f"(sum mu^2 = {int(lhs[b])}, spectral value {float(rhs[b])!r})"
            + ("" if trials is None else f" in trial {trials[b]}")
        )
    shapes = bound_shapes(size, q, d)
    return {
        "direction_count": dirs,
        "diff_size": diff_size,
        "ratio_ii": dirs / shapes["bound_ii"] if size else np.zeros(sets),
        "ratio_iii": dirs / shapes["bound_iii"] if size else np.zeros(sets),
        "ratio_diff": diff_size / shapes["bound_diff"] if size else np.zeros(sets),
        "salem_constant": _flatness(power, size, q, d)[1],
        "parseval_defect_rel": defect_rel,
        "quotient_bound_holds": dirs * (q - 1) >= diff_size - 1,
    }


def difference_bound_check(E: PointSet) -> BoundCheckRecord:
    """Measure |D(E)| and |E - E| against the bound shapes; verify the
    fourth-moment identity along the way (difference_bounds for one set)."""
    q, d, size = E.q, E.dim, E.cardinality
    per_set = difference_bounds(E.spectrum_power()[None], E.difference_multiplicity(), size, E.field, d)
    fields = {name: values.item() for name, values in per_set.items()}
    return BoundCheckRecord(q=q, dim=d, set_size=size, **bound_shapes(size, q, d), **fields)
