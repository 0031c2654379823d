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

mu is the package's one primitive, cached sparse per set: |E - E|, sum mu^2,
D(E) and the brute incidence route are read off its support, and campaigns
cross-check it against the spectral route in every block.  The dense q^d
table is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Sequence

import numpy as np

from . import grid
from .directions import canonical_codes
from .errors import NumericalInconsistencyError
from .pointset import PointSet
from .spectral import GridFunction, empty_table, forward_transform

#: Relative tolerance for the fourth-moment Parseval identity.
PARSEVAL_TOLERANCE = 1e-6

#: |E|^2 from which sum mu^2 <= |E|^3 may no longer fit in int64.
_SQUARES_EXACT_TOTAL = 1 << 42


@dataclass(eq=False)
class DifferenceProfile:
    """Sparse difference multiplicities (ascending support codes, counts) with their exact invariants."""

    field: "object"
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

    def as_grid_function(self) -> GridFunction:
        return GridFunction(self.field, self.dim, self.mu.astype(np.complex128))

    def sum_of_squares(self) -> int:
        """sum_z mu(z)^2 as an exact Python integer.

        Summed in int64, which is exact because sum mu^2 <= max mu * sum mu
        <= |E|^3 < 2^63 while |E| < 2^21; larger sets raise OverflowError.
        """
        if self.total >= _SQUARES_EXACT_TOTAL:
            raise OverflowError(
                f"sum of squared multiplicities may overflow int64 for |E|^2 = {self.total} "
                f"(exact below |E| = 2^21)"
            )
        return int(self.counts @ self.counts)


def difference_profile(E: PointSet) -> DifferenceProfile:
    """mu(z) counted exactly over ordered pairs (x = y included), read off E's cached sparse mu."""
    codes, counts = E.difference_multiplicity()
    return DifferenceProfile(field=E.field, dim=E.dim, codes=codes, counts=counts, total=E.cardinality**2)


def mu_spectrum_identity_defect(E: PointSet) -> float:
    """max_m |muhat(m) - q^d |Ehat(m)|^2|; callers assert < 1e-6 * |E|^2."""
    prof = difference_profile(E)
    mu_hat = forward_transform(prof.as_grid_function())
    target = float(E.q) ** E.dim * E.spectrum_power()
    return float(np.max(np.abs(mu_hat.values - target)))


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


def salem_report(E: PointSet) -> SalemReport:
    """Scan the spectrum away from m = 0 and report the measured constant.

    The constant is defined as 0 for the empty and the full set (no nonzero
    coefficient survives in exact arithmetic).
    """
    q, d = E.q, E.dim
    size = E.cardinality
    if size == 0 or size == q**d:
        return SalemReport(q, d, size, 0.0, 0.0)
    power = E.spectrum_power()
    max_coeff = sqrt(float(power[1:].max()))
    return SalemReport(q, d, size, max_coeff, max_coeff * float(q) ** d / sqrt(size))


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


def difference_bound_check(E: PointSet) -> BoundCheckRecord:
    """Measure |D(E)| and |E - E| against the bound shapes; verify the
    fourth-moment identity along the way."""
    q, d = E.q, E.dim
    size = E.cardinality
    prof = difference_profile(E)
    dirs = len(canonical_codes(prof.codes, E.field, d))
    lhs = prof.sum_of_squares()
    rhs = float(q) ** (3 * d) * float(np.sum(np.square(E.spectrum_power(), out=empty_table(q**d, np.float64))))
    defect_rel = abs(lhs - rhs) / max(1.0, float(lhs))
    if defect_rel > PARSEVAL_TOLERANCE:
        raise NumericalInconsistencyError(
            f"fourth-moment identity defect {defect_rel:.3e} exceeds {PARSEVAL_TOLERANCE:g} "
            f"(sum mu^2 = {lhs}, spectral value {rhs!r})"
        )
    bound_ii = min(size * size / q, float(q ** (d - 1)))
    bound_iii = size
    bound_diff = min(size * size, q**d)
    return BoundCheckRecord(
        q=q,
        dim=d,
        set_size=size,
        direction_count=dirs,
        diff_size=prof.support_size,
        bound_ii=bound_ii,
        bound_iii=bound_iii,
        bound_diff=bound_diff,
        ratio_ii=dirs / bound_ii if bound_ii else 0.0,
        ratio_iii=dirs / bound_iii if bound_iii else 0.0,
        ratio_diff=prof.support_size / bound_diff if bound_diff else 0.0,
        salem_constant=salem_report(E).salem_constant,
        parseval_defect_rel=defect_rel,
        quotient_bound_holds=dirs * (q - 1) >= prof.support_size - 1,
    )
