"""Slope-incidence counts and their spectral decomposition.

For a slope tuple (t_1, ..., t_k), 1 <= k <= d-1, the incidence count of E is
the number of ordered pairs of distinct points whose difference z satisfies
z_{i+1} = t_i * z_1 for every i.  It splits as

    nu(t) = |E|(|E|-1)/q^k  -  |E|(q^k-1)/q^k  +  R(t)

where the remainder is a sum of squared Fourier coefficients along a line of
frequencies and is therefore nonnegative:

    R(t) = q^(2d-k) * sum_{s != 0} |Ehat(s.t, -s_1, ..., -s_k, 0, ..., 0)|^2.

Two independent routes are provided, and each computes nu for every slope at
once.  The brute route is a read-off of mu, the package's one primitive,
through its class masses (directions.class_masses): a difference z with
z_1 != 0 satisfies exactly one slope, (z_2, ..., z_{k+1}) / z_1, the prefix
of its canonical form z / z_1, so nu_nondegenerate of every slope is a
fixed slice of the masses, as is the mass on z_1 = ... = z_(k+1) = 0.  The
spectral route gathers R(t) for a block of slope rows from a stack of
spectra in one np.take and assembles the decomposition, rounding to the
nearest integer with a guard band; it never builds mu.  The two must agree
exactly, and campaigns check that they do in every block:
`class_slope_counts` and `slope_counts` run the routes for a stack of B
equal-size sets, each slope by its code in F_q^k.  On one set, `_counts` is
the one way into each route: a B = 1 kernel call on the set's cached mu or
spectrum, for every slope or for one.  Both read a slope's entries mod q.
`theorem_main_threshold`, `nu_sweep`, `nu_brute`, `nu_spectral` and
`remainder_spectral` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from math import ceil

import numpy as np

from . import grid
from .directions import class_masses
from .errors import NumericalInconsistencyError
from .pointset import PointSet

#: Maximum allowed distance between the assembled spectral value and the
#: nearest integer; anything larger signals a transform bug.
ROUNDING_GUARD = 1e-4

#: Gathered spectrum entries per block of slope rows in the spectral sweep;
#: bounds the index array's memory, not results.
_SLOPE_BLOCK = 1 << 16


@dataclass(frozen=True)
class IncidenceReport:
    """One incidence count with its three-term decomposition.

    main_term and diagonal_term are exact rationals (denominator q^k) so the
    decomposition does not suffer float cancellation; remainder is the only
    floating entry.  nu_nondegenerate additionally requires x_1 != y_1, the
    witnesses that certify a genuine slope-pattern direction.
    """

    slope: tuple[int, ...]
    nu: int
    nu_nondegenerate: int
    main_term: Fraction
    diagonal_term: Fraction
    remainder: float


def all_slopes(q: int, k: int) -> list[tuple[int, ...]]:
    """All q^k slope tuples in ascending mixed-radix order."""
    return [tuple(t) for t in product(range(q), repeat=k)]


def _check_k(E: PointSet, k: int) -> None:
    if not 1 <= k <= E.dim - 1:
        raise ValueError(f"slope length must be in [1, {E.dim - 1}], got {k}")


def _terms(size: int, q: int, k: int) -> tuple[Fraction, Fraction]:
    qk = q**k
    return Fraction(size * (size - 1), qk), Fraction(size * (qk - 1), qk)


def pair_differences(E: PointSet) -> np.ndarray:
    """Differences x - y over all ordered pairs of distinct points, one row each, ascending by code.

    Read off mu: each support vector repeated mu(z) times, less the |E| zeros.
    """
    codes, counts = E.difference_multiplicity()
    return grid.decode_indices(np.repeat(codes, counts)[E.cardinality :], E.q, E.dim)


def degenerate_pair_count(E: PointSet, k: int) -> int:
    """Ordered pairs of distinct points agreeing on coordinates 1..k+1.

    These satisfy every slope constraint vacuously (their difference vanishes
    in the constrained coordinates), so they inflate nu for every t when
    k < d-1.  For k = d-1 the count is zero: agreement everywhere forces x = y.
    One bincount of the points' first k+1 coordinates, a point's index //
    q^(d-k-1); needs no mu.
    """
    _check_k(E, k)
    groups = np.bincount(E.indices() // E.q ** (E.dim - k - 1))
    return int((groups * (groups - 1)).sum())


def class_slope_counts(masses: np.ndarray, q: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute route off the (sets, C) class masses of a stack of sets (directions.class_masses).

    Returns nu_nondegenerate, (sets, q^k) in all_slopes order: the mass on
    the last q^(d-1) classes, of canonical form (1, t_1, ..., t_(d-1)), summed
    over each run of q^(d-1-k) classes that share (t_1, ..., t_k).  And the
    (sets,) degenerate counts: the mass on the nonzero classes with
    z_1 = ... = z_(k+1) = 0, those of canonical code below q^(d-k-1).
    """
    sets = len(masses)
    nondegenerate = masses[:, -(q ** (d - 1)) :].reshape(sets, q**k, q ** (d - 1 - k)).sum(axis=2)
    return nondegenerate, masses[:, 1 : 1 + (q ** (d - k - 1) - 1) // (q - 1)].sum(axis=1)


@cache
def _frequency_tables(q: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero frequency parameters s, transposed, and the index
    contribution of their fixed coordinates (-s_1, ..., -s_k, 0, ..., 0)."""
    svecs = grid.decode_indices(np.arange(1, q**k, dtype=np.int64), q, k)
    weights = q ** np.arange(d - 2, d - 2 - k, -1, dtype=np.int64)
    return np.ascontiguousarray(svecs.T), ((-svecs) % q) @ weights


def _remainders(power: np.ndarray, q: int, d: int, k: int, slopes: np.ndarray) -> np.ndarray:
    """R(t) for each set of a (B, q^d) power stack and each slope code t in F_q^k.

    Row t of a gather block probes the frequencies m = (s.t, -s_1, ..., -s_k,
    0, ..., 0) in the global mixed-radix layout, one per nonzero s, in every
    set at once; a block holds at most _SLOPE_BLOCK gathered entries.
    """
    svecs_t, rest = _frequency_tables(q, d, k)
    T = grid.decode_indices(slopes, q, k)
    rows = max(1, _SLOPE_BLOCK // (len(power) * len(rest)))
    sums = np.empty((len(power), len(T)))
    for start in range(0, len(T), rows):
        # einsum: numpy's integer matmul runs a slower generic loop
        first = np.einsum("ik,kj->ij", T[start : start + rows], svecs_t) % q
        # np.take, not power[:, index], whose result has the set axis
        # innermost: a row then sums in the order it does alone
        sums[:, start : start + rows] = np.take(power, first * q ** (d - 1) + rest, axis=1).sum(axis=2)
    return q ** (2 * d - k) * sums


def slope_counts(
    power: np.ndarray, size: int, q: int, d: int, k: int, slopes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral route for a stack of B sets of `size` points, each slope code at once.

    power is the (B, q^d) stack of |Ehat|^2 (spectral.indicator_power), and
    slopes are codes in F_q^k (grid.encode), all_slopes order by default.
    Returns (nu, remainders), each (B, len(slopes)), nu rounded to the exact
    integer.  Row b equals the B = 1 call on set b's power bit for bit,
    remainders included.  Raises NumericalInconsistencyError naming the
    first slope, of the first set in stack order, whose float lands farther
    than the guard band from the nearest integer.
    """
    slopes = np.arange(q**k) if slopes is None else slopes
    main, diag = _terms(size, q, k)
    remainders = _remainders(power, q, d, k, slopes)
    values = float(main - diag) + remainders
    nu = np.rint(values)
    off = np.abs(values - nu)
    outside = np.argwhere(~(off <= ROUNDING_GUARD))
    if len(outside):
        b, i = outside[0]
        raise NumericalInconsistencyError(
            f"spectral incidence value {float(values[b, i])!r} is {off[b, i]:.3e} from the "
            f"nearest integer (guard band {ROUNDING_GUARD:g}) at slope {grid.decode(int(slopes[i]), q, k)}"
        )
    return nu.astype(np.int64), remainders


def _counts(
    E: PointSet, k: int, method: str, slope: tuple[int, ...] | None = None
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray | None]:
    """(slopes, nu, nu_nondegenerate, remainders) for every slope in all_slopes order, or for `slope` alone.

    The one way into each route, one kernel call each: the spectral route on
    E's cached spectrum, the brute route on E's cached mu, where remainders
    is None.
    """
    _check_k(E, k)
    if method not in ("spectral", "brute"):
        raise ValueError(f"unknown method {method!r}")
    q = E.q
    slopes = all_slopes(q, k) if slope is None else [tuple(slope)]
    codes = np.arange(q**k) if slope is None else np.array([grid.encode([int(t) % q for t in slope], q)])
    if method == "spectral":
        nu, remainders = slope_counts(E.spectrum_power()[None], E.cardinality, q, E.dim, k, codes)
        return slopes, nu[0], nu[0] - degenerate_pair_count(E, k), remainders[0]
    masses = class_masses(*E.difference_multiplicity(), 1, E.field, E.dim)
    nondegenerate, degenerate = class_slope_counts(masses, q, E.dim, k)
    row = nondegenerate[0, codes]
    return slopes, row + degenerate[0], row, None


def _reports(E: PointSet, k: int, method: str, slope: tuple[int, ...] | None = None) -> list[IncidenceReport]:
    """The IncidenceReport of each slope _counts gives; brute remainders are back-solved exactly."""
    slopes, nu, nondeg, remainders = _counts(E, k, method, slope)
    main, diag = _terms(E.cardinality, E.q, k)
    nu = nu.tolist()
    remainders = [float(Fraction(n) - main + diag) for n in nu] if remainders is None else remainders.tolist()
    return [IncidenceReport(t, n, m, main, diag, r) for t, n, m, r in zip(slopes, nu, nondeg.tolist(), remainders)]


def remainder_spectral(E: PointSet, slope: tuple[int, ...]) -> float:
    """R(t) summed over the q^k - 1 nonzero frequency parameters s.

    The frequency probed at s is m = (s.t, -s_1, ..., -s_k, 0, ..., 0) in the
    global mixed-radix layout.  Nonnegative up to float noise.  Read off
    nu_spectral's report, so the same guard band applies.
    """
    return nu_spectral(E, slope).remainder


def nu_brute(E: PointSet, slope: tuple[int, ...]) -> IncidenceReport:
    """Direct pair count; the remainder is back-solved from the decomposition."""
    return _reports(E, len(slope), "brute", slope)[0]


def nu_spectral(E: PointSet, slope: tuple[int, ...]) -> IncidenceReport:
    """Assemble nu from the decomposition and round to the exact integer.

    Raises NumericalInconsistencyError if the float lands farther than the
    guard band from the nearest integer.
    """
    return _reports(E, len(slope), "spectral", slope)[0]


def nu_sweep(E: PointSet, k: int, method: str = "spectral") -> list[IncidenceReport]:
    """The IncidenceReport of every slope tuple, in all_slopes order, from one kernel call."""
    return _reports(E, k, method)


@dataclass(frozen=True)
class SlopeOutcome:
    slope: tuple[int, ...]
    nu: int
    nu_nondegenerate: int


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of sweeping every slope tuple against the positivity threshold.

    Above the threshold (|E| > q^k) the lower bound

        nu(t) >= (|E|(|E|-1) - |E|(q^k-1)) / q^k  >  0

    must hold for every t; witness_failures lists slopes that violate it
    (expected empty).  At or below the threshold, witness_failures lists the
    slopes with nu = 0 instead.
    """

    q: int
    dim: int
    k: int
    set_size: int
    threshold: int
    lower_bound: Fraction
    holds: bool
    witness_failures: tuple[tuple[int, ...], ...]
    outcomes: tuple[SlopeOutcome, ...]

    @property
    def above_threshold(self) -> bool:
        return self.set_size > self.threshold

    @property
    def min_nu(self) -> int:
        return min(o.nu for o in self.outcomes)

    @property
    def slope_pattern_covered(self) -> bool:
        """True when every slope tuple has a witness pair with x_1 != y_1."""
        return all(o.nu_nondegenerate > 0 for o in self.outcomes)


def threshold_lower_bound(size: int, q: int, k: int) -> Fraction:
    """(|E|(|E|-1) - |E|(q^k-1)) / q^k, the bound nu(t) meets above the threshold."""
    main, diag = _terms(size, q, k)
    return main - diag


def threshold_failures(nu: np.ndarray, size: int, q: int, k: int) -> np.ndarray:
    """Elementwise witness failures of slope counts nu of size-`size` sets.

    Above the threshold (size > q^k) a count fails when it is below the
    lower bound; at or below it, when it is zero.
    """
    if size > q**k:
        # nu is an integer, so nu < lower exactly when nu < ceil(lower)
        return nu < ceil(threshold_lower_bound(size, q, k))
    return nu == 0


def theorem_main_threshold(E: PointSet, k: int, method: str = "spectral") -> ThresholdReport:
    """Sweep all slope tuples and test the size threshold |E| > q^k."""
    slopes, nu, nondeg, _ = _counts(E, k, method)
    q = E.q
    size = E.cardinality
    failed = threshold_failures(nu, size, q, k)
    return ThresholdReport(
        q=q,
        dim=E.dim,
        k=k,
        set_size=size,
        threshold=q**k,
        lower_bound=threshold_lower_bound(size, q, k),
        holds=not failed.any(),
        witness_failures=tuple(slopes[i] for i in np.flatnonzero(failed)),
        outcomes=tuple(map(SlopeOutcome, slopes, nu.tolist(), nondeg.tolist())),
    )
