"""Slope-incidence counts and their spectral decomposition.

For a slope tuple (t_1, ..., t_k), 1 <= k <= d-1, the incidence count of E is
the number of ordered pairs of distinct points whose difference z satisfies
z_{i+1} = t_i * z_1 for every i.  It splits as

    nu(t) = |E|(|E|-1)/q^k  -  |E|(q^k-1)/q^k  +  R(t)

where the remainder is a sum of squared Fourier coefficients along a line of
frequencies and is therefore nonnegative:

    R(t) = q^(2d-k) * sum_{s != 0} |Ehat(s.t, -s_1, ..., -s_k, 0, ..., 0)|^2.

Two independent routes are provided, and each computes nu for every slope
at once.  The brute route is a read-off of mu, the package's one primitive:
a difference z with z_1 != 0 satisfies exactly one slope,
(z_2, ..., z_{k+1}) / z_1, so one mu-weighted bincount of those slope codes
gives every count.  The canonical form of the prefix (z_1, ..., z_{k+1})
is (1, t_1, ..., t_k), so a slope code is directions.canonical_of in
dimension k+1, less q^k: one gather from a cached table when q^(k+1) is
at most directions._TABLE_CELLS.  The spectral route gathers R(t) for a
block of slope rows from a stack of spectra in one np.take and assembles
the decomposition, rounding to the nearest integer with a guard band; it
never builds mu.  The two must agree exactly, and campaigns check that
they do in every block: `mu_slope_counts` and `slope_counts` run the
routes for a stack of B equal-size sets.  `theorem_main_threshold` and
`nu_sweep` are their B = 1 case on one set's cached mu or spectrum, and
`nu_brute`, `nu_spectral` and `remainder_spectral` read one slope off the
same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil
from typing import Sequence

import numpy as np

from . import grid
from .directions import canonical_of
from .errors import NumericalInconsistencyError
from .field import prime_field
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
    Read off E's cached mu.
    """
    _check_k(E, k)
    return _brute_counts(E, k)[1]


def _prefix_degenerate_count(E: PointSet, k: int) -> int:
    """degenerate_pair_count from one bincount of the points' first k+1 coordinates; needs no mu.

    The first k+1 coordinates of a point are its index // q^(d-k-1).
    """
    groups = np.bincount(E.indices() // E.q ** (E.dim - k - 1))
    return int((groups * (groups - 1)).sum())


def mu_slope_counts(
    codes: np.ndarray, counts: np.ndarray, owner: np.ndarray, sets: int, size: int, q: int, d: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute route off a stacked mu (grid.difference_multiplicities) of sets of `size` points.

    Returns nu_nondegenerate, (sets, q^k) in all_slopes order, and the
    (sets,) degenerate counts: the mass of mu on z_1 = ... = z_(k+1) = 0
    less the |E| pairs x = y.  The float64 weighted sums are exact below
    |E|^2 = 2^53.
    """
    qk = q**k
    prefix = (codes - owner * q**d) // q ** (d - k - 1)
    # z_1 != 0 exactly when the prefix is at least q^k; its canonical
    # prefix (1, t_1, ..., t_k) then has code q^k + code(t)
    live = prefix >= qk
    slopes = canonical_of(prefix[live], prime_field(q), k + 1) - qk
    nondegenerate = np.bincount(owner[live] * qk + slopes, counts[live], minlength=sets * qk)
    agreeing = np.bincount(owner[prefix == 0], counts[prefix == 0], minlength=sets)
    return nondegenerate.astype(np.int64).reshape(sets, qk), agreeing.astype(np.int64) - size


def _brute_counts(E: PointSet, k: int) -> tuple[np.ndarray, int]:
    """nu_nondegenerate for every slope code, and the degenerate pair count, off E's cached mu."""
    codes, counts = E.difference_multiplicity()
    nondegenerate, degenerate = mu_slope_counts(codes, counts, np.zeros_like(codes), 1, E.cardinality, E.q, E.dim, k)
    return nondegenerate[0], int(degenerate[0])


def nu_brute(E: PointSet, slope: tuple[int, ...]) -> IncidenceReport:
    """Direct pair count; the remainder is back-solved from the decomposition."""
    k = len(slope)
    _check_k(E, k)
    q = E.q
    nondegenerate, degenerate = _brute_counts(E, k)
    nondeg = int(nondegenerate[grid.encode([int(t) % q for t in slope], q)])
    return _brute_report(E, tuple(slope), nondeg + degenerate, nondeg)


def _brute_report(E: PointSet, slope: tuple[int, ...], nu: int, nondeg: int) -> IncidenceReport:
    main, diag = _terms(E.cardinality, E.q, len(slope))
    remainder = float(Fraction(nu) - main + diag)
    return IncidenceReport(slope, nu, nondeg, main, diag, remainder)


# Frequency bookkeeping reused across slope sweeps, keyed by (q, d, k):
# the nonzero parameter vectors s (transposed) and the index contribution of
# the fixed coordinates (-s_1, ..., -s_k, 0, ..., 0).
_FREQ_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _frequency_tables(q: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    key = (q, d, k)
    cached = _FREQ_CACHE.get(key)
    if cached is None:
        svecs = grid.decode_indices(np.arange(1, q**k, dtype=np.int64), q, k)
        weights = q ** np.arange(d - 2, d - 2 - k, -1, dtype=np.int64)
        rest = ((-svecs) % q) @ weights
        cached = _FREQ_CACHE[key] = (np.ascontiguousarray(svecs.T), rest)
    return cached


def _remainders(power: np.ndarray, q: int, d: int, slopes: Sequence[tuple[int, ...]]) -> np.ndarray:
    """R(t) for each set of a (B, q^d) power stack and each slope tuple (all of length k).

    Row t of a gather block probes the frequencies m = (s.t, -s_1, ..., -s_k,
    0, ..., 0) in the global mixed-radix layout, one per nonzero s, in every
    set at once; a block holds at most _SLOPE_BLOCK gathered entries.
    """
    k = len(slopes[0])
    svecs_t, rest = _frequency_tables(q, d, k)
    T = np.asarray(slopes, dtype=np.int64)
    rows = max(1, _SLOPE_BLOCK // (len(power) * len(rest)))
    sums = np.empty((len(power), len(T)))
    for start in range(0, len(T), rows):
        # einsum: numpy's integer matmul runs a slower generic loop
        first = np.einsum("ik,kj->ij", T[start : start + rows], svecs_t) % q
        # np.take, not power[:, index], whose result has the set axis
        # innermost: a row then sums in the order it does alone
        sums[:, start : start + rows] = np.take(power, first * q ** (d - 1) + rest, axis=1).sum(axis=2)
    return q ** (2 * d - k) * sums


def _spectral_counts(
    power: np.ndarray, size: int, q: int, d: int, slopes: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray]:
    """nu and R(t) for each set of a power stack of size-`size` sets and each slope tuple.

    nu is rounded to the exact integer.  Raises NumericalInconsistencyError
    naming the first slope, of the first set in stack order, whose float
    lands farther than the guard band from the nearest integer.
    """
    main, diag = _terms(size, q, len(slopes[0]))
    remainders = _remainders(power, q, d, slopes)
    values = float(main - diag) + remainders
    nu = np.rint(values)
    off = np.abs(values - nu)
    outside = np.argwhere(~(off <= ROUNDING_GUARD))
    if len(outside):
        b, i = outside[0]
        raise NumericalInconsistencyError(
            f"spectral incidence value {float(values[b, i])!r} is {off[b, i]:.3e} from the "
            f"nearest integer (guard band {ROUNDING_GUARD:g}) at slope {slopes[i]}"
        )
    return nu.astype(np.int64), remainders


def slope_counts(power: np.ndarray, size: int, q: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral route for a stack of B sets of `size` points, every slope at once.

    power is the (B, q^d) stack of |Ehat|^2 (spectral.indicator_power).
    Returns (nu, remainders), each (B, q^k) in all_slopes order, from one
    gather per block of slope rows.  Row b equals the B = 1 call on set b's
    power bit for bit, remainders included.
    """
    return _spectral_counts(power, size, q, d, all_slopes(q, k))


def remainder_spectral(E: PointSet, slope: tuple[int, ...]) -> float:
    """R(t) summed over the q^k - 1 nonzero frequency parameters s.

    The frequency probed at s is m = (s.t, -s_1, ..., -s_k, 0, ..., 0) in the
    global mixed-radix layout.  Nonnegative up to float noise.
    """
    _check_k(E, len(slope))
    return float(_remainders(E.spectrum_power()[None], E.q, E.dim, [slope])[0, 0])


def nu_spectral(E: PointSet, slope: tuple[int, ...]) -> IncidenceReport:
    """Assemble nu from the decomposition and round to the exact integer.

    Raises NumericalInconsistencyError if the float lands farther than the
    guard band from the nearest integer.
    """
    k = len(slope)
    _check_k(E, k)
    nu, remainders = _spectral_counts(E.spectrum_power()[None], E.cardinality, E.q, E.dim, [slope])
    main, diag = _terms(E.cardinality, E.q, k)
    n = int(nu[0, 0])
    deg = _prefix_degenerate_count(E, k)
    return IncidenceReport(tuple(slope), n, n - deg, main, diag, float(remainders[0, 0]))


def _sweep(
    E: PointSet, k: int, method: str
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray | None]:
    """(slopes, nu, nu_nondegenerate, remainders) for every slope in all_slopes order.

    One kernel call per route; remainders is None on the brute route, where
    it is back-solved per slope only when asked for.
    """
    _check_k(E, k)
    if method not in ("spectral", "brute"):
        raise ValueError(f"unknown method {method!r}")
    slopes = all_slopes(E.q, k)
    if method == "spectral":
        nu, remainders = slope_counts(E.spectrum_power()[None], E.cardinality, E.q, E.dim, k)
        return slopes, nu[0], nu[0] - _prefix_degenerate_count(E, k), remainders[0]
    nondegenerate, degenerate = _brute_counts(E, k)
    return slopes, nondegenerate + degenerate, nondegenerate, None


def nu_sweep(E: PointSet, k: int, method: str = "spectral") -> list[IncidenceReport]:
    """The IncidenceReport of every slope tuple, in all_slopes order, from one kernel call."""
    slopes, nu, nondeg, remainders = _sweep(E, k, method)
    if remainders is None:
        return [_brute_report(E, t, n, m) for t, n, m in zip(slopes, nu.tolist(), nondeg.tolist())]
    main, diag = _terms(E.cardinality, E.q, k)
    return [
        IncidenceReport(t, n, m, main, diag, r)
        for t, n, m, r in zip(slopes, nu.tolist(), nondeg.tolist(), remainders.tolist())
    ]


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
    slopes, nu, nondeg, _ = _sweep(E, k, method)
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
