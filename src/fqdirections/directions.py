"""Directions in F_q^d: the quotient of nonzero vectors by scaling.

Two nonzero vectors point the same way when one is a nonzero scalar multiple
of the other.  The canonical representative of a class scales the first
nonzero coordinate to 1, so representatives with first coordinate 1 read off
as slope tuples (1, t_1, ..., t_{d-1}) directly.

The zero vector belongs to no class: the direction set of E collects
canonical forms of the nonzero differences x - y over x, y in E.

Everything here is a view of one primitive, the difference multiplicity
mu(z) (grid.difference_multiplicities, cached per set by
PointSet.difference_multiplicity), binned by class_masses into M[b, c], set
b's mass of mu on class c, with one bincount per stack.  Classes run by
ascending canonical code, the zero vector first, so M[b, 0] = |E|; a code c
with q^p <= c < 2 q^p has rank 1 + (q^p - 1)/(q - 1) + c - q^p (code_ranks,
inverted by class_codes).  Each view is then a fixed slice of M.  D(E) is a
row's nonzero classes.  class_slope_counts reads two blocks: the last
q^(d-1) classes, by ascending t, are those of canonical form z / z_1 =
(1, t_1, ..., t_(d-1)), and the (q^(d-k-1) - 1)/(q - 1) right after the zero
vector those with z_1 = ... = z_(k+1) = 0.  H_n's classes are those whose
code is a multiple of q^(d-n), since scaling keeps zeros (subspace_classes).

class_ranks gives the class rank of vectors of F_q^n: a code's base-q
digits are scaled by the inverse of its leading digit and read back as a
canonical code, with no (n, d) coordinate rows, and ranked.  On grids of at
most _TABLE_CELLS cells that is done once for every vector into a cached
read-only table, and a query is one gather; above, each query computes its
ranks, since at q = 101, d = 3 a table would take about 200 ms and a
transient 94 MB to build.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from . import grid
from .field import PrimeField, check_modulus
from .pointset import PointSet

Direction = tuple[int, ...]

#: Largest grid whose class ranks come from a table (4 bytes a cell);
#: harness._BLOCK_CELLS, so every grid a campaign block stacks sets of.
_TABLE_CELLS = 1 << 16

# Read-only class-rank tables, keyed by (q, n).
_RANK_TABLES: dict[tuple[int, int], np.ndarray] = {}


def canonical_direction(z: Sequence[int], q: int) -> Direction:
    """Canonical representative of the class of a nonzero vector z.

    Scales z by the inverse of its first nonzero coordinate; idempotent, and
    identical for tz over every nonzero t.  Raises ValueError for z = 0.
    """
    vec = [int(c) % q for c in z]
    lead = next((c for c in vec if c != 0), None)
    if lead is None:
        raise ValueError("the zero vector determines no direction")
    scale = pow(lead, q - 2, q)
    return tuple((scale * c) % q for c in vec)


def _scaled_codes(local: np.ndarray, field: PrimeField, n: int) -> np.ndarray:
    """Canonical code of each int64 vector code in [0, q^n), computed from its base-q digits."""
    q = field.q
    digits = []
    lead = np.zeros_like(local)
    for _ in range(n):
        local, digit = np.divmod(local, q)
        digits.append(digit)
        # digits come least significant first, so the last nonzero one leads
        np.copyto(lead, digit, where=digit != 0)
    scale = field.inverse_table[lead]
    code = np.zeros_like(lead)
    for digit in reversed(digits):
        code *= q
        code += digit * scale % q
    return code


def code_ranks(canon: np.ndarray, q: int, n: int) -> np.ndarray:
    """Class rank of each canonical code of F_q^n: 0 for 0, 1 + (q^p - 1)/(q - 1) + c - q^p for q^p <= c < 2 q^p."""
    places = q ** np.arange(n, dtype=np.int64)
    return canon + np.append(0, 1 + (places - 1) // (q - 1) - places)[np.searchsorted(places, canon, side="right")]


def class_codes(ranks: np.ndarray, q: int, n: int) -> np.ndarray:
    """Canonical code of each class rank of F_q^n, the inverse of code_ranks."""
    places = q ** np.arange(n, dtype=np.int64)
    starts = code_ranks(places, q, n)
    return ranks + np.append(0, places - starts)[np.searchsorted(starts, ranks, side="right")]


def class_ranks(local: np.ndarray, field: PrimeField, n: int) -> np.ndarray:
    """Class rank of each int64 vector code in [0, q^n), 0 for 0; a cached-table gather when q^n <= _TABLE_CELLS."""
    q = field.q
    if q**n > _TABLE_CELLS:
        return code_ranks(_scaled_codes(local, field, n), q, n)
    table = _RANK_TABLES.get((q, n))
    if table is None:
        table = code_ranks(_scaled_codes(np.arange(q**n, dtype=np.int64), field, n), q, n).astype(np.int32)
        table.flags.writeable = False
        table = _RANK_TABLES.setdefault((q, n), table)
    return np.take(table, local)


def class_masses(codes: np.ndarray, counts: np.ndarray, sets: int, field: PrimeField, d: int) -> np.ndarray:
    """M[b, c], set b's mass of mu on class c: a (sets, C) int64 table, C = 1 + (q^d - 1)/(q - 1).

    codes and counts are a stacked sparse mu (grid.difference_multiplicities),
    set b's codes offset by b q^d.  Classes run in rank order (code_ranks),
    so M[b, 0] = |E| and a row sums to |E|^2, exact in float64 below 2^53.
    """
    cells = field.q**d
    classes = 1 + (cells - 1) // (field.q - 1)
    owner = codes // cells
    ranks = class_ranks(codes - owner * cells, field, d)
    masses = np.bincount(owner * classes + ranks, counts, minlength=sets * classes)
    return masses.astype(np.int64).reshape(sets, classes)


def class_slope_counts(masses: np.ndarray, q: int, d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute incidence route off the (sets, C) class masses of a stack of sets (class_masses).

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
def subspace_classes(q: int, d: int, n: int) -> np.ndarray:
    """Ascending ranks in F_q^d of the classes of H_n, read-only: q^(d-n) times the canonical codes of F_q^n."""
    ranks = code_ranks(class_codes(np.arange(1, 1 + (q**n - 1) // (q - 1)), q, n) * q ** (d - n), q, d)
    ranks.flags.writeable = False
    return ranks


def _directions_of_ranks(ranks: np.ndarray, q: int, d: int) -> set[Direction]:
    reps = grid.decode_indices(class_codes(ranks, q, d), q, d)
    return set(zip(*reps.T.tolist()))


def direction_set(E: PointSet) -> set[Direction]:
    """Directions determined by E: canonical forms of x - y over distinct pairs."""
    masses = class_masses(*E.difference_multiplicity(), 1, E.field, E.dim)[0]
    return _directions_of_ranks(np.flatnonzero(masses[1:]) + 1, E.q, E.dim)


def ambient_direction_count(q: int, d: int) -> int:
    """Number of direction classes of F_q^d itself: (q^d - 1) / (q - 1)."""
    check_modulus(q)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return (q**d - 1) // (q - 1)


def coordinate_subspace_directions(q: int, d: int, n: int) -> set[Direction]:
    """Directions of the n-dimensional coordinate subspace (last d-n coords zero)."""
    check_modulus(q)
    if not 1 <= n <= d:
        raise ValueError(f"subspace dimension must be in [1, {d}], got {n}")
    return _directions_of_ranks(subspace_classes(q, d, n), q, d)


def sort_directions(dirs: set[Direction], q: int) -> list[Direction]:
    """Deterministic listing: ascending mixed-radix index of the representative."""
    return sorted(dirs, key=lambda rep: grid.encode(rep, q))
