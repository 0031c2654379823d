"""Directions in F_q^d: the quotient of nonzero vectors by scaling.

Two nonzero vectors point the same way when one is a nonzero scalar multiple
of the other.  The canonical representative of a class scales the first
nonzero coordinate to 1, so representatives with first coordinate 1 read off
as slope tuples (1, t_1, ..., t_{d-1}) directly.

The zero vector belongs to no class: the direction set of E collects
canonical forms of the nonzero differences x - y over x, y in E.

Everything here is a view of one primitive, the difference multiplicity
mu(z) (grid.difference_multiplicities, cached per set by
PointSet.difference_multiplicity): D(E) is the set of canonical classes of
the support of mu.  Classing works on flat grid codes rather than on rows:
canonical_support canonicalizes a stack's support codes once each, set b's
offset b q^d kept, and _direction_marks marks them in a (B, q^d) bool array
with vector 0 cleared, so |D(E)| of each set is the count of its row's
marks, with no sort.  The same canonical codes give every slope count
(incidence.mu_slope_counts): a difference with z_1 != 0 has the canonical
form z / z_1, whose first k+1 coordinates are (1, t_1, ..., t_k).
direction_set and directions_of_codes are the one-set case, the marked
codes of its one row decoded into tuples.

canonical_of gives the canonical code of vectors of F_q^n.  A code's base-q
digits are scaled by the inverse of its leading digit and read back as a
code, with no (n, d) coordinate rows.  On grids of at most _TABLE_CELLS
cells that is done once for every vector into a cached read-only table, and
a query is one gather; above, each query computes its codes, since at
q = 101, d = 3 a table would take about 200 ms and a transient 94 MB to
build.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import grid
from .field import PrimeField, check_modulus, prime_field
from .pointset import PointSet

Direction = tuple[int, ...]

#: Largest grid whose canonical codes come from a table (4 bytes a cell);
#: harness._BLOCK_CELLS, so every grid a campaign block stacks sets of.
_TABLE_CELLS = 1 << 16

# Read-only canonical-code tables, keyed by (q, n).
_CANONICAL_TABLES: dict[tuple[int, int], np.ndarray] = {}


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


def _canonical_table(field: PrimeField, n: int) -> np.ndarray:
    """The canonical code of every vector code of F_q^n, 0 for 0; built once per (q, n), read-only."""
    q = field.q
    table = _CANONICAL_TABLES.get((q, n))
    if table is None:
        table = _scaled_codes(np.arange(q**n, dtype=np.int64), field, n).astype(np.int32)
        table.flags.writeable = False
        table = _CANONICAL_TABLES.setdefault((q, n), table)
    return table


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


def canonical_of(local: np.ndarray, field: PrimeField, n: int) -> np.ndarray:
    """Canonical code of each int64 vector code in [0, q^n); code 0 maps to 0.

    A gather from the cached table when q^n <= _TABLE_CELLS, computed from
    the digits otherwise; the table holds the computed codes.
    """
    if field.q**n <= _TABLE_CELLS:
        return np.take(_canonical_table(field, n), local)
    return _scaled_codes(local, field, n)


def canonical_support(codes: np.ndarray, field: PrimeField, d: int) -> np.ndarray:
    """Canonical code of each code of a stacked support of mu, set b's offset b q^d kept.

    A code in [b q^d, (b+1) q^d) is the vector code - b q^d of set b;
    vector 0 of set b maps to b q^d.
    """
    local = codes % field.q**d
    return canonical_of(local, field, d) + (codes - local)


def _direction_marks(canon: np.ndarray, cells: int, sets: int) -> np.ndarray:
    """A (sets, cells) bool array marking each set's canonical codes (canonical_support), vector 0 cleared.

    A row's count of marks is |D(E)| of its set, with no sort.
    """
    mark = np.zeros((sets, cells), dtype=bool)
    mark.ravel()[canon] = True
    mark[:, 0] = False
    return mark


def directions_of_codes(codes: np.ndarray, field: PrimeField, d: int) -> set[Direction]:
    """Directions of the vectors whose flat grid codes (of one set) are given; code 0 is skipped.

    Repeated codes are allowed.
    """
    marked = np.flatnonzero(_direction_marks(canonical_of(codes, field, d), field.q**d, 1))
    reps = grid.decode_indices(marked, field.q, d)
    return set(zip(*reps.T.tolist()))


def direction_set(E: PointSet) -> set[Direction]:
    """Directions determined by E: canonical forms of x - y over distinct pairs."""
    return directions_of_codes(E.difference_multiplicity()[0], E.field, E.dim)


def ambient_direction_count(q: int, d: int) -> int:
    """Number of direction classes of F_q^d itself: (q^d - 1) / (q - 1)."""
    check_modulus(q)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return (q**d - 1) // (q - 1)


def coordinate_subspace_directions(q: int, d: int, n: int) -> set[Direction]:
    """Directions of the n-dimensional coordinate subspace (last d-n coords zero)."""
    field = prime_field(q)
    if not 1 <= n <= d:
        raise ValueError(f"subspace dimension must be in [1, {d}], got {n}")
    # H_n is its own difference set: its codes are those of F_q^n times q^(d-n)
    return directions_of_codes(np.arange(q**n, dtype=np.int64) * q ** (d - n), field, d)


def sort_directions(dirs: set[Direction], q: int) -> list[Direction]:
    """Deterministic listing: ascending mixed-radix index of the representative."""
    return sorted(dirs, key=lambda rep: grid.encode(rep, q))
