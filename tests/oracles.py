"""Independent reference implementations used to pin down the fast paths.

Everything here is written the slow, obvious way: explicit Python loops,
no vectorization, no shared helpers from the package beyond data access.
Tests freeze these as the ground truth the optimized code must reproduce.
The two identity defects (plancherel_defect, mu_spectrum_identity_defect)
instead measure the package's own transform against an exact identity.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from fqdirections.pointset import PointSet
from fqdirections.salem import difference_profile
from fqdirections.spectral import GridFunction, forward_transform

_MASK64 = (1 << 64) - 1


def dft_direct(values: np.ndarray, q: int, d: int, frequencies: Sequence[int] | None = None) -> np.ndarray:
    """Forward transform by the defining double sum, O(q^(2d)).

    With frequencies given, only those entries (flat indices), in that order.
    """
    n = q**d
    frequencies = range(n) if frequencies is None else frequencies
    out = np.zeros(len(frequencies), dtype=np.complex128)
    for i, m_index in enumerate(frequencies):
        m = index_to_point(m_index, q, d)
        acc = 0j
        for x_index in range(n):
            x = index_to_point(x_index, q, d)
            dot = sum(a * b for a, b in zip(x, m)) % q
            acc += values[x_index] * cmath.exp(-2j * cmath.pi * dot / q)
        out[i] = acc / n
    return out


def index_to_point(index: int, q: int, d: int) -> tuple[int, ...]:
    digits = []
    for _ in range(d):
        digits.append(index % q)
        index //= q
    return tuple(reversed(digits))


def point_to_index(point, q: int) -> int:
    index = 0
    for c in point:
        index = index * q + int(c)
    return index


def nu_pairs(points, q: int, slope) -> int:
    """Pair count by literal condition check: z(i+1) = t(i) * z(1) mod q."""
    count = 0
    for x in points:
        for y in points:
            if x == y:
                continue
            z = tuple((a - b) % q for a, b in zip(x, y))
            if all(z[i + 1] == (t * z[0]) % q for i, t in enumerate(slope)):
                count += 1
    return count


def directions_enumerate(points, q: int) -> set[tuple[int, ...]]:
    """Direction classes by full orbit enumeration, no inverse tables.

    The representative of an orbit is its lexicographically smallest member
    with leading nonzero coordinate 1, found by trying every scalar.
    """
    found = set()
    for x in points:
        for y in points:
            if x == y:
                continue
            z = tuple((a - b) % q for a, b in zip(x, y))
            reps = []
            for c in range(1, q):
                scaled = tuple((c * v) % q for v in z)
                lead = next(v for v in scaled if v)
                if lead == 1:
                    reps.append(scaled)
            found.add(min(reps))
    return found


def canonicalize_rows(diffs: np.ndarray, q: int) -> np.ndarray:
    """Row-wise canonical representatives of an (n, d) array of vectors; a zero row stays zero.

    Each row is scaled by the inverse of its first nonzero coordinate.
    """
    lead = diffs[np.arange(len(diffs)), np.argmax(diffs != 0, axis=1)]
    inverse = np.array([pow(c, q - 2, q) for c in range(q)], dtype=np.int64)
    return diffs * inverse[lead][:, None] % q


def mu_direct(points, q: int) -> dict[tuple[int, ...], int]:
    """Difference multiplicities by dictionary count over ordered pairs."""
    table: dict[tuple[int, ...], int] = {}
    for x in points:
        for y in points:
            z = tuple((a - b) % q for a, b in zip(x, y))
            table[z] = table.get(z, 0) + 1
    return table


def dense_axis_by_axis(values: np.ndarray, roots: np.ndarray, q: int, d: int) -> np.ndarray:
    """The whole-cube axis-by-axis forward transform of a flat table or a (B, q^d) stack.

    Every row of every pass is multiplied, zero or not: the last axis of the
    cube goes through the q x q character matrix and the new frequency axis
    is rotated to the front.  A stack is transformed a table at a time, as
    each table is alone.  The live-row loop must reproduce it bit for bit,
    since it runs the same matrix products on the rows it keeps, once both
    are scaled by q^(-d).  Unscaled: callers multiply by q^(-d) afterwards.
    """
    if values.ndim == 2:
        return np.array([dense_axis_by_axis(table, roots, q, d) for table in values]).reshape(values.shape)
    cube = values.reshape((q,) * d)
    chars = np.conj(roots)[np.multiply.outer(np.arange(q), np.arange(q)) % q]
    for _ in range(d):
        cube = np.moveaxis(np.matmul(cube, chars.T), -1, 0)
    return cube.reshape(values.shape)


def matrix_rank_mod(matrix: np.ndarray, q: int) -> int:
    """Rank of an integer matrix over F_q by exact Gaussian elimination."""
    m = [[int(v) % q for v in row] for row in np.asarray(matrix)]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], q - 2, q)
        m[rank] = [(v * inv) % q for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [(a - factor * b) % q for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def apply_linear_map(E: PointSet, matrix: Sequence[Sequence[int]]) -> PointSet:
    """Image {Ax : x in E} under an invertible d x d matrix over F_q.

    Realizes a change of coordinates, so statements about coordinate
    subspaces transfer to arbitrary subspaces.  Raises ValueError if the
    matrix is singular over F_q.
    """
    A = np.asarray(matrix, dtype=np.int64) % E.q
    if A.shape != (E.dim, E.dim):
        raise ValueError(f"matrix must be {E.dim}x{E.dim}, got {A.shape}")
    if matrix_rank_mod(A, E.q) != E.dim:
        raise ValueError(f"matrix is singular over F_{E.q}")
    coords = (E.coords() @ A.T) % E.q
    return PointSet.from_coords(E.q, E.dim, coords)


class XorShift64Star:
    """The scalar xorshift64* stream, stepped one state at a time; rng.sample_block must match it bit for bit.

        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;  output = x * 2685821657736338717

    mod 2^64, with a zero seed remapped to 0x9E3779B97F4A7C15.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        state = seed & _MASK64
        self.state = state if state else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 2685821657736338717) & _MASK64

    def below(self, bound: int) -> int:
        """Draw in [0, bound) by plain modulo reduction; bound must be positive."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


def fisher_yates_sample(total: int, count: int, seed: int) -> list[int]:
    """First count entries of a partial Fisher-Yates shuffle of range(total).

    Step i swaps position i with position i + below(total - i) of a scalar
    XorShift64Star stream; positions not yet moved hold their own index.
    """
    rng = XorShift64Star(seed)
    moved: dict[int, int] = {}
    out = []
    for i in range(count):
        j = i + rng.below(total - i)
        value_i = moved.get(i, i)
        value_j = moved.get(j, j)
        moved[i] = value_j
        moved[j] = value_i
        out.append(value_j)
    return out


def plancherel_defect(f: GridFunction) -> float:
    """|sum_m |fhat(m)|^2 - q^(-d) sum_x |f(x)|^2|.

    Exactly zero in exact arithmetic; tests assert it stays below
    1e-9 * max(1, sum_x |f(x)|^2).
    """
    spec = forward_transform(f)
    lhs = float(np.sum(np.abs(spec.values) ** 2))
    rhs = float(np.sum(np.abs(f.values) ** 2)) * float(f.field.q) ** (-f.dim)
    return abs(lhs - rhs)


def mu_spectrum_identity_defect(E: PointSet) -> float:
    """max_m |muhat(m) - q^d |Ehat(m)|^2|; tests assert < 1e-6 * |E|^2."""
    mu = difference_profile(E).mu.astype(np.complex128)
    mu_hat = forward_transform(GridFunction(E.field, E.dim, mu))
    target = float(E.q) ** E.dim * E.spectrum_power()
    return float(np.max(np.abs(mu_hat.values - target)))


def _csv_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(item) for item in value)
    return str(value)


def _json_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    return value


def report_by_rows(result, format: str, columns: Sequence[str]) -> str:
    """A campaign report rendered a row at a time, every value formatted where it stands.

    CSV goes through csv.writer, JSON is one json.dumps(indent=2) of the
    whole document; columns is the kind's column order.
    """
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in result.rows:
            writer.writerow([_csv_value(row[col]) for col in columns])
        return buffer.getvalue()
    doc = {
        "kind": result.kind,
        "config": result.config.to_dict(),
        "rows": [_json_value(row) for row in result.rows],
        "aggregates": _json_value(result.aggregates),
        "counterexamples": [_json_value(c) for c in result.counterexamples],
        "hard_failure_count": result.hard_failure_count,
        "soft_flag_count": result.soft_flag_count,
        "ok": result.ok,
    }
    return json.dumps(doc, indent=2) + "\n"
