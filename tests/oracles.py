"""Independent reference implementations used to pin down the fast paths.

Everything here is written the slow, obvious way: explicit Python loops,
no vectorization, no shared helpers from the package beyond data access.
Tests freeze these as the ground truth the optimized code must reproduce.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from fractions import Fraction
from typing import Any, Sequence

import numpy as np


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


def mu_direct(points, q: int) -> dict[tuple[int, ...], int]:
    """Difference multiplicities by dictionary count over ordered pairs."""
    table: dict[tuple[int, ...], int] = {}
    for x in points:
        for y in points:
            z = tuple((a - b) % q for a, b in zip(x, y))
            table[z] = table.get(z, 0) + 1
    return table


def dense_axis_by_axis(values: np.ndarray, roots: np.ndarray, q: int, d: int, conjugate: bool) -> np.ndarray:
    """The whole-cube axis-by-axis transform of a flat table or a (B, q^d) stack.

    Every row of every pass is multiplied, zero or not: the last axis of the
    cube goes through the q x q character matrix and the new frequency axis
    is rotated to the front.  A stack is transformed a table at a time, as
    each table is alone.  The live-row loop must reproduce it bit for bit,
    since it runs the same matrix products on the rows it keeps.  Unscaled:
    the forward transform multiplies by q^(-d) afterwards.
    """
    if values.ndim == 2:
        return np.array([dense_axis_by_axis(table, roots, q, d, conjugate) for table in values]).reshape(values.shape)
    cube = values.reshape((q,) * d)
    chars = (np.conj(roots) if conjugate else roots)[np.multiply.outer(np.arange(q), np.arange(q)) % q]
    for _ in range(d):
        cube = np.moveaxis(np.matmul(cube, chars.T), -1, 0)
    return cube.reshape(values.shape)


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
