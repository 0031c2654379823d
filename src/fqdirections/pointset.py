"""Point sets E in F_q^d as ascending flat indices: .fset serialization, linear maps.

The .fset text format (used by the CLI and by campaign replay files):

    line 1:            q d
    every other line:  d space-separated integers in [0, q)

Blank lines are ignored.  Duplicate points are rejected.  The writer emits
points in ascending mixed-radix order, so output is canonical byte for byte.
"""

from __future__ import annotations

import io
import os
import stat
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import grid
from .errors import FsetParseError, SizeCapError
from .field import PrimeField, prime_field
from .spectral import GridFunction, check_size_cap, forward_transform, indicator_power


def _integers(values, what: str) -> np.ndarray:
    """values as int64; ValueError for floats and bools, not truncation.  Empty input may be float64."""
    array = np.asarray(values)
    if not isinstance(values, np.ndarray) and array.ndim in (1, 2):
        # numpy reads [True, 2] as int64, so the items of a list, or of its rows, are checked by type too
        items = chain.from_iterable(values) if array.ndim == 2 else values
        if not {bool, np.bool_}.isdisjoint(map(type, items)):
            raise ValueError(f"{what} must be integers, got bool values")
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {array.dtype} values")
    return array.astype(np.int64, copy=False)


def _check_point(point: Sequence[int], q: int, dim: int) -> None:
    if len(point) != dim:
        raise ValueError(f"point {tuple(point)} does not have {dim} coordinates")
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in point):
        raise ValueError(f"point {tuple(point)} has coordinates that are not integers")
    if any(not (0 <= c < q) for c in point):
        raise ValueError(f"point {tuple(point)} has coordinates outside [0, {q})")


class PointSet:
    """A subset E of F_q^d stored as its ascending flat point indices.

    Treat instances as immutable: operations return new sets.  The indicator's
    spectrum, its power |Ehat|^2 (which does not build the complex spectrum:
    a caller of both pays for two transforms) and the sparse difference
    multiplicity mu are computed lazily and cached.
    Build sets through the classmethods, which check their input.
    """

    def __init__(self, field: PrimeField, dim: int, indices: np.ndarray):
        """indices must be distinct, ascending and in [0, q^dim); they are made read-only."""
        indices.setflags(write=False)
        self.field = field
        self.dim = dim
        self._indices = indices
        self._spectrum: GridFunction | None = None
        self._spectrum_power: np.ndarray | None = None
        self._mu: tuple[np.ndarray, np.ndarray] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_indices(cls, q: int, dim: int, indices: Iterable[int]) -> "PointSet":
        field = prime_field(q)
        n = check_size_cap(q, dim)
        idx = _integers(indices if isinstance(indices, np.ndarray) else list(indices), "point indices")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("point index out of range")
        ordered = grid.distinct(idx)
        if len(ordered) != len(idx):
            raise ValueError("duplicate points")
        return cls(field, dim, ordered)

    @classmethod
    def from_points(cls, q: int, dim: int, points: Iterable[Sequence[int]]) -> "PointSet":
        pts = list(points)
        for p in pts:
            _check_point(p, q, dim)
        return cls.from_indices(q, dim, (grid.encode(p, q) for p in pts))

    @classmethod
    def from_coords(cls, q: int, dim: int, coords: np.ndarray) -> "PointSet":
        coords = _integers(coords, "coordinates")
        if coords.ndim != 2 or coords.shape[1] != dim:
            raise ValueError(f"coordinates must form an (n, {dim}) array, got shape {coords.shape}")
        outside = ((coords < 0) | (coords >= q)).any(axis=1)
        if outside.any():
            _check_point(coords[outside.argmax()].tolist(), q, dim)
        return cls.from_indices(q, dim, grid.encode_coords(coords, q))

    @classmethod
    def empty(cls, q: int, dim: int) -> "PointSet":
        return cls.from_indices(q, dim, [])

    @classmethod
    def full(cls, q: int, dim: int) -> "PointSet":
        field = prime_field(q)
        return cls(field, dim, np.arange(check_size_cap(q, dim), dtype=np.int64))

    # -- basic queries -----------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def cardinality(self) -> int:
        return len(self._indices)

    def indices(self) -> np.ndarray:
        """Flat point indices, ascending and read-only."""
        return self._indices

    def coords(self) -> np.ndarray:
        """Member points as an (|E|, d) array, ascending index order."""
        return grid.decode_indices(self._indices, self.q, self.dim)

    def points(self) -> list[tuple[int, ...]]:
        return [tuple(int(c) for c in row) for row in self.coords()]

    def contains(self, point: Sequence[int]) -> bool:
        """Whether point is in E; ValueError unless it has d coordinates in [0, q)."""
        _check_point(point, self.q, self.dim)
        index = grid.encode(point, self.q)
        pos = int(np.searchsorted(self._indices, index))
        return pos < len(self._indices) and int(self._indices[pos]) == index

    def __len__(self) -> int:
        return self.cardinality

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointSet)
            and other.q == self.q
            and other.dim == self.dim
            and bool(np.array_equal(other._indices, self._indices))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PointSet(q={self.q}, d={self.dim}, |E|={self.cardinality})"

    # -- derived objects ---------------------------------------------------

    def translate(self, shift: Sequence[int]) -> "PointSet":
        if len(shift) != self.dim:
            raise ValueError(f"shift must have {self.dim} coordinates")
        coords = (self.coords() + _integers(shift, "shift coordinates")) % self.q
        return PointSet.from_coords(self.q, self.dim, coords)

    def indicator(self) -> GridFunction:
        values = np.zeros(self.q**self.dim, dtype=np.complex128)
        values[self._indices] = 1.0
        return GridFunction(self.field, self.dim, values)

    def spectrum(self) -> GridFunction:
        """Fourier coefficients of the dense indicator, cached after the first call."""
        if self._spectrum is None:
            self._spectrum = forward_transform(self.indicator())
        return self._spectrum

    def spectrum_power(self) -> np.ndarray:
        """|Ehat(m)|^2 for all m, cached; read-only; read off the last transform pass, no complex spectrum."""
        if self._spectrum_power is None:
            power = indicator_power(self._indices[None], self.field, self.dim)[0]
            power.setflags(write=False)
            self._spectrum_power = power
        return self._spectrum_power

    def difference_multiplicity(self) -> tuple[np.ndarray, np.ndarray]:
        """Sparse mu, cached and read-only: ascending codes of E - E, their multiplicities; O(|E|^2)."""
        if self._mu is None:
            self._mu = grid.difference_multiplicities(self._indices[None], self.q, self.dim)
            for array in self._mu:
                array.setflags(write=False)
        return self._mu


# -- .fset serialization ---------------------------------------------------


def format_fset(E: PointSet) -> str:
    """Canonical .fset text: header, then points ascending by grid index."""
    lines = [f"{E.q} {E.dim}"] + [" ".join(str(int(c)) for c in row) for row in E.coords()]
    return "\n".join(lines) + "\n"


def write_fset(E: PointSet, path: str | os.PathLike) -> None:
    _write_in_place(path, format_fset(E))


def _write_in_place(path: str | os.PathLike, text: str) -> None:
    """Write ASCII text over the file at path, then cut the file to the new length.

    The file is opened without O_TRUNC, in the mode open(path, "w") gives a
    new file.  Truncating a file to zero and rewriting it can wait on the
    writeback of its old contents (ext4's auto_da_alloc); writing over it
    and truncating at the end does not.  Neither is an atomic replace: a
    crash mid-write leaves a partial file.  Only a regular file is cut, so
    os.devnull and FIFOs work as targets.
    """
    data = text.encode("ascii")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def parse_fset(text: str) -> PointSet:
    lines = text.splitlines()
    header_line = None
    q = dim = 0
    seen: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if header_line is None:
            if len(fields) != 2:
                raise FsetParseError("header must be 'q d'", lineno)
            try:
                q, dim = int(fields[0]), int(fields[1])
            except ValueError:
                raise FsetParseError("header must contain two integers", lineno) from None
            if dim < 1:
                raise FsetParseError(f"dimension must be >= 1, got {dim}", lineno)
            try:
                prime_field(q)
                check_size_cap(q, dim)
            except (ValueError, SizeCapError) as exc:
                raise FsetParseError(str(exc), lineno) from None
            header_line = lineno
            continue
        if len(fields) != dim:
            raise FsetParseError(f"expected {dim} coordinates, got {len(fields)}", lineno)
        try:
            point = tuple(map(int, fields))
        except ValueError:
            raise FsetParseError("coordinates must be integers", lineno) from None
        index = 0
        for c in point:
            if not 0 <= c < q:
                raise FsetParseError(f"coordinate outside [0, {q})", lineno)
            index = index * q + c
        if index in seen:
            raise FsetParseError(f"duplicate point {point}", lineno)
        seen.add(index)
    if header_line is None:
        raise FsetParseError("empty input, expected a 'q d' header")
    return PointSet.from_indices(q, dim, seen)


def read_fset(path: str | os.PathLike) -> PointSet:
    with io.open(path, "r", encoding="ascii") as fh:
        return parse_fset(fh.read())
