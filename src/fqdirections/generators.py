"""Point-set generator library: random sets, subspaces, paraboloids, embeddings.

Generators are addressable by name through FAMILIES, which the CLI's gen
command dispatches through, taking their parameters as options.  A
campaign's `generator` key names one of the two draws, random or
subspace-random; both are index_block, which draws inside the coordinate
subspace H_m for a block of trial seeds at a time, m = d being the whole
grid.  All generators are deterministic in their arguments.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from . import grid
from .pointset import PointSet
from .rng import sample_block
from .spectral import check_size_cap


def index_block(q: int, d: int, m: int, n: int, seeds: Sequence[int]) -> np.ndarray:
    """Flat indices of n points drawn inside H_m, the m-dimensional coordinate subspace of F_q^d.

    A (B, n) array, a row per seed in draw order; m = d draws from the whole grid.
    """
    check_size_cap(q, d)
    if not 1 <= m <= d:
        raise ValueError(f"subspace dimension must be in [1, {d}], got {m}")
    total = q**m
    if n > total:
        raise ValueError(f"cannot draw {n} distinct points from a {'grid' if m == d else 'subspace'} of {total}")
    # H_m has coordinates m+1..d zero, so its point with index p in F_q^m
    # has index p q^(d-m) in F_q^d
    return sample_block(total, n, seeds) * q ** (d - m)


def gen_random(q: int, d: int, n: int, seed: int) -> PointSet:
    """n points drawn uniformly without replacement, deterministic in seed."""
    return PointSet.from_indices(q, d, index_block(q, d, d, n, [seed])[0])


def gen_coordinate_subspace(q: int, d: int, k: int) -> PointSet:
    """The k-dimensional coordinate subspace: first k coordinates free, rest zero."""
    if not 0 <= k <= d:
        raise ValueError(f"subspace dimension must be in [0, {d}], got {k}")
    check_size_cap(q, d)
    coords = np.zeros((q**k, d), dtype=np.int64)
    coords[:, :k] = grid.decode_indices(np.arange(q**k, dtype=np.int64), q, k)
    return PointSet.from_coords(q, d, coords)


def gen_affine_subspace(q: int, d: int, k: int, shift: tuple[int, ...]) -> PointSet:
    """A coordinate subspace translated by a fixed shift vector."""
    return gen_coordinate_subspace(q, d, k).translate(shift)


def gen_paraboloid(q: int, d: int) -> PointSet:
    """{(x, x.x) : x in F_q^(d-1)}, the canonical explicit near-random family.

    For d = 2 its nonzero Fourier coefficients all have modulus q^(-3/2),
    square-root cancellation on the nose.
    """
    if d < 2:
        raise ValueError(f"paraboloid needs dimension >= 2, got {d}")
    check_size_cap(q, d)
    base = grid.decode_indices(np.arange(q ** (d - 1), dtype=np.int64), q, d - 1)
    coords = np.empty((len(base), d), dtype=np.int64)
    coords[:, : d - 1] = base
    coords[:, d - 1] = np.sum(base * base, axis=1) % q
    return PointSet.from_coords(q, d, coords)


def gen_embedded(base: PointSet, d: int) -> PointSet:
    """base lifted into F_q^d by padding trailing zero coordinates."""
    if base.dim >= d:
        raise ValueError(f"embedding target dimension must exceed {base.dim}, got {d}")
    check_size_cap(base.q, d)
    coords = np.zeros((base.cardinality, d), dtype=np.int64)
    coords[:, : base.dim] = base.coords()
    return PointSet.from_coords(base.q, d, coords)


def gen_subspace_random(q: int, d: int, m: int, n: int, seed: int) -> PointSet:
    """n random points inside the m-dimensional coordinate subspace of F_q^d."""
    return PointSet.from_indices(q, d, index_block(q, d, m, n, [seed])[0])


#: Every generator family: its function and its parameters, in call order.
#: The CLI dispatches through this table.
FAMILIES: dict[str, tuple[Callable[..., PointSet], tuple[str, ...]]] = {
    "random": (gen_random, ("q", "d", "n", "seed")),
    "coordinate-subspace": (gen_coordinate_subspace, ("q", "d", "k")),
    "affine-subspace": (gen_affine_subspace, ("q", "d", "k", "shift")),
    "paraboloid": (gen_paraboloid, ("q", "d")),
    "embedded": (gen_embedded, ("in", "d")),
    "subspace-random": (gen_subspace_random, ("q", "d", "m", "n", "seed")),
}

GENERATOR_NAMES = tuple(FAMILIES)

