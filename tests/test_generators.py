import pytest

from fqdirections.generators import (
    GENERATOR_NAMES,
    gen_affine_subspace,
    gen_coordinate_subspace,
    gen_embedded,
    gen_paraboloid,
    gen_random,
    gen_subspace_random,
    index_block,
)
from fqdirections.grid import decode_indices
from fqdirections.rng import sample_without_replacement


def test_gen_random_deterministic():
    a = gen_random(7, 2, 10, seed=42)
    b = gen_random(7, 2, 10, seed=42)
    c = gen_random(7, 2, 10, seed=43)
    assert a == b
    assert a != c
    assert len(a) == 10


def test_gen_random_full_and_overflow():
    assert len(gen_random(3, 2, 9, seed=0)) == 9
    with pytest.raises(ValueError):
        gen_random(3, 2, 10, seed=0)


def test_gen_coordinate_subspace():
    H = gen_coordinate_subspace(5, 3, 2)
    assert len(H) == 25
    assert all(p[2] == 0 for p in H.points())
    assert H.contains((4, 4, 0))
    line = gen_coordinate_subspace(5, 2, 1)
    assert line.points() == [(x, 0) for x in range(5)]
    origin = gen_coordinate_subspace(5, 2, 0)
    assert origin.points() == [(0, 0)]
    with pytest.raises(ValueError):
        gen_coordinate_subspace(5, 2, 3)


def test_gen_affine_subspace():
    A = gen_affine_subspace(5, 2, 1, (1, 2))
    assert set(A.points()) == {((x + 1) % 5, 2) for x in range(5)}


def test_gen_paraboloid_small_cases():
    P = gen_paraboloid(5, 2)
    assert P.points() == [(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)]
    P3 = gen_paraboloid(3, 3)
    assert len(P3) == 9
    assert all((a * a + b * b) % 3 == c for a, b, c in P3.points())
    with pytest.raises(ValueError):
        gen_paraboloid(5, 1)


def test_gen_embedded():
    base = gen_paraboloid(5, 2)
    E = gen_embedded(base, 4)
    assert len(E) == len(base)
    assert all(p[2] == 0 and p[3] == 0 for p in E.points())
    assert all(p[:2] in {b for b in map(tuple, base.points())} for p in E.points())
    with pytest.raises(ValueError):
        gen_embedded(base, 2)


def test_gen_subspace_random():
    E = gen_subspace_random(11, 4, 2, 37, seed=3)
    assert len(E) == 37
    assert all(p[2] == 0 and p[3] == 0 for p in E.points())
    assert E == gen_subspace_random(11, 4, 2, 37, seed=3)
    with pytest.raises(ValueError):
        gen_subspace_random(5, 3, 1, 6, seed=0)  # only q points available
    with pytest.raises(ValueError):
        gen_subspace_random(5, 3, 4, 6, seed=0)


def test_index_draws():
    assert index_block(7, 2, 2, 10, [42])[0].tolist() == sample_without_replacement(49, 10, 42)
    # point j of the draw is the j-th sampled point of F_11^2, padded with zeros
    picks = index_block(11, 4, 2, 37, [3])[0]
    coords = decode_indices(picks, 11, 4)
    assert (coords[:, 2:] == 0).all()
    assert (coords[:, :2] == decode_indices(sample_without_replacement(121, 37, 3), 11, 2)).all()


def test_generator_names_frozen():
    assert GENERATOR_NAMES == (
        "random",
        "coordinate-subspace",
        "affine-subspace",
        "paraboloid",
        "embedded",
        "subspace-random",
    )
