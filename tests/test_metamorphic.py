"""Metamorphic checks: what translations and invertible linear maps must preserve.

These need no brute oracle, so they scale past the grids the direct
enumerations in tests/oracles.py can reach.

- A translation E + s leaves every difference x - y, and so mu, unchanged:
  D(E), E - E, the sum of mu^2 and nu(t) for every slope t must be identical.
- x -> Ax with A in GL_d(F_q) maps E - E bijectively onto A(E - E) and the
  lines through 0 onto lines through 0: |D(E)|, |E - E| and the sum of mu^2
  stay exact.  It permutes the spectrum, |(AE)^(m)|^2 = |Ehat(A^T m)|^2, so
  the Salem constant agrees up to rounding.
- A H_k, the image of the k-dimensional coordinate subspace, is a
  k-dimensional subspace and determines exactly (q^k - 1)/(q - 1)
  directions: the paper's sharpness example holds for every subspace.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fqdirections.directions import direction_set
from fqdirections.generators import gen_coordinate_subspace
from fqdirections.incidence import nu_sweep
from fqdirections.pointset import PointSet
from fqdirections.salem import difference_profile, salem_report
from oracles import apply_linear_map, matrix_rank_mod


@st.composite
def point_sets(draw, min_dim=1):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(min_value=min_dim, max_value=4))
    n = draw(st.integers(min_value=0, max_value=min(40, q**d)))
    idx = draw(st.lists(st.integers(min_value=0, max_value=q**d - 1), min_size=n, max_size=n, unique=True))
    return PointSet.from_indices(q, d, idx)


def invertible_matrix(q: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    while True:
        A = rng.integers(0, q, size=(d, d))
        if matrix_rank_mod(A, q) == d:
            return A


def invariants(E: PointSet) -> tuple[int, int, int]:
    prof = difference_profile(E)
    return len(direction_set(E)), prof.support_size, prof.sum_of_squares()


@given(point_sets(), st.data())
@settings(max_examples=60, deadline=None)
def test_translation_keeps_mu_and_every_count(E, data):
    shift = data.draw(st.tuples(*[st.integers(min_value=0, max_value=E.q - 1)] * E.dim))
    T = E.translate(shift)
    assert len(T) == len(E)
    for got, want in zip(T.difference_multiplicity(), E.difference_multiplicity()):
        assert np.array_equal(got, want)
    assert direction_set(T) == direction_set(E)
    assert invariants(T) == invariants(E)
    if E.dim < 2:
        return
    k = data.draw(st.integers(min_value=1, max_value=E.dim - 1))
    assert nu_sweep(T, k, "brute") == nu_sweep(E, k, "brute")
    spectral_T, spectral_E = nu_sweep(T, k, "spectral"), nu_sweep(E, k, "spectral")
    for got, want in zip(spectral_T, spectral_E):
        # nu is an exact integer either way; only the float remainder may round differently
        assert (got.slope, got.nu, got.nu_nondegenerate) == (want.slope, want.nu, want.nu_nondegenerate)
        assert (got.main_term, got.diagonal_term) == (want.main_term, want.diagonal_term)
        assert abs(got.remainder - want.remainder) <= 1e-9 * max(1.0, len(E) ** 2)


@given(point_sets(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_linear_map_keeps_counts_and_salem_constant(E, seed):
    A = invertible_matrix(E.q, E.dim, seed)
    image = apply_linear_map(E, A)
    assert len(image) == len(E)
    assert invariants(image) == invariants(E)
    got, want = salem_report(image).salem_constant, salem_report(E).salem_constant
    assert abs(got - want) <= 1e-9 * want


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=40, deadline=None)
def test_every_subspace_is_sharp(q, data):
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=0, max_value=d))
    A = invertible_matrix(q, d, data.draw(st.integers(min_value=0, max_value=2**32)))
    H = apply_linear_map(gen_coordinate_subspace(q, d, k), A)
    assert len(H) == q**k
    assert len(direction_set(H)) == (q**k - 1) // (q - 1)
