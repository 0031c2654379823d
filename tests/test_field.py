import cmath

import pytest
from hypothesis import given, strategies as st

from fqdirections.field import MAX_MODULUS, PrimeField, is_prime, prime_field
from fqdirections.pointset import PointSet

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_small_range():
    got = [n for n in range(50) if is_prime(n)]
    assert got == SMALL_PRIMES


def test_is_prime_rejects_squares_and_carmichael():
    assert not is_prime(121)
    assert not is_prime(561)  # 3 * 11 * 17
    assert is_prime(65521)  # largest prime below 2^16


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(TypeError):
        PrimeField(5.0)
    with pytest.raises(TypeError):
        PrimeField(True)


def test_modulus_cap():
    with pytest.raises(ValueError):
        PrimeField(MAX_MODULUS + 3)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 101])
def test_inverse_table(q):
    F = PrimeField(q)
    for a in range(1, q):
        assert a * int(F.inverse_table[a]) % q == 1


@pytest.mark.parametrize("q", [3, 5, 7])
def test_character_values(q):
    F = PrimeField(q)
    for a in range(q):
        expected = cmath.exp(2j * cmath.pi * a / q)
        assert abs(F.roots[a] - expected) < 1e-12
    # additive homomorphism
    for a in range(q):
        for b in range(q):
            assert abs(F.roots[(a + b) % q] - F.roots[a] * F.roots[b]) < 1e-12


@pytest.mark.parametrize("q", [3, 5, 11])
def test_character_orthogonality(q):
    F = PrimeField(q)
    for t in range(q):
        total = sum(F.roots[a * t % q] for a in range(q))
        expected = q if t == 0 else 0
        assert abs(total - expected) < 1e-10


def test_roots_are_write_protected():
    F = PrimeField(5)
    with pytest.raises(ValueError):
        F.roots[0] = 0
    with pytest.raises(ValueError):
        F.inverse_table[1] = 7


def test_equality_and_hash_by_modulus():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != 5


def test_prime_field_is_shared_and_validated():
    field = prime_field(101)
    assert prime_field(101) is field
    assert PointSet.from_indices(101, 2, [0, 5]).field is field
    assert PointSet.full(101, 1).field is field
    prime_field(3)
    # True, 3.0 and 4 hash or compare like valid moduli; none may hit the cache
    for bad, error in ((True, TypeError), (3.0, TypeError), (4, ValueError), (MAX_MODULUS + 1, ValueError)):
        with pytest.raises(error):
            prime_field(bad)


@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_matches_factor_search(n):
    naive = n >= 2 and all(n % f for f in range(2, min(n, 1000)) if f * f <= n)
    assert is_prime(n) == naive
