"""Exact arithmetic in the prime field F_q and the additive character."""

from __future__ import annotations

from functools import cache

import numpy as np

#: Largest modulus the toolkit accepts; keeps trial division and the character
#: table cheap, and is far beyond desk-scale experiment sizes anyway.
MAX_MODULUS = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, exact for n <= MAX_MODULUS."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_modulus(q: int) -> None:
    """Raise TypeError unless q is an int, ValueError unless it is a prime <= MAX_MODULUS."""
    if isinstance(q, bool) or not isinstance(q, int):
        raise TypeError(f"modulus must be an int, got {type(q).__name__}")
    if q > MAX_MODULUS:
        raise ValueError(f"modulus {q} exceeds the supported cap {MAX_MODULUS}")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


class PrimeField:
    """The prime field F_q.

    Scalars are plain ints in [0, q).  Two read-only tables are built at
    construction: roots[a] is the additive character chi(a) = exp(2*pi*i*a/q),
    and inverse_table[a] is a^(-1) for a != 0.  Instances are immutable and
    safe to share.
    """

    __slots__ = ("q", "roots", "inverse_table")

    def __init__(self, q: int):
        check_modulus(q)
        self.q = q
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        roots.setflags(write=False)
        self.roots = roots
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = pow(a, q - 2, q)
        inv.setflags(write=False)
        self.inverse_table = inv

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


def prime_field(q: int) -> PrimeField:
    """The shared PrimeField(q), built once per modulus.

    Validates q on every call, so a bool or float that hashes like a cached
    int is still rejected.  Building a field costs an O(q) inverse loop,
    which callers that take a bare modulus would otherwise pay per call.
    """
    check_modulus(q)
    return _prime_field(q)


@cache
def _prime_field(q: int) -> PrimeField:
    return PrimeField(q)
