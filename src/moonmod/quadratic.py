r"""Exact arithmetic for quadratic-irrational character values.

Character values are stored as triples (a, b, d) denoting (a + b*sqrt(d))/2
with d squarefree (negative d means b*i*sqrt(|d|)).  Sums of products of
such values live in a compositum of quadratic fields; callers keep them as
integer numerators keyed by squarefree radicand s (s = 1 is the rational
part), and mul_roots says where the product of two roots lands.
"""

from __future__ import annotations

import functools


def squarefree_decompose(m: int) -> tuple[int, int]:
    """m = k^2 * s with s squarefree; returns (k, s).  Requires m >= 1."""
    if m < 1:
        raise ValueError("positive argument required")
    k, s, f = 1, 1, 2
    while f * f <= m:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        k *= f ** (e // 2)
        if e % 2:
            s *= f
        f += 1
    return k, s * m


def is_squarefree(d: int) -> bool:
    if d == 0:
        return False
    return squarefree_decompose(abs(d))[0] == 1


class QuadraticValue:
    """(a + b*sqrt(d))/2 with a, b integers and d squarefree; a value, never
    changed after it is made (it is hashed)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int = 1) -> None:
        if not is_squarefree(d):
            raise ValueError(f"d = {d} is not squarefree")
        if d == 1 and b != 0:
            raise ValueError("d = 1 requires b = 0")
        if b == 0 and d != 1:
            raise ValueError("b = 0 requires d = 1")
        self.a = a
        self.b = b
        self.d = d

    def __eq__(self, other):
        if type(other) is not QuadraticValue:
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"QuadraticValue(a={self.a!r}, b={self.b!r}, d={self.d!r})"

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadraticValue":
        """Complex conjugate; the identity on real (d > 0) values."""
        if self.d < 0:
            return QuadraticValue(self.a, -self.b, self.d)
        return self


@functools.lru_cache(maxsize=None)
def mul_roots(s1: int, s2: int) -> tuple[int, int]:
    """sqrt(s1)*sqrt(s2) = coeff * sqrt(s); returns (coeff, s)."""
    if s1 == s2:
        return s1, 1
    sign = -1 if (s1 < 0 and s2 < 0) else 1
    prod = abs(s1 * s2)
    k, sf = squarefree_decompose(prod)
    if (s1 < 0) != (s2 < 0):
        sf = -sf
    return sign * k, sf
