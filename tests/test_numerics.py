"""Brute-force oracles for the reference Dedekind sum of
tests/kloosterman_reference.py."""

import math
import random
from fractions import Fraction

import pytest

from kloosterman_reference import dedekind_sum


def sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_classical_oracle(d: int, c: int) -> Fraction:
    return sum((sawtooth(Fraction(m, c)) * sawtooth(Fraction(m * d, c))
                for m in range(1, c)), Fraction(0))


@pytest.mark.parametrize("c", [1, 2, 3, 5, 7, 12, 25, 60, 101])
def test_classical_matches_bruteforce(c):
    for d in range(c):
        if math.gcd(d, c) != 1:
            continue
        assert dedekind_sum(d, c) == dedekind_classical_oracle(d, c)


def test_reciprocity():
    # s(d,c) + s(c,d) = -1/4 + (d/c + c/d + 1/(cd))/12 for coprime d, c.
    rng = random.Random(7)
    for _ in range(100):
        c = rng.randrange(2, 200)
        d = rng.randrange(1, c)
        if math.gcd(d, c) != 1:
            continue
        lhs = dedekind_sum(d, c) + dedekind_sum(c, d)
        rhs = Fraction(-1, 4) + (Fraction(d, c) + Fraction(c, d)
                                 + Fraction(1, c * d)) / 12
        assert lhs == rhs


def test_denominator_divides_6c_squared():
    for c in (2, 3, 5, 12, 35):
        for d in range(1, c):
            if math.gcd(d, c) != 1:
                continue
            assert (6 * c * c * dedekind_sum(d, c)).denominator == 1


def test_dedekind_domain_errors():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)
