"""Brute-force oracles for the Bessel factor and for the reference Dedekind
sum of tests/kloosterman_reference.py."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from kloosterman_reference import dedekind_sum
from moonmod.numerics import WORKING_DIGITS, bessel_i_half


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


def test_bessel_against_series():
    # I_{1/2}(x) = sum_k (x/2)^{2k+1/2} / (k! Gamma(k + 3/2)).
    for x in (0.1, 1.0, 5.0, 20.0):
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)
            series = sum(
                (xm / 2) ** (2 * k + mpmath.mpf(1) / 2)
                / (mpmath.factorial(k) * mpmath.gamma(k + mpmath.mpf(3) / 2))
                for k in range(60)
            )
            rel = abs(bessel_i_half(x, WORKING_DIGITS) - series) / series
            assert rel < mpmath.mpf(10) ** -45


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_i_half(0, WORKING_DIGITS)
    with pytest.raises(ValueError):
        bessel_i_half(-1.0, WORKING_DIGITS)
