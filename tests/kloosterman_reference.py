"""Definition-level reference for the Kloosterman sums of the Rademacher series.

    K_c(n) = sum over d mod c, gcd(d, c) = 1, of e(n d/c - 3 s(d, c)/2 - c d/m)

with m = n_g h_g and s(d, c) the classical Dedekind sum, taken term by
term over every coprime d.  moonmod evaluates K_c(n) in its Selberg form
only; this module shares no code with it, so the tests can judge that
form against the definition.  It holds three things: the exact Dedekind
sum, the full-range K_c(n) (in mpmath, and in float64 over many grades),
and the full-range exact zero test of Re K_c(n).
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np


def dedekind_sum(d: int, c: int) -> Fraction:
    """Exact classical Dedekind sum s(d, c) by the reciprocity recursion.

    s(d, c) = -1/4 + (d^2 + c^2 + 1)/(12 d c) - s(c mod d, d), accumulated
    over one growing integer denominator and reduced once at the end.
    Requires c >= 1 and gcd(d, c) = 1; d is reduced mod c first.
    """
    if c <= 0:
        raise ValueError("dedekind_sum requires c >= 1")
    d %= c
    if math.gcd(d, c) != 1:
        raise ValueError(f"dedekind_sum requires gcd(d, c) = 1, got d={d}, c={c}")
    num, den, sign = 0, 1, 1
    while c > 1:
        t = 12 * d * c
        num = num * t + sign * (d * d + c * c + 1 - 3 * d * c) * den
        den *= t
        sign = -sign
        c, d = d, c % d
    return Fraction(num, den)


@functools.cache
def _phase_line(c: int, ng: int, hg: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(base, at0, step): the phase of d is (at0 + n step) / base mod 1,
    one entry per d mod c coprime to c, in increasing d."""
    m = ng * hg
    base = (12 * c // math.gcd(12 * c, m)) * m  # a multiple of 4c and of m
    at0, step = [], []
    for d in range(c):
        if math.gcd(d, c) != 1:
            continue
        six_c_s = 6 * c * dedekind_sum(d, c)
        assert six_c_s.denominator == 1
        # -3 s/2 = -(6 c s) / (4 c)
        at0.append(-(base // (4 * c)) * int(six_c_s) - (base // m) * c * d)
        step.append((base // c) * d)
    return base, tuple(at0), tuple(step)


def phases(n: int, c: int, ng: int, hg: int) -> tuple[int, list[int]]:
    """(base, nums): the terms of K_c(n) are e(num / base), one num in
    [0, base) per d mod c coprime to c, in increasing d."""
    base, at0, step = _phase_line(c, ng, hg)
    return base, [(a + n * s) % base for a, s in zip(at0, step)]


def kloosterman(n: int, c: int, ng: int, hg: int, digits: int = 80) -> mpmath.mpc:
    """K_c(n) over every coprime d, each term e(num/base) to digits decimal digits."""
    base, nums = phases(n, c, ng, hg)
    with mpmath.workdps(digits):
        return mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * num) / base) for num in nums)


def kloosterman_floats(grades, c: int, ng: int, hg: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im): K_c(n) over every coprime d in float64, one entry per n in grades."""
    base, at0, step = _phase_line(c, ng, hg)
    n = np.array(grades, dtype=np.int64)[:, None] % base
    nums = (np.array(at0, dtype=np.int64) % base + n * np.array(step, dtype=np.int64)) % base
    ang = 2 * math.pi * (nums / base)
    return np.cos(ang).sum(axis=1), np.sin(ang).sum(axis=1)


def re_kloosterman_is_zero(n: int, c: int, ng: int, hg: int) -> bool:
    """Whether Re K_c(n) vanishes exactly, decided over every coprime d.

    2 Re K_c(n) = P(z) with P(z) = sum of z^num + z^(-num) over the phase
    numerators and z = e(1/base): an algebraic integer of Q(z).  Its
    Galois conjugates are P(z^t), t coprime to base, and one discrete
    Fourier transform of P's coefficients gives them all.  If P(z) = 0
    every conjugate is 0, up to rounding far below 1/2; otherwise their
    product, the norm, is a nonzero integer, so some conjugate has
    modulus at least 1.
    """
    base, nums = phases(n, c, ng, hg)
    coeffs = np.zeros(base)
    np.add.at(coeffs, nums, 1.0)
    np.add.at(coeffs, [-a % base for a in nums], 1.0)
    conj = np.abs(np.fft.fft(coeffs))
    units = [t for t in range(base) if math.gcd(t, base) == 1]
    return bool(conj[units].max() < 0.5)
