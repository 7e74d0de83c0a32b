r"""Exact and high-precision numerical primitives.

Provides the unit-circle exponential e(x) = exp(2*pi*i*x), the half-integer
Bessel function I_{1/2}, and the classical Dedekind sum of the eta
multiplier system as an exact rational.  The two mpmath functions take a
plain count of decimal digits, WORKING_DIGITS unless the caller needs
more: the Rademacher head derives its count from the grade.
dedekind_six_c and the exact phase numerators of K_c(n), over every d,
define the Kloosterman sum term by term; the filtration reads its
leading-term signs from them.  kloosterman_sum is the plain-Python
reference of moonmod.kernels, one root at a time of the sum's Selberg
form.  mpmath is imported inside the two functions that use it, and
fractions inside the two that take or return a Fraction.
"""

from __future__ import annotations

import math

# Decimal digits of the mpmath evaluations when the caller names none.
WORKING_DIGITS = 80


def unit_exp(x, digits: int = WORKING_DIGITS) -> mpmath.mpc:
    """e(x) = exp(2 pi i x) to digits decimal digits, x reduced mod 1 first.

    Accepts Fraction, int, float or mpf.  Rational arguments are reduced
    exactly, so e(x + 1) == e(x) at the representation level.
    """
    from fractions import Fraction

    import mpmath

    if isinstance(x, (int, Fraction)):
        frac = Fraction(x) % 1
        with mpmath.workdps(digits):
            if frac == 0:
                return mpmath.mpc(1)
            if 2 * frac == 1:
                return mpmath.mpc(-1)
            arg = mpmath.mpf(frac.numerator) / frac.denominator
            return mpmath.expjpi(2 * arg)
    xf = mpmath.mpf(x)
    if not mpmath.isfinite(xf):
        raise ValueError("unit_exp requires a finite argument")
    with mpmath.workdps(digits):
        return mpmath.expjpi(2 * (xf - mpmath.floor(xf)))


def bessel_i_half(x, digits: int = WORKING_DIGITS) -> mpmath.mpf:
    """I_{1/2}(x) = sqrt(2/(pi x)) * sinh(x) for x > 0, to digits decimal digits."""
    import mpmath

    with mpmath.workdps(digits):
        xf = mpmath.mpf(x)
        if not mpmath.isfinite(xf) or xf <= 0:
            raise ValueError("bessel_i_half requires x > 0")
        return mpmath.sqrt(2 / (mpmath.pi * xf)) * mpmath.sinh(xf)


def dedekind_sum(d: int, c: int) -> Fraction:
    """Exact classical Dedekind sum s(d, c) by the reciprocity recursion, O(log c).

    Requires c >= 1 and gcd(d, c) = 1; d is reduced mod c first.
    """
    from fractions import Fraction

    if c <= 0:
        raise ValueError("dedekind_sum requires c >= 1")
    d %= c
    if math.gcd(d, c) != 1:
        raise ValueError(f"dedekind_sum requires gcd(d, c) = 1, got d={d}, c={c}")
    s = Fraction(0)
    sign = 1
    while c > 1:
        # s(d,c) = -1/4 + (d^2 + c^2 + 1)/(12 d c) - s(c mod d, d)
        s += sign * (Fraction(-1, 4) + Fraction(d * d + c * c + 1, 12 * d * c))
        sign = -sign
        c, d = d, c % d
    return s


NOT_COPRIME = -(1 << 62)


def dedekind_six_c(d: int, c: int) -> int:
    """6*c*s(d, c) classical, or NOT_COPRIME when gcd(d, c) > 1."""
    c0 = c
    s = 0.0
    sign = 1.0
    while c > 1:
        d %= c
        if d == 0:
            return NOT_COPRIME
        s += sign * (-0.25 + (d * d + c * c + 1) / (12.0 * d * c))
        sign = -sign
        c, d = d, c % d
    return int(round(6.0 * c0 * s))


def _phase_numerators(n: int, c: int, ng: int, hg: int) -> tuple[int, list[int]]:
    """(base, nums): the terms of K_c(n) are e(num / base), one num in
    [0, base) per d mod c coprime to c, in increasing d."""
    m = ng * hg
    base = (12 * c // math.gcd(12 * c, m)) * m
    nums = []
    for d in range(c):
        s6c = dedekind_six_c(d, c)
        if s6c == NOT_COPRIME:
            continue
        # theta = n*d/c - s6c/(4*c) - c*d/m over denominator base (a multiple
        # of both 4*c and m by construction)
        num = (base // c) * n * d - (base // (4 * c)) * s6c - (base // m) * c * d
        nums.append(num % base)
    return base, nums


def kloosterman_sum(n: int, c: int, ng: int, hg: int) -> float:
    """Sum over d coprime to c of e(n d/c - 3 s(d,c)/2 - c d/(ng hg)).

    Summed as moonmod.kernels does it, by the Selberg form
    sqrt(c) * sum (-1)^j sin(pi (2j+1)/(2c)) over the j < c with
    j(j+1)/2 = c^2/(ng hg) - n mod c, in increasing j.  The sum is exactly
    real.  Raises ValueError unless ng | c and ng*hg | c^2 (every multiple
    of ng when hg | ng): off that grid the form does not hold.
    """
    m = ng * hg
    if c < 1 or c % ng or c * c % m:
        raise ValueError(f"c = {c} is off the grid of n_g = {ng}, h_g = {hg}")
    r = (c * c // m - n) % c
    total = 0.0
    for j in range(c):
        if (j * (j + 1) >> 1) % c == r:
            s = math.sin(math.pi * (2 * j + 1) / (2 * c))
            total += -s if j & 1 else s
    return math.sqrt(c) * total
