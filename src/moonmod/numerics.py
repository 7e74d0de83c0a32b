r"""Exact and high-precision numerical primitives.

Provides the unit-circle exponential e(x) = exp(2*pi*i*x), the half-integer
Bessel function I_{1/2}, and the classical Dedekind sum of the eta
multiplier system as an exact rational.  The two mpmath functions take a
plain count of decimal digits, WORKING_DIGITS unless the caller needs
more: the Rademacher head derives its count from the grade.
dedekind_six_c, the exact phase numerators of K_c(n) and kloosterman_sum
are the plain-Python references of moonmod.kernels, one term at a time;
kloosterman_sum folds the half range d < c/2 as the kernel does, while
_phase_numerators lists every d.  The filtration reads its leading-term
signs from them.  mpmath is imported inside the two functions that use it.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Decimal digits of the mpmath evaluations when the caller names none.
WORKING_DIGITS = 80


def unit_exp(x, digits: int = WORKING_DIGITS) -> mpmath.mpc:
    """e(x) = exp(2 pi i x) to digits decimal digits, x reduced mod 1 first.

    Accepts Fraction, int, float or mpf.  Rational arguments are reduced
    exactly, so e(x + 1) == e(x) at the representation level.
    """
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


def kloosterman_sum(n: int, c: int, ng: int, hg: int) -> complex:
    """Sum over d coprime to c of e(n d/c - 3 s(d,c)/2 - c d/(ng hg)).

    Summed as moonmod.kernels does it: S over the coprime d < c/2 in
    increasing d, then folded by s(c-d, c) = -s(d, c) into
    S + e(-c^2/(ng hg)) * conj(S).  For c <= 2 every coprime d is its own
    partner and S is the whole sum.
    """
    base, nums = _phase_numerators(n, c, ng, hg)
    if c > 2:
        # Coprime d pair up as (d, c - d), so the first half are the d < c/2.
        nums = nums[:len(nums) // 2]
    total = 0j
    two_pi = 2.0 * math.pi
    for num in nums:
        ang = two_pi * (num / base)
        total += complex(math.cos(ang), math.sin(ang))
    if c <= 2:
        return total
    m = ng * hg
    rot = two_pi * ((-(c * c) % m) / m)
    cr, sr = math.cos(rot), math.sin(rot)
    a, b = total.real, total.imag
    return complex(a + (cr * a + sr * b), b + (sr * a - cr * b))
