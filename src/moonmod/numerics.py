r"""Exact and high-precision numerical primitives.

Provides the unit-circle exponential e(x) = exp(2*pi*i*x), the half-integer
Bessel function I_{1/2}, and Dedekind sums in two variants: the classical
sawtooth form entering the eta multiplier system, and a literal form built
from omega(x) = floor(x) - 1/2.  Which variant the coefficient engine uses
is decided downstream by an integrality gate; both are exact rationals here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import mpmath


class DedekindMode(Enum):
    """Variant of the Dedekind sum s(d, c).

    Classical:    s(d,c) = sum_{m=1}^{c-1} ((m/c)) ((m d/c)) with ((x)) the
                  sawtooth x - floor(x) - 1/2 (0 at integers).
    OmegaFloor: s(d,c) = sum_{m=1}^{c-1} (m/c) omega(m d/c) with
                  omega(x) = floor(x) - 1/2 (0 at integers).
    """

    Classical = "classical"
    OmegaFloor = "omega-floor"


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits."""

    working_precision: int = 80

    def __post_init__(self) -> None:
        if self.working_precision < 30:
            raise ValueError("working_precision must be at least 30")


DEFAULT_CONTEXT = PrecisionContext()


def unit_exp(x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpc:
    """e(x) = exp(2 pi i x), with the argument reduced mod 1 first.

    Accepts Fraction, int, float or mpf.  Rational arguments are reduced
    exactly, so e(x + 1) == e(x) at the representation level.
    """
    if isinstance(x, (int, Fraction)):
        frac = Fraction(x) % 1
        with mpmath.workdps(ctx.working_precision):
            if frac == 0:
                return mpmath.mpc(1)
            if 2 * frac == 1:
                return mpmath.mpc(-1)
            arg = mpmath.mpf(frac.numerator) / frac.denominator
            return mpmath.expjpi(2 * arg)
    xf = mpmath.mpf(x)
    if not mpmath.isfinite(xf):
        raise ValueError("unit_exp requires a finite argument")
    with mpmath.workdps(ctx.working_precision):
        return mpmath.expjpi(2 * (xf - mpmath.floor(xf)))


def bessel_i_half(x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpf:
    """I_{1/2}(x) = sqrt(2/(pi x)) * sinh(x) for x > 0."""
    with mpmath.workdps(ctx.working_precision):
        xf = mpmath.mpf(x)
        if not mpmath.isfinite(xf) or xf <= 0:
            raise ValueError("bessel_i_half requires x > 0")
        return mpmath.sqrt(2 / (mpmath.pi * xf)) * mpmath.sinh(xf)


def _dedekind_classical(d: int, c: int) -> Fraction:
    # Reciprocity recursion; O(log c), exact.
    s = Fraction(0)
    sign = 1
    while c > 1:
        d %= c
        if d == 0:
            break
        # s(d,c) = -1/4 + (d^2 + c^2 + 1)/(12 d c) - s(c mod d, d)
        s += sign * (Fraction(-1, 4) + Fraction(d * d + c * c + 1, 12 * d * c))
        sign = -sign
        c, d = d, c % d
    return s


def dedekind_sum(d: int, c: int, mode: DedekindMode = DedekindMode.Classical) -> Fraction:
    """Exact Dedekind sum s(d, c) in the requested variant.

    Requires c >= 1 and gcd(d, c) = 1; d is reduced mod c first.
    """
    if c <= 0:
        raise ValueError("dedekind_sum requires c >= 1")
    d %= c
    if math.gcd(d, c) != 1:
        raise ValueError(f"dedekind_sum requires gcd(d, c) = 1, got d={d}, c={c}")
    if c == 1:
        return Fraction(0)
    s_cl = _dedekind_classical(d, c)
    if mode is DedekindMode.Classical:
        return s_cl
    # Literal omega form.  With omega(x) = ((x)) + floor-correction terms,
    # sum_m (m/c) omega(m d/c) = d(c-1)(2c-1)/(6c) - s_cl - (c-1)/2.
    return Fraction(d * (c - 1) * (2 * c - 1), 6 * c) - s_cl - Fraction(c - 1, 2)
