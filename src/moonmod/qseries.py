r"""Exact M24 twining-function coefficients from their q-series.

Each class g of M24 has the mock modular form

    H_g = chi(g)/24 H - T_g / eta^3,   H = (-2 E2 + 48 F2) / eta^3,

with F2 = sum_{r>s>0, r-s odd} (-1)^r s q^(rs/2), chi the character of the
24-point permutation representation and T_g a weight-2 form on
Gamma_0(n_g h_g): a combination of Lam_N = (N/24)(N E2(N tau) - E2(tau))
and eta quotients [a^k b^l ..] = prod eta(a tau)^k (FORMS below).  The
coefficient of q^(k-1/8) in H_g is c_g(k) for k >= 1; that of q^(-1/8),
-2, is the polar grade n = -1.  References: Eguchi-Ooguri-Tachikawa
(arXiv:1004.0956), Cheng (arXiv:1005.5415), Gaberdiel-Hohenegger-Volpato
(arXiv:1006.0221, 1008.3778), Eguchi-Hikami (arXiv:1008.4924),
Cheng-Duncan (arXiv:1110.3859).

Everything runs in Python integers over the common scale D = 15840, which
clears every denominator of the block (24 times 3, 4, 5 and 11) and is
divided out exactly at the end: the numerator D eta^3 H_g is one series of
integers per distinct form, then one division by prod (1 - q^n)^3, read
sparsely from Jacobi's identity, sum (-1)^k (2k+1) q^(k(k+1)/2).  An eta
power prod (1 - q^(an))^k is built from a shorter one, memoised, by one
sparse multiply or divide: by Jacobi's series for three factors, Euler's
pentagonal series sum (-1)^m q^(m(3m-1)/2) for one.  One divisor-sum sieve
serves every E2(N tau).  A QSeriesOracle computes the series once, up to
the largest grade its command asks for.  Nothing here imports the
coefficient engine, the store, numpy or mpmath.

A twining function is fixed by its level (n_g, h_g), as is the series the
engine sums for it: the oracle serves each class by the class of M24
that chartab.m24_classes names, as the engine does.  The engine stays
the method under test of coeff, cache and the packaged store; decompose,
filtrate --n and asympt read their values here.  Tier-1 checks this
module against every packaged record, through each class's Sturm bound.
"""

from __future__ import annotations

import math
from operator import add

from .chartab import CharacterTable, UnknownClassError, m24_classes

# The scale of every integer series: 24 * lcm(3, 4, 5, 11).
D = 15840

# chi(g), the number of points of {1..24} that g fixes; 0 where not named.
CHI = {"1A": 24, "2A": 8, "3A": 6, "4B": 4, "5A": 4, "6A": 2, "7A": 3,
       "7B": 3, "8A": 2, "11A": 2, "14A": 1, "14B": 1, "15A": 1, "15B": 1,
       "23A": 1, "23B": 1}

# T_g as terms (p, q, form), the form times p/q: ("L", N) is Lam_N,
# ("eta", ((a, k), ..)) the eta quotient prod eta(a tau)^k, and
# ("theta23",) is [1 23] (2 theta_{1,1,6} - theta_{2,1,3}), theta_{a,b,c}
# = sum over x, y in Z of q^(a x^2 + b x y + c y^2).  Classes with one key
# share their form.
FORMS = {
    ("1A",): (),
    ("2A",): ((16, 1, ("L", 2)),),
    ("3A",): ((6, 1, ("L", 3)),),
    ("5A",): ((2, 1, ("L", 5)),),
    ("7A", "7B"): ((1, 1, ("L", 7)),),
    ("4B",): ((4, 1, ("L", 4)), (-4, 1, ("L", 2))),
    ("6A",): ((2, 1, ("L", 6)), (-2, 1, ("L", 2)), (-2, 1, ("L", 3))),
    ("8A",): ((1, 1, ("L", 8)), (-1, 1, ("L", 4))),
    ("11A",): ((2, 5, ("L", 11)), (-22, 5, ("eta", ((1, 2), (11, 2))))),
    ("14A", "14B"): ((1, 3, ("L", 14)), (-1, 3, ("L", 7)), (-1, 3, ("L", 2)),
                     (-14, 3, ("eta", ((1, 1), (2, 1), (7, 1), (14, 1))))),
    ("15A", "15B"): ((1, 4, ("L", 15)), (-1, 4, ("L", 5)), (-1, 4, ("L", 3)),
                     (-15, 4, ("eta", ((1, 1), (3, 1), (5, 1), (15, 1))))),
    ("23A", "23B"): ((1, 11, ("L", 23)), (-23, 11, ("theta23",))),
    ("2B",): ((2, 1, ("eta", ((1, 8), (2, -4)))),),
    ("3B",): ((2, 1, ("eta", ((1, 6), (3, -2)))),),
    ("4A",): ((2, 1, ("eta", ((2, 8), (4, -4)))),),
    ("4C",): ((2, 1, ("eta", ((1, 4), (2, 2), (4, -2)))),),
    ("6B",): ((2, 1, ("eta", ((1, 2), (2, 2), (3, 2), (6, -2)))),),
    ("10A",): ((2, 1, ("eta", ((1, 3), (2, 1), (5, 1), (10, -1)))),),
    ("12A",): ((2, 1, ("eta", ((1, 3), (2, -1), (3, -1), (4, 2), (6, 3), (12, -2)))),),
    ("12B",): ((2, 1, ("eta", ((1, 4), (2, -1), (4, 1), (6, 1), (12, -1)))),),
    ("21A", "21B"): ((7, 3, ("eta", ((1, 3), (3, -1), (7, 3), (21, -1)))),
                     (-1, 3, ("eta", ((1, 6), (3, -2))))),
}


def _sparse(terms, top: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of a series, exponent 0 first, up to top."""
    return sorted((e, c) for e, c in terms if e <= top)


def _pentagonal(top: int) -> list[tuple[int, int]]:
    """Euler: prod (1 - q^n) = sum over m in Z of (-1)^m q^(m(3m-1)/2)."""
    r = math.isqrt(2 * top // 3 + 1) + 1
    return _sparse((((3 * m - 1) * m // 2, -1 if m & 1 else 1) for m in range(-r, r + 1)), top)


def _jacobi(top: int) -> list[tuple[int, int]]:
    """Jacobi: prod (1 - q^n)^3 = sum over k >= 0 of (-1)^k (2k+1) q^(k(k+1)/2)."""
    return _sparse(((k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1)
                    for k in range(math.isqrt(2 * top) + 1)), top)


def _times(s: list[int], factor, a: int) -> list[int]:
    """s times the sparse series factor in q^a, truncated to len(s)."""
    out = s[:]
    for e, c in factor[1:]:
        shift = a * e
        if shift >= len(s):
            break
        out[shift:] = map(add, out[shift:], [c * x for x in s[:len(s) - shift]])
    return out


def _over(s: list[int], factor, a: int) -> list[int]:
    """s divided by the sparse series factor in q^a, whose constant is 1."""
    out = s[:]
    terms = [(a * e, c) for e, c in factor[1:] if a * e < len(s)]
    for i in range(len(s)):
        acc = out[i]
        for shift, c in terms:
            if shift > i:
                break
            acc -= c * out[i - shift]
        out[i] = acc
    return out


def _stride(k: int) -> int:
    """The step from eta power k toward 0: 3 (Jacobi) while |k| >= 3, else 1,
    in the sign of k."""
    return (3 if abs(k) >= 3 else 1) * (1 if k > 0 else -1)


class _Block:
    """The series of the formula block to q^top, the eta powers memoised."""

    def __init__(self, top: int):
        self.top = top
        self.pent, self.jac = _pentagonal(top), _jacobi(top)
        sigma = [0] * (top + 1)
        for d in range(1, top + 1):
            for m in range(d, top + 1, d):
                sigma[m] += d
        self.sigma = sigma
        self.powers: dict[tuple[int, int], list[int]] = {}

    def lam24(self, N: int) -> list[int]:
        """24 Lam_N = N (N E2(N tau) - E2(tau)), E2 = 1 - 24 sum sigma(n) q^n."""
        sigma = self.sigma
        out = [24 * N * s for s in sigma]
        out[0] = N * (N - 1)
        for j in range(1, self.top // N + 1):
            out[N * j] -= 24 * N * N * sigma[j]
        return out

    def f2(self) -> list[int]:
        """48 F2 - 2 E2, the numerator eta^3 H."""
        top = self.top
        out = [48 * s for s in self.sigma]
        out[0] = -2
        for s in range(1, math.isqrt(2 * top) + 1):
            for r in range(s + 1, 2 * top // s + 1, 2):
                out[r * s // 2] += 48 * (-s if r & 1 else s)
        return out

    def _times_eta(self, s: list[int], a: int, j: int) -> list[int]:
        """s times prod (1 - q^(an))^j, j = +-3 by Jacobi's series or +-1 by
        Euler's."""
        factor = self.jac if abs(j) == 3 else self.pent
        return _times(s, factor, a) if j > 0 else _over(s, factor, a)

    def power(self, a: int, k: int) -> list[int]:
        """prod (1 - q^(an))^k, memoised, from the power 3 or 1 nearer 0."""
        key = (a, k)
        if key not in self.powers:
            if k == 0:
                self.powers[key] = [1] + [0] * self.top
            else:
                j = _stride(k)
                self.powers[key] = self._times_eta(self.power(a, k - j), a, j)
        return self.powers[key]

    def eta(self, factors) -> list[int]:
        """The eta quotient prod eta(a tau)^k: the memoised power of its first
        factor, times or over the others sparsely, shifted by its q-order."""
        order, rem = divmod(sum(a * k for a, k in factors), 24)
        if rem or order < 0:
            raise ValueError(f"eta quotient {factors} has q-order not in N")
        (a, k), *rest = factors
        out = self.power(a, k)
        for a, k in rest:
            while k:
                j = _stride(k)
                out, k = self._times_eta(out, a, j), k - j
        return [0] * order + out[:len(out) - order]

    def theta23(self) -> list[int]:
        """[1 23] (2 theta_{1,1,6} - theta_{2,1,3})."""
        top = self.top
        theta = [0] * top
        for (a, b, c), w in (((1, 1, 6), 2), ((2, 1, 3), -1)):
            # a x^2 + b x y + c y^2 >= 23 y^2 / (4a) and >= 23 x^2 / (4c).
            ry, rx = math.isqrt(4 * a * top // 23), math.isqrt(4 * c * top // 23)
            for y in range(-ry, ry + 1):
                for x in range(-rx, rx + 1):
                    m = a * x * x + b * x * y + c * y * y
                    if m < top:
                        theta[m] += w
        return [0] + _times(_times(theta, self.pent, 1), self.pent, 23)

    def form(self, form) -> list[int]:
        """A form of FORMS, times 24 for Lam_N."""
        kind = form[0]
        if kind == "L":
            return self.lam24(form[1])
        if kind == "eta":
            return self.eta(form[1])
        return self.theta23()


def coefficients(top: int) -> dict[str, list[int]]:
    """c_g(k) for k = 0..top per class, entry 0 being the polar coefficient
    -2 (grade n = -1)."""
    block = _Block(top)
    numerator = block.f2()
    out = {}
    for names, terms in FORMS.items():
        # D eta^3 H_g = (D chi/24) eta^3 H - D T_g, Lam_N read as 24 Lam_N.
        s = [CHI.get(names[0], 0) * (D // 24) * x for x in numerator]
        for p, q, form in terms:
            w = D * p // (q * 24 if form[0] == "L" else q)
            s = list(map(add, s, [-w * x for x in block.form(form)]))
        coeffs = []
        for x in _over(s, block.jac, 1):
            c, rem = divmod(x, D)
            if rem:
                raise ArithmeticError(f"class {names[0]}: {x} is not divisible by D = {D}")
            coeffs.append(c)
        for name in names:
            out[name] = coeffs
    return out


class QSeriesOracle:
    """Coefficient provider for any table at levels of M24 (m24_classes),
    with RademacherEngine.value's contract: grades -1 and 0 are definitions,
    a grade below -1 raises ValueError, an unknown class UnknownClassError.
    The series run once, at the first grade above 0 asked for, to that grade
    or top if larger, and again only for a grade beyond."""

    def __init__(self, table: CharacterTable, top: int = 0):
        self._names = m24_classes(table)
        self._top = top
        self._series: dict[str, list[int]] = {}

    def value(self, class_name: str, n: int) -> int:
        """c_g(n) for the class of M24 that serves class_name."""
        name = self._names.get(class_name)
        if name is None:
            raise UnknownClassError(class_name)
        if n < -1:
            raise ValueError("n must be at least -1")
        if n < 1:
            return -2 if n else 0
        if not self._series or n >= len(self._series[name]):
            self._series = coefficients(max(n, self._top))
        return self._series[name][n]
