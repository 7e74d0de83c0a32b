r"""Grade decomposition into irreducible multiplicities.

Each homogeneous subspace at grade n is a virtual character determined by
the per-class coefficients c_g(n); orthogonality gives

    m_i(n) = (1/|G|) sum_{[g]} |[g]| conj(chi_i(g)) c_g(n).

Coefficients are exact integers and character values (a + b sqrt(d))/2
with integer a, b, so twice the sum is kept as integer numerators keyed by
radicand: every irrational numerator must vanish and the rational one must
be divisible by 2|G|, with no tolerance.  Negative multiplicities at
n >= 1 are an error signal, not a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartab import CharacterTable, class_sums


class DecompositionError(Exception):
    """Base class for decomposition failures."""


class NonIntegral(DecompositionError):
    def __init__(self, n: int, irrep_name: str, detail: str):
        super().__init__(f"multiplicity of {irrep_name} at n={n} is not integral: {detail}")
        self.n = n
        self.irrep_name = irrep_name


class NegativeMultiplicity(DecompositionError):
    def __init__(self, n: int, irrep_name: str, value: int):
        super().__init__(f"multiplicity of {irrep_name} at n={n} is negative: {value}")
        self.n = n
        self.irrep_name = irrep_name
        self.value = value


@dataclass(frozen=True)
class MultiplicityVector:
    """Exact multiplicities at one grade, parallel to the table's irreps."""

    n: int
    m: tuple[int, ...]

    def __iter__(self):
        return iter(self.m)


def _coeff_lookup(coeffs, class_name: str, n: int) -> int:
    if hasattr(coeffs, "value"):
        return int(coeffs.value(class_name, n))
    return int(coeffs[class_name])


def multiplicities(table: CharacterTable, n: int, coeffs) -> MultiplicityVector:
    """Decompose grade n given per-class coefficients.

    coeffs is either a mapping from class name to the integer c_g(n) or a
    provider object with a value(class_name, n) method.
    """
    values = [_coeff_lookup(coeffs, c.name, n) for c in table.classes]
    # Without the conjugation: the rational part is the same, and the
    # irrational part vanishes exactly when the conjugated one does.
    sums = class_sums(table, [c.size * v for c, v in zip(table.classes, values)])
    scale = 2 * table.group_order
    ms = []
    for chi, twice in zip(table.irreps, sums):
        irrational = {d: t for d, t in twice.items() if d != 1}
        if irrational:
            raise NonIntegral(n, chi.name,
                              f"irrational numerators {irrational} over {scale}")
        m, rem = divmod(twice.get(1, 0), scale)
        if rem:
            raise NonIntegral(n, chi.name,
                              f"raw value {Fraction(twice[1], scale)} is not an integer")
        if n >= 1 and m < 0:
            raise NegativeMultiplicity(n, chi.name, m)
        ms.append(m)
    return MultiplicityVector(n, tuple(ms))


@dataclass(frozen=True)
class RatioProfile:
    """Observed multiplicity shares at grade n against the dimension limits."""

    n: int
    observed: tuple[Fraction, ...]
    limits: tuple[Fraction, ...]
    max_deviation: float
    mv: MultiplicityVector


def dimension_limits(table: CharacterTable) -> tuple[Fraction, ...]:
    total = sum(chi.dim for chi in table.irreps)
    return tuple(Fraction(chi.dim, total) for chi in table.irreps)


def ratio_profile(table: CharacterTable, n_list, coeff_provider) -> list[RatioProfile]:
    """Per-grade multiplicity shares m_i/sum m_j against dim chi_i/sum dims."""
    limits = dimension_limits(table)
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError("ratio profiles require n >= 1")
        mv = multiplicities(table, n, coeff_provider)
        total = sum(mv.m)
        if total <= 0:
            raise DecompositionError(f"grade n={n} has nonpositive total multiplicity {total}")
        obs = tuple(Fraction(mi, total) for mi in mv.m)
        dev = max(abs(float(o - l)) for o, l in zip(obs, limits))
        out.append(RatioProfile(n, obs, limits, dev, mv))
    return out


def free_part_split(mv: MultiplicityVector, table: CharacterTable
                    ) -> tuple[int, MultiplicityVector]:
    """Peel off the maximal free part: r1 copies of the regular representation.

    Returns (r1, nonfree) with nonfree.m_i = m_i - r1 * dim chi_i and r1 the
    largest integer keeping every entry nonnegative.
    """
    r1 = min(mv.m[i] // chi.dim for i, chi in enumerate(table.irreps))
    rest = tuple(mv.m[i] - r1 * chi.dim for i, chi in enumerate(table.irreps))
    return r1, MultiplicityVector(mv.n, rest)

