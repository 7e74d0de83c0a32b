r"""Grade decomposition into irreducible multiplicities.

Each homogeneous subspace at grade n is a virtual character determined by
the per-class coefficients c_g(n); orthogonality gives

    m_i(n) = (1/|G|) sum_{[g]} |[g]| conj(chi_i(g)) c_g(n).

Coefficients are exact integers and character values (a + b sqrt(d))/2
with integer a, b, so twice the sum has integer numerators: one per irrep
for the rational part and one per radicand d of its values for the
sqrt(d) part, all from one CharacterTable.twice_sums call.  Every
irrational numerator must vanish and the rational one must be divisible
by 2|G|, with no tolerance.  Negative multiplicities at n >= 1 are an
error signal, not a warning.  Shares and deviations are
int/int divisions, each rounded once.
"""

from __future__ import annotations

from .chartab import CharacterTable, MoonmodError


class DecompositionError(MoonmodError):
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


class MultiplicityVector:
    """Exact multiplicities at one grade, parallel to the table's irreps."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: tuple[int, ...]) -> None:
        self.n = n
        self.m = m


def _coeff_lookup(coeffs, class_name: str, n: int) -> int:
    if hasattr(coeffs, "value"):
        return int(coeffs.value(class_name, n))
    return int(coeffs[class_name])


def multiplicities(table: CharacterTable, n: int, coeffs) -> MultiplicityVector:
    """Decompose grade n given per-class coefficients.

    coeffs is either a mapping from class name to the integer c_g(n) or a
    provider object with a value(class_name, n) method.  Twice each sum is
    CharacterTable.twice_sums of the coefficients; irrep by irrep, a
    nonzero sqrt(d) numerator, a remainder, then a negative multiplicity is
    refused.  Without the conjugation: the rational part is the same, and
    the irrational part vanishes exactly when the conjugated one does.
    """
    twice, roots = table.twice_sums([_coeff_lookup(coeffs, c.name, n) for c in table.classes])
    scale = 2 * table.group_order
    ms = []
    for i, (chi, t) in enumerate(zip(table.irreps, twice)):
        if i in roots:
            raise NonIntegral(n, chi.name, f"irrational numerators {roots[i]} over {scale}")
        m, rem = divmod(t, scale)
        if rem:
            from fractions import Fraction

            raise NonIntegral(n, chi.name, f"raw value {Fraction(t, scale)} is not an integer")
        if n >= 1 and m < 0:
            raise NegativeMultiplicity(n, chi.name, m)
        ms.append(m)
    return MultiplicityVector(n, tuple(ms))


class RatioProfile:
    """Observed multiplicity shares at grade n against the dimension limits.

    observed and limits are floats, each share one int/int division, so
    each is the float nearest to the exact share; so is max_deviation.
    """

    __slots__ = ("n", "observed", "limits", "max_deviation", "mv")

    def __init__(self, n: int, observed: tuple[float, ...], limits: tuple[float, ...],
                 max_deviation: float, mv: MultiplicityVector) -> None:
        self.n = n
        self.observed = observed
        self.limits = limits
        self.max_deviation = max_deviation
        self.mv = mv


def ratio_profile(table: CharacterTable, n_list, coeff_provider) -> list[RatioProfile]:
    """Per-grade multiplicity shares m_i/sum m_j against dim chi_i/sum dims."""
    dims = [chi.dim for chi in table.irreps]
    total_dim = sum(dims)
    limits = tuple(d / total_dim for d in dims)
    out = []
    for n in n_list:
        if n < 1:
            raise ValueError("ratio profiles require n >= 1")
        mv = multiplicities(table, n, coeff_provider)
        total = sum(mv.m)
        if total <= 0:
            raise DecompositionError(f"grade n={n} has nonpositive total multiplicity {total}")
        obs = tuple(mi / total for mi in mv.m)
        # |m_i/total - dim_i/total_dim| over one common denominator; the
        # division is monotone, so the largest numerator gives the maximum.
        dev = max(abs(mi * total_dim - d * total) for mi, d in zip(mv.m, dims)) \
            / (total * total_dim)
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
