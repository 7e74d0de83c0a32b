r"""Recursive regular-representation filtration and the induced partial order.

Each graded multiplicity vector is peeled greedily: level 1 subtracts as
many copies of the regular representation as fit, then each subsequent
level builds a direction vector from weighted character sums over the
classes of the next element order (weighted by class size and coefficient
sign), subtracts as many copies as fit, and drops the minimizer set from
the active support.  The chain of supports X_1 >= X_2 > ... induces a
partial order on the irreducibles: the blocks X_j \ X_{j+1}.

Two modes share one chain loop: exact (a concrete grade n and its actual
coefficient signs, integer arithmetic throughout, the reconstruction
identity true by construction) and asymptotic (a residue class n0 mod N, no
coefficients).  For large n the sign of c_g(n) is that of the leading
Rademacher term, K_{n_g}(n), so sign_profile reads each class's pattern
of period n_g from (n_g, h_g) alone; an entry is 0 only where that sum,
exactly real in its Selberg form, vanishes exactly in Z[e(1/(4 n_g))].
The module never loads the coefficient engine: exact mode reads values from
the provider it is handed, and the non-free prediction takes the size of
the leading term from numerics.asymptotic_leading and |K_{n_g}(n)|.
The level algebra is exact and in integers: each surviving irrep keeps
only its sign-weighted class sums at each element order beyond the
identity, which are rational because coefficients are Galois-invariant
and are kept doubled, as integers; ratios are compared by
cross-multiplication, and directions are normalized to canonical
nonnegative integer vectors.
"""

from __future__ import annotations

import functools
import json
import math

from .chartab import CharacterTable, MoonmodError, distinct_orders
from .decomp import MultiplicityVector


class FiltrationError(MoonmodError):
    """Base class for filtration failures."""


class DegenerateLevel(FiltrationError):
    """All weighted sums (or all normalizers) vanish at an element order."""

    def __init__(self, order: int, detail: str = ""):
        super().__init__(f"degenerate level at element order {order}"
                         + (f": {detail}" if detail else ""))
        self.order = order


class IrrationalDirection(FiltrationError):
    """A sign-weighted class sum is irrational: the signs differ on
    Galois-conjugate classes of one element order."""

    def __init__(self, order: int, raw: tuple):
        super().__init__(f"direction at order {order} is irrational: {raw}")
        self.order = order
        self.raw = raw


class StructureViolation(FiltrationError):
    """A quantity the support recursion requires nonnegative came out negative."""


# -- leading-term sign patterns ----------------------------------------------

class SignProfile:
    """Leading sign of c_g(n) for each class, as a pattern indexed by n mod n_g."""

    __slots__ = ("patterns", "N")

    def __init__(self, patterns: dict[str, tuple[int, ...]], N: int) -> None:
        self.patterns = patterns
        self.N = N  # lcm of the pattern lengths

    def sign(self, class_name: str, n: int) -> int:
        pattern = self.patterns[class_name]
        return pattern[n % len(pattern)]


def _sgn(v: float) -> int:
    return (v > 0) - (v < 0)


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, lowest degree first,
    by a monic divisor.  Each step runs over the divisor's nonzero
    coefficients only: the cyclotomic divisors are sparse."""
    rem = list(num)
    k = len(den) - 1
    terms = [(j, b) for j, b in enumerate(den) if b]
    quot = [0] * max(len(rem) - k, 0)
    for i in range(len(rem) - 1, k - 1, -1):
        a = rem[i]
        if a:
            quot[i - k] = a
            for j, b in terms:
                rem[i - k + j] -= a * b
    return quot, rem[:k]


@functools.cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_n, lowest degree first."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod(poly, _cyclotomic(d))[0]
    return tuple(poly)


def re_kloosterman_is_zero(n: int, c: int, ng: int, hg: int) -> bool:
    """Whether K_c(n), which is real, vanishes exactly.

    With a = 2j + 1 at each Selberg root j and z = e(1/(4c)), the sine at
    that root is (z^a - z^(-a)) / 2i, so K_c(n) / sqrt(c) is 1/2i times the
    sum of (-1)^j (z^a - z^(4c-a)); it is zero iff Phi_4c divides that
    polynomial in z.  Its terms need not cancel in pairs.
    """
    from .numerics import selberg_roots

    poly = [0] * (4 * c)
    for j in selberg_roots(n, c, ng, hg):
        sign = -1 if j & 1 else 1
        poly[2 * j + 1] += sign
        poly[4 * c - 2 * j - 1] -= sign
    return not any(_poly_divmod(poly, _cyclotomic(4 * c))[1])


def _leading_sign(r: int, ng: int, hg: int) -> int:
    """sgn K_{n_g}(r), a real sum: 0 only where it vanishes exactly."""
    from .numerics import kloosterman_sum

    if re_kloosterman_is_zero(r, ng, ng, hg):
        return 0
    re = kloosterman_sum(r, ng, ng, hg)
    if abs(re) < 1e-9:  # no M24 or A5 entry comes within 0.5 of zero
        raise ValueError(f"Re K_{ng}({r}) = {re:.3g} for n_g = {ng}, h_g = {hg} "
                         "is nonzero but below the float margin 1e-9")
    return _sgn(re)


def sign_profile(table: CharacterTable) -> SignProfile:
    """Each class's large-n sign of c_g(n), from the table alone.

    The leading Rademacher term of c_g(n) is the one at c = n_g, so for large
    n the sign is that of Re K_{n_g}(n), which has period n_g in n.
    """
    patterns = {c.name: tuple(_leading_sign(r, c.ng, c.hg) for r in range(c.ng))
                for c in table.classes}
    return SignProfile(patterns, math.lcm(*(c.ng for c in table.classes)))


def signs_at(table: CharacterTable, provider, n: int) -> dict[str, int]:
    """Actual coefficient signs at one grade (exact-mode input)."""
    return {c.name: _sgn(provider.value(c.name, n)) for c in table.classes}


# -- level algebra -----------------------------------------------------------

def _order_sums(table: CharacterTable, signs: tuple[int, ...], order: int
                ) -> list[int]:
    """2 w_k, with w_k = sum over classes of the given order of
    |[g]| sgn(c_g) chi_k(g): CharacterTable.twice_sums of the signs at that
    order; signs runs parallel to table.classes.

    Coefficients are Galois-invariant, so their signs agree on conjugate
    classes and every w_k is rational; signs that differ there can only
    come from hand-made input, which is refused.
    """
    twice, roots = table.twice_sums(
        [s if c.element_order == order else 0 for c, s in zip(table.classes, signs)])
    if roots:
        raise IrrationalDirection(order, tuple(
            {**({1: t} if t else {}), **roots.get(i, {})} for i, t in enumerate(twice)))
    return twice


def minimizer_set(direction: dict[int, int], nu: dict[int, int], order: int
                  ) -> tuple[int, ...]:
    """J: the active indices minimizing nu_i / L(i) over entries with
    L(i) > 0, for the direction L and nu twice the sign-weighted class sums
    at the given order, both over the active irreps; the ratios are
    compared by cross-multiplication."""
    candidates = [i for i, Li in direction.items() if Li > 0]
    if not candidates:
        raise DegenerateLevel(order, "all normalizers zero")
    if not any(nu.values()):
        raise DegenerateLevel(order)
    b = candidates[0]
    for i in candidates:
        if nu[i] * direction[b] < nu[b] * direction[i]:
            b = i
    return tuple(i for i in candidates if nu[i] * direction[b] == nu[b] * direction[i])


def direction_vector(raw: dict[int, int], order: int) -> dict[int, int]:
    """Canonical direction: the raw entries, given doubled as integers,
    divided by their gcd to coprime nonnegative integers; a negative entry
    is a structure violation."""
    neg = {i: f for i, f in raw.items() if f < 0}
    if neg:
        from fractions import Fraction

        neg = {i: Fraction(f, 2) for i, f in neg.items()}
        raise StructureViolation(
            f"negative direction entries at order {order}: {neg}"
        )
    g = math.gcd(*raw.values()) or 1
    return {i: v // g for i, v in raw.items()}


# -- filtration results ------------------------------------------------------

class ChainLevel:
    __slots__ = ("level_order", "r", "direction", "J")

    def __init__(self, level_order: int, r: int | None, direction: dict[int, int],
                 J: tuple[int, ...]) -> None:
        self.level_order = level_order
        self.r = r  # None in asymptotic mode
        self.direction = direction  # index -> coefficient over the support X_j
        self.J = J  # minimizer set defining the next level (empty at the end)


class FiltrationResult:
    __slots__ = ("mode", "n", "residue", "chain", "residual", "order_blocks",
                 "skipped_orders")
    approximate = False  # schema 1 field; the level algebra is always exact

    def __init__(self, mode: str, n: int | None, residue: tuple[int, int] | None,
                 chain: tuple[ChainLevel, ...], residual: tuple[int, ...] | None,
                 order_blocks: tuple[tuple[int, ...], ...],
                 skipped_orders: tuple[int, ...]) -> None:
        self.mode = mode  # "exact" or "asymptotic"
        self.n = n
        self.residue = residue  # (n0, N) in asymptotic mode
        self.chain = chain
        self.residual = residual  # L_eps over all irreps (exact mode)
        self.order_blocks = order_blocks
        self.skipped_orders = skipped_orders


def _chain(table: CharacterTable, signs: tuple[int, ...], remaining: list[int] | None):
    """(chain, order blocks, skipped orders) for the class signs.

    Each active irrep i carries its direction entry L(i) and nu_i, twice its
    sign-weighted class sums at every element order beyond the identity
    (at level 1 the _order_sums column of chi_i).  Eliminating J, with
    j' = min J, sends nu_i to L(j') nu_i - L(i) nu_j', and the next direction
    is that new nu_i at the order just used.  All order sums are taken up
    front, so signs split on Galois-conjugate classes raise
    IrrationalDirection even at an order the chain would never reach; signs
    from coefficient data agree there.  With remaining, each level first
    peels r_j, the most copies of its direction that fit, off remaining in
    place; without, every r_j is None.
    """
    orders = distinct_orders(table)[1:]  # beyond the identity
    sums = [_order_sums(table, signs, order) for order in orders]
    L = {i: chi.dim for i, chi in enumerate(table.irreps)}
    nu = {i: [w[i] for w in sums] for i in L}
    level_order, k = 1, 0
    chain: list[ChainLevel] = []
    blocks: list[tuple[int, ...]] = []
    skipped: list[int] = []
    while True:
        support = tuple(L)
        r = None
        if remaining is not None:
            pos = [(i, Li) for i, Li in L.items() if Li > 0]
            r = max(min(remaining[i] // Li for i, Li in pos) if pos else 0, 0)
            for i, Li in pos:
                remaining[i] -= r * Li
        J = ()
        while not J and k < len(orders):  # the next nondegenerate order
            try:
                J = minimizer_set(L, {i: v[k] for i, v in nu.items()}, orders[k])
            except DegenerateLevel as exc:
                skipped.append(exc.order)
            k += 1
        chain.append(ChainLevel(level_order, r, L, J))
        if not J:
            blocks.append(support)
            return tuple(chain), tuple(blocks), tuple(skipped)
        blocks.append(J)
        Ljp, nu_jp = L[min(J)], nu[min(J)]
        nu = {i: [Ljp * a - L[i] * b for a, b in zip(v, nu_jp)]
              for i, v in nu.items() if i not in J}
        if not nu:
            return tuple(chain), tuple(blocks), tuple(skipped)
        level_order = orders[k - 1]
        L = direction_vector({i: v[k - 1] for i, v in nu.items()}, level_order)


def filtrate_exact(mv: MultiplicityVector, table: CharacterTable, signs
                   ) -> FiltrationResult:
    """Greedy exact filtration of one grade; signs is the dict from
    signs_at, the actual signs at mv.n.  The residual, mv.m minus
    sum_j r_j L_j, is nonnegative: r_j <= remaining[i] // L_j(i) wherever
    L_j(i) > 0, so no peel takes an entry below zero."""
    if any(m < 0 for m in mv.m):
        raise ValueError("exact filtration requires a nonnegative multiplicity vector")
    remaining = list(mv.m)
    chain, blocks, skipped = _chain(table, tuple(signs[c.name] for c in table.classes),
                                   remaining)
    return FiltrationResult("exact", mv.n, None, chain, tuple(remaining), blocks, skipped)


def filtrate_asymptotic(table: CharacterTable, profile: SignProfile,
                        n0: int, N: int) -> FiltrationResult:
    """Symbolic support chain for the residue class n = n0 (mod N).

    Multiplicity-free: r_j depend on n and are not computed; the chain and
    order blocks depend only on the periodic sign data.
    """
    if N < 1:
        raise ValueError(f"modulus {N} is not positive")
    if N % profile.N != 0:
        raise ValueError(f"modulus {N} is not a multiple of the profile lcm {profile.N}")
    signs = tuple(profile.sign(c.name, n0 % N) for c in table.classes)
    chain, blocks, skipped = _chain(table, signs, None)
    return FiltrationResult("asymptotic", None, (n0 % N, N), chain, None,
                            blocks, skipped)


def nonfree_asymptotic(table: CharacterTable, signs, n: int) -> list[float]:
    """Predicted non-free multiplicities from the leading correction term;
    signs is the dict from signs_at, the actual signs at grade n.

    Uses the least non-identity element order e2: with j' the level-1
    minimizer and f'_i = chi_i - (dim_i/dim_j') chi_j',

        m'_i(n) ~ (C_n exp(D_n/e2) / |G|) sum_{[g], order e2} |[g]| f'_i(g) sgn(c_g(n)),

    with C_n exp(D_n/e2) the size of the leading Rademacher term of the
    order-e2 class g of smallest level n_g: numerics.asymptotic_leading
    times |K_{n_g}(n)| (1 for n_g <= 2; that level is e2 on both bundled
    tables).  Entries at i in J_1 vanish by construction.  Raises ValueError
    for n < 1, before it reads any level.
    """
    from .numerics import asymptotic_leading, kloosterman_sum

    if n < 1:
        raise ValueError("n must be at least 1")
    orders = distinct_orders(table)
    if len(orders) < 2:
        raise ValueError("group has no non-identity elements")
    e2 = orders[1]
    nu = _order_sums(table, tuple(signs[c.name] for c in table.classes), e2)
    dims = [chi.dim for chi in table.irreps]
    jp = min(minimizer_set(dict(enumerate(dims)), dict(enumerate(nu)), e2))
    # The order-e2 class with the fastest growth (smallest n_g).
    g = min((c for c in table.classes if c.element_order == e2), key=lambda c: c.ng)
    prefactor = (asymptotic_leading(g.ng, n) * abs(kloosterman_sum(n, g.ng, g.ng, g.hg))
                 / table.group_order)
    # The bracket sum_k f'_i(g_k) ... = nu_i - nu_j' dim_i / dim_j', over one
    # integer denominator (nu is twice the sums) and rounded once.
    return [prefactor * ((nu[i] * dims[jp] - nu[jp] * dims[i]) / (2 * dims[jp]))
            for i in range(len(table.irreps))]


# -- serialization -----------------------------------------------------------

def result_to_json(result: FiltrationResult, table: CharacterTable) -> str:
    """Stable JSON rendering of a FiltrationResult (schema 1)."""
    names = [chi.name for chi in table.irreps]
    doc: dict = {"schema": 1, "mode": result.mode}
    if result.mode == "exact":
        doc["n"] = result.n
    else:
        doc["n0"], doc["N"] = result.residue
    doc["chain"] = [
        {
            "level_order": lvl.level_order,
            "r": lvl.r,
            "direction": {names[i]: lvl.direction[i] for i in sorted(lvl.direction)},
            "J": [names[i] for i in lvl.J],
        }
        for lvl in result.chain
    ]
    if result.residual is not None:
        doc["residual"] = {names[i]: v for i, v in enumerate(result.residual)}
    else:
        doc["residual"] = None
    doc["order_blocks"] = [[names[i] for i in block] for block in result.order_blocks]
    doc["skipped_orders"] = list(result.skipped_orders)
    doc["approximate"] = result.approximate
    return json.dumps(doc, indent=1, sort_keys=True)
