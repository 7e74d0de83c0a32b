"""The integer grade algebra against a Fraction reference.

decomp and filtration compute multiplicities, shares, minimizer sets,
directions and the non-free prediction from the table's integer matrices.
The reference below is the same algebra over character sums taken term by
term and Fractions;
every float must come out ==, not merely close, because an int/int true
division and float(Fraction) both round the exact quotient once.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from moonmod.chartab import distinct_orders
from moonmod.decomp import NonIntegral, multiplicities, ratio_profile
from moonmod.filtration import (IrrationalDirection, _order_sums, filtrate_exact,
                                nonfree_asymptotic, signs_at)
from moonmod.numerics import asymptotic_leading, kloosterman_sum
from moonmod.rademacher import RademacherEngine

GRADES = range(1, 61)


class ShiftedStore:
    """Provider over the packaged store with some values shifted:
    shift maps (class name, n) to the amount added."""

    def __init__(self, cache, shift):
        self.cache = cache
        self.shift = shift

    def value(self, name, n):
        return int(self.cache.get("M24", name, n)["value"]) + self.shift.get((name, n), 0)


# -- the Fraction reference ---------------------------------------------------

def class_sums(table, weights):
    """Twice sum_k weights[k] chi_i(g_k) for every irrep i, one term at a time,
    as integer numerators keyed by squarefree radicand (1 is the rational
    part), zeros dropped; weights are integers parallel to the classes."""
    out = []
    for chi in table.irreps:
        twice = {1: 0}
        for w, v in zip(weights, chi.values):
            twice[1] += w * v.a
            if v.b:
                twice[v.d] = twice.get(v.d, 0) + w * v.b
        out.append({s: t for s, t in twice.items() if t})
    return out


def ref_multiplicities(table, values):
    sums = class_sums(table, [c.size * v for c, v in zip(table.classes, values)])
    out = []
    for twice in sums:
        assert set(twice) <= {1}
        m = Fraction(twice.get(1, 0), 2 * table.group_order)
        assert m.denominator == 1
        out.append(int(m))
    return tuple(out)


def ref_shares(table, m):
    total = sum(m)
    dims = [chi.dim for chi in table.irreps]
    obs = [Fraction(mi, total) for mi in m]
    limits = [Fraction(d, sum(dims)) for d in dims]
    dev = max(abs(float(o - l)) for o, l in zip(obs, limits))
    return [float(o) for o in obs], [float(l) for l in limits], dev


def ref_order_sums(table, signs, order):
    """2 w_k, the doubled order sums, as integers from class_sums."""
    weights = [c.size * signs[c.name] if c.element_order == order else 0
               for c in table.classes]
    return [twice.get(1, 0) for twice in class_sums(table, weights)]


def ref_level1(table):
    """Level 1: the characters as rows over themselves, every irrep active,
    the direction the dims.  A row maps k to the Fraction coefficient of
    chi_k; a row at level l has at most l entries."""
    s = len(table.irreps)
    return SimpleNamespace(rows={i: {i: Fraction(1)} for i in range(s)},
                           active=tuple(range(s)),
                           direction={i: chi.dim for i, chi in enumerate(table.irreps)})


def ref_minimizer(table, level, signs, order):
    """(J, nu) with nu as Fractions: the minimum ratio taken over Fractions."""
    w2 = ref_order_sums(table, signs, order)
    nu = {i: Fraction(sum(a * w2[k] for k, a in level.rows[i].items()), 2)
          for i in level.active}
    candidates = [i for i in level.active if level.direction[i] > 0]
    if not candidates or not any(nu.values()):
        return None, nu
    ratios = {i: nu[i] / level.direction[i] for i in candidates}
    best = min(ratios.values())
    return tuple(i for i in candidates if ratios[i] == best), nu


def ref_direction(level, J, nu):
    jp = min(J)
    raw = {i: level.direction[jp] * nu[i] - level.direction[i] * nu[jp]
           for i in level.active if i not in J}
    denom = math.lcm(*(f.denominator for f in raw.values()))
    ints = {i: int(f * denom) for i, f in raw.items()}
    g = math.gcd(*ints.values()) or 1
    return {i: v // g for i, v in ints.items()}


def ref_chain(table, signs, m):
    """([(level order, r, direction, J)], residual, skipped orders) of the
    greedy exact chain: each level peels the most copies of its direction
    that fit, then the next nondegenerate order eliminates its minimizers J
    by f'_i = f_i - (L(i)/L(j')) f_j' on the Fraction rows, j' = min J."""
    remaining = list(m)
    orders = distinct_orders(table)[1:]
    level, level_order, out, skipped = ref_level1(table), 1, [], []
    while True:
        pos = [i for i in level.active if level.direction[i] > 0]
        r = max(min(remaining[i] // level.direction[i] for i in pos) if pos else 0, 0)
        for i in pos:
            remaining[i] -= r * level.direction[i]
        J = None
        while J is None and orders:
            order = orders.pop(0)
            J, nu = ref_minimizer(table, level, signs, order)
            if J is None:
                skipped.append(order)
        out.append((level_order, r, level.direction, J or ()))
        active = tuple(i for i in level.active if i not in (J or ()))
        if J is None or not active:
            return out, tuple(remaining), tuple(skipped)
        fj, rows = level.rows[min(J)], {}
        for i in active:
            f, c = level.rows[i], Fraction(level.direction[i], level.direction[min(J)])
            rows[i] = {k: f.get(k, 0) - c * fj.get(k, 0) for k in f.keys() | fj.keys()}
        level = SimpleNamespace(rows=rows, active=active, direction=ref_direction(level, J, nu))
        level_order = order


def ref_nonfree(table, signs, n):
    e2 = distinct_orders(table)[1]
    J, nu = ref_minimizer(table, ref_level1(table), signs, e2)
    jp = min(J)
    dims = [chi.dim for chi in table.irreps]
    g = min((c for c in table.classes if c.element_order == e2), key=lambda c: c.ng)
    prefactor = (asymptotic_leading(g.ng, n) * abs(kloosterman_sum(n, g.ng, g.ng, g.hg))
                 / table.group_order)
    return [prefactor * float(nu[i] - nu[jp] * Fraction(dims[i], dims[jp]))
            for i in range(len(dims))]


# -- the tests -----------------------------------------------------------------

@pytest.fixture(scope="module")
def providers(m24_table, a5_table, engine, warm_cache):
    return [(m24_table, engine), (a5_table, RademacherEngine(a5_table, cache=warm_cache))]


def test_matrix_decomposition_equals_class_sums(providers):
    for table, provider in providers:
        for n in GRADES:
            values = [provider.value(c.name, n) for c in table.classes]
            assert multiplicities(table, n, provider).m == \
                ref_multiplicities(table, values), (table.group_name, n)


def test_shares_and_deviation_equal_fraction_reference(providers):
    for table, provider in providers:
        for prof in ratio_profile(table, GRADES, provider):
            obs, limits, dev = ref_shares(table, prof.mv.m)
            assert list(prof.observed) == obs and list(prof.limits) == limits
            assert prof.max_deviation == dev, (table.group_name, prof.n)


def test_minimizer_sets_and_directions_equal_fraction_reference(providers):
    """Every level of every exact chain: the same order, r, canonical
    direction and minimizer set as the chain over Fraction rows, and the
    same residual and skipped (degenerate) orders."""
    levels = 0
    for table, provider in providers:
        for n in GRADES:
            signs = signs_at(table, provider, n)
            mv = multiplicities(table, n, provider)
            result = filtrate_exact(mv, table, signs)
            chain, residual, skipped = ref_chain(table, signs, mv.m)
            assert [(lvl.level_order, lvl.r, lvl.direction, lvl.J)
                    for lvl in result.chain] == chain, (table.group_name, n)
            assert (result.residual, result.skipped_orders) == (residual, skipped)
            levels += len(chain)
    assert levels > 300


def test_nonfree_prediction_equals_fraction_reference(providers):
    for table, provider in providers:
        for n in GRADES:
            signs = signs_at(table, provider, n)
            assert nonfree_asymptotic(table, signs, n) == ref_nonfree(table, signs, n)


# The messages of the decomposition that checked the grade through
# character sums taken term by term; a failing grade must still read exactly so.
@pytest.mark.parametrize("n, shift, message", [
    (5, {("1A", 5): 1},
     "multiplicity of chi1 at n=5 is not integral: raw value 1/244823040 is not an integer"),
    (6, {("7A", 6): 1},
     "multiplicity of chi1 at n=6 is not integral: raw value 1/42 is not an integer"),
    (8, {("7A", 8): 1, ("7B", 8): -1},
     "multiplicity of chi45a at n=8 is not integral: "
     "irrational numerators {-7: 11658240} over 489646080"),
], ids=["1A", "7A", "7A-7B"])
def test_perturbed_value_message(m24_table, warm_cache, n, shift, message):
    with pytest.raises(NonIntegral) as exc:
        multiplicities(m24_table, n, ShiftedStore(warm_cache, shift))
    assert str(exc.value) == message


@pytest.mark.parametrize("group, split", [
    ("a5", {"5A": 1, "5B": -1}), ("m24", {"7A": 1, "7B": -1}),
    ("m24", {"15A": 0, "15B": 1}), ("m24", {"23A": -1, "23B": 1})])
def test_irrational_direction_message(m24_table, a5_table, group, split):
    """Signs that differ on Galois-conjugate classes: the refused order sums
    read as the same sums taken term by term, keys in the same order."""
    table = {"m24": m24_table, "a5": a5_table}[group]
    signs = {c.name: split.get(c.name, 1) for c in table.classes}
    order = table.class_named(next(iter(split))).element_order
    with pytest.raises(IrrationalDirection) as exc:
        _order_sums(table, tuple(signs[c.name] for c in table.classes), order)
    weights = [c.size * signs[c.name] if c.element_order == order else 0
               for c in table.classes]
    raw = tuple(class_sums(table, weights))
    assert str(exc.value) == f"direction at order {order} is irrational: {raw}"
