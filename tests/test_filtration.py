"""Filtration: worked small-group numbers, brute-force oracle, serialization.

The oracle is an independent straightforward translation of the recursive
definitions in plain Fraction arithmetic, usable for tables whose character
values are all rational.  Synthetic coefficient providers follow the
assumed growth-and-periodic-sign shape and are built so that every grade
decomposes integrally.
"""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import kloosterman_reference as ref
from moonmod.chartab import load_table
from moonmod.decomp import MultiplicityVector, multiplicities
from moonmod.filtration import (DegenerateLevel, IrrationalDirection,
                                SignProfile, StructureViolation, _order_sums,
                                direction_vector, filtrate_asymptotic,
                                filtrate_exact, minimizer_set,
                                nonfree_asymptotic, re_kloosterman_is_zero,
                                result_to_json, sign_profile, signs_at)
from moonmod.numerics import asymptotic_leading, selberg_roots
from moonmod.rademacher import RademacherEngine


# -- synthetic tables --------------------------------------------------------

def _val(v):
    return {"a": 2 * v, "b": 0, "d": 1}


C2_DOC = {
    "group_name": "C2",
    "group_order": 2,
    "classes": [
        {"name": "1A", "size": 1, "element_order": 1, "ng": 1, "hg": 1},
        {"name": "2A", "size": 1, "element_order": 2, "ng": 2, "hg": 1},
    ],
    "irreps": [
        {"name": "triv", "dim": 1, "values": [_val(1), _val(1)]},
        {"name": "sgn", "dim": 1, "values": [_val(1), _val(-1)]},
    ],
}

S3_DOC = {
    "group_name": "S3",
    "group_order": 6,
    "classes": [
        {"name": "1A", "size": 1, "element_order": 1, "ng": 1, "hg": 1},
        {"name": "2A", "size": 3, "element_order": 2, "ng": 2, "hg": 1},
        {"name": "3A", "size": 2, "element_order": 3, "ng": 3, "hg": 1},
    ],
    "irreps": [
        {"name": "triv", "dim": 1, "values": [_val(1), _val(1), _val(1)]},
        {"name": "sgn", "dim": 1, "values": [_val(1), _val(-1), _val(1)]},
        {"name": "std", "dim": 2, "values": [_val(2), _val(0), _val(-1)]},
    ],
}


@pytest.fixture(scope="module")
def c2():
    return load_table(C2_DOC)


@pytest.fixture(scope="module")
def s3():
    return load_table(S3_DOC)


class C2Provider:
    """c_e even and dominant, c_2 even with alternating sign."""

    def value(self, class_name, n):
        if class_name == "1A":
            return 2 * (n * n + 12)
        return 2 * (-1) ** n * (n // 3 + 1)


PAT3 = (1, 0, -1)  # sign of the order-3 class by n mod 3


class S3Provider:
    """c_e = 0 mod 6, c_2 even alternating, c_3 = 0 mod 3 with a zero."""

    def value(self, class_name, n):
        if class_name == "1A":
            return 6 * (n ** 3 + 60)
        if class_name == "2A":
            return 2 * (-1) ** n * (n + 5)
        return 3 * PAT3[n % 3] * (n // 2 + 3)


# -- independent oracle (rational tables only) -------------------------------

def oracle_filtrate(table, m, signs):
    """Direct translation of the recursion with Fractions, no optimizations."""
    dims = [chi.dim for chi in table.irreps]
    chars = [[Fraction(v.a, 2) for v in chi.values] for chi in table.irreps]
    classes = [(c.name, c.size, c.element_order) for c in table.classes]
    orders = sorted({o for (_, _, o) in classes if o > 1})
    s = len(dims)

    def canonical(raw, active):
        denom = 1
        for i in active:
            denom = denom * raw[i].denominator // math.gcd(denom, raw[i].denominator)
        ints = {i: int(raw[i] * denom) for i in active}
        g = 0
        for v in ints.values():
            g = math.gcd(g, v)
        g = g or 1
        return {i: v // g for i, v in ints.items()}

    m = list(m)
    active = list(range(s))
    f = [list(chars[i]) for i in range(s)]
    L = {i: dims[i] for i in active}
    chain = []
    blocks = []
    skipped = []
    pending_orders = list(orders)
    cur_order = 1
    while True:
        r = min(m[i] // L[i] for i in active if L[i] > 0)
        for i in active:
            m[i] -= r * L[i]
        # find next usable order
        J = ()
        nxt = None
        while pending_orders:
            e = pending_orders.pop(0)
            nu = {}
            for i in active:
                nu[i] = sum(Fraction(size) * f[i][k] * signs[name]
                            for k, (name, size, o) in enumerate(classes) if o == e)
            if all(v == 0 for v in nu.values()):
                skipped.append(e)
                continue
            ratios = {i: nu[i] / L[i] for i in active if L[i] > 0}
            best = min(ratios.values())
            J = tuple(sorted(i for i in ratios if ratios[i] == best))
            jp = min(J)
            new_active = [i for i in active if i not in J]
            new_f = [None] * s
            for i in new_active:
                new_f[i] = [f[i][k] - (Fraction(L[i], L[jp])) * f[jp][k]
                            for k in range(len(classes))]
            raw = {}
            for i in new_active:
                raw[i] = sum(Fraction(size) * new_f[i][k] * signs[name]
                             for k, (name, size, o) in enumerate(classes) if o == e)
            nxt = (e, new_active, new_f, canonical(raw, new_active))
            break
        chain.append((cur_order, r, dict(L), tuple(active), J))
        if J:
            blocks.append(J)
        if nxt is None or not nxt[1]:
            final = tuple(i for i in active if i not in J)
            if final:
                blocks.append(final)
            break
        cur_order, active, f, L = nxt
    return chain, tuple(m), blocks, skipped


def _compare(table, provider, n):
    mv = multiplicities(table, n, provider)
    signs = signs_at(table, provider, n)
    result = filtrate_exact(mv, table, signs)
    o_chain, o_resid, o_blocks, o_skipped = oracle_filtrate(table, mv.m, signs)
    assert len(result.chain) == len(o_chain), f"chain length differs at n={n}"
    for lvl, (order, r, L, support, J) in zip(result.chain, o_chain):
        assert lvl.level_order == order, f"order differs at n={n}"
        assert lvl.r == r, f"r differs at n={n}: {lvl.r} vs {r}"
        assert tuple(lvl.direction) == support
        assert lvl.J == J
        assert lvl.direction == {i: L[i] for i in support}
    assert result.residual == o_resid, f"residual differs at n={n}"
    assert list(result.order_blocks) == o_blocks
    assert list(result.skipped_orders) == o_skipped


@pytest.mark.parametrize("n", list(range(1, 201)))
def test_oracle_c2(c2, n):
    _compare(c2, C2Provider(), n)


@pytest.mark.parametrize("n", list(range(1, 201)))
def test_oracle_s3(s3, n):
    _compare(s3, S3Provider(), n)


def _reconstructed(result):
    """The residual plus r_j L_j at every level of an exact chain."""
    total = list(result.residual)
    for lvl in result.chain:
        for i, coeff in lvl.direction.items():
            total[i] += lvl.r * coeff
    return tuple(total)


def test_exact_reconstruction(s3):
    provider = S3Provider()
    for n in (7, 30, 121):
        mv = multiplicities(s3, n, provider)
        result = filtrate_exact(mv, s3, signs_at(s3, provider, n))
        assert _reconstructed(result) == mv.m
        # maximality of each r: another copy never fits after subtraction
        assert all(r >= 0 for r in result.residual)


@pytest.mark.parametrize("group, grades", [("m24", range(1, 61)), ("a5", range(1, 101))])
def test_exact_reconstruction_on_stored_grades(group, grades, m24_table, a5_table,
                                               warm_cache):
    """On every stored grade the chain gives back the multiplicity vector
    and leaves a nonnegative residual: filtrate exits 0 without checking
    either, because the peeling subtracts only copies that fit."""
    table = m24_table if group == "m24" else a5_table
    provider = RademacherEngine(table, cache=warm_cache)
    for n in grades:
        mv = multiplicities(table, n, provider)
        result = filtrate_exact(mv, table, signs_at(table, provider, n))
        assert _reconstructed(result) == mv.m, (group, n)
        assert min(result.residual) >= 0, (group, n)


def test_regular_multiple_trivial_chain(s3):
    mv = MultiplicityVector(4, (5, 5, 10))
    signs = {"1A": 1, "2A": 1, "3A": 1}
    result = filtrate_exact(mv, s3, signs)
    assert result.chain[0].r == 5
    assert result.residual == (0, 0, 0)
    assert all(lvl.r == 0 for lvl in result.chain[1:])


# -- A5 worked example -------------------------------------------------------

A5_PROFILE = {
    "1A": (1,),
    "2A": (1, -1),
    "3A": (1, 0, -1),
    "5A": (1, 0, 1, 0, -1),
    "5B": (1, 0, 1, 0, -1),
}


def test_a5_asymptotic_blocks(a5_table):
    profile = SignProfile(A5_PROFILE, 30)
    result = filtrate_asymptotic(a5_table, profile, 10, 30)
    names = [chi.name for chi in a5_table.irreps]
    blocks = [tuple(names[i] for i in b) for b in result.order_blocks]
    assert blocks == [("chi3a", "chi3b"), ("chi4",), ("chi1", "chi5")]
    assert result.skipped_orders == (3,)
    # X chain strictly decreasing beyond the full support
    supports = [tuple(lvl.direction) for lvl in result.chain]
    assert supports[0] == (0, 1, 2, 3, 4)
    for a, b in zip(supports, supports[1:]):
        assert set(b) < set(a)


def level1(table, signs, order):
    """The level-1 direction (the dims) and nu at one order, keyed by irrep index."""
    nu = _order_sums(table, signs, order)
    return {i: chi.dim for i, chi in enumerate(table.irreps)}, dict(enumerate(nu))


def test_a5_level1_minimizers(a5_table):
    assert [c.name for c in a5_table.classes] == ["1A", "2A", "3A", "5A", "5B"]
    # n even: 15 chi_j(2A)/dim = (15, -5, -5, 0, 3), minimum at the 3-dims.
    assert minimizer_set(*level1(a5_table, (1, 1, 0, 0, 0), 2), 2) == (1, 2)
    # n odd: signs flip, the trivial goes first.
    assert minimizer_set(*level1(a5_table, (1, -1, 0, 0, 0), 2), 2) == (0,)


def test_a5_level2_direction(a5_table):
    profile = SignProfile(A5_PROFILE, 30)
    result = filtrate_asymptotic(a5_table, profile, 10, 30)
    lvl2 = result.chain[1]
    assert lvl2.level_order == 2
    assert lvl2.direction == {0: 1, 3: 1, 4: 2}


def test_minimizer_scale_invariance(a5_table):
    signs = (1, 1, 0, 0, 0)  # 1A, 2A, 3A, 5A, 5B
    L, nu = level1(a5_table, signs, 2)
    # Scale nu and the direction by 3: same J.
    scaled = minimizer_set({i: 3 * v for i, v in L.items()},
                           {i: 3 * v for i, v in nu.items()}, 2)
    assert minimizer_set(L, nu, 2) == scaled


def test_degenerate_level_raised(a5_table):
    signs = (1, 1, 0, 0, 0)  # 1A, 2A, 3A, 5A, 5B
    with pytest.raises(DegenerateLevel):
        minimizer_set(*level1(a5_table, signs, 3), 3)


def test_direction_vector_canonicalizes():
    raw = {0: 5, 1: 15}  # 5/2 and 15/2, doubled
    direction = direction_vector(raw, 2)
    assert direction == {0: 1, 1: 3}
    with pytest.raises(StructureViolation, match=r"\{0: Fraction\(-1, 1\)\}"):
        direction_vector({0: -2}, 2)


def test_signs_split_on_conjugate_classes_refused(a5_table):
    # 5A and 5B are Galois conjugate: coefficient data gives them one sign,
    # and opposite signs make the order-5 class sums irrational.
    mv = MultiplicityVector(1, (5, 7, 7, 9, 11))
    signs = {"1A": 1, "2A": 1, "3A": 0, "5A": 1, "5B": -1}
    with pytest.raises(IrrationalDirection) as exc:
        filtrate_exact(mv, a5_table, signs)
    assert exc.value.order == 5


def test_split_signs_refused_past_the_chain_end(m24_table):
    """All order sums are taken before the chain starts: hand-made signs
    whose chain ends at order 21 are still refused for 23A and 23B split."""
    signs = {"1A": 0, "2A": -1, "2B": 0, "3A": 0, "3B": 0, "4A": 0, "4B": -1, "4C": 0,
             "5A": 1, "6A": -1, "6B": -1, "7A": 0, "7B": 0, "8A": -1, "10A": 1,
             "11A": -1, "12A": 1, "12B": -1, "14A": 0, "14B": 0, "15A": -1, "15B": -1,
             "21A": -1, "21B": -1, "23A": 1, "23B": 1}
    mv = MultiplicityVector(1, (0,) * 26)
    result = filtrate_exact(mv, m24_table, signs)
    # The order-21 minimizers empty the support of the order-15 level.
    last = result.chain[-1]
    assert last.level_order == 15 and last.J == tuple(last.direction)
    with pytest.raises(IrrationalDirection) as exc:
        filtrate_exact(mv, m24_table, {**signs, "23B": -1})
    assert exc.value.order == 23


def test_sign_profile_detection(s3):
    profile = sign_profile(s3)
    assert len(profile.patterns["1A"]) == 1
    assert len(profile.patterns["2A"]) == 2
    assert len(profile.patterns["3A"]) == 3
    assert profile.N == 6
    # patterns agree with the provider at arbitrary grades
    p = S3Provider()
    for n in (61, 62, 63, 100):
        for cname in ("1A", "2A", "3A"):
            v = p.value(cname, n)
            assert profile.sign(cname, n) == (v > 0) - (v < 0)


# -- M24 leading-term patterns against the packaged store ---------------------

def _stored(warm_cache):
    """{class: {n: value}} for every stored M24 record."""
    out = {}
    for (_, cls, n), rec in warm_cache.records.items():
        out.setdefault(cls, {})[n] = int(rec["value"])
    return out


def test_m24_patterns_match_store(m24_table, warm_cache):
    profile = sign_profile(m24_table)
    assert profile.N == 212520
    stored = _stored(warm_cache)
    for cls in ("1A", "2A", "2B", "3A", "3B", "4B", "5A", "6A"):
        for n, v in stored[cls].items():
            assert profile.sign(cls, n) == (v > 0) - (v < 0), (cls, n, v)


def test_m24_zero_entries_are_exact(m24_table, warm_cache):
    profile = sign_profile(m24_table)
    stored = _stored(warm_cache)
    zeros = 0
    for c in m24_table.classes:
        pattern = profile.patterns[c.name]
        for n, v in stored[c.name].items():
            if pattern[n % c.ng] == 0:
                zeros += 1
                assert v == 0, (c.name, n, v)
        # c = n_g alone decides: every later c = k n_g vanishes there too
        for r in (r for r, s in enumerate(pattern) if s == 0):
            for k in range(1, 7):
                for j in range(k):
                    assert re_kloosterman_is_zero(r + j * c.ng, k * c.ng, c.ng, c.hg), \
                        (c.name, r, k, j)
    assert zeros == 534
    assert profile.patterns["23A"].count(0) == profile.patterns["23B"].count(0) == 11


def test_exact_zero_test_agrees_with_float(m24_table):
    """The exact zero test against the float sum over every coprime d."""
    pairs = 0
    for c in m24_table.classes:
        re, _ = ref.kloosterman_floats(range(c.ng), c.ng, c.ng, c.hg)
        for r in range(c.ng):
            assert re_kloosterman_is_zero(r, c.ng, c.ng, c.hg) == (abs(re[r]) <= 1e-8), \
                (c.name, r, re[r])
            pairs += 1
    assert pairs == 253


def test_zero_test_matches_reference_on_grid(m24_table):
    """The Selberg-form zero test against the full-range one, at every M24
    class, c = k n_g for k <= 6 and every r mod c.

    91 of the zeros have Selberg roots, and at none of them do the signed
    sines cancel in pairs: a test that looked only for such pairs would
    call them nonzero.
    """
    split = Counter()
    for cls in m24_table.classes:
        for k in range(1, 7):
            c = k * cls.ng
            for r in range(c):
                zero = re_kloosterman_is_zero(r, c, cls.ng, cls.hg)
                assert zero == ref.re_kloosterman_is_zero(r, c, cls.ng, cls.hg), \
                    (cls.name, c, r)
                roots = selberg_roots(r, c, cls.ng, cls.hg)
                if zero and roots:
                    # sin(pi a/(2c)) = sin(pi (2c - a)/(2c)): fold a onto a <= c
                    folded = Counter()
                    for j in roots:
                        folded[min(2 * j + 1, 2 * c - 2 * j - 1)] += -1 if j & 1 else 1
                    assert any(folded.values()), (cls.name, c, r)
                split["zero, no roots" if zero and not roots
                      else "zero, roots" if zero else "nonzero"] += 1
    assert split == {"zero, no roots": 2995, "zero, roots": 91, "nonzero": 2227}


def test_nonfree_prediction_carries_kloosterman_size():
    """The size of the c = n_g term carries |K_{n_g}(n)|, which is 1 only for
    n_g <= 2: with S3's 2A at (n_g, h_g) = (6, 1), |K_6(n)| over every
    coprime d is sqrt(3), or 0 at n = 1 mod 3, where the prediction is 0."""
    doc = json.loads(json.dumps(S3_DOC))
    doc["classes"][1]["ng"] = 6
    table = load_table(doc)
    signs = {"1A": 1, "2A": 1, "3A": 1}
    for n in range(1, 13):
        size = abs(complex(ref.kloosterman(n, 6, 6, 1)))
        assert size == pytest.approx(0 if n % 3 == 1 else math.sqrt(3), abs=1e-12)
        # Twice the order-2 sums are (6, -6, 0) and the level-1 minimizer is
        # sgn, so the brackets (6, 0, 6) cancel |G| = 6.
        lead = asymptotic_leading(6, n) * size
        pred = nonfree_asymptotic(table, signs, n)
        if n % 3 == 1:
            assert pred == [0.0, 0.0, 0.0], n
        else:
            assert pred == pytest.approx([lead, 0.0, lead], rel=1e-12), n


def test_json_emitter(a5_table):
    profile = SignProfile(A5_PROFILE, 30)
    result = filtrate_asymptotic(a5_table, profile, 10, 30)
    doc = json.loads(result_to_json(result, a5_table))
    assert doc["schema"] == 1
    assert doc["mode"] == "asymptotic"
    assert doc["n0"] == 10 and doc["N"] == 30
    assert doc["order_blocks"][0] == ["chi3a", "chi3b"]
    assert doc["chain"][0]["direction"] == {"chi1": 1, "chi3a": 3, "chi3b": 3,
                                            "chi4": 4, "chi5": 5}
    # byte-stable across repeated serialization
    assert result_to_json(result, a5_table) == result_to_json(result, a5_table)


@pytest.mark.parametrize("group, residues, digest", [
    ("m24", random.Random(23).sample(range(212520), 300), "ecee84f89dbfada5"),
    ("a5", range(30), "5ab0de744e6a56d0")], ids=["m24", "a5"])
def test_asymptotic_chains_pinned(group, residues, digest, m24_table, a5_table):
    """The asymptotic chains of sampled residue classes, byte for byte: the
    first 16 hex digits of the sha256 of their joined JSON renderings."""
    table = {"m24": m24_table, "a5": a5_table}[group]
    profile = sign_profile(table)
    text = "\n".join(result_to_json(filtrate_asymptotic(table, profile, r, profile.N), table)
                     for r in residues)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("group, ng, n", [("S3", 1, 25523), ("S3", 2, 102090),
                                          ("a5", 2, 102090), ("m24", 2, 102090)])
def test_overflowing_prediction_is_a_value_error(group, ng, n, a5_table, m24_table):
    """exp(D_n / n_g) overflows a float from n = 25523 at n_g = 1 and from
    n = 102090 at n_g = 2, the order-2 level of M24 and A5: the leading
    term and the non-free prediction raise ValueError naming n and n_g
    there, and are finite one grade below.  No series runs: the signs are
    given."""
    if group == "S3":
        doc = json.loads(json.dumps(S3_DOC))
        doc["classes"][1]["ng"] = ng
        table = load_table(doc)
    else:
        table = {"a5": a5_table, "m24": m24_table}[group]
    signs = {c.name: 1 for c in table.classes}
    assert math.isfinite(asymptotic_leading(ng, n - 1))
    assert all(map(math.isfinite, nonfree_asymptotic(table, signs, n - 1)))
    message = f"the leading term at n = {n}, n_g = {ng} overflows a float"
    with pytest.raises(ValueError, match=f"^{message}$"):
        asymptotic_leading(ng, n)
    with pytest.raises(ValueError, match=f"^{message}$"):
        nonfree_asymptotic(table, signs, n)


def test_all_zero_direction_is_degenerate():
    """A direction with no positive entry has no minimizer."""
    with pytest.raises(DegenerateLevel,
                       match="^degenerate level at element order 3: all normalizers zero$"):
        minimizer_set({0: 0, 1: 0}, {0: 2, 1: -2}, 3)
