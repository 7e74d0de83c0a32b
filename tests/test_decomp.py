"""Multiplicity decomposition against orthogonality identities."""

import pytest

from moonmod.decomp import (DecompositionError, MultiplicityVector, NegativeMultiplicity,
                            NonIntegral, free_part_split,
                            multiplicities, ratio_profile)


def test_polar_grade_is_virtual_trivial(m24_table):
    coeffs = {c.name: -2 for c in m24_table.classes}
    mv = multiplicities(m24_table, -1, coeffs)
    assert mv.m[0] == -2
    assert all(v == 0 for v in mv.m[1:])


def test_regular_representation(m24_table):
    coeffs = {c.name: 0 for c in m24_table.classes}
    coeffs["1A"] = m24_table.group_order
    mv = multiplicities(m24_table, 3, coeffs)
    assert mv.m == tuple(chi.dim for chi in m24_table.irreps)


def test_n1_two_unit_entries_at_45s(m24_table, engine):
    mv = multiplicities(m24_table, 1, engine)
    nonzero = [(m24_table.irreps[i].dim, v) for i, v in enumerate(mv.m) if v]
    assert nonzero == [(45, 1), (45, 1)]
    assert sum(m24_table.irreps[i].dim * v for i, v in enumerate(mv.m)) == 90


def test_reconstruction_identity(m24_table, engine):
    # sum_i m_i chi_i(g) recovers c_g(n) exactly on every class: summed over
    # the numerators of (a + b sqrt(d))/2, the rational part is 2 c_g(n) and
    # every sqrt(d) part is zero.
    for n in (1, 2, 5):
        mv = multiplicities(m24_table, n, engine)
        for k, c in enumerate(m24_table.classes):
            twice = {1: 0}
            for i, chi in enumerate(m24_table.irreps):
                v = chi.values[k]
                twice[1] += mv.m[i] * v.a
                twice[v.d] = twice.get(v.d, 0) + mv.m[i] * v.b
            assert twice.pop(1) == 2 * engine.value(c.name, n)
            assert not any(twice.values())


def test_every_stored_grade_decomposes(m24_table, warm_cache):
    # The exact gate over the whole packaged store: each grade must give
    # nonnegative integer multiplicities on all classes at once.
    for n in range(1, 61):
        coeffs = {c.name: int(warm_cache.get("M24", c.name, n)["value"])
                  for c in m24_table.classes}
        mv = multiplicities(m24_table, n, coeffs)
        assert min(mv.m) >= 0, n


def test_nonintegral_detected(m24_table):
    coeffs = {c.name: 0 for c in m24_table.classes}
    coeffs["1A"] = m24_table.group_order // 3  # m_i = dim/3, residual 1/3
    with pytest.raises(NonIntegral):
        multiplicities(m24_table, 2, coeffs)


def test_small_fraction_is_not_integral(m24_table):
    # Both multiplicity vectors are off an integer by a multiple of 1/|G|,
    # far below any float tolerance: only an exact gate refuses them.
    coeffs = {c.name: 0 for c in m24_table.classes}
    coeffs["1A"] = 1
    with pytest.raises(NonIntegral):
        multiplicities(m24_table, 2, coeffs)
    coeffs["1A"] = m24_table.group_order + 1
    with pytest.raises(NonIntegral):
        multiplicities(m24_table, 2, coeffs)


def test_negative_detected(m24_table):
    coeffs = {c.name: -m24_table.group_order if c.name == "1A" else 0
              for c in m24_table.classes}
    with pytest.raises(NegativeMultiplicity):
        multiplicities(m24_table, 2, coeffs)
    # The same data is legal at the polar grade.
    mv = multiplicities(m24_table, -1, coeffs)
    assert mv.m[0] < 0


def test_free_part_split(a5_table):
    mv = MultiplicityVector(7, (2, 6, 6, 8, 10))
    r1, rest = free_part_split(mv, a5_table)
    assert r1 == 2 and rest.m == (0, 0, 0, 0, 0)
    mv = MultiplicityVector(7, (3, 6, 6, 8, 10))
    r1, rest = free_part_split(mv, a5_table)
    assert r1 == 2 and rest.m == (1, 0, 0, 0, 0)
    mv = MultiplicityVector(7, (0, 6, 6, 8, 10))
    r1, rest = free_part_split(mv, a5_table)
    assert r1 == 0 and rest.m == mv.m


def test_free_split_reconstructs(a5_table):
    mv = MultiplicityVector(9, (5, 13, 12, 17, 21))
    r1, rest = free_part_split(mv, a5_table)
    dims = [chi.dim for chi in a5_table.irreps]
    assert tuple(rest.m[i] + r1 * dims[i] for i in range(5)) == mv.m
    assert min(rest.m[i] // dims[i] for i in range(5)) == 0


def test_ratio_profile_regular_is_exact(a5_table):
    class Reg:
        def value(self, cn, n):
            return 60 if cn == "1A" else 0
    prof = ratio_profile(a5_table, [4], Reg())
    assert prof[0].max_deviation == 0


def test_ratio_profile_rejects_nonpositive_n(a5_table):
    class Reg:
        def value(self, cn, n):
            return 60 if cn == "1A" else 0
    with pytest.raises(ValueError):
        ratio_profile(a5_table, [0], Reg())



def test_ratio_profile_refuses_a_nonpositive_total(a5_table):
    """A grade whose class values are all 0 decomposes to the zero vector,
    which has no shares: ratio_profile raises DecompositionError."""
    zero = {c.name: 0 for c in a5_table.classes}
    with pytest.raises(DecompositionError,
                       match="grade n=3 has nonpositive total multiplicity 0"):
        ratio_profile(a5_table, [3], zero)
