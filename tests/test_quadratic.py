"""Exact quadratic arithmetic."""

from fractions import Fraction

import pytest

from moonmod.quadratic import (QuadraticValue, is_squarefree, mul_roots,
                               squarefree_decompose)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_is_squarefree():
    assert is_squarefree(1) and is_squarefree(-7) and is_squarefree(15)
    assert not is_squarefree(4) and not is_squarefree(-12) and not is_squarefree(0)


def test_quadratic_value_invariants():
    with pytest.raises(ValueError):
        QuadraticValue(1, 1, 4)  # not squarefree
    with pytest.raises(ValueError):
        QuadraticValue(1, 1, 1)  # d = 1 needs b = 0
    with pytest.raises(ValueError):
        QuadraticValue(1, 0, 5)  # b = 0 needs d = 1
    v = QuadraticValue(14, 0, 1)
    assert v.is_rational and Fraction(v.a, 2) == 7


def test_conjugate_and_complex():
    v = QuadraticValue(-1, 1, -7)  # (-1 + i sqrt 7)/2
    w = v.conjugate()
    assert w == QuadraticValue(-1, -1, -7)
    real = QuadraticValue(1, 1, 5)
    assert real.conjugate() == real


def test_mul_roots_mixed_radicands():
    assert mul_roots(2, 3) == (1, 6)     # sqrt 2 * sqrt 3 = sqrt 6
    assert mul_roots(-2, -3) == (-1, 6)  # i sqrt 2 * i sqrt 3 = -sqrt 6
    assert mul_roots(2, -3) == (1, -6)   # sqrt 2 * i sqrt 3 = i sqrt 6
    assert mul_roots(-7, -7) == (-7, 1)  # (i sqrt 7)^2 = -7
    assert mul_roots(6, 10) == (2, 15)   # sqrt 60 = 2 sqrt 15
    assert mul_roots(1, -5) == (1, -5)
