"""The q-series oracle: judged by the packaged store, and against the engine."""

import ast
import inspect
import json
from importlib import resources

import pytest

from moonmod import qseries
from moonmod.chartab import (M24_LEVELS, TableError, UnknownClassError, bundled_table,
                             load_table)
from moonmod.rademacher import RademacherEngine
from moonmod.store import CoefficientCache


def _store_records():
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    return [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _sturm_bound(level: int) -> int:
    """floor([SL2(Z) : Gamma_0(level)] / 6), the Sturm bound in weight 2."""
    index, m, p = level, level, 2
    while m > 1:
        if m % p == 0:
            index += index // p
            while m % p == 0:
                m //= p
        p += 1
    return index // 6


def test_every_packaged_record_equals_the_oracle():
    """All 1720 packaged values, to n = 100, are the oracle's."""
    recs = _store_records()
    series = qseries.coefficients(max(int(r["n"]) for r in recs))
    assert len(recs) == 1720
    wrong = [(r["class"], r["n"], r["value"], series[r["class"]][r["n"]]) for r in recs
             if series[r["class"]][r["n"]] != int(r["value"])]
    assert wrong == []


def test_21ab_at_27_is_two():
    """Known defect 1: the engine's cold dip gives 1; the true value is 2."""
    series = qseries.coefficients(27)
    assert series["21A"][27] == series["21B"][27] == 2


def test_sturm_bound_of_every_class_lies_within_the_store(m24_table):
    """Each T_g lies in M_2(Gamma_0(n_g h_g)), so two such forms that agree
    through q^B, B the Sturm bound, are equal.  Every class's B lies within
    the grades that the store holds for it, and the oracle matches the
    store at each grade up to B.  A wrong coefficient in the formula block
    fails here: 2B's 2 written as 4 differs at n = 1, and 4B's 4 written
    as 3 leaves a numerator that D does not divide."""
    stored = {}
    for r in _store_records():
        stored.setdefault(r["class"], {})[int(r["n"])] = int(r["value"])
    bounds = {c.name: _sturm_bound(c.ng * c.hg) for c in m24_table.classes}
    assert {name: b for name, b in bounds.items() if b > 4} == \
        {"10A": 6, "12A": 8, "6B": 12, "21A": 16, "21B": 16, "12B": 48}
    series = qseries.coefficients(max(bounds.values()))
    for name, bound in bounds.items():
        assert set(range(1, bound + 1)) <= set(stored[name]), name
        assert [series[name][n] for n in range(1, bound + 1)] == \
            [stored[name][n] for n in range(1, bound + 1)], name


def test_wrong_weight_leaves_an_indivisible_numerator(monkeypatch):
    """4B's weight 4 on Lam_4 written as 3 leaves a numerator that D does
    not divide: coefficients raises ArithmeticError naming the class."""
    monkeypatch.setitem(qseries.FORMS, ("4B",), ((3, 1, ("L", 4)), (-4, 1, ("L", 2))))
    with pytest.raises(ArithmeticError, match=r"^class 4B: -?\d+ is not divisible by D = 15840$"):
        qseries.coefficients(5)


def test_series_are_python_integers():
    """No float enters a series: (-1)**m with m < 0, for one, is a float."""
    block = qseries._Block(40)
    for sparse in (block.pent, block.jac):
        assert all(type(e) is int and type(c) is int for e, c in sparse)
    forms = [block.f2(), block.theta23()]
    forms += [block.form(form) for terms in qseries.FORMS.values() for *_, form in terms]
    forms += list(block.powers.values())
    forms += qseries.coefficients(40).values()
    for s in forms:
        assert len(s) == 41 and all(type(x) is int for x in s)


def test_no_float_or_fraction_in_the_module():
    """The module names no float, Fraction or true division."""
    tree = ast.parse(inspect.getsource(qseries))
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and type(node.value) is float]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in ("float", "Fraction")]


def test_truncation_keeps_every_coefficient():
    """The series to a lower grade are the start of those to a higher one,
    whatever the grade cuts off (a pentagonal or triangular exponent, the
    q^1 of the cusp forms, the 23 of theta23's eta factor)."""
    high = qseries.coefficients(60)
    for top in range(1, 60):
        assert {name: s[:top + 1] for name, s in high.items()} == \
            qseries.coefficients(top), top


def test_computed_once_to_the_grade_asked_for(m24_table):
    """An oracle runs the series once, to its top grade; a higher grade
    asks for one more run, to that grade, and a lower one reads the last."""
    oracle = qseries.QSeriesOracle(m24_table, 30)
    assert oracle.value("1A", 5) == 11592
    first = oracle._series
    assert len(first["1A"]) == 31
    assert oracle.value("2B", 30) == qseries.coefficients(30)["2B"][30]
    assert oracle._series is first
    assert oracle.value("1A", 45) == qseries.coefficients(45)["1A"][45]
    assert len(oracle._series["1A"]) == 46


def test_provider_contract(m24_table, a5_table):
    """RademacherEngine.value's contract: grades -1 and 0 by definition
    (nothing computed), ValueError below -1, UnknownClassError for a name
    the table does not serve; A5 reads M24 through its fusion targets."""
    m24 = qseries.QSeriesOracle(m24_table, 10)
    a5 = qseries.QSeriesOracle(a5_table, 10)
    for oracle, name in ((m24, "23B"), (a5, "5B")):
        assert (oracle.value(name, -1), oracle.value(name, 0)) == (-2, 0)
        with pytest.raises(ValueError, match="n must be at least -1"):
            oracle.value(name, -2)
        assert oracle._series == {}
    for oracle, name in ((m24, "99Z"), (a5, "23A")):
        with pytest.raises(UnknownClassError):
            oracle.value(name, 1)
    assert [a5.value("5B", n) for n in range(1, 11)] == \
        [m24.value("5A", n) for n in range(1, 11)]


def test_oracle_serves_each_class_by_its_level(m24_table, a5_table):
    """The oracle serves a class by the series of M24 at its level (n_g,
    h_g), the series the engine sums for it, by chartab.m24_classes: M24
    by its own classes, A5 through its fusion targets or, without them, by
    its levels; a renamed level is served as the level, and a level M24
    lacks is refused when the oracle or the engine is made (a target at
    another level is refused when the table loads: test_chartab)."""
    def served(table, names, top=12):
        oracle = qseries.QSeriesOracle(table, top)
        return [[oracle.value(name, n) for n in range(1, top + 1)] for name in names]

    assert {name for names in qseries.FORMS for name in names} == set(M24_LEVELS)
    m24 = {name: s[1:13] for name, s in qseries.coefficients(12).items()}
    assert served(m24_table, m24) == list(m24.values())
    a5_names = [c.name for c in a5_table.classes]
    assert served(a5_table, a5_names) == [m24[name] for name in ("1A", "2A", "3A", "5A", "5A")]
    doc = json.loads(resources.files("moonmod.data").joinpath("m24.table").read_text())
    doc["classes"][2]["hg"] = 1  # 2B on the level of 2A
    assert served(load_table(doc), ["2B"]) == [m24["2A"]] != [m24["2B"]]
    a5 = json.loads(resources.files("moonmod.data").joinpath("a5.table").read_text())
    for c in a5["classes"]:
        del c["fusion_target"]
    assert served(load_table(a5), a5_names) == served(a5_table, a5_names)
    a5["classes"][1].update(ng=6, hg=2)
    table = load_table(a5)
    for make in (qseries.QSeriesOracle, RademacherEngine):
        with pytest.raises(TableError, match=r"class 2A: its level \(n_g, h_g\) = \(6, 2\)"):
            make(table)


def test_engine_agrees_past_the_store():
    """The cold engine and the oracle agree at grades 61 and 62 of every
    class and at grade 101 of the four classes stored to 100.  (Grades
    61..63 in full agree as well, but cost the cold engine about twice as
    long; 21A at 144 passes no gate of the engine.)"""
    table = bundled_table("m24")
    engine = RademacherEngine(table, cache=CoefficientCache(None))
    oracle = qseries.QSeriesOracle(table, 101)
    for cls in table.classes:
        grades = [61, 62] + ([101] if cls.name in ("1A", "2A", "3A", "5A") else [])
        assert [rec.value for rec in engine.records(cls.name, grades)] == \
            [oracle.value(cls.name, n) for n in grades], cls.name
