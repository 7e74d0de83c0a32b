"""Table loading and validation gates."""

import json
import math
import os
import random
import re

import pytest

from moonmod.chartab import (DATA_DIR, M24_LEVELS, OrthogonalityError, SizeSumError,
                             TableError, TableParseError, bundled_table, distinct_orders,
                             load_table, m24_classes)
from moonmod.cli import main
from moonmod.quadratic import QuadraticValue, mul_roots


def bundled_doc(name):
    """The packaged table document, as JSON."""
    with open(os.path.join(DATA_DIR, f"{name}.table"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def m24():
    return bundled_table("m24")


@pytest.fixture(scope="module")
def a5():
    return bundled_table("a5")


def test_bundled_m24_shape(m24):
    assert m24.group_order == 244823040
    assert len(m24.classes) == 26
    assert len(m24.irreps) == 26
    assert sum(chi.dim ** 2 for chi in m24.irreps) == m24.group_order


def test_bundled_a5_shape(a5):
    assert a5.group_order == 60
    assert len(a5.classes) == 5
    assert tuple(chi.dim for chi in a5.irreps) == (1, 3, 3, 4, 5)
    assert all(c.fusion_target for c in a5.classes)


def test_levels_are_the_bundled_tables(m24):
    assert M24_LEVELS == {c.name: (c.ng, c.hg) for c in m24.classes}


@pytest.mark.parametrize("group, name, served", [
    ("m24", "7B", "7B"), ("m24", "23B", "23B"), ("a5", "5B", "5A"), ("a5", "2A", "2A")])
def test_m24_classes_serves_by_target_then_name_then_level(group, name, served):
    """A class is served by its fusion target (A5's 5B by 5A), else by the
    class of M24 of its own name at its level (M24's 7B keeps its own
    store key, though 7A sits at the same level)."""
    assert m24_classes(bundled_table(group))[name] == served


def test_m24_classes_without_targets_reads_levels():
    """Without targets a class is served by M24's class of its own name if
    that sits at its level, else by the first class of M24 at its level;
    a level that M24 lacks still loads, and is refused when served."""
    a5 = bundled_doc("a5")
    for c in a5["classes"]:
        del c["fusion_target"]
    assert m24_classes(load_table(a5)) == {"1A": "1A", "2A": "2A", "3A": "3A",
                                           "5A": "5A", "5B": "5A"}
    m24 = bundled_doc("m24")
    m24["classes"][2]["hg"] = 1  # 2B on the level of 2A
    assert m24_classes(load_table(m24))["2B"] == "2A"
    a5["classes"][1].update(ng=6, hg=2)
    table = load_table(a5)
    with pytest.raises(TableError, match=r"class 2A: its level \(n_g, h_g\) = \(6, 2\) "
                                         r"is not that of a class in M24"):
        m24_classes(table)


@pytest.mark.parametrize("target", ["3A", "99Z", ["2A"]], ids=["3A", "99Z", "list"])
def test_fusion_target_off_its_level_refused_at_load(target, tmp_path, capsys):
    """A fusion target that is not a class of M24 at its class's level is
    refused when the table loads, and validate reports it as a FAIL line;
    a target that is no string is read as its text, as a class name is."""
    doc = bundled_doc("a5")
    doc["classes"][1]["fusion_target"] = target
    message = f"class 2A: its level (n_g, h_g) = (2, 1) is not that of {target} in M24"
    with pytest.raises(TableError, match=re.escape(message)):
        load_table(doc)
    path = tmp_path / "bad.table"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"FAIL: {message}\n")


def test_distinct_orders(a5):
    assert distinct_orders(a5) == [1, 2, 3, 5]


def test_class_lookup(m24):
    assert m24.class_index("1A") == 0
    assert m24.classes[0].size == 1
    with pytest.raises(KeyError):
        m24.class_index("99Z")


def test_perturbed_value_fails_orthogonality():
    doc = bundled_doc("a5")
    doc["irreps"][4]["values"][1]["a"] += 2  # chi5 at class 2A
    with pytest.raises(OrthogonalityError) as err:
        load_table(doc)
    assert str(err.value) == ("row orthogonality fails for (chi1, chi5): "
                              "four times the sum is {1: 60}")
    # The irrational part: chi3a at 5A becomes (1 + 3 sqrt 5)/2.
    doc = bundled_doc("a5")
    assert doc["irreps"][1]["values"][3] == {"a": 1, "b": 1, "d": 5}
    doc["irreps"][1]["values"][3]["b"] += 2
    with pytest.raises(OrthogonalityError) as err:
        load_table(doc)
    assert str(err.value) == ("row orthogonality fails for (chi1, chi3a): "
                              "four times the sum is {5: 48}")


def _c4_times_d16() -> dict:
    """The table of C4 x D16 (order 64, 28 classes), whose classes carry
    sqrt(-1), sqrt(2) and sqrt(-2) on different irreps.

    Each factor value is coeff * sqrt(radicand); so is each product.
    """
    c4 = {"orders": [1, 4, 2, 4], "sizes": [1, 1, 1, 1],
          "irreps": [[(1, 1), (1, 1), (1, 1), (1, 1)],
                     [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                     [(1, 1), (-1, 1), (1, 1), (-1, 1)],
                     [(1, 1), (-1, -1), (-1, 1), (1, -1)]]}
    # Classes 1, r^4, r^{+-1}, r^{+-2}, r^{+-3}, s, sr with r of order 8.
    psi1 = [(2, 1), (-2, 1), (1, 2), (0, 1), (-1, 2), (0, 1), (0, 1)]
    psi2 = [(2, 1), (2, 1), (0, 1), (-2, 1), (0, 1), (0, 1), (0, 1)]
    psi3 = [(2, 1), (-2, 1), (-1, 2), (0, 1), (1, 2), (0, 1), (0, 1)]
    d16 = {"orders": [1, 2, 8, 4, 8, 2, 2], "sizes": [1, 1, 2, 2, 2, 4, 4],
           "irreps": [[(x, 1) for x in row] for row in (
               [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, -1, -1],
               [1, 1, -1, 1, -1, 1, -1], [1, 1, -1, 1, -1, -1, 1])]
           + [psi1, psi2, psi3]}

    def triple(x, y):
        k, s = mul_roots(x[1], y[1])
        c = x[0] * y[0] * k
        if c == 0:
            return {"a": 0, "b": 0, "d": 1}
        return {"a": 2 * c, "b": 0, "d": 1} if s == 1 else {"a": 0, "b": 2 * c, "d": s}

    pairs = [(p, q) for p in range(4) for q in range(7)]
    irreps = [{"name": f"chi{i}.{j}", "dim": row_d[0][0],
               "values": [triple(row_c[p], row_d[q]) for p, q in pairs]}
              for i, row_c in enumerate(c4["irreps"])
              for j, row_d in enumerate(d16["irreps"])]
    irreps.sort(key=lambda r: r["dim"])
    classes = []
    for p, q in pairs:
        order = math.lcm(c4["orders"][p], d16["orders"][q])
        classes.append({"name": f"c{p}.{q}", "size": c4["sizes"][p] * d16["sizes"][q],
                        "element_order": order, "ng": order, "hg": 1})
    return {"group_name": "C4xD16", "group_order": 64,
            "classes": classes, "irreps": irreps}


def test_mixed_radicand_columns():
    doc = _c4_times_d16()
    table = load_table(doc)
    assert len(table.classes) == len(table.irreps) == 28
    assert sum(chi.dim ** 2 for chi in table.irreps) == 64
    column = {chi.values[table.class_index("c1.2")].d for chi in table.irreps}
    assert column == {1, -1, 2, -2}  # the class of (g, r): one column, four fields
    irrep, k = next((r, k) for r in doc["irreps"] for k, v in enumerate(r["values"])
                    if v["d"] == -2)
    irrep["values"][k]["b"] *= -1
    with pytest.raises(OrthogonalityError) as err:
        load_table(doc)
    assert str(err.value) == ("row orthogonality fails for (chi0.0, chi1.4): "
                              "four times the sum is {-2: 16}")


def _term_by_term(terms) -> dict[int, int]:
    """4 sum w u v over (w, u, v) triples, one product of parts at a time."""
    acc = {}
    for w, u, v in terms:
        for s1, x in ((1, u.a), (u.d, u.b)):
            for s2, y in ((1, v.a), (v.d, v.b)):
                if x and y:
                    k, s = mul_roots(s1, s2)
                    acc[s] = acc.get(s, 0) + w * k * x * y
    return {s: t for s, t in acc.items() if t}


def _first_row_failure(doc) -> str | None:
    """The message of the first failing row relation, each sum taken term by
    term.  (Exact row orthogonality of a square table implies column
    orthogonality, which is not checked again.)"""
    order, classes = doc["group_order"], doc["classes"]
    names = [r["name"] for r in doc["irreps"]]
    rows = [[QuadraticValue(v["a"], v["b"], v["d"]) for v in r["values"]]
            for r in doc["irreps"]]
    conj = [[v.conjugate() for v in row] for row in rows]
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            got = dict(sorted(_term_by_term(zip((c["size"] for c in classes),
                                                rows[i], conj[j])).items()))
            if got != ({1: 4 * order} if i == j else {}):
                return (f"row orthogonality fails for ({names[i]}, {names[j]}): "
                        f"four times the sum is {got}")
    return None


@pytest.mark.parametrize("make, sample", [
    (_c4_times_d16, 40), (lambda: bundled_doc("a5"), None)],
    ids=["C4xD16", "A5"])
def test_orthogonality_messages_match_term_by_term_sums(make, sample):
    """One-entry changes off the identity class (a + 2, b doubled, b negated)
    fail with the pair and the radicand -> numerator dict, keys sorted, of
    sums taken term by term; C4 x D16 draws a fixed sample of 40 of its 1164
    and adds one two-entry change (chi1.4 with b doubled at a sqrt(2) class
    and, later, at a sqrt(-1) class) whose sum has two radicands."""
    base = make()
    changes = [[(r, k, part, delta)]
               for r, irrep in enumerate(base["irreps"])
               for k, v in enumerate(irrep["values"][1:], start=1)
               for part, delta in [("a", 2)] + ([("b", v["b"]), ("b", -2 * v["b"])]
                                                if v["b"] else [])]
    if sample:
        changes = random.Random(0).sample(changes, sample)
        values = base["irreps"][19]["values"]
        assert [values[k]["d"] for k in (2, 7)] == [2, -1]
        changes.append([(19, k, "b", values[k]["b"]) for k in (2, 7)])
    for change in changes:
        doc = json.loads(json.dumps(base))
        for r, k, part, delta in change:
            doc["irreps"][r]["values"][k][part] += delta
        expected = _first_row_failure(doc)
        with pytest.raises(OrthogonalityError) as err:
            load_table(doc)
        assert str(err.value) == expected
    if sample:
        assert expected == ("row orthogonality fails for (chi0.0, chi1.4): "
                            "four times the sum is {-1: -8, 2: 8}")


@pytest.mark.parametrize("make", [lambda: bundled_doc("m24"), lambda: bundled_doc("a5"),
                                  _c4_times_d16], ids=["M24", "A5", "C4xD16"])
def test_column_relation_holds(make):
    """The column relation, taken term by term, on every table that loads.

    load_table checks the row relation X D X* = I only, with X the square
    table and D = diag(|[g_k]|/|G|).  Then X is invertible, X^-1 = D X*,
    and so X* X = D^-1: four times sum_i conj chi_i(g_k) chi_i(g_l) is
    4 |G| / |[g_k]| when k = l and 0 otherwise.
    """
    doc = make()
    table = load_table(doc)
    order = table.group_order
    columns = list(zip(*(chi.values for chi in table.irreps)))
    for k, ck in enumerate(table.classes):
        for l in range(k, len(table.classes)):
            got = _term_by_term((1, u.conjugate(), v) for u, v in zip(columns[k], columns[l]))
            assert got == ({1: 4 * order // ck.size} if k == l else {}), (ck.name, l)


@pytest.mark.parametrize("make", [lambda: bundled_doc("m24"), lambda: bundled_doc("a5"),
                                  _c4_times_d16], ids=["M24", "A5", "C4xD16"])
def test_twice_sums_match_term_by_term(make):
    """twice_sums equals 2 sum_k |[g_k]| w_k chi_i(g_k) taken term by term
    (as 4 sum of each value times the value 1/2), rational part and sqrt(d)
    parts alike, on random integer weights; zeros are dropped."""
    table = load_table(make())
    sizes = [c.size for c in table.classes]
    half = QuadraticValue(1, 0, 1)
    rng = random.Random(24)
    for _ in range(40):
        weights = [rng.choice([0, 0, -1, 1, rng.randint(-50, 50)]) for _ in sizes]
        twice, roots = table.twice_sums(weights)
        assert len(twice) == len(table.irreps)
        assert all(root and all(root.values()) for root in roots.values())
        for i, chi in enumerate(table.irreps):
            got = {s: t for s, t in {1: twice[i], **roots.get(i, {})}.items() if t}
            want = _term_by_term((s * w, v, half)
                                 for s, w, v in zip(sizes, weights, chi.values))
            assert got == want, (chi.name, weights)


def test_bad_size_sum():
    doc = bundled_doc("a5")
    doc["classes"][2]["size"] += 1
    with pytest.raises(SizeSumError):
        load_table(doc)


def test_parse_error_on_garbage(tmp_path):
    p = tmp_path / "bad.table"
    p.write_text("not json at all")
    with pytest.raises(TableParseError):
        load_table(p)


def test_identity_value_must_match_dim():
    doc = bundled_doc("a5")
    doc["irreps"][0]["dim"] = 2
    with pytest.raises(TableParseError):
        load_table(doc)


def test_nonpositive_dim_refused(tmp_path, capsys):
    """A negated trivial character (dim -1 with every value negated) passes
    orthogonality; its dim is refused first, and validate reports a FAIL
    line."""
    doc = bundled_doc("a5")
    chi1 = doc["irreps"][0]
    chi1["dim"] = -1
    for v in chi1["values"]:
        v["a"] = -v["a"]
    with pytest.raises(TableParseError, match="irrep chi1: dim = -1 must be positive"):
        load_table(doc)
    path = tmp_path / "bad.table"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "FAIL: irrep chi1: dim = -1 must be positive\n"


@pytest.mark.parametrize("key, name, message", [
    ("irreps", "chi4", "irrep name chi4 is repeated"),
    ("classes", "5A", "class name 5A is repeated")], ids=["irrep", "class"])
def test_repeated_name_refused(key, name, message, tmp_path, capsys):
    """A second irrep or class under a name already used would shadow the
    first in every name-keyed output; the repeat is a parse error, and
    validate reports it as a FAIL line."""
    doc = bundled_doc("a5")
    doc[key][4]["name"] = name  # chi5 or 5B
    with pytest.raises(TableParseError, match=message):
        load_table(doc)
    path = tmp_path / "bad.table"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"FAIL: {message}\n"


@pytest.mark.parametrize("ng, hg", [(0, 1), (3, 0), (-2, 1), (3, -3)])
def test_nonpositive_level_refused(ng, hg, tmp_path, capsys):
    """n_g and h_g are checked before they divide anything: a zero or
    negative one is a parse error, and validate reports it as a FAIL line."""
    doc = bundled_doc("a5")
    doc["classes"][1].update(ng=ng, hg=hg)
    with pytest.raises(TableParseError, match="must be positive"):
        load_table(doc)
    path = tmp_path / "bad.table"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("FAIL: class 2A: ng = ")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["irreps"][1]["values"][3].update(d=20) or doc,
     "bad character value at chi3a/5A: d = 20 is not squarefree"),
    (lambda doc: {**doc, "irreps": doc["irreps"][:4]}, "5 classes but 4 irreps in A5"),
    (lambda doc: doc["classes"][0].update(element_order=2) or doc,
     "first class must be the identity (size 1, order 1)"),
    (lambda doc: doc["classes"][1].update(ng=7) or doc, "class 2A: ng = 7 does not divide |G|"),
    (lambda doc: doc["classes"][2].update(hg=2) or doc, "class 3A: hg = 2 does not divide ng = 3"),
    (lambda doc: doc["irreps"][3].update(values=doc["irreps"][3]["values"][:4]) or doc,
     "irrep chi4: wrong number of values"),
    (lambda doc: doc["irreps"][3]["values"].append(doc["irreps"][3]["values"][0]) or doc,
     "irrep chi4: wrong number of values"),
    (lambda doc: {**doc, "irreps": doc["irreps"][:3] + doc["irreps"][:2:-1]},
     "irrep chi4: dims not non-decreasing"),
    (lambda doc: [doc], "cannot parse table: top-level document must be an object"),
], ids=["d not squarefree", "class and irrep counts", "first class not identity",
        "ng not dividing |G|", "hg not dividing ng", "too few values", "too many values",
        "dims decreasing", "top-level array"])
def test_table_refusal(edit, message, tmp_path, capsys):
    """Each refusal of an edited copy of a5.table is one TableParseError
    with its message, and validate FILE reports it as one FAIL line."""
    path = tmp_path / "bad.table"
    path.write_text(json.dumps(edit(bundled_doc("a5"))))
    with pytest.raises(TableParseError) as err:
        load_table(str(path))
    assert str(err.value) == message
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"FAIL: {message}\n")
