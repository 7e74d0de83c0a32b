"""Coefficient engine: gates, cache, known values."""

import collections
import fcntl
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import types
from importlib import resources

import mpmath
import numpy as np
import pytest

import kloosterman_reference as ref
import test_filtration as tf
from moonmod import kernels, numerics, rademacher
from moonmod.chartab import ConjugacyClass, UnknownClassError, load_table
from moonmod.numerics import asymptotic_leading
from moonmod.rademacher import (HEAD_SWITCH, NonConvergent, RademacherEngine, _series_digits,
                                partial_kloosterman)
from moonmod.store import (CoefficientCache, CoefficientRecord, RecordModeError, _encode,
                           bundled_cache)

KNOWN_1A = [90, 462, 1540, 4554, 11592, 27830, 61686, 131100]
KNOWN_2A = [-6, 14, -28, 42, -56, 86, -138, 188]
KNOWN_2B = [10, -18, 20, -38, 72, -90, 118, -180]


def truncate(monkeypatch, **constants):
    """Set the engine's truncation constants, by name, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(rademacher, name, value)


def _lifts(c):
    """The lifts the kernel screens for c at one grade, at most (as in
    test_kernels): T_j for the largest root j < c/2 over the lift step c
    (odd c) or c/2 (even c), plus one."""
    half = (c + 1) // 2
    return half * (half - 1) // 2 // (c if c % 2 else c // 2) + 1


def test_store_has_one_record_per_key():
    # The cache keeps the first record of a key, so a duplicated key would
    # make the answer depend on the order of the lines.
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    recs = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    keys = [(r["group"], r["class"], int(r["n"])) for r in recs]
    assert len(keys) == len(set(keys))


def test_store_lines_are_the_append_encoding(tmp_path):
    """Every packaged store line is the append encoder's rendering of its
    parsed record, and an appended record is the bytes of
    json.dumps(rec, sort_keys=True) and a newline."""
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    lines = [line for line in store.read_text(encoding="utf-8").splitlines() if line.strip()]
    assert len(lines) == 1720
    assert [line for line in lines if _encode(json.loads(line)) != line] == []
    path = tmp_path / "cache.ldjson"
    CoefficientCache(path).put("M24", "2A", 3, CoefficientRecord("2A", 3, -28, 2.5e-5, 410,
                                                                 "dip"))
    rec = {"group": "M24", **CoefficientRecord("2A", 3, -28, 2.5e-5, 410, "dip").json_fields()}
    assert path.read_bytes() == (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")


def test_append_encoding_is_json_dumps():
    """_encode writes json.dumps(rec, sort_keys=True) for records whose
    strings hold quotes, backslashes, control and non-ASCII characters,
    with residuals from the smallest subnormal up and values of any size."""
    rng = random.Random(38)
    alphabet = ["A", "z", "0", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
                "\u03c0", "\u2028", "\U0001d11e"]
    residuals = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.7679944444136355e-14, 1e-5,
                 2.5e-5, 1e-4, 0.05, 0.5, 1e16, 1.0000000000000002]

    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))

    for _ in range(500):
        residual = (rng.choice(residuals) if rng.random() < 0.5
                    else rng.random() * 10.0 ** rng.randrange(-20, 1))
        record = CoefficientRecord(word(), rng.randrange(1, 10 ** 6),
                                   rng.randrange(-10 ** 40, 10 ** 40), residual,
                                   rng.randrange(60001), word())
        rec = {"group": word(), **record.json_fields()}
        assert _encode(rec) == json.dumps(rec, sort_keys=True)


def test_asymptotic_leading_formula():
    n = 10
    got = asymptotic_leading(1, n)
    q8 = 8 * n - 1
    assert got == pytest.approx(4 / math.sqrt(q8) * math.exp(math.pi * math.sqrt(q8) / 2))
    # Exponent halves for n_g = 2, so the ratio collapses.
    r = asymptotic_leading(2, 40) / asymptotic_leading(1, 40)
    assert r < 1e-5


def test_head_kloosterman_is_real_and_exact(m24_table):
    """partial_kloosterman, the Selberg form in mpmath, against the sum over
    every coprime d at the head's digit count: every M24 level, five grades,
    and the first three c of each level, which hold every c of the head."""
    levels = sorted({(cls.ng, cls.hg) for cls in m24_table.classes})
    checked = 0
    for n in (1, 5, 27, 60, 120):
        digits = _series_digits(n)
        bound = mpmath.mpf(10) ** -(digits - 10)
        assert math.pi * math.sqrt(8 * n - 1) / (2 * HEAD_SWITCH) < 3
        for ng, hg in levels:
            for c in (ng, 2 * ng, 3 * ng):
                got = partial_kloosterman(n, c, ng, hg, digits)
                assert isinstance(got, mpmath.mpf), (ng, hg, n, c)
                exact = ref.kloosterman(n, c, ng, hg, digits + 10)
                with mpmath.workdps(digits + 10):
                    assert abs(got - exact.real) < bound, (ng, hg, n, c)
                    assert abs(exact.imag) < bound, (ng, hg, n, c)
                checked += 1
    assert checked == 5 * 3 * len(levels) == 315


@pytest.mark.parametrize("name, n", [("1A", 21), ("1A", 40), ("1A", 60), ("2A", 90)])
def test_head_terms_match_mpmath_bessel(m24_table, name, n):
    """_head_terms writes I_{1/2}(x) in closed form, sqrt(2/(pi x)) sinh(x);
    a head summed with mpmath.besseli(1/2, x) at the same digits gives the
    same integer part, the same float remainder that starts the tail, and
    the same first c of the tail."""
    cls = m24_table.class_named(name)
    st = rademacher._GradeState()
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    tail_start = engine._head_terms(cls, {n: st})
    q8 = 8 * n - 1
    digits = _series_digits(n)
    c = cls.ng
    with mpmath.workdps(digits):
        head = mpmath.mpf(0)
        while c <= math.pi * math.sqrt(q8) / (2 * HEAD_SWITCH):
            x = mpmath.pi * mpmath.sqrt(q8) / (2 * c)
            head += 4 * mpmath.pi * mpmath.besseli(0.5, x) / (c * mpmath.root(q8, 4)) \
                * partial_kloosterman(n, c, cls.ng, cls.hg, digits)
            c += cls.ng
        nearest = mpmath.nint(head)
        assert (st.head_int, st.cum) == (int(nearest), float(head - nearest))
    assert c > cls.ng and tail_start == {n: c}


def test_known_identity_values(engine):
    for k, expect in enumerate(KNOWN_1A, start=1):
        assert engine.value("1A", k) == expect


def test_known_order_two_values(engine):
    for k, expect in enumerate(KNOWN_2A, start=1):
        assert engine.value("2A", k) == expect
    for k, expect in enumerate(KNOWN_2B, start=1):
        assert engine.value("2B", k) == expect


def test_polar_and_zero_grades(engine):
    """Grades -1 and 0 are definitions, -2 and 0 for every class; below -1
    is refused."""
    for name in ("1A", "23A"):
        recs = engine.records(name, [-1, 0])
        assert [(r.class_name, r.n, r.value, r.residual, r.c_max_used, r.gate)
                for r in recs] == [(name, -1, -2, 0.0, 0, "definition"),
                                   (name, 0, 0, 0.0, 0, "definition")]
        assert [engine.value(name, n) for n in (-1, 0)] == [-2, 0]
    with pytest.raises(ValueError):
        engine.records("1A", [-2])


def test_asymptotic_ratio_within_ten_percent(engine):
    n = 40
    ratio = engine.value("1A", n) / asymptotic_leading(1, n)
    assert abs(ratio - 1) < 0.10


def test_identity_dominance(engine):
    for n in (2, 5, 10, 20):
        c1 = abs(engine.value("1A", n))
        for name in ("2A", "2B", "3A", "5A", "23A"):
            assert c1 > abs(engine.value(name, n))


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.ldjson"
    cache = CoefficientCache(path)
    rec = CoefficientRecord("2A", 3, -28, 2.5e-5, 410, "dip")
    cache.put("M24", "2A", 3, rec)
    again = CoefficientCache(path)
    got = CoefficientRecord.from_json(again.get("M24", "2A", 3))
    assert got.value == -28
    assert got.c_max_used == 410
    assert got.gate == "dip"
    assert again.records["M24", "2A", 3]["mode"] == "classical"
    assert again.hits == 1


def test_cache_tolerates_torn_line(tmp_path):
    path = tmp_path / "cache.ldjson"
    cache = CoefficientCache(path)
    rec = CoefficientRecord("1A", 1, 90, 1e-5, 127, "dip")
    cache.put("M24", "1A", 1, rec)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"group": "M24", "class": "1A", "n": 2, "val')  # torn tail
    before = path.read_bytes()
    again = CoefficientCache(path)
    assert len(again) == 1
    # The torn line is dropped in memory only; loading never rewrites the file.
    assert path.read_bytes() == before
    # The next append starts on a line of its own.
    again.put("M24", "1A", 3, CoefficientRecord("1A", 3, 1540, 1e-5, 300, "dip"))
    fresh = CoefficientCache(path)
    assert {key: int(r["value"]) for key, r in fresh.records.items()} == \
        {("M24", "1A", 1): 90, ("M24", "1A", 3): 1540}


def test_cache_put_finishes_short_writes(tmp_path, monkeypatch):
    """A write that takes part of a line is continued until the record is
    whole on disk.  One that takes no byte (a full disk) raises OSError and
    keeps no record, and the next record starts on a line of its own."""
    path = tmp_path / "cache.ldjson"
    budget = {"bytes": 10 ** 6}

    def short_write(fd, data):
        """Takes at most 3 bytes a write, and nothing once the budget is spent."""
        take = min(3, budget["bytes"], len(data))
        budget["bytes"] -= take
        return os.write(fd, bytes(data[:take])) if take else 0

    # The store appends through os.write; only its own view of os is patched.
    store_os = types.SimpleNamespace(**vars(os))
    store_os.write = short_write
    monkeypatch.setattr("moonmod.store.os", store_os)
    cache = CoefficientCache(path)
    cache.put("M24", "1A", 1, CoefficientRecord("1A", 1, 90, 1e-5, 127, "dip"))
    assert CoefficientCache(path).records == cache.records
    budget["bytes"] = 10
    with pytest.raises(OSError, match="short write"):
        cache.put("M24", "2A", 3, CoefficientRecord("2A", 3, -28, 2.5e-5, 410, "dip"))
    assert ("M24", "2A", 3) not in cache.records
    assert not path.read_bytes().endswith(b"\n")
    budget["bytes"] = 10 ** 6
    cache.put("M24", "1A", 3, CoefficientRecord("1A", 3, 1540, 1e-5, 300, "dip"))
    lines = path.read_bytes().split(b"\n")
    assert [json.loads(lines[k])["n"] for k in (0, 2)] == [1, 3] and lines[3] == b""
    assert CoefficientCache(path).records == cache.records


def test_cache_put_recreates_a_removed_file(tmp_path):
    """A store file deleted between two appends, as `cache --clear` in
    another process leaves it, is created anew by the next append and holds
    its record on a line of its own."""
    path = tmp_path / "cache.ldjson"
    cache = CoefficientCache(path)
    cache.put("M24", "1A", 1, CoefficientRecord("1A", 1, 90, 1e-5, 127, "dip"))
    path.unlink()
    cache.put("M24", "1A", 3, CoefficientRecord("1A", 3, 1540, 1e-5, 300, "dip"))
    line, end = path.read_bytes().split(b"\n")
    assert json.loads(line)["n"] == 3 and end == b""
    assert CoefficientCache(path).records.keys() == {("M24", "1A", 3)}


def _record_line(cls, n, value="7", **extra) -> str:
    return json.dumps({"group": "M24", "class": cls, "n": n, "value": value,
                       "residual": 1e-5, "c_max_used": 99, "mode": "classical",
                       "gate": "dip", **extra}, sort_keys=True)


def _per_line_records(lines) -> dict:
    """The store's records by the plain rule: each line parsed alone, lines
    or records whose key, value, residual or c_max_used do not parse, or
    whose n, value or c_max_used is a float or a bool, skipped, the first
    record of a key kept."""
    records = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = (rec["group"], rec["class"], int(rec["n"]))
            int(rec["value"]), float(rec["residual"]), int(rec["c_max_used"])
        except (ValueError, KeyError, TypeError):
            continue
        if any(isinstance(rec[f], (bool, float)) for f in ("n", "value", "c_max_used")):
            continue
        records.setdefault(key, rec)
    return records


ADVERSARIAL_LINES = {
    "torn middle": [_record_line("1A", 1), _record_line("1A", 2)[:40],
                    _record_line("1A", 3)],
    "two on one line": [_record_line("1A", 1),
                        _record_line("1A", 2) + "," + _record_line("1A", 3)],
    "bare values": ["42", _record_line("1A", 1), "[1]", '"x"', "null"],
    "missing value": [_record_line("1A", 1),
                      json.dumps({"group": "M24", "class": "1A", "n": 2}),
                      _record_line("1A", 3)],
    "non-integer value": [_record_line("1A", 1, value="1.5"),
                          _record_line("1A", 2, value="x"), _record_line("1A", 3)],
    "missing residual": [_record_line("1A", 1),
                         json.dumps({"group": "M24", "class": "1A", "n": 2, "value": "91",
                                     "c_max_used": 99, "mode": "classical"}),
                         _record_line("1A", 3)],
    "non-numeric c_max_used": [_record_line("1A", 1, c_max_used="x"), _record_line("1A", 2)],
    # int() would read each as a truncated integer: n = true as 1, and so on.
    "float or bool fields": [_record_line("1A", True, value=2.9, c_max_used=56.5),
                             _record_line("1A", 1.0), _record_line("1A", 2, value=90.0),
                             _record_line("1A", 3, value=True),
                             _record_line("1A", 4, c_max_used=99.0),
                             _record_line("1A", 5, c_max_used=False),
                             _record_line("1A", 1, value="90")],
    "U+2028 in a string": [_record_line("1A", 1),
                           json.dumps({"group": "M24", "class": "2A\u20282B", "n": 1,
                                       "value": "7"}, ensure_ascii=False),
                           _record_line("1A", 2)],
    "duplicate key": [_record_line("1A", 1, value="90"), _record_line("1A", 2),
                      _record_line("1A", 1, value="91")],
    "blank and whitespace lines": ["", _record_line("1A", 1), "   ", "\t",
                                   "  " + _record_line("1A", 2)],
    # A value split over two lines and two values on a third: one element
    # per line when joined, but none of the three lines parses alone.
    "split value compensated": [_record_line("1A", 1)[:-1] + ', "x": [1',
                                '2]}', _record_line("1A", 2) + "," + _record_line("1A", 3)],
    # The same with a string run on into the next line.
    "split string compensated": ['{"note": "x',
                                 '{", "group": "M24", "class": "1A", "n": 1, "value": "7"}',
                                 _record_line("1A", 2) + ",1"],
    "torn inside a string": [_record_line("1A", 1), _record_line("1A", 2)[:20],
                             _record_line("1A", 3)],
    "brace inside a string": [_record_line("1A", 1, note="{"), _record_line("1A", 2)],
    "clean": [_record_line("1A", n) for n in range(1, 6)],
}


# The (class, n, value) of the records each file keeps, in order.
KEPT = {
    "torn middle": [("1A", 1, "7"), ("1A", 3, "7")],
    "two on one line": [("1A", 1, "7")],
    "bare values": [("1A", 1, "7")],
    "missing value": [("1A", 1, "7"), ("1A", 3, "7")],
    "non-integer value": [("1A", 3, "7")],
    "missing residual": [("1A", 1, "7"), ("1A", 3, "7")],
    "non-numeric c_max_used": [("1A", 2, "7")],
    "float or bool fields": [("1A", 1, "90")],
    "U+2028 in a string": [("1A", 1, "7"), ("1A", 2, "7")],
    "duplicate key": [("1A", 1, "90"), ("1A", 2, "7")],
    "blank and whitespace lines": [("1A", 1, "7"), ("1A", 2, "7")],
    "split value compensated": [],
    "split string compensated": [],
    "torn inside a string": [("1A", 1, "7"), ("1A", 3, "7")],
    "brace inside a string": [("1A", 1, "7"), ("1A", 2, "7")],
    "clean": [("1A", n, "7") for n in range(1, 6)],
}


@pytest.mark.parametrize("case", ADVERSARIAL_LINES)
def test_cache_load_matches_per_line_parse(case, tmp_path):
    """Loading a store file gives exactly the records of the per-line rule."""
    path = tmp_path / "cache.ldjson"
    path.write_text("\n".join(ADVERSARIAL_LINES[case]) + "\n", encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    got = CoefficientCache(path).records
    assert list(got.items()) == list(_per_line_records(text.splitlines()).items())
    assert [(cls, n, rec["value"]) for (_, cls, n), rec in got.items()] == KEPT[case]
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("read", [lambda eng: eng.records("1A", [1]),
                                  lambda eng: eng.value("1A", 1)], ids=["records", "value"])
def test_cache_refuses_foreign_mode(read, tmp_path, m24_table):
    path = tmp_path / "cache.ldjson"
    path.write_text(json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "90",
                                "residual": 1e-5, "c_max_used": 127,
                                "mode": "omega-floor", "gate": "dip"}) + "\n")
    eng = RademacherEngine(m24_table, cache=CoefficientCache(path))
    with pytest.raises(RecordModeError, match="omega-floor"):
        read(eng)


def test_cache_hit_avoids_recompute(engine):
    before = engine.cache.hits
    v1 = engine.value("2A", 1)
    v2 = engine.value("2A", 1)
    assert v1 == v2 == -6
    assert engine.cache.hits >= before + 2


def test_nonconvergent_when_budget_tiny(m24_table, monkeypatch):
    # Nothing passes the 1e-12 dip, and the fallback gate cannot: c <= 40
    # holds one checkpoint of 23A, fewer than STABILITY_MIN_RUN.
    truncate(monkeypatch, C_MAX_INITIAL=5, C_MAX_LIMIT=40, RESIDUAL_TOLERANCE=1e-12)
    eng = RademacherEngine(m24_table, cache=CoefficientCache(None))
    scanned = []
    grades, table = kernels.kloosterman_grades, rademacher.kloosterman_table

    def recording(n0, n1, cs, *rest):
        scanned.extend(int(c) for c in cs)
        return grades(n0, n1, cs, *rest)

    def recording_table(c):
        scanned.append(c)
        return table(c)

    monkeypatch.setattr(kernels, "kloosterman_grades", recording)
    monkeypatch.setattr(rademacher, "kloosterman_table", recording_table)
    with pytest.raises(NonConvergent) as err:
        eng.records("23A", [1])
    assert err.value.n == 1
    # The sweep stays on the level grid c = 0 mod 23; nothing re-sweeps off it.
    assert scanned and all(c % 23 == 0 for c in scanned), scanned


def test_first_chunk_tables_hold_only_first_chunk_c(m24_table, warm_cache):
    """A cold sweep of one grade at each of the 21 levels leaves in the
    table memo only the c of the first chunks, 58 of them up to c = 69.
    Each level sweeps its stored grade n <= 20 (no head term) of least
    c_max_used, and gets the stored value back."""
    levels = {}
    for (_, name, n), rec in warm_cache.records.items():
        cls = m24_table.class_named(name)
        best = levels.get((cls.ng, cls.hg))
        if n <= 20 and (best is None or rec["c_max_used"] < best["c_max_used"]):
            levels[cls.ng, cls.hg] = rec
    assert len(levels) == 21
    numerics.kloosterman_table.cache_clear()
    eng = RademacherEngine(m24_table, cache=CoefficientCache(None))
    for rec in levels.values():
        assert eng.value(rec["class"], rec["n"]) == int(rec["value"]), rec
    # Each first chunk is the grid up to the first c at or past C_MAX_INITIAL.
    top = rademacher.C_MAX_INITIAL
    first = {c for ng, _ in levels for c in range(ng, -(-top // ng) * ng + 1, ng)}
    assert len(first) == 58 and max(first) == 69
    assert numerics.kloosterman_table.cache_info().currsize == len(first)


def test_stability_gate_on_sparse_class(engine):
    [rec] = engine.records("23A", [1])
    assert rec.value == -2
    # The sparse admissible grid never dips to the primary tolerance; the
    # fallback gate certifies the value and labels the record.
    assert rec.gate in ("dip", "stability")
    if rec.gate == "stability":
        assert rec.residual <= 0.05


def test_records_deterministic(engine):
    a = engine.records("2A", range(-1, 6))
    b = engine.records("2A", range(-1, 6))
    assert [r.value for r in a] == [r.value for r in b]
    assert a[0].value == -2


def test_records_batch_matches_single_grades(m24_table):
    """One sweep over a class's grades gives, bit for bit, the records of
    one sweep per grade, returned in request order."""
    grades = [9, 1, 5, 2]
    for name in ("2A", "7A"):
        batch = RademacherEngine(m24_table, cache=CoefficientCache(None)).records(name, grades)
        single = [RademacherEngine(m24_table, cache=CoefficientCache(None)).records(name, [n])[0]
                  for n in grades]
        assert [(r.n, r.value, repr(r.residual), r.c_max_used, r.gate) for r in batch] == \
            [(r.n, r.value, repr(r.residual), r.c_max_used, r.gate) for r in single]


def test_stability_window_spans_sweep_chunks(m24_table, monkeypatch):
    """The run of equal roundings is carried across chunks: sweeping
    c = 23, 46, ..., 460 in several chunks ends with the run of one chunk.
    Chunks are sized from kernels._BLOCK; 64 cells make several of them."""
    chunks = []
    grades = kernels.kloosterman_grades

    def recording(n0, n1, cs, *rest):
        chunks.append(len(cs))
        return grades(n0, n1, cs, *rest)

    monkeypatch.setattr(kernels, "kloosterman_grades", recording)
    ends = []
    for block in (kernels._BLOCK, 64):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        # Nothing can pass the 1e-12 dip or the fallback gate: c <= 460
        # holds 20 checkpoints of 23A, fewer than STABILITY_MIN_RUN.
        truncate(monkeypatch, C_MAX_LIMIT=460, RESIDUAL_TOLERANCE=1e-12)
        engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
        st = engine._sweep(m24_table.class_named("23A"), [1])[1]
        assert st.record is None
        ends.append((st.stable_run, st.last_rounded, st.cum))
    assert len(chunks) > 3
    assert ends[0] == ends[1]
    # The final run reaches back over more than the last chunk.
    assert ends[1][0] > chunks[-1]


def test_chunk_ends_change_no_record(m24_table, monkeypatch):
    """The running sum is one left fold from the head on, so records do
    not depend on where the chunks end: 1A n = 23 (one head term), 2A
    n = 51, 7B n = 24 and 23B n = 27, swept cold with the default chunks
    and with the many small ones of a 64-cell block, agree to the last bit."""
    pairs = [("1A", 23), ("2A", 51), ("7B", 24), ("23B", 27)]
    got = []
    for block in (kernels._BLOCK, 64):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
        got.append([(rec.value, rec.gate, rec.c_max_used, repr(rec.residual))
                    for name, n in pairs for rec in engine.records(name, [n])])
    assert got[0] == got[1]


@pytest.mark.parametrize("head_switch, records", [
    (0.3, [("1A", 23, 500376870, "dip", 1779, "1.6916472038446158e-05"),
           ("2A", 12, 616, "dip", 856, "2.1130812534186916e-05"),
           ("2A", 30, 34272, "dip", 2550, "3.828865895031731e-05"),
           ("3A", 9, 42, "dip", 1368, "9.814794630421298e-05"),
           ("3A", 40, 0, "dip", 96, "0.0")]),
    (0.1, [("1A", 23, 500376870, "dip", 1779, "1.691647203850167e-05"),
           ("2A", 12, 616, "dip", 856, "2.1130812534311816e-05"),
           ("2A", 30, 34272, "dip", 2550, "3.828865895042833e-05"),
           ("3A", 9, 42, "dip", 1368, "9.814794630465707e-05"),
           ("3A", 40, 0, "dip", 282, "0.0")])])
def test_head_past_the_first_gated_c(m24_table, monkeypatch, head_switch, records):
    """A head that runs past C_MAX_INITIAL, as on the 1A grid above n of
    about 50700, moves the first chunk's end past the last tail start, so
    no kernel chunk adds a term the head already holds.  A lower
    HEAD_SWITCH makes such heads at small n (1A n = 23's runs to c = 70 at
    0.3 and to c = 212 at 0.1); the records keep the bits they had when the
    gate masked the kernel chunks below each tail start instead."""
    monkeypatch.setattr(rademacher, "HEAD_SWITCH", head_switch)
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    got = [(name, r.n, r.value, r.gate, r.c_max_used, repr(r.residual))
           for name, grades in [("1A", [23]), ("2A", [12, 30]), ("3A", [9, 40])]
           for r in engine.records(name, grades)]
    assert got == records


@pytest.mark.parametrize("name, n, first_c, accepted_there, heads", [
    ("7B", 24, 56, True, 0), ("23B", 27, 69, True, 0), ("1A", 23, 50, False, 1)])
def test_first_chunk_ends_at_the_first_gated_c(m24_table, monkeypatch, name, n, first_c,
                                               accepted_there, heads):
    """The first chunk ends at the first c of the grid at or past
    C_MAX_INITIAL = 50: it reads K_c(n) from kloosterman_table(c) at each c
    of the tail up to there, a grade the dip gate accepts there costs no
    kernel call, and a grade without a head term calls no mpmath."""
    scalar_cs, calls, head_calls = [], [], []
    grades, table = kernels.kloosterman_grades, rademacher.kloosterman_table
    head = rademacher.partial_kloosterman

    def recording(n0, n1, cs, *rest):
        calls.append([int(c) for c in cs])
        return grades(n0, n1, cs, *rest)

    def recording_table(c):
        scalar_cs.append(c)
        return table(c)

    def counting(*args):
        head_calls.append(args)
        return head(*args)

    monkeypatch.setattr(kernels, "kloosterman_grades", recording)
    monkeypatch.setattr(rademacher, "kloosterman_table", recording_table)
    monkeypatch.setattr(rademacher, "partial_kloosterman", counting)
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    [rec] = engine.records(name, [n])
    step = m24_table.class_named(name).ng
    # Head terms take the first c's, one each.
    assert scalar_cs == list(range(step * (heads + 1), first_c + 1, step))
    assert (calls == []) == accepted_there
    assert accepted_there or calls[0][0] == first_c + step
    assert ((rec.gate, rec.c_max_used) == ("dip", first_c)) == accepted_there
    assert len(head_calls) == heads


@pytest.mark.parametrize("name, n, first_kernel_c", [
    ("7B", 24, None), ("23B", 27, None), ("1A", 1, 51)], ids=["7B-24", "23B-27", "1A-1"])
def test_first_gated_chunk_skips_the_lift_search(m24_table, warm_cache, monkeypatch, name, n,
                                                 first_kernel_c):
    """A cold grade's first chunk never enters the kernel: 7B n = 24
    (c = 7..56) and 23B n = 27 (c = 23..69) are accepted there with no
    kernel call, and 1A n = 1 (c = 1..50, work 1275) first calls it at 51."""
    class Entered(Exception):
        pass

    def refuse(n0, n1, cs, *rest):
        raise Entered(int(cs[0]))

    monkeypatch.setattr(kernels, "kloosterman_grades", refuse)
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    stored = CoefficientRecord.from_json(warm_cache.records[("M24", name, n)])
    if first_kernel_c is None:
        [rec] = engine.records(name, [n])
        assert (rec.value, rec.gate, rec.c_max_used) == \
            (stored.value, stored.gate, stored.c_max_used)
    else:
        with pytest.raises(Entered) as err:
            engine.records(name, [n])
        assert err.value.args == (first_kernel_c,)
        assert stored.c_max_used >= first_kernel_c


def test_first_chunk_records_and_states_are_pinned(m24_table, warm_cache, monkeypatch):
    """The sweep's records, residual included, and the state it carries past
    the first chunk keep the bits pinned below.  They were taken while a
    batch's first chunk could still run in numpy, where that layout and the
    scalar pass agreed on every one of them.

    Swept to its first gated c only, grades 1..60 at every level of M24:
    grades accepted there and not, and 1A n >= 21 with a head term.  Swept
    to the end, per level a grade accepted in the first chunk (where one
    is) and one accepted past it, a batch of three grades, and 21A n = 27,
    which returns 1 at c = 147 (ROADMAP known defect 1).  Digest (a) reads
    each record, digest (b) each grade not yet accepted.
    """
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    levels = {(cls.ng, cls.hg): cls for cls in m24_table.classes}
    assert len(levels) == 21
    full = [("1A", [23]), ("7B", [23, 24, 25]), ("21A", [27])]
    sweeps = []
    for cls in levels.values():
        first_c = -(-rademacher.C_MAX_INITIAL // cls.ng) * cls.ng
        stored = {n: warm_cache.records[("M24", cls.name, n)] for n in range(1, 61)}
        there = [n for n, r in stored.items() if r["gate"] == "dip" and r["c_max_used"] == first_c]
        past = [n for n, r in stored.items()
                if r["gate"] == "dip" and first_c < r["c_max_used"] <= 2000]
        full += [(cls.name, [n]) for n in there[:1] + past[:1]]
        with monkeypatch.context() as m:
            m.setattr(rademacher, "C_MAX_LIMIT", first_c)
            states = engine._sweep(cls, list(range(1, 61)))
        # The first chunk accepts the packaged store's grades accepted there.
        assert [n for n in there if states[n].record is None] == [], cls.name
        sweeps.append((cls.name, states))
    for name, grades in full:
        sweeps.append((name, engine._sweep(m24_table.class_named(name), grades)))
    records = [st.record for _, states in sweeps for st in states.values() if st.record]
    carried = [f"{name} {n} {st.cum!r} {st.stable_run}"
               for name, states in sweeps for n, st in states.items() if st.record is None]
    lines = [f"{r.class_name} {r.n} {r.value} {r.gate} {r.c_max_used} {r.residual!r}"
             for r in records]
    assert (len(lines), len(carried)) == (388, 910)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "426f6a3e0935fb14046fc583a3a2a93491575895712996b85fc4c3ee09eb0b45"
    assert hashlib.sha256("\n".join(carried).encode()).hexdigest() == \
        "eb39d9d49f30e0a677b9fcace76b7844cea7da445048b810f74e0ab70b43c224"
    [defect] = [r for r in records if (r.class_name, r.n) == ("21A", 27)]
    assert (defect.value, defect.gate, defect.c_max_used) == (1, "dip", 147)
    assert {r.c_max_used <= 69 for r in records} == {True, False}


def test_dip_gate_waits_for_a_stable_run(m24_table, monkeypatch):
    """With a loose 0.2 tolerance from c = 1, 1A n = 1 dips to 88 at c = 2;
    a window of 3 equal roundings is first met at c = 39, on 90."""
    got = []
    for window in (1, 3):
        truncate(monkeypatch, C_MAX_INITIAL=1, RESIDUAL_TOLERANCE=0.2,
                 STABILITY_WINDOW=window)
        engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
        [rec] = engine.records("1A", [1])
        got.append((rec.value, rec.gate, rec.c_max_used))
    assert got == [(88, "dip", 2), (90, "dip", 39)]


@pytest.mark.parametrize("ng, hg, n", [(2, 4, 1), (4, 8, 5), (3, 9, 300)])
def test_sweep_refuses_a_level_off_the_grid(m24_table, ng, hg, n):
    """Where n_g h_g does not divide n_g^2, c = n_g is off the Selberg
    grid: the sweep raises ValueError there, in the scalar pass (no head
    term) or in the head (3, 9 at n = 300)."""
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    with pytest.raises(ValueError, match="off the grid"):
        engine._sweep(ConjugacyClass("X", 1, ng, ng, hg), [n])


def _array_gate(name, n, st, cs, terms):
    """A kernel chunk's dip gate as one array pass, with the run of equal
    roundings formed at every checkpoint: the formula the sweep used before
    the run array was built only near an integer."""
    idx = np.arange(len(cs))
    terms[0] += st.cum
    cum = np.cumsum(terms)
    rounded = np.rint(cum)
    resid = np.abs(cum - rounded)
    same = rounded == np.concatenate(([st.last_rounded], rounded[:-1]))
    first = np.maximum.accumulate(np.where(same, -st.stable_run, idx))
    run = idx - first + 1
    hits = np.flatnonzero((run >= rademacher.STABILITY_WINDOW)
                          & (resid <= rademacher.RESIDUAL_TOLERANCE))
    if len(hits):
        k = hits[0]
        st.record = CoefficientRecord(name, n, st.head_int + int(rounded[k]), float(resid[k]),
                                      int(cs[k]), "dip")
        return
    st.cum = float(cum[-1])
    st.stable_run = int(run[-1])
    st.last_rounded = float(rounded[-1])


def _gate_state(st):
    rec = st.record and (st.record.value, st.record.residual, st.record.c_max_used,
                         st.record.gate)
    return rec, st.stable_run, repr(st.last_rounded), repr(st.cum)


def test_kernel_chunk_gate_equals_the_array_formula():
    """_kernel_chunk leaves the record, run, last rounding and running sum
    of the array formula, on seeded chunks that carry a run or start from
    NaN, keep or change their rounding, hit at index 0, 1, 2, accept at
    index 0 or 1 only by the carried run, and refuse a checkpoint within
    the tolerance for its short run before accepting a later one."""
    rng = np.random.default_rng(38)
    seen = collections.Counter()
    for _ in range(4000):
        size = int(rng.choice([1, 2, 3, 4, 9, 40]))
        states = [rademacher._GradeState() for _ in range(2)]
        start = int(rng.integers(-3, 4))
        nan_start = rng.random() < 0.2
        if not nan_start:
            run = int(rng.integers(1, 5)) if rng.random() < 0.9 else 200
            cum0 = start + rng.uniform(-0.45, 0.45)
            for st in states:
                st.stable_run, st.last_rounded, st.cum = run, float(start), cum0
        # Roundings that stay on the last one, stay on another, or walk.
        walk = rng.choice(["last", "other", "walk"])
        if walk == "last":
            targets = np.full(size, start)
        elif walk == "other":
            targets = np.full(size, start + int(rng.choice([-1, 1])))
        else:
            targets = start + np.cumsum(rng.integers(-1, 2, size) * (rng.random(size) < 0.3))
        near = rng.random(size) < rng.choice([0.0, 0.2, 0.7])
        offsets = np.where(near, rng.uniform(-9e-5, 9e-5, size),
                           rng.choice([-1, 1], size) * rng.uniform(1e-3, 0.45, size))
        cum = targets + offsets
        terms = np.diff(np.concatenate(([states[0].cum], cum)))
        cs = np.arange(1, size + 1, dtype=np.int64) * 7
        sums = np.cumsum(np.concatenate(([terms[0] + states[0].cum], terms[1:])))
        rounded = np.rint(sums)
        _array_gate("7B", 5, states[0], cs, terms.copy())
        rademacher._kernel_chunk("7B", 5, states[1], cs, terms.copy())
        assert _gate_state(states[1]) == _gate_state(states[0])
        if nan_start:
            seen["nan start"] += 1
        elif rounded[0] == start:
            seen["carried run"] += 1
        if (rounded == start).all():
            seen["all on the last rounding"] += 1
        elif (rounded == rounded[0]).all():
            seen["all equal, not the last"] += 1
        if states[0].record is not None:
            k = list(cs).index(states[0].record.c_max_used)
            seen[f"hit at {k}"] += 1
            # Without the carried run, index k's run is at most k + 1.
            if k + 1 < rademacher.STABILITY_WINDOW and not nan_start and rounded[0] == start:
                seen["hit by the carried run"] += 1
            if (np.abs(sums[:k] - rounded[:k]) <= rademacher.RESIDUAL_TOLERANCE).any():
                seen["refused near an integer, then hit"] += 1
        else:
            seen["no hit"] += 1
    wanted = ["nan start", "carried run", "all on the last rounding", "all equal, not the last",
              "hit at 0", "hit at 1", "hit at 2", "no hit", "hit by the carried run",
              "refused near an integer, then hit"]
    assert all(seen[case] >= 20 for case in wanted), seen


def test_stability_gate_cold(m24_table, monkeypatch):
    """On an empty cache, 23A never dips; the fallback gate accepts at the
    last c of the grid at or below C_MAX_LIMIT, which is 2300 for a limit
    on the grid and for one past it."""
    for limit in (2300, 2310):
        truncate(monkeypatch, C_MAX_LIMIT=limit, STABILITY_MIN_RUN=50)
        engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
        recs = engine.records("23A", [1, 2, 3])
        assert [(r.value, r.gate, r.c_max_used) for r in recs] == \
            [(-2, "stability", 2300), (2, "stability", 2300), (-1, "stability", 2300)], limit
        # c = 23, 46, ..., 2300 are 100 checkpoints: no run can reach 101.
        truncate(monkeypatch, STABILITY_MIN_RUN=101)
        engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
        with pytest.raises(NonConvergent, match="run of equal roundings short of 101"):
            engine.records("23A", [1, 2, 3])


def test_nonconvergent_reports_the_last_residual(m24_table):
    """Cold 21A n = 144 passes no gate by C_MAX_LIMIT: the residual at the
    last c swept, which the error reports, is above STABILITY_TOLERANCE."""
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    with pytest.raises(NonConvergent) as err:
        engine.records("21A", [144])
    assert (err.value.class_name, err.value.n) == ("21A", 144)
    assert err.value.residual > rademacher.STABILITY_TOLERANCE
    assert str(err.value).endswith(f"(residual {err.value.residual:.3g} at the last c, "
                                   f"above the stability tolerance 0.05)")
    assert len(engine.cache) == 0


def test_sweep_stops_near_the_accepting_c(m24_table, warm_cache, monkeypatch):
    """A value accepted in the upper half of a doubled chunk ends the sweep there."""
    stored = CoefficientRecord.from_json(warm_cache.records[("M24", "1A", 36)])
    assert stored.gate == "dip" and 1601 <= stored.c_max_used <= 3200
    eng = RademacherEngine(m24_table, cache=CoefficientCache(None))
    scanned = []
    grades = kernels.kloosterman_grades

    def recording(n0, n1, cs, *rest):
        scanned.extend(int(c) for c in cs)
        return grades(n0, n1, cs, *rest)

    monkeypatch.setattr(kernels, "kloosterman_grades", recording)
    [rec] = eng.records("1A", [36])
    assert (rec.value, rec.gate, rec.c_max_used) == \
        (stored.value, stored.gate, stored.c_max_used)
    # The doubling schedule alone would run the chunk 1601..3200 to its end.
    assert max(scanned) < 3200
    # In the kernel's work unit, the lifts it screens.
    useful = sum(_lifts(c) for c in range(1, rec.c_max_used + 1))
    assert sum(_lifts(c) for c in scanned) <= 1.2 * useful + 4 * kernels._BLOCK


def test_store_miss_is_looked_up_once(m24_table, monkeypatch):
    """A miss goes on to the sweep without a second lookup; its record is stored."""
    cache = CoefficientCache(None)
    lookups = []
    get = CoefficientCache.get

    def counting(self, *key):
        lookups.append(key)
        return get(self, *key)

    monkeypatch.setattr(CoefficientCache, "get", counting)
    eng = RademacherEngine(m24_table, cache=cache)
    assert eng.value("1A", 1) == 90
    assert lookups == [("M24", "1A", 1)]
    assert cache.records[("M24", "1A", 1)]["value"] == "90"
    assert eng.value("1A", 1) == 90 and cache.hits == 1


def test_fused_engine_serves_m24_targets(a5_table, engine, warm_cache):
    """An A5 engine answers each A5 class with the M24 class it fuses to."""
    a5 = RademacherEngine(a5_table, cache=warm_cache)
    grades = range(-1, 6)
    for c in a5_table.classes:
        want = [engine.value(c.fusion_target, n) for n in grades]
        assert [a5.value(c.name, n) for n in grades] == want, c.name
        recs = a5.records(c.name, grades)
        assert [r.value for r in recs] == want, c.name
        assert [r.json_fields() for r in recs] == \
            [r.json_fields() for r in engine.records(c.fusion_target, grades)]


@pytest.mark.parametrize("name", ["23A", "99Z"])
@pytest.mark.parametrize("read", [lambda eng, name: eng.value(name, 1),
                                  lambda eng, name: eng.records(name, [1])],
                         ids=["value", "records"])
def test_fused_engine_refuses_classes_it_lacks(a5_table, warm_cache, name, read):
    """23A is an M24 class with no A5 class fusing to it: A5 lacks it too."""
    a5 = RademacherEngine(a5_table, cache=warm_cache)
    with pytest.raises(UnknownClassError) as exc:
        read(a5, name)
    assert exc.value.args == (name,)
    assert str(exc.value) == f"unknown conjugacy class {name!r}"


def test_unfused_table_is_swept_as_m24(m24_table, warm_cache):
    """A table whose classes carry no fusion targets is served by M24's
    classes at their levels (n_g, h_g) and keyed as M24's: S3's 2A and 3A
    sit at M24 2A's and 3A's levels, and a cold sweep appends M24 records."""
    s3 = load_table(tf.S3_DOC)
    cache = CoefficientCache(None)
    eng = RademacherEngine(s3, cache=cache)
    assert eng.group == "M24"
    assert [eng.value(name, 1) for name in ("2A", "3A")] == \
        [int(warm_cache.get("M24", name, 1)["value"]) for name in ("2A", "3A")]
    assert sorted(cache.records) == [("M24", "2A", 1), ("M24", "3A", 1)]
    with pytest.raises(UnknownClassError):
        eng.value("23A", 1)


def test_fused_cold_miss_appends_m24_record(m24_table, a5_table, tmp_path):
    """A cold A5 miss appends the record of a cold M24 sweep, keyed as M24's."""
    path = tmp_path / "m24_coeffs.ldjson"
    a5 = RademacherEngine(a5_table, cache=CoefficientCache(path))
    [want] = RademacherEngine(m24_table).records("5A", [1])
    assert a5.value("5B", 1) == want.value
    [line] = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(line) == {**want.json_fields(), "group": "M24"}


# The batches of FIRST_CHUNK_BATCHES in turn, on one engine with a session
# cache.  After each it prints one line: each record's value, gate and
# c_max_used, whether moonmod.kernels and mpmath are loaded, and how many
# Kloosterman tables numerics holds.
FIRST_CHUNK_CHILD = (
    "import sys\n"
    "from moonmod import numerics\n"
    "from moonmod.chartab import bundled_table\n"
    "from moonmod.rademacher import RademacherEngine\n"
    "from moonmod.store import CoefficientCache\n"
    "engine = RademacherEngine(bundled_table('m24'), cache=CoefficientCache(None))\n"
    "for arg in sys.argv[1:]:\n"
    "    cls, grades = arg.split(':')\n"
    "    recs = engine.records(cls, [int(n) for n in grades.split(',')])\n"
    "    print(*[f'{r.value} {r.gate} {r.c_max_used}' for r in recs],\n"
    "          'moonmod.kernels' in sys.modules, 'mpmath' in sys.modules,\n"
    "          numerics.kloosterman_table.cache_info().currsize)\n"
)

# (class, grades, kernels loaded after, Kloosterman tables held after).  7B
# n = 24 has no head term and is accepted in its first chunk, c = 7..56,
# which the scalar pass sweeps from the tables of those 8 c.  So is each of
# the ten 7B grades after it, a batch whose first chunk (10 grades times
# 7 + 14 + ... + 56 = 2520 of work) once went to the kernel: each is a dip
# at c = 56, with no kernel call and no new table.  1A n = 1 is the first
# grade that needs a kernel chunk: the tables of its own first chunk, c =
# 1..50, are added, and the kernel chunks past it add none.
FIRST_CHUNK_BATCHES = [("7B", [24], False, 8),
                       ("7B", [2, 3, 5, 9, 10, 12, 16, 17, 19, 23], False, 8),
                       ("1A", [1], True, 51)]


def test_first_chunk_value_loads_no_kernel():
    """A grade accepted in the scalar pass gets its stored record without
    loading moonmod.kernels, and a grade without a head term loads no
    mpmath; the first grade that needs a kernel chunk loads the kernel."""
    stored = bundled_cache().records
    want = []
    for cls, grades, loaded, tables in FIRST_CHUNK_BATCHES:
        recs = [CoefficientRecord.from_json(stored[("M24", cls, n)]) for n in grades]
        if cls == "7B":
            assert {(r.gate, r.c_max_used) for r in recs} == {("dip", 56)}
        want.append(" ".join([*(f"{r.value} {r.gate} {r.c_max_used}" for r in recs),
                              str(loaded), "False", str(tables)]))
    argv = [f"{cls}:{','.join(map(str, grades))}" for cls, grades, _, _ in FIRST_CHUNK_BATCHES]
    proc = subprocess.run([sys.executable, "-c", FIRST_CHUNK_CHILD, *argv], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want


# Appends records n = 1..count of one class to the cache file named in argv,
# after a line "ready" on stdout.
APPENDER = (
    "import sys\n"
    "from moonmod.store import CoefficientCache, CoefficientRecord\n"
    "path, cls, count = sys.argv[1:]\n"
    "cache = CoefficientCache(path)\n"
    "print('ready', flush=True)\n"
    "for n in range(1, int(count) + 1):\n"
    "    cache.put('M24', cls, n, CoefficientRecord(cls, n, 10 ** n, 1e-5, 100 + n, 'dip'))\n"
)


def _src_env():
    """The environment of a child interpreter that imports this moonmod."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))


def _appender(path, cls, count):
    return subprocess.Popen([sys.executable, "-c", APPENDER, str(path), cls, str(count)],
                            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_cache_concurrent_appends(tmp_path):
    """Two processes append 200 records each to one file; all 400 survive."""
    path = tmp_path / "cache.ldjson"
    procs = [_appender(path, cls, 200) for cls in ("1A", "2A")]
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 400
    again = CoefficientCache(path)
    assert {key: int(r["value"]) for key, r in again.records.items()} == {
        ("M24", cls, n): 10 ** n for cls in ("1A", "2A") for n in range(1, 201)}


def test_cache_append_waits_for_file_lock(tmp_path):
    """An append blocks while another process holds the file's lock."""
    path = tmp_path / "cache.ldjson"
    path.write_bytes(b"")
    with open(path, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        proc = _appender(path, "1A", 1)
        assert proc.stdout.readline() == b"ready\n"
        time.sleep(0.3)
        assert proc.poll() is None and path.read_bytes() == b""
    _, err = proc.communicate()
    assert proc.returncode == 0, err
    assert CoefficientCache(path).records.keys() == {("M24", "1A", 1)}
