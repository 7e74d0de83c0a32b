"""Tail kernels and the Selberg form against the definition of K_c(n), summed
over every coprime d by tests/kloosterman_reference.py, and against
kloosterman_table, the one plain-Python walk, whose entries the kernel
reproduces bit for bit; kloosterman_sum looks one entry up.  The sweep's
first chunk reads the table instead of the kernel, for one grade and for
a batch; tests/test_rademacher.py pins the records and states it leaves."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from importlib import resources

import mpmath
import numpy as np
import pytest

import kloosterman_reference as ref
from moonmod import kernels, rademacher
from moonmod.numerics import WORKING_DIGITS, kloosterman_sum, kloosterman_table, selberg_roots
from moonmod.rademacher import RademacherEngine, partial_kloosterman
from moonmod.store import CoefficientCache


@pytest.fixture(autouse=True)
def _drop_kloosterman_tables():
    """kloosterman_sum at a large c builds and memoises a whole table, and a
    one-grade kernel call a plan; drop both after each test, so that the
    suite does not hold them all and no test reads another test's plans."""
    kernels._plan.cache_clear()
    yield
    kloosterman_table.cache_clear()
    kernels._plan.cache_clear()


def _on_grid(c, ng, hg=1):
    """The least c' >= c with ng | c' and ng*hg | c'^2."""
    c = max(c, 1)
    while c % ng or c * c % (ng * hg):
        c += 1
    return c


def _lifts(c):
    """The lifts the kernel screens for c at one grade, at most: T_j for the
    largest root j < c/2, over the lift step c (odd c) or c/2 (even c), plus one."""
    half = (c + 1) // 2
    return half * (half - 1) // 2 // (c if c % 2 else c // 2) + 1


def _six_c_sawtooth(d, c):
    """6c s(d, c) from its definition sum_m ((m/c)) ((m d/c)), in integers:
    4c^2 times the sum is sum_m (2m - c)(2(m d mod c) - c)."""
    total = sum((2 * m - c) * (2 * (m * d % c) - c) for m in range(1, c))
    assert total * 3 % (2 * c) == 0
    return total * 3 // (2 * c)


def test_dedekind_six_c_exact():
    """6c s(d, c) of the reference recursion is the integer of the definition."""
    rng = random.Random(3)
    for _ in range(200):
        c = rng.randrange(2, 5000)
        d = rng.randrange(1, c)
        if math.gcd(d, c) != 1:
            with pytest.raises(ValueError):
                ref.dedekind_sum(d, c)
        else:
            assert 6 * c * ref.dedekind_sum(d, c) == _six_c_sawtooth(d, c)


def test_dedekind_six_c_large_c():
    rng = random.Random(5)
    for _ in range(20):
        c = rng.randrange(10000, 60000)
        d = rng.randrange(1, c)
        if math.gcd(d, c) != 1:
            continue
        assert 6 * c * ref.dedekind_sum(d, c) == _six_c_sawtooth(d, c)


@pytest.mark.parametrize("ng,hg", [(1, 1), (2, 1), (4, 2), (23, 1)])
def test_kloosterman_matches_exact(ng, hg):
    """The float and the mpmath Selberg forms against the definition."""
    for n, c in [(1, 1), (1, 5), (3, 8), (7, 23), (10, 46)]:
        c = _on_grid(c, ng, hg)
        exact = ref.kloosterman(n, c, ng, hg)
        assert abs(kloosterman_sum(n, c, ng, hg) - float(exact.real)) < 1e-9
        assert abs(partial_kloosterman(n, c, ng, hg, WORKING_DIGITS) - exact.real) < mpmath.mpf(10) ** -70
        assert abs(exact.imag) < mpmath.mpf(10) ** -70


def test_grade_batch_matches_single():
    cs = np.array([2, 4, 6, 8, 10, 12], dtype=np.int64)
    n0, n1 = 1, 6
    out = _grades(n0, n1, cs, 2, 1)
    for k, c in enumerate(cs):
        re, _ = ref.kloosterman_floats(range(n0, n1 + 1), int(c), 2, 1)
        for j, n in enumerate(range(n0, n1 + 1)):
            z = kloosterman_sum(int(n), int(c), 2, 1)
            assert abs(out[k, j] - z) < 1e-8
            assert abs(z - re[j]) < 1e-9, (n, c)


def test_python_fallback_agrees():
    """Same numbers from a fresh child interpreter.

    There is one kernel path, so this checks that a fresh interpreter gives
    the same sums.  The child inherits the parent's environment, with the
    directory that holds the parent's ``moonmod`` first on ``PYTHONPATH`` so
    that both interpreters test the same copy.
    """
    code = (
        "import numpy as np\n"
        "from moonmod import kernels\n"
        "assert not kernels.USE_NUMBA\n"
        "cs = np.arange(2, 101, 2, dtype=np.int64)\n"
        "out = np.empty((len(cs), 5))\n"
        "kernels.kloosterman_grades(1, 5, cs, 2, 1, out)\n"
        "print(repr(float(out.sum())))\n"
    )
    # moonmod is a namespace package (no __file__), so locate it via kernels.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(kernels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    re_sum = float(proc.stdout)
    cs = np.arange(2, 101, 2, dtype=np.int64)
    out = np.empty((len(cs), 5))
    kernels.kloosterman_grades(1, 5, cs, 2, 1, out)
    assert abs(out.sum() - re_sum) < 1e-9


def test_c_equals_one():
    assert kloosterman_sum(5, 1, 1, 1) == 1 + 0j


def _grades(n0, n1, cs, ng, hg):
    """The kernel's sums for grades n0..n1 at cs."""
    out = np.empty((len(cs), n1 - n0 + 1))
    kernels.kloosterman_grades(n0, n1, np.asarray(cs, dtype=np.int64), ng, hg, out)
    return out


def test_grades_match_exact_random():
    rng = random.Random(11)
    for _ in range(6):
        ng, hg = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 23]), rng.choice([1, 2, 3, 12])
        cs = [_on_grid(c, ng, hg) for c in [1] + sorted(rng.sample(range(2, 70), 5))]
        n0 = rng.randrange(1, 40)
        n1 = n0 + rng.randrange(8)
        out = _grades(n0, n1, cs, ng, hg)
        for k, c in enumerate(cs):
            for j, n in enumerate(range(n0, n1 + 1)):
                exact = ref.kloosterman(n, c, ng, hg)
                assert abs(out[k, j] - float(exact.real)) < 1e-9, (ng, hg, n, c)
                assert abs(float(exact.imag)) < 1e-9, (ng, hg, n, c)


def test_grades_across_blocks():
    cs = [_on_grid(c, 3) for c in (1, 3, 4100, 7, 24 * kernels._BLOCK + 17, 12, 1)]
    assert sum(_lifts(c) for c in cs) > 3 * kernels._BLOCK
    out = _grades(4, 6, cs, 3, 1)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(4, 7)):
            z = kloosterman_sum(n, c, 3, 1)
            assert abs(out[k, j] - z) < 1e-9


def test_single_grade_equals_scalar_sum():
    # One case per level: a grid c and a grade drawn so that a drawn j < c/2
    # is a root, so the sum compared is not zero.
    rng = random.Random(17)
    for ng, hg in [(1, 1), (2, 1), (4, 2), (12, 12), (23, 1)]:
        c = _on_grid(rng.randrange(2, 6000), ng, hg)
        j = rng.randrange((c + 1) // 2)
        n = (c * c // (ng * hg) - j * (j + 1) // 2 - 1) % c + 1
        assert j in selberg_roots(n, c, ng, hg), (ng, hg, c)
        z = kloosterman_sum(n, c, ng, hg)
        assert z != 0 and _grades(n, n, [c], ng, hg)[0, 0] == z, (ng, hg, n, c)
        assert abs(z - ref.kloosterman_floats([n], c, ng, hg)[0][0]) < 1e-9, (ng, hg, n, c)
    # Rows out of order, a repeated c and a row wider than a tile, none of
    # whose sums is zero: one grade sorts its rows by lift count as a batch
    # does, writes each row back in place, and still equals the scalar.
    cs = [3000, 24 * kernels._BLOCK + 25, 1500, 3000, 24]
    assert _lifts(cs[1]) > kernels._BLOCK
    out = _grades(5, 5, cs, 1, 1)
    for k, c in enumerate(cs):
        z = kloosterman_sum(5, c, 1, 1)
        assert z != 0 and out[k, 0] == z, c


def test_one_grade_plan_keeps_the_tables_bits(m24_table, monkeypatch):
    """A one-grade call served from a memoised plan has the bits of
    kloosterman_table(c) and of the batch row, the sign of zero included:
    at every level, for shuffled and repeated c on both sides of
    _F32_LIMIT, on the call that builds the plan (a miss), on later calls
    at other grades (hits), and after _BLOCK changes (a new plan)."""
    rng = random.Random(23)
    limit = kernels._F32_LIMIT
    levels = sorted({(cls.ng, cls.hg) for cls in m24_table.classes})
    assert len(levels) == 21
    zeros = 0
    for ng, hg in levels:
        grid = [c for c in range(ng, limit + 4 * 24, ng) if c * c % (ng * hg) == 0]
        below = grid[:4] + [c for c in grid if c < limit][-3:]
        above = [c for c in grid if c >= limit][:3]
        assert len(above) == 3, (ng, hg)
        for side in (below, above):
            cs = rng.sample(side, len(side)) + rng.sample(side, 2)
            grades = [-1, 1, rng.randrange(2, 5000)]
            for block in (kernels._BLOCK, 64):
                monkeypatch.setattr(kernels, "_BLOCK", block)
                for i, n in enumerate(grades):
                    info = kernels._plan.cache_info()
                    one = _grades(n, n, cs, ng, hg)[:, 0]
                    after = kernels._plan.cache_info()
                    if i:
                        assert after.hits == info.hits + 1, (ng, hg, n, block)
                    else:
                        assert after.misses == info.misses + 1, (ng, hg, n, block)
                    want = np.array([kloosterman_table(c)[(c * c // (ng * hg) - n) % c]
                                     for c in cs])
                    assert one.tobytes() == want.tobytes(), (ng, hg, n, block)
                    row = _grades(n, n + 1, cs, ng, hg)[:, 0]
                    assert one.tobytes() == row.tobytes(), (ng, hg, n, block)
                    zeros += int((one == 0).sum())
            monkeypatch.undo()
    assert zeros, "no zero sum drawn: the sign of zero went unchecked"


def test_one_grade_plans_are_bounded_and_read_only():
    """The plan cache holds at most _PLANS plans; a plan's arrays are shared
    by every later call, so an edit in place raises."""
    assert kernels._plan.cache_info().maxsize == kernels._PLANS
    for lo in range(1, kernels._PLANS + 6):
        _grades(3, 3, np.arange(lo, lo + 4), 1, 1)
    assert kernels._plan.cache_info().currsize == kernels._PLANS
    cs = np.array([30, 7, 12], dtype=np.int64)
    _grades(3, 3, cs, 1, 1)
    plan = kernels._plan(cs.tobytes(), 1, 1, kernels._BLOCK)
    arrays = [a for a in plan if isinstance(a, np.ndarray)]
    assert len(arrays) == 8
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_kloosterman_table_has_the_kernels_bits(m24_table):
    """kloosterman_table(c)[r] has the bits of the kernel's sum at residue r,
    the sign of zero included: against the batch row of grades 1..c at
    every c <= 300, and against one batch of grades 1..700 at each of the
    21 levels, at every residue of every grid c in 301..700."""
    for c in range(1, 301):
        table = kloosterman_table(c)
        assert len(table) == c
        want = np.array([table[-n % c] for n in range(1, c + 1)])
        assert _grades(1, c, [c], 1, 1)[0].tobytes() == want.tobytes(), c
    levels = sorted({(cls.ng, cls.hg) for cls in m24_table.classes})
    assert len(levels) == 21
    for ng, hg in levels:
        cs = [c for c in range(_on_grid(301, ng, hg), 701, ng) if c * c % (ng * hg) == 0]
        out = _grades(1, 700, cs, ng, hg)
        for k, c in enumerate(cs):
            table, shift = kloosterman_table(c), c * c // (ng * hg)
            want = np.array([table[(shift - n) % c] for n in range(1, c + 1)])
            assert out[k, :c].tobytes() == want.tobytes(), (ng, hg, c)


@pytest.mark.parametrize("ng,hg", [(1, 1), (2, 1)])
def test_fold_small_c(ng, hg):
    """The smallest c, where a c < 6 wraps the six grade columns."""
    cs = [_on_grid(c, ng, hg) for c in (1, 2, 3, 4, 5, 6)]
    out = _grades(1, 6, cs, ng, hg)
    for k, c in enumerate(cs):
        for j, n in enumerate(range(1, 7)):
            exact = ref.kloosterman(n, c, ng, hg)
            assert abs(out[k, j] - float(exact.real)) < 1e-9, (n, c)
            assert abs(float(exact.imag)) < 1e-9, (n, c)


@pytest.mark.parametrize("c,ng,hg", [(8195, 3, 1), (60000, 12, 12)])
def test_fold_large_c(c, ng, hg, monkeypatch):
    """More lifts than a tile holds, at tiles of 1024 cells; the largest engine c."""
    monkeypatch.setattr(kernels, "_BLOCK", 1024)
    c = _on_grid(c, ng, hg)
    assert _lifts(c) > kernels._BLOCK
    out = _grades(5, 5, [c], ng, hg)
    exact = ref.kloosterman(5, c, ng, hg, digits=30)
    assert abs(out[0, 0] - float(exact.real)) < 1e-9
    assert abs(float(exact.imag)) < 1e-9


def _mirror_only(c):
    """(n, roots) for the least grade n >= 1 of 1A whose Selberg roots all lie
    at j >= c/2: for even c, the folded sum reads only the mirror residue."""
    for n in range(1, c + 1):
        roots = selberg_roots(n, c, 1, 1)
        if roots and min(roots) >= c / 2:
            return n, roots
    raise AssertionError(c)


def _middle_root(c):
    """The least grade n >= 1 of 1A that has the middle root j = (c-1)/2, c odd."""
    mid = (c - 1) // 2
    return (-(mid * (mid + 1) // 2) - 1) % c + 1


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_fold_smallest_c(c):
    """Every grade of one period at c = 1..4 against the definition."""
    for ng in (n for n in (1, 2, 4) if c % n == 0):
        grades = list(range(1, c + 2))
        out = _grades(1, c + 1, [c], ng, 1)
        for j, n in enumerate(grades):
            assert out[0, j] == kloosterman_sum(n, c, ng, 1), (n, c, ng)
            exact = ref.kloosterman(n, c, ng, 1)
            assert abs(out[0, j] - float(exact.real)) < 1e-9, (n, c, ng)


@pytest.mark.parametrize("c", [7, 45, 999, 5001])
def test_fold_middle_root(c):
    """For odd c the middle root j = (c-1)/2 is its own mirror and counts once."""
    n = _middle_root(c)
    assert (c - 1) // 2 in selberg_roots(n, c, 1, 1)
    z = _grades(n, n, [c], 1, 1)[0, 0]
    assert z == kloosterman_sum(n, c, 1, 1)
    assert abs(z - float(ref.kloosterman(n, c, 1, 1, digits=30).real)) < 1e-9


@pytest.mark.parametrize("c", [6, 10, 44, 1000])
def test_fold_mirror_residue_only(c):
    """For even c a residue whose roots all lie at j >= c/2 is summed through
    their mirrors j' = c-1-j < c/2 at residue r + c/2, with the opposite sign."""
    n, roots = _mirror_only(c)
    mirrors = [c - 1 - j for j in roots]
    half = c // 2
    assert all((j * (j + 1) // 2 - (c * c - n)) % c == half for j in mirrors)
    z = _grades(n, n, [c], 1, 1)[0, 0]
    assert z == kloosterman_sum(n, c, 1, 1)
    assert abs(z - float(ref.kloosterman(n, c, 1, 1).real)) < 1e-9


def test_fold_columns_wrap():
    """c smaller than the number of grades: columns repeat with period c for
    odd c and flip sign every c/2 columns for even c."""
    cs = list(range(1, 9))
    out = _grades(1, 20, cs, 1, 1)
    for k, c in enumerate(cs):
        re, _ = ref.kloosterman_floats(range(1, 21), c, 1, 1)
        assert np.abs(out[k] - re).max() < 1e-9, c
        assert list(out[k]) == [kloosterman_sum(n, c, 1, 1) for n in range(1, 21)], c


@pytest.mark.parametrize("ng,hg", [(1, 1), (3, 1), (2, 1), (4, 2)])
def test_fold_batch_is_its_single_grades(ng, hg):
    """Odd and even c: one grade equals the scalar with ==, and a batch of
    grades equals its one-grade sweeps bit for bit."""
    rng = random.Random(ng * 10 + hg)
    cs = sorted({_on_grid(rng.randrange(1, 3000), ng, hg) for _ in range(12)} | {ng})
    assert {c % 2 for c in cs} == ({0, 1} if ng % 2 else {0})
    n0, n1 = 3, 40
    batch = _grades(n0, n1, cs, ng, hg)
    singles = np.column_stack([_grades(n, n, cs, ng, hg)[:, 0] for n in range(n0, n1 + 1)])
    assert batch.tobytes() == singles.tobytes()
    for k, c in enumerate(cs):
        assert singles[k, 0] == kloosterman_sum(n0, c, ng, hg), c


def test_fold_across_blocks_against_full_range(monkeypatch):
    """Selberg sums against the sum over every coprime d < c, in tiles of 1024 cells."""
    cs = [_on_grid(c, 3) for c in (1, 3, 4100, 7, 2 * kernels._BLOCK + 17, 12, 1)]
    monkeypatch.setattr(kernels, "_BLOCK", 1024)
    assert sum(_lifts(c) for c in cs) > 3 * kernels._BLOCK
    out = _grades(4, 6, cs, 3, 1)
    for k, c in enumerate(cs):
        re, im = ref.kloosterman_floats(range(4, 7), c, 3, 1)
        assert np.abs(out[k] - re).max() < 1e-9, c
        assert np.abs(im).max() < 1e-9, c


def test_selberg_form_matches_definition(m24_table):
    """Kernel and scalar against the sum over every coprime d, at every level
    of M24: the first six c on its grid, two more up to 3000, and c = 60000
    at level (12, 12); grades -1..60 and three up to 5000."""
    rng = random.Random(19)
    levels = sorted({(cls.ng, cls.hg) for cls in m24_table.classes})
    assert len(levels) == 21
    cases = [((ng, hg), c) for ng, hg in levels
             for c in [ng * k for k in range(1, 7)] + rng.sample(range(7 * ng, 3001, ng), 2)]
    cases.append(((12, 12), 60000))
    far = [rng.randrange(61, 5001) for _ in range(3)]
    grades = list(range(-1, 61)) + far
    for (ng, hg), c in cases:
        re, im = ref.kloosterman_floats(grades, c, ng, hg)
        assert np.abs(im).max() < 1e-9, (ng, hg, c)
        got = list(_grades(-1, 60, [c], ng, hg)[0]) + [_grades(n, n, [c], ng, hg)[0, 0]
                                                        for n in far]
        assert np.abs(np.array(got) - re).max() < 1e-9, (ng, hg, c)
        for i in (0, 1, 2, -3, -2, -1):
            assert abs(kloosterman_sum(grades[i], c, ng, hg) - re[i]) < 1e-9, \
                (ng, hg, c, grades[i])


def test_f32_bound_window(m24_table):
    """The float32 screen's bound, and the sums on both sides of it.

    Below _F32_LIMIT every lift that can hold a root has 8U + 1 < 2**24: at
    c = _F32_LIMIT - 1 and - 2, the last lift of any base at the widest
    w = s (the step) lies at U <= T_j + s - 1, j the largest root < c/2.
    At every level, the grid c in a window on both sides of the bound, one
    call below it (float32 screen) and one at or above it (float64): one
    grade equals kloosterman_sum with ==, and batches of 2 and 40 grades
    equal their one-grade calls bit for bit.  The grades take in -1, 1, a
    middle root (odd c) and a mirror-only residue (even c) at each call's
    first c of each kind."""
    limit = kernels._F32_LIMIT
    for c in (limit - 1, limit - 2):
        half = (c + 1) // 2
        step = c if c % 2 else c // 2
        assert 8 * (half * (half - 1) // 2 + step - 1) + 1 < 2 ** 24, c
    levels = sorted({(cls.ng, cls.hg) for cls in m24_table.classes})
    assert len(levels) == 21
    for ng, hg in levels:
        grid = range(_on_grid(limit - 80, ng, hg), limit + 80, ng)
        below = [c for c in grid if c < limit and c * c % (ng * hg) == 0]
        above = [c for c in grid if c >= limit and c * c % (ng * hg) == 0]
        assert below and above, (ng, hg)
        for cs in (below, above):
            # 1A grade g at c is grade g + c^2/m at this level.
            grades = {-1, 1}
            odd = [c for c in cs if c % 2]
            if odd:
                n = _middle_root(odd[0]) + odd[0] ** 2 // (ng * hg) - odd[0]
                assert (odd[0] - 1) // 2 in selberg_roots(n, odd[0], ng, hg)
                grades.add(n)
            even = [c for c in cs if c % 2 == 0][0]
            n = _mirror_only(even)[0] + even ** 2 // (ng * hg) - even
            assert min(selberg_roots(n, even, ng, hg)) >= even / 2
            grades.add(n)
            for n in sorted(grades):
                one = _grades(n, n, cs, ng, hg)[:, 0]
                assert list(one) == [kloosterman_sum(n, c, ng, hg) for c in cs], (ng, hg, n)
            for width in (2, 40):
                n0 = min(grades)
                batch = _grades(n0, n0 + width - 1, cs, ng, hg)
                singles = np.column_stack([_grades(n, n, cs, ng, hg)[:, 0]
                                           for n in range(n0, n0 + width)])
                assert batch.tobytes() == singles.tobytes(), (ng, hg, width)


def _stored(name, n):
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    for line in store.read_text(encoding="utf-8").splitlines():
        if line.strip() and (r := json.loads(line))["class"] == name and r["n"] == n:
            return int(r["value"]), r["gate"], r["c_max_used"]
    raise AssertionError((name, n))


def test_dense_chunk_enters_the_lift_search(m24_table, monkeypatch):
    """Every chunk after the first enters the kernel: a cold 1A n = 23 sweeps
    c = 1..50 in the scalar first chunk and the seven chunks from c = 51
    on, 51..362 and 363..724 among them, in the kernel.  At every level, a
    grade swept to a C_MAX_LIMIT off most grids sends the kernel non-empty
    chunks of grid c's, each from the grid c after the last one's end, up
    to the last grid c at or below the limit.  A batch of 60 grades, the
    shape of a store
    rebuild's batch, runs its first chunk as the scalar pass too: at every
    level it first enters the kernel at the grid c after the first gated c."""
    class Stop(Exception):
        pass

    calls = []
    grades = kernels.kloosterman_grades

    def recording(n0, n1, cs, *rest):
        calls.append((n0, n1, int(cs[0]), int(cs[-1])))
        return grades(n0, n1, cs, *rest)

    monkeypatch.setattr(kernels, "kloosterman_grades", recording)
    [rec] = RademacherEngine(m24_table, cache=CoefficientCache(None)).records("1A", [23])
    assert (rec.value, rec.gate, rec.c_max_used) == _stored("1A", 23)
    assert len(calls) == 7 and calls[0][2:] == (51, 362) and (23, 23, 363, 724) in calls
    assert [lo for _, _, lo, _ in calls[1:]] == [hi + 1 for _, _, _, hi in calls[:-1]]
    assert calls[-1][2] <= rec.c_max_used <= calls[-1][3]

    def zeros(n0, n1, cs, ng, hg, out):
        calls.append((len(cs), int(cs[0]), int(cs[-1])))
        out[:] = 0.0

    monkeypatch.setattr(kernels, "kloosterman_grades", zeros)
    levels = {(cls.ng, cls.hg): cls for cls in m24_table.classes}
    assert len(levels) == 21
    with monkeypatch.context() as m:
        # No gate can pass, so each sweep runs to the limit.
        m.setattr(rademacher, "C_MAX_LIMIT", 3001)
        m.setattr(rademacher, "RESIDUAL_TOLERANCE", -1.0)
        m.setattr(rademacher, "STABILITY_MIN_RUN", 10 ** 6)
        for cls in levels.values():
            step = cls.ng
            calls.clear()
            [st] = RademacherEngine(m24_table, cache=CoefficientCache(None))._sweep(
                cls, [1]).values()
            assert st.record is None
            assert all(k > 0 and lo % step == hi % step == 0 for k, lo, hi in calls), \
                (cls.name, calls)
            assert [lo for _, lo, _ in calls[1:]] == [hi + step for _, _, hi in calls[:-1]], \
                (cls.name, calls)
            assert calls[-1][2] == 3001 - 3001 % step, (cls.name, calls)

    def stopping(n0, n1, cs, *rest):
        calls.append((n0, n1, int(cs[0]), int(cs[-1])))
        raise Stop

    monkeypatch.setattr(kernels, "kloosterman_grades", stopping)
    for cls in levels.values():
        calls.clear()
        with pytest.raises(Stop):
            RademacherEngine(m24_table, cache=CoefficientCache(None)).records(
                cls.name, range(1, 61))
        first_c = -(-50 // cls.ng) * cls.ng
        assert len(calls) == 1 and calls[0][2] == first_c + cls.ng, (cls.name, calls)


@pytest.mark.parametrize("c,ng,hg", [(5, 2, 1), (6, 4, 2), (22, 23, 1), (0, 1, 1),
                                     (-3, 1, 1), (2, 2, 4)])
def test_off_grid_c_raises(c, ng, hg):
    """Both functions refuse c unless n_g | c and n_g h_g | c^2: the scalar
    before it builds a table, the kernel for a short and a long call, of
    one grade and of four, before it writes to out and on every call."""
    tables = kloosterman_table.cache_info().currsize
    with pytest.raises(ValueError, match="grid"):
        kloosterman_sum(1, c, ng, hg)
    assert kloosterman_table.cache_info().currsize == tables
    on_grid = [_on_grid(k * 50, ng, hg) for k in range(1, 20)]
    for n1, cs in [(1, [c]), (4, on_grid + [c]), (1, on_grid + [c])]:
        out = np.full((len(cs), n1), 7.0)
        # Every call raises: a one-grade plan is never cached for cs.
        for _ in range(2):
            with pytest.raises(ValueError, match="grid"):
                kernels.kloosterman_grades(1, n1, np.array(cs), ng, hg, out)
            assert (out == 7.0).all()
            assert kernels._plan.cache_info().currsize == 0


def test_packaged_23_stability_records_recompute(m24_table):
    """The eight packaged 23A/23B stability records with n in 1, 2, 3, 13,
    recomputed on a cold engine: each sweep runs to rademacher.C_MAX_LIMIT."""
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    recs = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    picks = {(r["class"], r["n"]): r for r in recs
             if r["class"] in ("23A", "23B") and r["n"] in (1, 2, 3, 13)}
    assert len(picks) == 8
    engine = RademacherEngine(m24_table, cache=CoefficientCache(None))
    for (cls, n), stored in picks.items():
        [got] = engine.records(cls, [n])
        assert (got.value, got.gate, got.c_max_used) == \
            (int(stored["value"]), stored["gate"], stored["c_max_used"]) == \
            (got.value, "stability", 59984), (cls, n)


def test_int64_overflow_guard():
    """Refused before the kernel writes to out: a short and a long call
    whose grade overflows, and a c past the float64 roots."""
    n = 2 ** 63 - 1000
    calls = [(n, n, [5, 60], 5), (n, n, list(range(5, 501, 5)), 5), (1, 1, [5, 2 ** 24], 1)]
    for n0, n1, cs, ng in calls:
        out = np.full((len(cs), n1 - n0 + 1), 7.0)
        with pytest.raises(ValueError, match="overflow"):
            kernels.kloosterman_grades(n0, n1, np.array(cs, dtype=np.int64), ng, 1, out)
        assert (out == 7.0).all()
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
        [got] = engine.records(cls, [n])
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
        [got] = engine.records(r["class"], [r["n"]])
        got_key = (got.value, got.gate, got.c_max_used)
        stored = (int(r["value"]), r["gate"], r["c_max_used"])
        if (r["class"], r["n"]) in known_defects:
            warnings.warn(f"known defect {r['class']} n={r['n']}: engine {got_key}, "
                          f"stored {stored}")
        elif got_key != stored:
            mismatches.append((r["class"], r["n"], got_key, stored))
    assert mismatches == []
