r"""Fourier coefficients c_g(n) by truncated Rademacher series.

The series for a class g with invariants (n_g, h_g) runs over c > 0 with
c = 0 mod n_g, each term a Kloosterman-type phase sum times a weight-1/2
Bessel factor:

    c_g(n) = 4*pi * sum_c  K_c(n) * I_{1/2}(pi*sqrt(8n-1)/(2c)) / (c*(8n-1)^{1/4})

with K_c(n) = sum_{0<=d<c, (d,c)=1} e(n d/c - 3 s(d,c)/2) e(-c d/(n_g h_g))
and s(d, c) the classical Dedekind sum of the eta multiplier.  These are the
Rademacher sums for the M24 twining functions on Gamma_0(n_g) of
Cheng-Duncan (arXiv:1110.3859).  Every K_c(n) is evaluated in its exactly
real Selberg form, a signed sum of sines over the roots j of
j(j+1)/2 = c^2/(n_g h_g) - n mod c (numerics.selberg_roots).  Terms with
large Bessel argument are evaluated in mpmath (partial_kloosterman) at
_series_digits(n) decimal digits, a count derived from the size of the
grade's leading term; the long oscillating tail runs through the float64
kernel in moonmod.kernels.  Head and tail write I_{1/2}(x) in its closed
form sqrt(2/(pi x)) sinh(x).
moonmod.store reads and appends the records; numpy, mpmath and the
kernels are imported inside the functions that compute a coefficient, so
a command served from the store loads none of them.  A coefficient
without a head term loads no mpmath, and one that its first chunk of c
accepts loads numpy (for its sinh) but not moonmod.kernels, which _sweep
imports only once some grade survives that chunk.

The tail converges conditionally and slowly (the partial-sum error behaves
like a random walk of step ~1/c), so truncation is adaptive, with the
gates and the schedule of c described above C_MAX_INITIAL.  Grades are
swept in batches per class, one root search per c serving every grade:
RademacherEngine.records answers one class at a list of grades, with one
sweep for all its store misses, and coeff asks for each class once.  Head
and tail are both real, so the gates read the real partial sums only.
A sweep keeps per grade only what its gates read, and builds the grade's
CoefficientRecord where a gate accepts it; _compute stores that record or
raises NonConvergent with the residual at the last c swept.
"""

from __future__ import annotations

import math

from .numerics import WORKING_DIGITS, _selberg_residue, kloosterman_table, selberg_roots
from .chartab import (CharacterTable, ConjugacyClass, MoonmodError, UnknownClassError,
                      m24_classes)
# perfbench/{run,setup_probe,selftest,make_reference,workloads,spans}.py read these here.
from .store import CoefficientCache, CoefficientRecord, bundled_cache  # noqa: F401

# Bessel argument above which terms are evaluated at full precision; below
# it float64 keeps absolute term error well under the integrality tolerance.
HEAD_SWITCH = 20.0

# Adaptive truncation, one schedule for every grade.  Both gates read the run
# of consecutive admissible checkpoints, carried across chunks of c, whose
# partial sums round to the same integer.  The dip gate accepts a grade when
# its partial sum lies within RESIDUAL_TOLERANCE of an integer and the run
# has reached STABILITY_WINDOW.  Classes whose admissible c form a sparse
# grid (large n_g) carry an intrinsic slowly decaying tail drift and may
# never dip that deep; the fallback gate accepts, at C_MAX_LIMIT, a value
# whose final run has reached STABILITY_MIN_RUN with residual at most
# STABILITY_TOLERANCE, and marks the record gate="stability".  coeff and the
# store take a record, of either gate, as the sweep left it: no command checks
# that an engine grade decomposes integrally (ROADMAP: known defect 1, direction 1).
# A C_MAX_LIMIT of 60000 covers the grades of the packaged store:
# integrality dips for grades up to ~60 are observed out to c ~ 3*10^4.
# The dip gate reads checkpoints from C_MAX_INITIAL on.  The sweep's first
# chunk runs as one plain-Python pass (_scalar_chunk) per grade and ends at
# the first c of the grid at or past C_MAX_INITIAL (50 to 69 by n_g), or
# at the last tail start of its grades where a head reaches beyond that
# (on the 1A grid, n above about 50700), so that no kernel chunk reaches
# below C_MAX_INITIAL or a grade's tail start.  A grade accepted there (c = 7, 14,
# ..., 56 for 7B; 23, 46, 69 for 23B) never enters or imports the kernel;
# any other pays the pass, at most 50 table reads a grade (1A), on top of
# the kernel chunks that follow.  The pass hoists its per-grade constants
# and reads each K_c(n) from the memoised numerics.kloosterman_table(c),
# built once per c and process: for every grade below about 50700 the 21
# levels' first chunks hold 58 distinct c <= 69, 1735 floats in all.
# Every chunk ends on the grid, the last at
# the last grid c at or below C_MAX_LIMIT.  The second ends at
# sqrt(2 kernels._BLOCK n_g) rounded down to the grid, where
# kernels._BLOCK = 16384 nominal (c, d) pairs, d < c, from c = 1 end (c = 181
# on the 1A grid, 851 on the 23A grid).  Each later one at least doubles
# the last c, hi, but takes at most max(1, 16 * kernels._BLOCK // hi) grid
# steps past it, about 262144 pairs.  The kernel screens about c/8 lifts
# per odd c and c/4 per even c, so a capped chunk below c = 20000 on the
# 1A grid is 44000-50000 lifts, about three tiles.
# No record depends on where the chunks end: the running sum is one left
# fold from the head on, in the same float operations in the scalar pass
# and in the kernel chunks, and the dip gate reads every checkpoint of a
# chunk, so a batch of grades is swept exactly as each grade alone.  A
# kernel chunk (_kernel_chunk) forms the run only at its checkpoints within
# RESIDUAL_TOLERANCE, and carries it, by the one rule of the chunk's changes
# of rounding.
# _sweep reads these names at call time.
C_MAX_INITIAL = 50
C_MAX_LIMIT = 60000
RESIDUAL_TOLERANCE = 1e-4
STABILITY_WINDOW = 3
STABILITY_TOLERANCE = 0.05
STABILITY_MIN_RUN = 200


class NonConvergent(MoonmodError):
    """No gate accepted grade n; residual is the one at the last c swept."""

    def __init__(self, class_name: str, n: int, residual: float):
        why = (f"above the stability tolerance {STABILITY_TOLERANCE}"
               if residual > STABILITY_TOLERANCE else
               f"its run of equal roundings short of {STABILITY_MIN_RUN}")
        super().__init__(
            f"series for class {class_name} at n={n} did not stabilize "
            f"(residual {residual:.3g} at the last c, {why})"
        )
        self.class_name = class_name
        self.n = n
        self.residual = residual


def partial_kloosterman(n: int, c: int, ng: int, hg: int, digits: int):
    """K_c(n) as a real mpf to digits decimal digits, by its Selberg form."""
    import mpmath

    with mpmath.workdps(digits):
        total = mpmath.mpf(0)
        for j in selberg_roots(n, c, ng, hg):
            s = mpmath.sinpi(mpmath.mpf(2 * j + 1) / (2 * c))
            total += -s if j & 1 else s
        return mpmath.sqrt(c) * total


def _series_digits(n: int) -> int:
    """Decimal digits for grade n's head: 40 beyond the size of exp(D_n)."""
    d_n = (math.pi / 2.0) * math.sqrt(8 * n - 1)
    return max(WORKING_DIGITS, int(math.ceil(d_n / math.log(10))) + 40)


class _GradeState:
    """What a sweep keeps of one grade; record is None until a gate accepts."""

    __slots__ = ("head_int", "cum", "stable_run", "last_rounded", "record")

    def __init__(self):
        self.head_int = 0
        self.cum = 0.0
        # The run of checkpoints, up to the last one swept, that round to
        # last_rounded; NaN equals no rounding, so the first run starts at 1.
        self.stable_run = 0
        self.last_rounded = math.nan
        self.record = None


def _scalar_chunk(cls: ConjugacyClass, n: int, st: _GradeState, hi: int,
                  start_c: int) -> None:
    """One grade's first chunk, c = start_c (its tail start), start_c + n_g,
    ..., hi, in Python floats, in the same float operations and order as
    the kernel chunks of _sweep, with sinh from numpy (math.sinh rounds
    some arguments differently), so a term has the same bits whichever of
    the two sums it.

    K_c(n) is entry c^2/(n_g h_g) - n mod c of kloosterman_table(c),
    whose bits the kernel reproduces.  The grid is checked once, at
    c = n_g: _selberg_residue raises unless n_g h_g divides n_g^2, and then
    it divides c^2 for every multiple c of n_g.  The run of equal
    roundings goes on from the one st carries (the head's checkpoints,
    from _head_terms), and the dip gate reads the checkpoints from
    C_MAX_INITIAL on.  An accepted grade gets its record and keeps the
    rest of st as it came.
    """
    import numpy as np

    ng, m = cls.ng, cls.ng * cls.hg
    _selberg_residue(n, ng, ng, cls.hg)
    cs = range(start_c, hi + 1, ng)
    table, sqrt, pi = kloosterman_table, math.sqrt, math.pi
    four_pi = 4.0 * pi
    q8 = 8 * n - 1
    x_top = pi * sqrt(q8) / 2.0
    xs = [x_top / c for c in cs]
    q8_root = q8 ** 0.25
    gated, window, tolerance = C_MAX_INITIAL, STABILITY_WINDOW, RESIDUAL_TOLERANCE
    cum, run, last = st.cum, st.stable_run, st.last_rounded
    for c, x, sinh_x in zip(cs, xs, np.sinh(xs).tolist()):
        # The kernel chunks' factor, then K_c(n): the same float operations.
        cum += four_pi * sqrt(2.0 / (pi * x)) * sinh_x / (c * q8_root) \
            * table(c)[(c * c // m - n) % c]
        rounded = round(cum)
        run = run + 1 if rounded == last else 1
        last = rounded
        if c >= gated and run >= window and abs(cum - rounded) <= tolerance:
            st.record = CoefficientRecord(cls.name, n, st.head_int + rounded,
                                          abs(cum - rounded), c, "dip")
            return
    st.cum, st.stable_run, st.last_rounded = cum, run, last


def _kernel_chunk(name: str, n: int, st: _GradeState, cs, terms) -> None:
    """Add one kernel chunk's terms, at the c of cs, to grade n's running
    sum as one left fold from st.cum, and read the dip gate at each c.

    An accepted grade gets its record and keeps the rest of st as it came.
    The run at checkpoint k is k minus the last change of rounding at or
    before k, plus 1; before the chunk's first change it is k + 1 plus the
    run carried in, if index 0 rounds as st.last_rounded (NaN, as no
    rounding, never does).  The gate judges, in order, only the
    checkpoints within RESIDUAL_TOLERANCE, and the run leaves by the same
    rule.
    """
    import numpy as np

    terms[0] += st.cum
    cum = np.cumsum(terms)
    rounded = np.rint(cum)
    resid = np.abs(cum - rounded)
    # j in ends: a run ends at j, and the rounding changes at j + 1.
    ends = np.flatnonzero(rounded[1:] != rounded[:-1])
    carried = st.stable_run if rounded[0] == st.last_rounded else 0
    for k in np.flatnonzero(resid <= RESIDUAL_TOLERANCE).tolist():
        i = ends.searchsorted(k)
        if (k - int(ends[i - 1]) if i else k + 1 + carried) >= STABILITY_WINDOW:
            st.record = CoefficientRecord(name, n, st.head_int + int(rounded[k]),
                                          float(resid[k]), int(cs[k]), "dip")
            return
    st.stable_run = len(cs) - 1 - int(ends[-1]) if len(ends) else len(cs) + carried
    st.cum = float(cum[-1])
    st.last_rounded = float(rounded[-1])


class RademacherEngine:
    """Coefficient provider for any table's classes, with cache and gates.

    Each class is served by the class of M24 that chartab.m24_classes
    names, at its level (n_g, h_g): the engine sweeps the class's own
    level and keys the records as M24's, so every table reads and appends
    M24's records (A5's 5A and 5B both read M24's 5A).  A class at a
    level that M24 lacks raises TableError here.
    """

    def __init__(self, table: CharacterTable, cache: CoefficientCache | None = None):
        # Served class name -> the swept class: M24's name, the class's level.
        names = m24_classes(table)
        self._swept = {c.name: ConjugacyClass(names[c.name], c.size, c.element_order,
                                              c.ng, c.hg) for c in table.classes}
        self.group = "M24"
        self.cache = cache if cache is not None else CoefficientCache(None)

    def _swept_class(self, class_name: str) -> ConjugacyClass:
        """The swept class that serves class_name."""
        try:
            return self._swept[class_name]
        except KeyError:
            raise UnknownClassError(class_name) from None

    # -- series evaluation ---------------------------------------------------

    def _head_terms(self, cls: ConjugacyClass, states: dict[int, _GradeState]
                    ) -> dict[int, int]:
        """Full-precision contributions for Bessel arguments above HEAD_SWITCH.

        Returns, per grade, the first admissible c handled by the tail.  A
        grade whose first c is already past the head (on the 1A grid, every
        n below 21) has no head term and never loads mpmath.  A headed
        grade's state carries the run of its head's checkpoints, c // n_g - 1
        of them for tail start c, all at st.cum and so rounding alike.
        """
        step = cls.ng
        tail_start = {}
        for n, st in states.items():
            q8 = 8 * n - 1
            c_head_max = math.pi * math.sqrt(q8) / (2 * HEAD_SWITCH)
            if step > c_head_max:
                # No head term: head_int = 0 and cum = 0.0 as the state has them.
                tail_start[n] = step
                continue
            import mpmath

            digits = _series_digits(n)
            head_re = mpmath.mpf(0)
            c = step
            with mpmath.workdps(digits):
                while c <= c_head_max:
                    x = mpmath.pi * mpmath.sqrt(q8) / (2 * c)
                    # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x), as in the tail.
                    fac = 4 * mpmath.pi * (mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.sinh(x)) \
                        / (c * mpmath.power(q8, mpmath.mpf(1) / 4))
                    head_re += fac * partial_kloosterman(n, c, cls.ng, cls.hg, digits)
                    c += step
                st.head_int = int(mpmath.nint(head_re))
                st.cum = float(head_re - mpmath.nint(head_re))
            st.stable_run, st.last_rounded = c // step - 1, round(st.cum)
            tail_start[n] = c
        return tail_start

    def _sweep(self, cls: ConjugacyClass, grades: list[int]) -> dict[int, _GradeState]:
        """Adaptive truncation for a batch of grades of one class, c = 0 mod n_g;
        each grade's state holds its record once a gate accepts it."""
        step = cls.ng
        states = {n: _GradeState() for n in grades}
        tail_start = self._head_terms(cls, states)

        # The first chunk runs as the scalar pass and ends at the first c the
        # dip gate reads, or at the last tail start if that is later.  Every
        # chunk ends on the grid; the second where kernels._BLOCK nominal
        # pairs from c = 1 do.  moonmod.kernels loads only once a grade
        # survives the scalar pass.
        last = C_MAX_LIMIT - C_MAX_LIMIT % step
        hi = min(-(-max(C_MAX_INITIAL, *tail_start.values()) // step) * step, last)
        for n, st in states.items():
            _scalar_chunk(cls, n, st, hi, tail_start[n])
        active = [n for n, st in states.items() if st.record is None]
        if active and hi < last:
            import numpy as np

            from . import kernels

            second = math.isqrt(2 * kernels._BLOCK * step) // step * step
        while active and hi < last:
            lo, hi = hi + step, min(max(hi * 2, second), last,
                                    hi + step * max(1, 16 * kernels._BLOCK // hi))
            cs = np.arange(lo, hi + 1, step, dtype=np.int64)
            n0, n1 = min(active), max(active)
            kl = np.empty((len(cs), n1 - n0 + 1))
            kernels.kloosterman_grades(n0, n1, cs, cls.ng, cls.hg, kl)
            csf = cs.astype(np.float64)
            for n in active:
                q8 = 8 * n - 1
                x = (math.pi * math.sqrt(q8) / 2.0) / csf
                fac = 4.0 * math.pi * np.sqrt(2.0 / (math.pi * x)) * np.sinh(x) \
                    / (csf * q8 ** 0.25)
                _kernel_chunk(cls.name, n, states[n], cs, fac * kl[:, n - n0])
            active = [n for n in active if states[n].record is None]

        # Fallback gate: sparse-grid classes never dip below the residual
        # tolerance (intrinsic ~C^(-1/2) tail drift); accept a long-stable
        # rounding within the coarse stability tolerance instead.
        for n, st in states.items():
            value_rounded = round(st.cum)
            r = abs(st.cum - value_rounded)
            if (st.record is None and st.stable_run >= STABILITY_MIN_RUN
                    and r <= STABILITY_TOLERANCE):
                st.record = CoefficientRecord(cls.name, n, st.head_int + value_rounded, r,
                                              last, "stability")
        return states

    def _compute(self, cls: ConjugacyClass, grades: list[int]
                 ) -> dict[int, CoefficientRecord]:
        """Sweep grades the store does not hold and append their records."""
        states = self._sweep(cls, grades)
        out = {}
        for n in grades:
            st = states[n]
            if st.record is None:
                raise NonConvergent(cls.name, n, abs(st.cum - round(st.cum)))
            self.cache.put(self.group, cls.name, n, st.record)
            out[n] = st.record
        return out

    # -- provider / batch interface -----------------------------------------

    def records(self, class_name: str, grades) -> list[CoefficientRecord]:
        """The records of one class at grades, in request order, under the
        swept class's name.

        Grades -1 and 0 are definitions: the polar coefficient is -2 and the
        constant one vanishes, for every class.  Store hits are read from the
        store; the misses are swept in one batch and appended to the store
        in first-seen order.
        """
        cls = self._swept_class(class_name)
        grades = list(grades)
        got: dict[int, CoefficientRecord] = {}
        todo = []
        for n in dict.fromkeys(grades):
            if n < -1:
                raise ValueError("n must be at least -1")
            if n < 1:
                got[n] = CoefficientRecord(cls.name, n, -2 if n else 0, 0.0, 0, "definition")
            elif (rec := self.cache.get(self.group, cls.name, n)) is not None:
                got[n] = CoefficientRecord.from_json(rec)
            else:
                todo.append(n)
        if todo:
            got.update(self._compute(cls, todo))
        return [got[n] for n in grades]

    def value(self, class_name: str, n: int) -> int:
        """c_g(n): the value of records(class_name, [n])."""
        return self.records(class_name, [n])[0].value
