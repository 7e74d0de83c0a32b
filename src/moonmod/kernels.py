r"""Hot loop for the Rademacher tail: Kloosterman-type phase sums in numpy.

kloosterman_grades is numpy code vectorised over blocks of (c, d) pairs; it
is the only kernel path.  The plain-Python references dedekind_six_c and
kloosterman_sum in moonmod.numerics compute the same numbers one term at a
time; this module is the only one that imports numpy at module level.

The Dedekind sum s(d, c) is evaluated through the reciprocity recursion in
float64 and then snapped to the exact integer 6*c*s(d, c): the recursion
accumulates at most ~log(c) terms each bounded by ~c/12, so the absolute
error stays far below the 1/2 needed for exact rounding (the test suite
compares against the exact rational implementation).  The vectorised
recursion performs the same float operations in the same order as the
scalar one, so both give identical integers.  Phases
theta_d(n) = n*d/c - 3*s(d,c)/2 - c*d/m, m = ng*hg, are then reduced mod 1
in exact int64 arithmetic, so the tail is immune to phase drift; only the
final cos/sin and the Bessel factor are floating point.

Only d <= c/2 is evaluated.  The Dedekind sum is odd in d,
s(c-d, c) = -s(d, c), so theta_{c-d}(n) = n - c^2/m - theta_d(n) and

    K_c(n) = S + e(-c^2/m) * conj(S),   S = sum over coprime d < c/2,

with the rotation angle taken from the exact integer c^2 mod m.  For c = 2
the one term d = 1 is its own partner and is counted once (no fold);
K_1 = 1.  Each S accumulates in d order and is folded once, after the
last block, in the same float operations as kloosterman_sum, so a single
grade reproduces that folded scalar bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled path; kept as a constant for callers that report it.
USE_NUMBA = False

# (c, d) pairs per vectorised block.  It bounds the kernel's working memory,
# and with it the peak RSS of a cold coefficient computation.
_BLOCK = 4096


def _check_int64(n0: int, n1: int, c_max: int, m: int) -> None:
    """Raise ValueError unless every intermediate of the phase fits in int64.

    Bounds, for d < c <= c_max: base <= 12*c*m, so base/c <= 12*m,
    base/(4c) <= 3*m and base/m <= 12*c; |6c*s(d,c)| < c^2.
    """
    n = max(abs(n0), abs(n1))
    s6c = c_max * c_max
    base = 12 * c_max * m
    num = 12 * m * n * c_max + 3 * m * s6c + 12 * c_max ** 3
    if num + (n1 - n0 + 1) * base > np.iinfo(np.int64).max:
        raise ValueError(
            f"phases for c <= {c_max}, n <= {n}, ng*hg = {m} overflow int64")


def _dedekind_six_c_array(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorised dedekind_six_c for coprime pairs 0 < d < c.

    Pairs whose descent has ended (c <= 1) are masked out of the update and
    dropped from the arrays once they make up half of them; the integer
    division by their d = 0 is harmless and silenced.  The integers ahead
    of the float division stay below 2**53, so they convert exactly.
    """
    c0 = c
    out = np.zeros(len(c))
    pos = np.arange(len(c))
    s = out
    cc = c * c
    sign = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            live = c > 1
            n_live = np.count_nonzero(live)
            if 2 * n_live <= len(c):
                out[pos] = s
                if not n_live:
                    break
                pos, c, d, s, cc = pos[live], c[live], d[live], s[live], cc[live]
                live = True
            dd = d * d
            num = dd + cc
            num += 1
            term = num / (12.0 * d * c)
            term -= 0.25
            if sign > 0:
                np.add(s, term, out=s, where=live)
            else:
                np.subtract(s, term, out=s, where=live)
            sign = -sign
            c, d, cc = d, c % d, dd
    return np.rint(6.0 * c0 * out).astype(np.int64)


def kloosterman_grades(n0: int, n1: int, cs: np.ndarray, ng: int, hg: int,
                       out_re: np.ndarray, out_im: np.ndarray) -> None:
    """K_c(n) for all grades n0 <= n <= n1 at once; out has shape (len(cs), n1-n0+1).

    The (c, d) pairs with d <= c/2 of all cs are laid end to end and
    processed in blocks of at most _BLOCK pairs, then each row is folded
    (module docstring).  The n-dependence of each term is e(n d / c), so
    grade n0 + j has the exact phase numerator num0 + j*step mod base.
    Raises ValueError, before any work, if those numerators could overflow
    int64.
    """
    cs = np.asarray(cs, dtype=np.int64)
    ncols = n1 - n0 + 1
    m = ng * hg
    if len(cs):
        _check_int64(n0, n1, int(cs.max()), m)
    out_re[:] = 0.0
    out_im[:] = 0.0
    out_re[cs == 1] = 1.0
    if not len(cs):
        return
    two_pi = 2.0 * math.pi
    base = (12 * cs // np.gcd(12 * cs, m)) * m
    bc = base // cs
    b4c = base // (4 * cs)
    bm = base // m
    half = cs // 2
    ends = np.cumsum(half)
    starts = ends - half
    grades = np.arange(ncols, dtype=np.int64)
    total = int(ends[-1])
    for p0 in range(0, total, _BLOCK):
        p1 = min(p0 + _BLOCK, total)
        ks = np.arange(np.searchsorted(ends, p0, side="right"),
                       np.searchsorted(starts, p1, side="left"))
        k = np.repeat(ks, np.minimum(ends[ks], p1) - np.maximum(starts[ks], p0))
        pos = np.arange(p0, p1, dtype=np.int64)
        c = cs[k]
        d = pos - starts[k] + 1
        coprime = np.gcd(d, c) == 1
        k, c, d = k[coprime], c[coprime], d[coprime]
        if not len(k):
            continue
        s6c = _dedekind_six_c_array(c, d)
        kb = base[k]
        num0 = (bc[k] * n0 * d - b4c[k] * s6c - bm[k] * c * d) % kb
        step = (bc[k] * d) % kb
        num = (num0[:, None] + grades * step[:, None]) % kb[:, None]
        ang = two_pi * (num / kb[:, None])
        # bincount adds in input order; each c's running total goes first,
        # so a c split across blocks still sums its d terms sequentially.
        k_lo, k_hi = int(k[0]), int(k[-1]) + 1
        rows = slice(k_lo, k_hi)
        size = (k_hi - k_lo) * ncols
        bins = np.concatenate([np.arange(size),
                               ((k - k_lo)[:, None] * ncols + grades).ravel()])
        for out, f in ((out_re, np.cos), (out_im, np.sin)):
            w = np.concatenate([out[rows].ravel(), f(ang).ravel()])
            out[rows] = np.bincount(bins, w, size).reshape(-1, ncols)
    fold = cs > 2
    cf = cs[fold]
    rot = two_pi * ((-(cf * cf) % m) / m)
    cr, sr = np.cos(rot)[:, None], np.sin(rot)[:, None]
    a, b = out_re[fold], out_im[fold]
    out_re[fold] = a + (cr * a + sr * b)
    out_im[fold] = b + (sr * a - cr * b)
