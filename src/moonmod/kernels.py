r"""Hot loop for the Rademacher tail: Kloosterman-type phase sums in numpy.

kloosterman_grades is numpy code vectorised over blocks of (c, d) pairs; it
is the only kernel path.  The plain-Python references dedekind_six_c and
kloosterman_sum in moonmod.numerics compute the same numbers one term at a
time; this module is the only one that imports numpy at module level.

The Dedekind sum enters as the exact integer A = 6*c*s(d, c), computed in
int64 from the reciprocity law s(d, c) + s(c, d) = (c^2+d^2+1)/(12cd) - 1/4,
which for coprime 0 < d < c reads

    2d*A + 2c*B = c^2 + d^2 + 1 - 3cd,   B = 6d*s(c mod d, d).

A pair takes that step, (c, d) -> (d, c mod d), once and again while its
modulus is at least _ROWS, then reads B from the table T[k][r] = 6k*s(r, k),
0 <= r < k < _ROWS; the steps are undone by exact integer division.  T
holds _NOT_COPRIME where gcd(r, k) > 1, and a zero remainder on the way
down means the same, so one integer path gives both the sum and the
coprimality test, with no gcd and no rounding.  The table is int32
(|6k*s(r, k)| < k^2/2), keeps only r <= k/2 by s(k - r, k) = -s(r, k), and
grows on demand in doubling blocks of rows built by the same step: rows
[a, 2a) read only rows below a.
Phases theta_d(n) = n*d/c - 3*s(d,c)/2 - c*d/m, m = ng*hg, are then reduced
mod 1 in exact int64 arithmetic, so the tail is immune to phase drift; only
the final cos/sin and the Bessel factor are floating point.

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
import threading

import numpy as np

# There is no compiled path; kept as a constant for callers that report it.
USE_NUMBA = False

# (c, d) pairs per vectorised block.  It bounds the kernel's working memory,
# and with it the peak RSS of a cold coefficient computation.
_BLOCK = 4096

# The Dedekind table holds rows k < _ROWS, about _ROWS**2 bytes of int32
# when full.  It grows in steps of _GROW rows, so that a sweep whose c
# creeps upwards does not build a few rows per kernel call.
_ROWS = 1024
_GROW = 64
_NOT_COPRIME = np.iinfo(np.int32).min

# Row k of the table starts at _START[k], since rows 1..k-1 hold k' // 2 + 1
# entries each; _START[_ROWS] is the size of the whole table.
_START = np.arange(-1, _ROWS, dtype=np.int64)
_START += (_START * _START) >> 2

# (rows, table): T[k][r] for 0 <= r <= k/2 and 1 <= k < rows, row after row,
# starting with row 1, T[1][0] = 0.  The buffer is sized for every row, and
# its pages are touched only as rows are written.  Builders hold the lock;
# rows are written before rows is raised and never change afterwards, so a
# reader takes the pair once and reads without it.
_table = (2, np.zeros(_START[_ROWS], dtype=np.int32))
_table_lock = threading.Lock()


def _check_int64(n0: int, n1: int, c_max: int, m: int) -> None:
    """Raise ValueError unless every intermediate of the phase fits in int64.

    Bounds, for d < c <= c_max: base <= 12*c*m, so base/c <= 12*m,
    base/(4c) <= 3*m and base/m <= 12*c; |6c*s(d,c)| < c^2/2.  The
    per-c coefficient n*base/c - c*base/m stays below 12*m*n + 12*c^2,
    and its product with d less the Dedekind part below 15*m*c^2.  The
    12*c_max**3 term also bounds each reciprocity step of the Dedekind
    sum, c^2 + 2c*|B| < c^3 with |B| = |6d*s(r, d)| <= (d-1)(d-2)/2.
    """
    n = max(abs(n0), abs(n1))
    num = 12 * m * n + 15 * m * c_max ** 2 + 12 * c_max ** 3
    if num + (n1 - n0 + 1) * 12 * c_max * m > np.iinfo(np.int64).max:
        raise ValueError(
            f"phases for c <= {c_max}, n <= {n}, ng*hg = {m} overflow int64")


def _lookup(k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """T[k][r] as int64 for 0 <= r < k, read as -T[k][k - r] when r > k/2."""
    if not len(k):
        return k
    table = _grown(int(k.max()) + 1)
    kr = k - r
    v = table[_START[k] + np.minimum(r, kr)].astype(np.int64)
    return np.where((r > kr) & (v != _NOT_COPRIME), -v, v)


def _six_c(c: np.ndarray, d: np.ndarray, below: int = _ROWS) -> np.ndarray:
    """6*c*s(d, c) for int64 arrays 0 < d < c, or _NOT_COPRIME if gcd > 1.

    One reciprocity step to B = 6d*s(c mod d, d), read from the table when
    d < below <= _ROWS and by the same step again otherwise (module
    docstring).
    """
    k, r = d, c % d
    big = k >= below
    if big.any():
        b = np.full(len(k), _NOT_COPRIME, dtype=np.int64)
        fits = ~big
        b[fits] = _lookup(k[fits], r[fits])
        # r = 0 with k >= below > 1 means gcd(d, c) = k > 1.
        go = big & (r > 0)
        b[go] = _six_c(k[go], r[go], below)
    else:
        b = _lookup(k, r)
    # 2d*A = c^2 + d^2 + 1 - 3cd - 2c*B, exactly divisible.
    e = c - d
    a = (e * e - c * (d + 2 * b) + 1) // (2 * d)
    return np.where(b == _NOT_COPRIME, _NOT_COPRIME, a)


def _grown(rows: int) -> np.ndarray:
    """The table with at least rows <= _ROWS rows written, built on first need.

    Rows [a, b) with b <= 2a step once into rows below a, so each round
    builds at most as many rows as are already there, in pieces of fewer
    than 2 * _BLOCK entries; entry r = 0 is _NOT_COPRIME for every k > 1.
    """
    global _table
    have, table = _table
    if rows <= have:
        return table
    with _table_lock:
        have, table = _table
        target = min(_ROWS, -(-rows // _GROW) * _GROW)
        while have < target:
            top = min(2 * have, target)
            step = max(1, 2 * _BLOCK // have)
            for k0 in range(have, top, step):
                k = np.arange(k0, min(k0 + step, top), dtype=np.int64)
                width = k // 2
                at = _START[k]
                table[at] = _NOT_COPRIME
                kk = np.repeat(k, width)
                r = np.arange(1, len(kk) + 1) - np.repeat(np.cumsum(width) - width, width)
                table[np.repeat(at, width) + r] = _six_c(kk, r, have)
            have = top
            _table = (have, table)
    return table


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
    # base*theta_d(n0) = lin*d - (base/4c)*6c*s(d, c) mod base, with
    # lin = n0*base/c - c*base/m; grade n0 + j adds j*(base/c)*d.
    lin = (n0 * bc - cs * (base // m)) % base
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
        d = pos - starts[k] + 1
        s6c = _six_c(cs[k], d)
        coprime = s6c != _NOT_COPRIME
        k, d, s6c = k[coprime], d[coprime], s6c[coprime]
        if not len(k):
            continue
        kb = base[k]
        num = ((lin[k] * d - b4c[k] * s6c) % kb)[:, None]
        # A sweep asks for one grade at a time; only more need the step.
        if ncols > 1:
            num = (num + grades * ((bc[k] * d) % kb)[:, None]) % kb[:, None]
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
