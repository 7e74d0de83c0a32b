r"""Hot loop for the Rademacher tail: Kloosterman sums by their Selberg form.

kloosterman_grades is numpy code vectorised over tiles of (c, lift) cells;
it is the only kernel path.  The plain-Python reference kloosterman_sum in
moonmod.numerics computes the same numbers one root at a time; this module
is the only one that imports numpy at module level.

For c = 0 mod n_g and m = n_g*h_g, m divides c^2 (h_g divides n_g), so
e(-c d/m) = e(-(c^2/m) d/c) and every twining sum is the 1A sum at the
integer grade n - c^2/m.  Jacobi's eta^3 = sum (-1)^j (2j+1) q^((2j+1)^2/8)
turns that sum into its Selberg form, a sum over the roots of a quadratic:

    K_c(n) = sqrt(c) * sum_{0 <= j < c, T_j = c^2/m - n mod c}
             (-1)^j sin(pi (2j+1) / (2c)),   T_j = j(j+1)/2.

The pairing j <-> 2c-1-j of the underlying sum over j mod 2c makes K_c(n)
exactly real.  Grade n0 + g takes the roots j with T_j = U - g, where
U = shift + c*k, shift = (c^2/m - n0) mod c, runs over the lifts k >= 0;
with w = min(c, n1 - n0 + 1) columns each T_j lands in one lift, and a
grade column wraps when c is smaller than the number of grades.  A lift
holds a root only if an odd square lies in (8(U - w) + 1, 8U + 1]; one
float64 square root per lift screens for it, and the lifts that pass are
settled in exact integers, their roots being N(U - w) <= j < N(U) with
N(t) = #{j >= 0: T_j <= t}.  So one pass over about c/2 lifts serves
every grade, and a sine is taken only at a root.  Each column accumulates
its roots in increasing j and is scaled by sqrt(c) after the last tile, in
the same float operations as kloosterman_sum, so a single grade
reproduces that scalar bit for bit.
"""

from __future__ import annotations

import numpy as np

# There is no compiled path; kept as a constant for callers that report it.
USE_NUMBA = False

# (c, lift) cells per vectorised tile, and screened lifts per batch of root
# sums.  It bounds the kernel's working memory, and with it the peak RSS of
# a cold coefficient computation.
_BLOCK = 4096

# Square roots of integers 8U + 1 < 5c^2 are taken in float64: below 2**52
# the floor of the rounded root is the integer square root.
_C_LIMIT = 2 ** 24
_INT64_MAX = np.iinfo(np.int64).max


def _check_grid(cs: np.ndarray, ng: int, hg: int) -> None:
    """Raise ValueError unless every c is a positive multiple of n_g with
    n_g*h_g dividing c^2 (every such multiple, when h_g divides n_g).

    Off that grid e(-c d/m) is not periodic in d mod c, and the sum has no
    Selberg form.
    """
    off = cs[(cs < 1) | (cs % ng != 0) | (cs * cs % (ng * hg) != 0)]
    if len(off):
        raise ValueError(f"c = {off[0]} is off the grid of n_g = {ng}, h_g = {hg}")


def _check_bounds(n0: int, n1: int, c_max: int) -> None:
    """Raise ValueError unless the root search is exact for c <= c_max.

    c^2/m - n0 is formed in int64; square roots need c < _C_LIMIT.
    """
    if c_max >= _C_LIMIT or c_max * c_max + max(abs(n0), abs(n1)) > _INT64_MAX:
        raise ValueError(f"roots for c <= {c_max}, n in [{n0}, {n1}] overflow "
                         "the exact integer range")


def _count(t: np.ndarray) -> np.ndarray:
    """N(t) = #{j >= 0: j(j+1)/2 <= t} for int64 t; 0 for t < 0."""
    x = np.sqrt(np.maximum(8.0 * t + 1.0, 0.0))
    return (np.floor(x).astype(np.int64) + 1) >> 1


def _tiles(lifts: np.ndarray):
    """(rows, k0, k1): a run of rows and of lifts k0 <= k < k1, at most
    _BLOCK cells of the (row, lift) grid, in row-major order over every lift."""
    sizes = lifts.tolist()
    r0 = 0
    while r0 < len(sizes):
        r1, width = r0 + 1, sizes[r0]
        while r1 < len(sizes) and (r1 + 1 - r0) * max(width, sizes[r1]) <= _BLOCK:
            width = max(width, sizes[r1])
            r1 += 1
        for k0 in range(0, width, _BLOCK):
            yield slice(r0, r1), k0, min(k0 + _BLOCK, width)
        r0 = r1


def _add_roots(out: np.ndarray, cs: np.ndarray, w: np.ndarray,
               r: np.ndarray, u: np.ndarray) -> None:
    """Add the roots N(u - w) <= j < N(u), j < c, of the lifts (row r, U = u),
    given in row-major order, to out's columns u - T_j."""
    j = _count(u - w[r])
    many = np.maximum(np.minimum(_count(u), cs[r]) - j, 0)
    r, j, u = np.repeat(r, many), np.repeat(j, many), np.repeat(u, many)
    if not len(r):
        return
    if many.max() > 1:
        j += np.arange(len(j)) - np.repeat(np.cumsum(many) - many, many)
    term = np.sin(np.pi * (2 * j + 1) / (2 * cs[r]))
    np.negative(term, out=term, where=(j & 1).astype(bool))
    # bincount adds in input order; each column's running total goes first,
    # then its roots in increasing j.
    ncols = out.shape[1]
    r_lo, r_hi = int(r[0]), int(r[-1]) + 1
    size = (r_hi - r_lo) * ncols
    bins = np.concatenate([np.arange(size), (r - r_lo) * ncols + u - (j * (j + 1) >> 1)])
    wts = np.concatenate([out[r_lo:r_hi].ravel(), term])
    out[r_lo:r_hi] = np.bincount(bins, wts, size).reshape(-1, ncols)


def kloosterman_grades(n0: int, n1: int, cs: np.ndarray, ng: int, hg: int,
                       out: np.ndarray) -> None:
    """K_c(n) for all grades n0 <= n <= n1 at once; out has shape (len(cs), n1-n0+1).

    With w = min(c, n1 - n0 + 1) columns, the roots of column g are the j
    with T_j = U - g, U = shift + c*k, over the lifts k >= 0 up to T_{c-1}.
    A lift can hold a root only if the largest square x^2 <= 8U + 1 exceeds
    8(U - w) + 1.  That test runs over the (row, lift) grid in tiles of at
    most _BLOCK cells, and the lifts that pass are settled exactly: their
    roots are N(U - w) <= j < N(U), j < c.  Raises ValueError, before any
    work, for c off the n_g grid or if the root search could leave the
    exact range.
    """
    cs = np.asarray(cs, dtype=np.int64)
    ncols = n1 - n0 + 1
    if len(cs):
        _check_bounds(n0, n1, int(cs.max()))
    _check_grid(cs, ng, hg)
    out[:] = 0.0
    if not len(cs):
        return
    # Column g of c holds the roots j with T_j = shift - g mod c.
    shift = (cs * cs // (ng * hg) - n0) % cs
    w = np.minimum(cs, ncols)
    lifts = (cs * (cs - 1) // 2 + w - 1 - shift) // cs + 1
    # 8U + 1 = step*k + base and 8w as float64 columns, all exact integers.
    step = 8.0 * cs[:, None]
    base = 8.0 * shift[:, None] + 1.0
    wide = 8.0 * w[:, None]
    rows_hit, u_hit, held = [], [], 0
    for rows, k0, k1 in _tiles(lifts):
        v = step[rows] * np.arange(k0, k1, dtype=np.float64)
        v += base[rows]
        x = np.floor(np.sqrt(v))
        x *= x
        v -= wide[rows]
        # Lifts past a row's last one hold only j >= c, dropped as roots.
        hit = np.flatnonzero(x > v)
        if len(hit):
            r, k = np.divmod(hit, k1 - k0)
            r += rows.start
            rows_hit.append(r)
            u_hit.append((k + k0) * cs[r] + shift[r])
            held += len(r)
        if held >= _BLOCK:
            _add_roots(out, cs, w, np.concatenate(rows_hit), np.concatenate(u_hit))
            rows_hit, u_hit, held = [], [], 0
    if held:
        _add_roots(out, cs, w, np.concatenate(rows_hit), np.concatenate(u_hit))
    out *= np.sqrt(cs.astype(np.float64))[:, None]
    if ncols > 1:
        wrap = np.flatnonzero(cs < ncols)
        out[wrap] = out[wrap[:, None], np.arange(ncols) % cs[wrap, None]]
