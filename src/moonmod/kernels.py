r"""Hot loop for the Rademacher tail: Kloosterman sums by their Selberg form.

kloosterman_grades is numpy code vectorised over tiles of (c, lift) cells.
A one-grade call takes what no grade changes from a memoised plan (_plan),
so it pays little beyond its tiles, but every call still costs tens of
microseconds of numpy set-up.  The sweep in moonmod.rademacher runs the
first chunk of c, up to the first c its gate reads, in plain Python on
numerics.kloosterman_table, and sends every later chunk here.  This
module is the only one that imports numpy at module level.

For c = 0 mod n_g and m = n_g*h_g, m divides c^2 (h_g divides n_g), so
e(-c d/m) = e(-(c^2/m) d/c) and every twining sum is the 1A sum at the
integer grade n - c^2/m.  Jacobi's eta^3 = sum (-1)^j (2j+1) q^((2j+1)^2/8)
turns that sum into its Selberg form, a sum over the roots of a quadratic:

    K_c(n) = sqrt(c) * sum_{0 <= j < c, T_j = c^2/m - n mod c}
             (-1)^j sin(pi (2j+1) / (2c)),   T_j = j(j+1)/2.

The pairing j <-> 2c-1-j of the underlying sum over j mod 2c makes K_c(n)
exactly real.  The mirror j <-> c-1-j folds the sum onto j < c/2: since
T_{c-1-j} = T_j + c(c-1-2j)/2, for odd c the mirror is a root of the same
residue with the same term (the middle root j = (c-1)/2 is its own
mirror), and for even c it is a root of the residue r + c/2 with the
opposite term.  So the kernel sums the roots j < c/2 only, doubling each
but the middle one for odd c, and for even c subtracting the roots j < c/2
of residue r + c/2.  Grade n0 + g takes the roots j < c/2 with
T_j = U - g, where U = base + s*k runs over the lifts k >= 0, with step
s = c for odd c and s = c/2 for even c (where lifts alternate between the
residues r and r + c/2), and base = shift mod s,
shift = (c^2/m - n0) mod c.  With w = min(s, n1 - n0 + 1) columns each T_j
lands in one lift, and T_j < c^2/8 for j < c/2: about c/8 lifts for odd c
and c/4 for even c.  A lift holds a root only if an odd square lies in
(8(U - w) + 1, 8U + 1]; one square root per lift screens for it, and the
lifts that pass are settled in exact integers, their roots being
N(U - w) <= j < N(U) with N(t) = #{j >= 0: T_j <= t}.  So one pass serves
every grade, and a sine is taken only at a root.  Column g + s is column g
(odd c) or its negation (even c).  Each column accumulates its roots in
increasing j and is scaled by sqrt(c) after the last tile, in the same
float operations as numerics.kloosterman_table's walk, so every column
reproduces that table's entry bit for bit.

The screen runs in float32 when every c of a call is below _F32_LIMIT =
4000: there every lift that can hold a root has 8U + 1 < 2**24, where
float32 holds the integers and their square roots floor exactly (see the
constant), and in float64 otherwise.  One grade (w = 1) and a batch share
the tile loop, _screen, and the terms, and differ in the screen's test and
the settle: with one column a lift holds at most one root,
8U + 1 = (2j + 1)^2, so the screen asks for an exact square and j is read
off its root.  One grade's rows, their order, tiles and constants depend
only on the c of the call, so they come from a plan built once per set of
c and level (at most _PLANS of them, least recently used out), sized for
each row's most lifts at any grade; a call works out only its shift, base,
screen and settle, in the float operations a batch uses.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# There is no compiled path; kept as a constant for callers that report it.
USE_NUMBA = False

# (c, lift) cells per vectorised tile, and screened lifts per batch of root
# sums.  It bounds the kernel's working memory, and with it the peak RSS of
# a cold coefficient computation; the sweep sizes its chunks of c from it.
_BLOCK = 16384

# One-grade plans kept at once, least recently used first out.  Each holds
# eight arrays as long as its c and its tiles; the cold coefficients of the
# benchmark's passes use 56 sets of c and level in all.
_PLANS = 128

# Square roots of integers 8U + 1 < 2c^2 + 16c (c the largest in a call,
# a tile's padding lifts included) are taken in float64: below 2**52 the
# floor of the rounded root is the integer square root.
_C_LIMIT = 2 ** 24
_INT64_MAX = np.iinfo(np.int64).max
# Below this largest c the screen runs in float32.  A lift that can hold a
# root has 8U + 1 < c^2 + 8c < 2**24 (U <= T_j + w - 1, j < c/2, w <= c),
# so 8U + 1, 8(U - w) + 1 and the squares below them are exact float32
# integers.  The root of a non-square v < k^2 <= 2**24 lies more than
# 1/(2k) >= 2**-13, half a float32 step below 4096, under k, so its
# correctly rounded float32 root is no integer and floors to the integer
# square root.  Lifts that only pad a tile may round; they hold no root.
_F32_LIMIT = 4000


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


def _tiles(lifts: np.ndarray, block: int):
    """(r0, r1, k0, k1): rows r0 <= r < r1 and lifts k0 <= k < k1, at most
    block cells of the (row, lift) grid, covering every lift of every row.

    lifts is sorted in increasing order, so a run of rows is as wide as its
    last row: from r0, the rows fit while (count) * (last width) <= block.
    A row wider than block gets tiles of its own.
    """
    r0 = int(np.searchsorted(lifts, 0, side="right"))
    while r0 < len(lifts):
        width = int(lifts[r0])
        if width > block:
            for k0 in range(0, width, block):
                yield r0, r0 + 1, k0, min(k0 + block, width)
            r0 += 1
            continue
        span = lifts[r0:r0 + block // width]
        r1 = r0 + int(np.count_nonzero(np.arange(1, len(span) + 1) * span <= block))
        yield r0, r1, 0, int(lifts[r1 - 1])
        r0 = r1


def _screen(tiles, step8: np.ndarray, base8: np.ndarray, wide8: np.ndarray | None,
            cells: int):
    """(r, k, x) for each tile's hits: the rows r and lifts k, in row-major
    order, whose 8U + 1 = step8*k + base8 passes the screen.

    tiles come from _tiles, and cells is the most cells of any of them.
    One grade (wide8 None) asks for an exact square root x of 8U + 1 and
    yields the roots; a batch asks for a square in (8U + 1 - wide8, 8U + 1]
    and yields x = None.  Every tile reuses the same three buffers of cells.
    """
    v_buf, x_buf = np.empty(cells, step8.dtype), np.empty(cells, step8.dtype)
    hit_buf = np.empty(cells, bool)
    for r0, r1, k0, k1 in tiles:
        size = (r1 - r0) * (k1 - k0)
        v, x, is_hit = v_buf[:size], x_buf[:size], hit_buf[:size]
        grid = v.reshape(r1 - r0, k1 - k0)
        np.multiply(step8[r0:r1], np.arange(k0, k1, dtype=step8.dtype), out=grid)
        grid += base8[r0:r1]
        np.sqrt(v, out=x)
        if wide8 is None:
            np.floor(x, out=v)
            np.equal(x, v, out=is_hit)
        else:
            grid -= wide8[r0:r1]
            np.floor(x, out=x)
            x *= x
            # Lifts past a row's last one hold only j >= c/2, dropped as roots.
            np.greater(x, v, out=is_hit)
        hit = is_hit.nonzero()[0]
        if len(hit):
            r, k = np.divmod(hit, k1 - k0)
            yield r + r0, k + k0, (x[hit] if wide8 is None else None)


def _terms(r: np.ndarray, j: np.ndarray, k: np.ndarray, cs: np.ndarray, mid: np.ndarray,
           even: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """The signed, folded terms of the roots j at (row r, lift k): rows in
    order, j < mid counting twice; for even c, lift k is negative when
    k + flip is odd."""
    term = np.sin(np.pi * (2 * j + 1) / (2 * cs[r]))
    term *= np.where(j < mid[r], 2.0, 1.0)
    np.negative(term, out=term, where=((j + even[r] * (k + flip[r])) & 1).astype(bool))
    return term


class _Plan(NamedTuple):
    """What a one-grade call at given c needs that no grade changes, rows
    in order of their lift counts (order holds the caller's row of each)."""

    order: np.ndarray
    cs: np.ndarray
    c2m: np.ndarray      # c^2/(n_g h_g)
    even: np.ndarray
    step: np.ndarray
    mid: np.ndarray
    root_c: np.ndarray   # sqrt(c)
    step8: np.ndarray    # 8 step, a column in the screen's dtype
    tiles: tuple
    cells: int


@functools.lru_cache(maxsize=_PLANS)
def _plan(key: bytes, ng: int, hg: int, block: int) -> _Plan:
    """The plan of the c whose int64 bytes are key, in tiles of block cells.

    A row's lifts are its most at any grade, T_j of the largest j < c/2
    over the step, plus one: a grade's own count is that or one less (its
    base is below the step), and the lift it may pad holds only j >= c/2,
    which x <= c drops.  So the rows' order and tiles serve every grade.
    Raises ValueError, and caches nothing, for c off the n_g grid.  The
    arrays are read-only, since every later call shares them.
    """
    cs = np.frombuffer(key, dtype=np.int64)
    _check_grid(cs, ng, hg)
    dtype = np.float32 if int(cs.max()) < _F32_LIMIT else np.float64
    even = 1 - (cs & 1)
    step = cs >> even
    half = (cs + 1) >> 1
    lifts = half * (half - 1) // 2 // step + 1
    order = np.argsort(lifts, kind="stable")
    cs, even, step, half, lifts = (a[order] for a in (cs, even, step, half, lifts))
    tiles = tuple(_tiles(lifts, block))
    plan = _Plan(order, cs, cs * cs // (ng * hg), even, step, np.where(even, -1, half - 1),
                 np.sqrt(cs.astype(np.float64)), (8 * step[:, None]).astype(dtype), tiles,
                 max((r1 - r0) * (k1 - k0) for r0, r1, k0, k1 in tiles))
    for a in plan:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def kloosterman_grades(n0: int, n1: int, cs: np.ndarray, ng: int, hg: int,
                       out: np.ndarray) -> None:
    """K_c(n) for all grades n0 <= n <= n1 at once; out has shape (len(cs), n1-n0+1).

    The roots j < c/2 of column g are the j with T_j = U - g over the
    lifts U = base + s*k, k >= 0, up to T_j for the largest j < c/2; for
    even c the lifts k + shift // s odd hold the mirror residue and count
    negatively.  _screen keeps the lifts whose 8U + 1 can hold a root, rows
    in order of their lift counts, and they are settled exactly: a batch's
    roots are N(U - w) <= j < N(U), j < c/2, and one grade's is j = x >> 1,
    kept if x^2 = 8U + 1 in int64 and x <= c.  One grade takes its rows,
    tiles and constants from the memoised _plan of cs and works out only
    the shift, the base, the screen and the settle.  Raises ValueError,
    before any work, for c off the n_g grid or if the root search could
    leave the exact range.
    """
    cs = np.asarray(cs, dtype=np.int64)
    if not len(cs):
        return
    c_max = int(cs.max())
    _check_bounds(n0, n1, c_max)
    if n0 == n1:
        # A lift holds at most one root, 8U + 1 = x^2 with x = 2j + 1;
        # padding lifts and rounded roots fail x^2 = 8U + 1 or x <= c.  One
        # bincount sums each row's terms in increasing j.
        p = _plan(cs.tobytes(), ng, hg, _BLOCK)
        flip, base = np.divmod((p.c2m - n0) % p.cs, p.step)
        base8 = 8 * base + 1
        acc = np.zeros(len(cs))
        hits = list(_screen(p.tiles, p.step8, base8[:, None].astype(p.step8.dtype), None,
                            p.cells))
        if hits:
            r, k, x = hits[0] if len(hits) == 1 else (np.concatenate(a) for a in zip(*hits))
            x = x.astype(np.int64)
            keep = (x * x == base8[r] + 8 * p.step[r] * k) & (x <= p.cs[r])
            r, k, j = r[keep], k[keep], x[keep] >> 1
            acc = np.bincount(r, _terms(r, j, k, p.cs, p.mid, p.even, flip), len(cs))
        out[p.order, 0] = acc * p.root_c
        return
    _check_grid(cs, ng, hg)
    dtype = np.float32 if c_max < _F32_LIMIT else np.float64
    ncols = n1 - n0 + 1
    shift = (cs * cs // (ng * hg) - n0) % cs
    even = 1 - (cs & 1)
    step = cs >> even
    base = shift % step
    # Roots j < half; for odd c, j < mid counts twice (mid = -1 for even c).
    half = (cs + 1) >> 1
    mid = np.where(even, -1, half - 1)
    # Lifts up to T_j of the largest j < c/2, plus w - 1.
    w = np.minimum(step, ncols)
    lifts = (half * (half - 1) // 2 - base + w - 1) // step + 1
    # Rows in order of their lift counts, so a tile's rows are about as
    # wide as each other; acc holds them in that order.
    order = np.argsort(lifts, kind="stable")
    cs, shift, even, step, base, mid, lifts, w, half = (
        a[order] for a in (cs, shift, even, step, base, mid, lifts, w, half))
    # Even c: lift k is negative when k + shift // s is odd (shift < s for odd c).
    flip = shift // step
    # 8U + 1 = step8*k + base8 (and 8w) in dtype, exact wherever a root can lie.
    step8 = (8 * step[:, None]).astype(dtype)
    base8 = (8 * base[:, None] + 1).astype(dtype)
    acc = np.zeros((len(cs), ncols))

    def settle(r: np.ndarray, k: np.ndarray) -> None:
        """Add the roots of the lifts (row r, lift k), in row-major order,
        to acc's columns U - T_j."""
        u = base[r] + step[r] * k
        j = _count(u - w[r])
        many = np.maximum(np.minimum(_count(u), half[r]) - j, 0)
        r, j, u, k = (np.repeat(a, many) for a in (r, j, u, k))
        if not len(r):
            return
        if many.max() > 1:
            j += np.arange(len(j)) - np.repeat(np.cumsum(many) - many, many)
        term = _terms(r, j, k, cs, mid, even, flip)
        # bincount adds in input order; each column's running total goes
        # first, then its roots in increasing j.
        r_lo, r_hi = int(r[0]), int(r[-1]) + 1
        size = (r_hi - r_lo) * ncols
        bins = np.concatenate([np.arange(size), (r - r_lo) * ncols + u - (j * (j + 1) >> 1)])
        wts = np.concatenate([acc[r_lo:r_hi].ravel(), term])
        acc[r_lo:r_hi] = np.bincount(bins, wts, size).reshape(-1, ncols)

    rows_hit, k_hit, held = [], [], 0
    for r, k, _ in _screen(_tiles(lifts, _BLOCK), step8, base8, (8 * w[:, None]).astype(dtype),
                           _BLOCK):
        rows_hit.append(r)
        k_hit.append(k)
        held += len(r)
        if held >= _BLOCK:
            settle(np.concatenate(rows_hit), np.concatenate(k_hit))
            rows_hit, k_hit, held = [], [], 0
    if held:
        settle(np.concatenate(rows_hit), np.concatenate(k_hit))
    acc *= np.sqrt(cs.astype(np.float64))[:, None]
    # Column g is column g mod s, negated for even c when g // s is odd;
    # 0.0 - x negates without making -0.0.
    wrap = np.flatnonzero(step < ncols)
    if len(wrap):
        g = np.arange(ncols)
        src = acc[wrap[:, None], g % step[wrap, None]]
        neg = (even[wrap, None] & (g // step[wrap, None])).astype(bool)
        acc[wrap] = np.where(neg, 0.0 - src, src)
    out[order] = acc
