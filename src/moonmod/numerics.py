r"""Exact and high-precision numerical primitives.

Provides the roots of the Selberg form of the Kloosterman sum,

    K_c(n) = sqrt(c) * sum (-1)^j sin(pi (2j+1) / (2c))

over the j < c with j(j+1)/2 = c^2/(n_g h_g) - n mod c (Whiteman, Pacific
J. Math. 6 (1956), for the partition sums; on the grid c = 0 mod n_g with
h_g | n_g every twining sum is such a sum).  The mpmath head of
moonmod.rademacher and the exact zero test of moonmod.filtration read
these roots.  kloosterman_table(c) walks them once in plain Python for
all residues mod c, and kloosterman_sum looks one residue up in it: the
first chunk of c of every sweep of moonmod.rademacher reads the table,
and the kernel of moonmod.kernels, which sums every later chunk,
reproduces its entries bit for bit.  WORKING_DIGITS is the fewest
decimal digits of the mpmath head, which derives its count from the
grade.
asymptotic_leading is the leading term's size over |K_{n_g}(n)|, which
reads n_g alone: the asymptotic filtration predicts from it and that sum
without the coefficient engine.  Nothing here imports mpmath.
"""

from __future__ import annotations

import functools
import math

# The fewest decimal digits of an mpmath evaluation in the Rademacher head.
WORKING_DIGITS = 80


def _selberg_residue(n: int, c: int, ng: int, hg: int) -> int:
    """c^2/(ng hg) - n mod c, the residue of j(j+1)/2 at the Selberg roots.

    Raises ValueError unless ng | c and ng*hg | c^2 (every multiple of ng
    when hg | ng): off that grid the Selberg form does not hold.
    """
    m = ng * hg
    if c < 1 or c % ng or c * c % m:
        raise ValueError(f"c = {c} is off the grid of n_g = {ng}, h_g = {hg}")
    return (c * c // m - n) % c


def selberg_roots(n: int, c: int, ng: int, hg: int) -> list[int]:
    """The j < c with j(j+1)/2 = c^2/(ng hg) - n mod c, in increasing j.

    Raises ValueError for c off the grid (see _selberg_residue).
    """
    r = _selberg_residue(n, c, ng, hg)
    return [j for j in range(c) if (j * (j + 1) >> 1) % c == r]


def kloosterman_sum(n: int, c: int, ng: int, hg: int) -> float:
    """Sum over d coprime to c of e(n d/c - 3 s(d,c)/2 - c d/(ng hg)).

    The sum is exactly real: entry c^2/(ng hg) - n mod c of
    kloosterman_table(c).  Raises ValueError for c off the grid (see
    _selberg_residue) before any table is built.
    """
    r = _selberg_residue(n, c, ng, hg)
    return kloosterman_table(c)[r]


@functools.cache
def kloosterman_table(c: int) -> tuple[float, ...]:
    """K_c at every residue r mod c of c^2/(n_g h_g) - n, entry r.

    Summed in float64 as moonmod.kernels does it, folded onto j < c/2 by
    the mirror j <-> c-1-j (T_j = j(j+1)/2, T_{c-1-j} = T_j + c(c-1-2j)/2):
    one walk of j < c/2 in increasing j adds the signed sine of each j,
    twice for odd c unless j = (c-1)/2, to the entry of its residue
    T_j mod c and, for even c, its negation to the entry of T_j + c/2;
    then every entry is scaled by sqrt(c).  The kernel sums each column in
    these float operations and order, so its sums have the entries' bits,
    the sign of zero included.  Memoised per c.  The sweep's first chunk
    reads it, whose grid c run to the first at or past
    rademacher.C_MAX_INITIAL (at the 21 levels of M24, 58 c <= 69 and 1735
    floats for every grade below about 50700), or to the last tail start
    of a higher grade; kloosterman_sum reads it at c = n_g for
    moonmod.filtration.
    """
    entries = [0.0] * c
    half = c // 2 if c % 2 == 0 else 0
    for j in range((c + 1) // 2):
        t = (j * (j + 1) >> 1) % c
        s = math.sin(math.pi * (2 * j + 1) / (2 * c))
        if 2 * j + 1 < c and c % 2:
            s *= 2.0
        if j & 1:
            s = -s
        entries[t] += s
        if half:
            entries[(t + half) % c] += -s
    root = math.sqrt(c)
    return tuple(root * e for e in entries)


def asymptotic_leading(ng: int, n: int) -> float:
    """Unsigned leading magnitude C_{n,g} * exp(D_n / n_g) of c_g(n) over |K_{n_g}(n)|."""
    if n < 1:
        raise ValueError("n must be at least 1")
    q8 = 8 * n - 1
    return 4.0 / (math.sqrt(ng) * math.sqrt(q8)) * math.exp(math.pi * math.sqrt(q8) / (2 * ng))
