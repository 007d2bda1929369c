"""Bitmask kernels.

Subsets of a ground set {0..n-1} are ints with bit i set for element i; a set
system is a list of such masks.  These functions are the hot loops of the
sweep engine.

Empty intersections and empty unions are both 0 by convention.
"""

from __future__ import annotations

from typing import Sequence


def hull_table(n: int, sources: list[int], j: int, k: int) -> list[int]:
    """hull_value(sources, z, j, k) for every subset z, indexed by mask.

    One zeta-transform pass per bit (Yates 1937; Bjorklund, Husfeldt, Kaski
    and Koivisto, STOC 2007) folds each cell into its neighbour across that
    bit: k=1 gathers from supersets, k=0 from subsets.  That takes
    O(n 2^n) steps where a scan of the sources per subset takes
    O(|sources| 2^n).  -1, the identity of intersection, marks a subset that
    gathered no source until the end."""
    size = 1 << n
    t = [-1 if j else 0] * size
    for m in sources:
        t[m] = m
    for i in range(n):
        bit = 1 << i
        for z in range(size):
            if z & bit:
                continue
            if k:
                t[z] = t[z] & t[z | bit] if j else t[z] | t[z | bit]
            else:
                t[z | bit] = t[z | bit] & t[z] if j else t[z | bit] | t[z]
    return [v if v >= 0 else 0 for v in t] if j else t


def hull_value(sources: list[int], q: int, j: int, k: int) -> int:
    """One of the four hull combinations over a fixed source family:
    k=1 gathers source masks containing q, k=0 those contained in q;
    j=1 intersects the gathered family, j=0 unites it.  A scan of the
    sources for one subset; the tests check hull_table against it."""
    acc = -1 if j else 0
    hit = False
    for m in sources:
        if (m & q == q) if k else (m & q == m):
            hit = True
            if j:
                acc &= m
            else:
                acc |= m
    if not hit:
        return 0
    return acc


def perm_table(perm: Sequence[int]) -> list[int]:
    """Mask-image table of a point map: table[mask] = {perm[i] : i in mask}."""
    n = len(perm)
    table = [0] * (1 << n)
    for i in range(n):
        bit = 1 << i
        img = 1 << perm[i]
        step = bit << 1
        for base in range(0, 1 << n, step):
            for z in range(base + bit, base + step):
                table[z] |= img
    return table


def image(perm: list[int], mask: int) -> int:
    """Forward image of a mask under a point map."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def pairwise_closed(masks: list[int]) -> tuple[bool, bool]:
    """(closed under pairwise union, closed under pairwise intersection)."""
    s = set(masks)
    uc = ic = True
    k = len(masks)
    for a in range(k):
        ma = masks[a]
        for b in range(a + 1, k):
            mb = masks[b]
            if ma | mb not in s:
                uc = False
            if ma & mb not in s:
                ic = False
            if not (uc or ic):
                return False, False
    return uc, ic


def commutes_with_closure(perm: Sequence[int], cl: list[int]) -> bool:
    """True when image(cl(z)) == cl(image(z)) for every subset z, where
    image is the mask image under the point map perm."""
    ptab = perm_table(perm)
    for z in range(len(cl)):
        if ptab[cl[z]] != cl[ptab[z]]:
            return False
    return True


def orbit_blocks(n: int, perms: list[list[int]]) -> list[int]:
    """Partition of the ground set into orbits of the listed point maps,
    as masks in ascending order."""
    seen = 0
    out = []
    for x in range(n):
        if seen >> x & 1:
            continue
        block = 1 << x
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for p in perms:
                z = p[y]
                if not block >> z & 1:
                    block |= 1 << z
                    frontier.append(z)
        seen |= block
        out.append(block)
    out.sort()
    return out
