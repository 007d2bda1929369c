"""Bitmask kernels.

Subsets of a ground set {0..n-1} are ints with bit i set for element i; a set
system is a list of such masks.  These functions are the hot loops of the
sweep engine.

Empty intersections and empty unions are both 0 by convention.
"""

from __future__ import annotations

import functools
from operator import and_
from typing import Iterable, Sequence


#: The 32 (cell written, cell read) pairs of the passes over bits 0-3 of
#: a 16-cell block, bit by bit, gathering from supersets.
_BLOCK_PAIRS = tuple(
    (z, z | bit) for bit in (1, 2, 4, 8) for z in range(16) if not z & bit
)

#: The longest run of cells the passes over the higher bits fold at once.
_MAX_RUN = 1024


def closure_table(n: int, sources: Iterable[int]) -> list[int]:
    """For every subset z, indexed by mask, the intersection of the
    sources containing z, or 0 when no source does: hull_value(sources, z,
    1, 1), as a list.

    One zeta-transform pass per bit (Yates 1937; Bjorklund, Husfeldt,
    Kaski and Koivisto, STOC 2007) intersects each cell with its superset
    neighbour across that bit.  That takes O(n 2^n) steps where a scan of
    the sources per subset takes O(|sources| 2^n).  The passes over bits
    0-3 run block by block through the fixed pairs of a 16-cell block (on
    fewer than 4 points, the pairs inside the 2^n cells); each pass over a
    higher bit folds runs of 16 to _MAX_RUN cells slice-wise.  Besides the
    table, a call holds at most one run's slices, so its memory stays
    O(2^n).

    In the transform -1, the identity of intersection, marks a subset
    that no source contains until the end, when it becomes 0."""
    size = 1 << n
    pairs = _BLOCK_PAIRS if n >= 4 else [(d, s) for d, s in _BLOCK_PAIRS if s < size]
    t = [-1] * size
    for m in sources:
        t[m] = m
    for base in range(0, size, 16):
        block = t[base : base + 16]
        for d, s in pairs:
            block[d] &= block[s]
        t[base : base + 16] = block
    for i in range(4, n):
        bit = 1 << i
        run = min(bit, _MAX_RUN)
        for lo in range(0, size, 2 * bit):
            for d in range(lo, lo + bit, run):
                s = d + bit
                t[d : d + run] = map(and_, t[d : d + run], t[s : s + run])
    if -1 in t:
        return [v if v >= 0 else 0 for v in t]
    return t


@functools.cache
def holding_families(n: int) -> tuple[int, ...]:
    """Entry x: the family bitmask of the subsets of n points that hold x
    (bit m set when m >> x & 1), built on first use for each n.  Bit x of
    m repeats every 2^(x+1) subsets, 2^x clear and then 2^x set, so each
    family is that block doubled until it spans the 2^n subsets: O(2^n)
    bits of shifts and ORs per point."""
    size, out = 1 << n, []
    for x in range(n):
        width = 1 << x
        family, period = ((1 << width) - 1) << width, width << 1
        while period < size:
            family |= family << period
            period <<= 1
        out.append(family)
    return tuple(out)


@functools.cache
def _up_passes(n: int) -> tuple[tuple[int, int], ...]:
    """The passes of up_closure on n points, built on first use for each
    n: for each point j, the family bitmask of the subsets lacking j and
    the shift 2^j that adds j to each of them.  Shifted down by 2^j, the
    subsets holding j are those lacking it."""
    return tuple((h >> (1 << j), 1 << j) for j, h in enumerate(holding_families(n)))


def up_closure(n: int, family: int) -> int:
    """The family bitmask of every subset of an n-set that contains a
    member of `family` (a family bitmask, bit m set when subset m is a
    member): one superset zeta transform over OR (Yates 1937; Bjorklund,
    Husfeldt, Kaski and Koivisto, STOC 2007), a shift and an OR of 2^n-bit
    ints per point, where a scan of the members per subset takes
    O(|family| 2^n) steps."""
    for lacking, shift in _up_passes(n):
        family |= (family & lacking) << shift
    return family


def minimal_members(n: int, up: int) -> int:
    """The family bitmask of the minimal members of the up-set `up` (a
    family bitmask closed under supersets, as up_closure gives) on n
    points.  A subset strictly above a member of `up` lies one point above
    one, so one shift per point marks every such subset and the rest are
    the minimal members: the same for a family as for its up-closure."""
    above = 0
    for lacking, shift in _up_passes(n):
        above |= (up & lacking) << shift
    return up & ~above


def hull_value(sources: list[int], q: int, j: int, k: int) -> int:
    """One of the four hull combinations over a fixed source family:
    k=1 gathers source masks containing q, k=0 those contained in q;
    j=1 intersects the gathered family, j=0 unites it.  A scan of the
    sources for one subset; the tests check closure_table against it."""
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
    """Mask-image table of a point map: table[mask] = {perm[i] : i in mask}.
    Each point doubles the table: the masks holding it are those without
    it, with its image added."""
    table = [0]
    for y in perm:
        bit = 1 << y
        table += [t | bit for t in table]
    return table


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


def commutes_with_closure(table: Sequence[int], cl: Sequence[int]) -> bool:
    """True when table[cl[z]] == cl[table[z]] for every subset z, where
    table is the mask-image table of a point map (see perm_table).  When
    both tables are bytes (up to 4 points), each composition is one
    translation through the other table padded to 256 entries: cl
    translated through table is table after cl, and table translated
    through cl is cl after table.  Lists are compared cell by cell."""
    if isinstance(table, bytes) and isinstance(cl, bytes):
        return cl.translate(table.ljust(256, b"\0")) == table.translate(cl.ljust(256, b"\0"))
    for z in range(len(cl)):
        if table[cl[z]] != cl[table[z]]:
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
