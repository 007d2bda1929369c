"""Brute-force references for the tests: they list a permutation group.

The library decides coherence by orbit saturation and never lists a group.
These routines do list it, breadth-first over plain image tuples from the
identity, and decide coherence by scanning every element.  They use none of
the routines they are compared with (`dynsys.saturate`,
`DiscreteFlow.orbit_blocks`, `attract.saturation_coherent`, the kernels),
so a test that compares the two routes checks one against the other.

Subsets are bitmasks over {0..n-1}; a group element is the tuple of its
point images, and its mask table maps every subset mask to its image.
"""

from __future__ import annotations

from typing import Optional, Sequence


def group(gens: Sequence) -> list[tuple[int, ...]]:
    """Elements of the group generated by the point maps `gens`
    (autobolisms or image sequences), in breadth-first order of discovery
    from the identity.  Products of the generators suffice: a finite
    permutation group holds each inverse as a power."""
    step = [tuple(getattr(g, "image", g)) for g in gens]
    ident = tuple(range(len(step[0])))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for h in step:
                cand = tuple(h[i] for i in cur)
                if cand not in seen:
                    seen.add(cand)
                    elements.append(cand)
                    nxt.append(cand)
        frontier = nxt
    return elements


def image(element: Sequence[int], mask: int) -> int:
    """Image of the subset `mask` under a point map."""
    return sum(1 << element[i] for i in range(len(element)) if mask >> i & 1)


def mask_tables(elements: Sequence[Sequence[int]]) -> list[list[int]]:
    """One mask table per element: table[mask] is the image of mask."""
    return [[image(g, m) for m in range(1 << len(g))] for g in elements]


def witness(elements: Sequence[Sequence[int]], a: int, b: int) -> Optional[tuple[int, ...]]:
    """First listed element whose image of a meets b, or None."""
    return next((tuple(g) for g in elements if image(g, a) & b), None)


def coherent_block(tables: list[list[int]], chi: int, singletons_only: bool) -> bool:
    """True when every pair of nonempty subsets a, b of chi (only the
    one-point subsets with `singletons_only`) has a group element mapping a
    onto a set meeting b."""
    if singletons_only:
        subsets = [1 << x for x in range(chi.bit_length()) if chi >> x & 1]
    else:
        subsets = [a for a in range(1, chi + 1) if a & chi == a]
    return trace_coherent(tables, subsets)


def trace_coherent(tables: list[list[int]], trace: Sequence[int]) -> bool:
    """True when every ordered pair (a, b) from the trace has a group
    element mapping a onto a set meeting b."""
    return all(any(t[a] & b for t in tables) for a in trace for b in trace)


def count_preorders(n: int) -> int:
    """Independent topology count: reflexive transitive relations on n
    labeled points (these match labeled topologies one-to-one)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for rel_bits in range(1 << len(pairs)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for idx, (i, j) in enumerate(pairs):
            if rel_bits >> idx & 1:
                rel[i][j] = True
        if all(
            not (rel[i][j] and rel[j][k]) or rel[i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            count += 1
    return count
