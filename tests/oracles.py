"""Brute-force references for the tests: they list a permutation group,
its powers, and every exhaustive instance space of the sweep engine.

The library decides coherence by orbit saturation and never lists a group.
These routines do list it, breadth-first over plain image tuples from the
identity, and decide coherence by scanning every element.  The library
decides K3_9's phase chain on the generators; `chain_statements` decides
it on every listed element, with each hull taken by its own scan of the
complements.  The library reads the conventional attractors off the
orbit blocks the covering's members meet, keeps the weak verdicts in a
memo on up to four points, and keeps a row of verdicts per orbit
partition in a sweep; `attractors` takes every trace and decides it afresh
by scanning every pair of trace sets, and the per-instance verdicts
(`l1_3_verdict`, `chain_verdict`, `k3_9_verdict`, `b3_4_verdict`) keep
nothing.  The library decides Cantor's memberships on a side's minimal
members and keeps them in a sweep by minimal family; `memberships`
compares every pair of nonempty members, `minimal_members` finds the
minimal ones by a pair scan, and `s3_8_counts` and `b3_10_counts`
decide every (system, map) of S3_8 and B3_10 afresh.  The library decides
B3_2's and S3_3's commutation premise on the generators, by closure
table; `commutation_premise_met` lists each group and tests every
element.  The library reads B3_6's and B3_7's fibration
classes and complement-free family as family bitmasks, the latter off an
up-closure; `fibration` groups the subsets by their scanned closure,
`free_subsets` scans the members for each subset, and `b3_6_verdict` and
`b3_7_verdict` compare frozensets.  The library takes L3_1's hull and
failing members off family bitmasks, and draws a random system's coins
from one `getrandbits` call; `l3_1_verdict` scans the complements and the
members, and `sample_members` asks `random()` once per subset.  They use
none of the routines they are compared with (`dynsys.saturate`,
`DiscreteFlow.orbit_blocks`, `attract.saturation_coherent`, `cantor`, the
closure tables, the kernels), so a test that compares the two routes checks one against the other.

The library builds the instance of any ordinal of a space from its
mixed-radix digits.  `instance_space` lists a whole space instead, with
plain nested loops over family bitmasks, `itertools.permutations` and
`itertools.product`, as the wire documents `Instance.to_dict` writes.

Subsets are bitmasks over {0..n-1}; a group element is the tuple of its
point images, and its mask table maps every subset mask to its image.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Any, Iterator, Optional, Sequence


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


def period(element: Sequence[int]) -> int:
    """Order of a permutation: the fewest compositions with itself that
    reach the identity."""
    ident = tuple(range(len(element)))
    k, cur = 1, tuple(element)
    while cur != ident:
        cur = tuple(element[i] for i in cur)
        k += 1
    return k


def power(element: Sequence[int], t: int) -> tuple[int, ...]:
    """The t-th power of a permutation for any integer t, by |t| explicit
    compositions of the permutation (of its inverse when t < 0)."""
    step = tuple(element)
    if t < 0:
        step = tuple(step.index(i) for i in range(len(step)))
        t = -t
    out = tuple(range(len(step)))
    for _ in range(t):
        out = tuple(map(step.__getitem__, out))
    return out


def image(element: Sequence[int], mask: int) -> int:
    """Image of the subset `mask` under a point map, one point at a time."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << element[i]
        mask >>= 1
        i += 1
    return out


def self_maps() -> Iterator[tuple[int, ...]]:
    """Every self-map of a ground of at most 3 points, then 200 random
    self-maps of 8 points, each as the tuple of its point images."""
    for n in range(1, 4):
        yield from itertools.product(range(n), repeat=n)
    rnd = random.Random(8)
    for _ in range(200):
        yield tuple(rnd.randrange(8) for _ in range(8))


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


def orbits(gens: Sequence) -> list[int]:
    """The orbits of the group generated by the point maps `gens`, as
    masks, ascending: each point's images under every listed element."""
    elements = group(gens)
    return sorted({sum({1 << g[x] for g in elements}) for x in range(len(elements[0]))})


def _saturation(family: Sequence[int], a: int) -> int:
    """The union of the members of `family` that meet a."""
    out = 0
    for m in family:
        if m & a:
            out |= m
    return out


def attractors(
    n: int, gens: Sequence, members: Sequence[int], convention: str
) -> tuple[list[int], list[int]]:
    """The conventional and the weak free attractors, ascending, of the
    flow of `gens` relative to the covering `members` on n points, with no
    memo: the nonempty sets every element maps onto themselves, each
    traced by intersecting it with every member, then a scan of every pair
    of trace sets.  Conventional: b meets the union of the orbits meeting
    a.  Weak: the unions of the pre-rooms (the orbits' closures) meeting a
    and b meet."""
    elements = group(gens)
    blocks = orbits(gens)
    rooms = [closure(n, members, convention, b) for b in blocks]
    conventional, weak = [], []
    for theta in range(1, 1 << n):
        if any(image(g, theta) != theta for g in elements):
            continue
        trace = {m & theta for m in members} - {0}
        sats = [_saturation(blocks, a) for a in trace]
        if all(b & sat for sat in sats for b in trace):
            conventional.append(theta)
        unions = [_saturation(rooms, a) for a in trace]
        if all(u & w for u in unions for w in unions):
            weak.append(theta)
    return conventional, weak


def closure(n: int, members: Sequence[int], convention: str, z: int) -> int:
    """The closure of the subset z by one scan of the member complements:
    the intersection of those containing z, the empty set when none does.
    Under "nonempty" the empty complement (of the full member) is left
    out."""
    full = (1 << n) - 1
    sources = [full ^ m for m in members if convention == "full" or m != full]
    above = [c for c in sources if z & c == z]
    cl = above[0] if above else 0
    for c in above:
        cl &= c
    return cl


def closure_table(n: int, members: Sequence[int], convention: str) -> list[int]:
    """The closure of every subset, indexed by mask, each by its own scan
    (`closure`)."""
    return [closure(n, members, convention, z) for z in range(1 << n)]


def l3_1_verdict(n: int, members: Sequence[int], b: int, convention: str) -> tuple[str, str]:
    """L3_1's (status, note) on the system of `members` and the subset B:
    the hull of B by its own scan of the complements (`closure`), then
    each member's trace on the hull, in ascending order, the first that
    is nonempty and disjoint from B failing."""
    hull = closure(n, members, convention, b)
    for m in sorted(members):
        trace = m & hull
        if trace and not trace & b:
            return "fails", f"member {m:#x} traces to {trace:#x}, disjoint from B"
    return "holds", ""


def sample_members(rnd: random.Random, n: int) -> list[int]:
    """A random covering system's member masks, ascending: each subset by
    its own `rnd.random() < 0.5`, and the ground added when the union of
    those drawn misses a point."""
    full = (1 << n) - 1
    members = [m for m in range(1 << n) if rnd.random() < 0.5]
    union = 0
    for m in members:
        union |= m
    if union != full:
        members.append(full)
    return members


def idempotent(n: int, members: Sequence[int], convention: str) -> bool:
    """Whether the closure (closure_table, each subset by its own scan)
    composed with itself, cell by cell, is itself."""
    cl = closure_table(n, members, convention)
    return all(cl[cl[z]] == cl[z] for z in range(1 << n))


def memberships(element: Sequence[int], members: Sequence[int]) -> tuple[bool, bool]:
    """The plus membership (every nonempty member has a nonempty member
    whose image lies inside it) and the minus membership (every nonempty
    member's image holds a nonempty member) of one point map, by comparing
    every pair of nonempty members."""
    nonempty = [m for m in members if m]
    images = [image(element, m) for m in nonempty]
    plus = all(any(i & ~m == 0 for i in images) for m in nonempty)
    minus = all(any(a & ~i == 0 for a in nonempty) for i in images)
    return plus, minus


def minimal_members(members: Sequence[int]) -> list[int]:
    """The nonempty members holding no other nonempty member, ascending,
    by comparing every pair of distinct nonempty members."""
    nonempty = sorted({m for m in members if m})
    return [m for m in nonempty if not any(o != m and o & m == o for o in nonempty)]


def map_statements(
    element: Sequence[int], cl: Sequence[int], members: Sequence[int], n: int
) -> tuple[bool, ...]:
    """The five phase-chain statements on one point map: commuting with
    the closure table `cl` on every subset, then the plus and minus
    memberships over the system and over its complement system."""
    full = (1 << n) - 1
    commutes = all(image(element, cl[z]) == cl[image(element, z)] for z in range(1 << n))
    return (
        commutes,
        *memberships(element, members),
        *memberships(element, [full ^ m for m in members]),
    )


def chain_statements(
    n: int, members: Sequence[int], gens: Sequence, convention: str
) -> tuple[bool, ...]:
    """K3_9's five statements for the group generated by `gens` (point
    maps or autobolisms) over the system `members` on n points, each
    quantified over every listed element of the group, not over the
    generators."""
    cl = closure_table(n, members, convention)
    rows = [map_statements(g, cl, members, n) for g in group(gens)]
    return tuple(all(column) for column in zip(*rows))


def k3_9_counts(n: int, convention: str) -> tuple[int, int, int]:
    """K3_9's (hold, fail, skip) over every covering system and generator
    set on n points: the chain holds when its five statements agree.  Each
    element's statements are taken once per system, and each generator
    set's group is listed once."""
    groups = [group(gens) for gens in generator_sets(n)]
    holds = fails = 0
    for members in coverings(n):
        cl = closure_table(n, members, convention)
        rows: dict[tuple[int, ...], tuple[bool, ...]] = {}
        for elements in groups:
            for g in elements:
                if g not in rows:
                    rows[g] = map_statements(g, cl, members, n)
            statements = {all(column) for column in zip(*(rows[g] for g in elements))}
            if len(statements) == 1:
                holds += 1
            else:
                fails += 1
    # every system of the space covers the ground, so none is skipped
    return holds, fails, 0


def commutation_premise_met(n: int, convention: str) -> int:
    """The (system, generator set) pairs on n points, over every covering
    system and generator set, whose group commutes with the hull: every
    listed element commutes (`map_statements`' first statement).  Each
    element's verdict is taken once per system, and each generator set's
    group is listed once."""
    groups = [group(gens) for gens in generator_sets(n)]
    met = 0
    for members in coverings(n):
        cl = closure_table(n, members, convention)
        commutes: dict[tuple[int, ...], bool] = {}
        for elements in groups:
            for g in elements:
                if g not in commutes:
                    commutes[g] = map_statements(g, cl, members, n)[0]
            met += all(commutes[g] for g in elements)
    return met


def b3_10_counts(n: int) -> tuple[int, int, int]:
    """B3_10's (hold, fail, skip) over every covering system and bijection
    on n points: the plus and the minus membership over the system, each
    by the pair scan of `memberships`, agree.  Neither reads the hull, so
    the counts do not depend on the convention."""
    holds = fails = 0
    for members in coverings(n):
        for f in itertools.permutations(range(n)):
            plus, minus = memberships(f, members)
            if plus == minus:
                holds += 1
            else:
                fails += 1
    # the space holds the bijections alone, so none is skipped
    return holds, fails, 0


def s3_8_counts(n: int, convention: str, bijective: bool) -> tuple[int, int, int]:
    """S3_8's (hold, fail, skip) over every covering system and self-map on
    n points (only the bijections, when `bijective`): hull commutation
    against the two-sided memberships over the system and over its
    complement system, each by the pair scans of `map_statements` over every
    nonempty member; the claim holds when the three agree."""
    maps = [
        f for f in itertools.product(range(n), repeat=n) if not bijective or len(set(f)) == n
    ]
    holds = fails = 0
    for members in coverings(n):
        cl = closure_table(n, members, convention)
        for f in maps:
            commutes, plus, minus, plus_c, minus_c = map_statements(f, cl, members, n)
            if commutes == (plus and minus) == (plus_c and minus_c):
                holds += 1
            else:
                fails += 1
    # the space holds the bijections alone when `bijective`, so none is skipped
    return holds, fails, 0


def _family_repr(n: int, masks: Sequence[int]) -> str:
    """A family of masks as the library prints a set system: its distinct
    members ascending, each as its points in braces."""
    return "[" + " ".join(
        "{" + ",".join(str(x) for x in range(n) if m >> x & 1) + "}" for m in sorted(set(masks))
    ) + "]"


def l1_3_verdict(n: int, gens: Sequence, chi: int) -> tuple[str, str]:
    """L1_3's (status, note) on the group of `gens` and the subset chi:
    coherence over every pair of nonempty subsets of chi, and over its
    points alone, by scanning every listed element, against chi being an
    orbit."""
    if not chi:
        return "skipped", "empty chi"
    tables = mask_tables(group(gens))
    coherent = coherent_block(tables, chi, False)
    singles = coherent_block(tables, chi, True)
    is_block = chi in orbits(gens)
    note = "" if coherent == singles else "singleton and full-subset checks disagree"
    if coherent == is_block:
        return "holds", note
    return "fails", f"coherent={coherent} orbit_block={is_block}" + ("; " + note if note else "")


def monotone(n: int, gen: Sequence[int], members: Sequence[int], increasing: bool) -> list[int]:
    """The monotone free attractors, ascending, of the cyclic flow of the
    permutation `gen` relative to `members`: the nonempty invariant sets
    whose trace sets a, b all have a power of `gen` far out in time (in
    one period from ten periods on, forward or backward) mapping a onto a
    set meeting b: b meets the union of a's images under those powers.
    The window's first power is taken by explicit compositions (`power`),
    and each next one by one more composition with `gen`."""
    p = period(gen)
    powers = [power(gen, 10 * p if increasing else -11 * p)]
    for _ in range(p - 1):
        powers.append(tuple(map(gen.__getitem__, powers[-1])))
    # the images of each point under those powers: a's images are the
    # union of its points'
    images = [sum({1 << g[x] for g in powers}) for x in range(n)]
    out = []
    for theta in range(1, 1 << n):
        if image(gen, theta) != theta:
            continue
        trace = {m & theta for m in members} - {0}
        reached = []
        for a in trace:
            union = 0
            for x in range(n):
                if a >> x & 1:
                    union |= images[x]
            reached.append(union)
        if all(b & r for r in reached for b in trace):
            out.append(theta)
    return out


def chain_verdict(
    n: int, gen: Sequence[int], members: Sequence[int], convention: str
) -> tuple[str, str]:
    """CHAIN_karrenk's (status, note) on the cyclic flow of `gen` and the
    covering `members`: the weak family holds the conventional one, which
    holds both monotone ones (`attractors`, `monotone`)."""
    conventional, weak = attractors(n, [gen], members, convention)
    plus, minus = monotone(n, gen, members, True), monotone(n, gen, members, False)
    strong = set(conventional)
    if strong <= set(weak) and strong >= set(plus) and strong >= set(minus):
        return "holds", ""
    return "fails", f"weak={weak} conventional={conventional} mono+={plus} mono-={minus}"


def k3_9_verdict(
    n: int, members: Sequence[int], gens: Sequence, convention: str
) -> tuple[str, str]:
    """K3_9's (status, note): the five statements over every listed element
    of the group (`chain_statements`) hold together or fail together."""
    statements = chain_statements(n, members, gens, convention)
    if len(set(statements)) == 1:
        return "holds", ""
    return "fails", f"chain statements {statements}"


def b3_4_verdict(
    n: int, members: Sequence[int], gens: Sequence, convention: str
) -> tuple[str, str]:
    """B3_4's (status, note) on the system `members` and the group of
    `gens`: the rooms (the orbits' closures, each by its own scan) are
    mapped onto themselves by every listed element exactly when they are
    all nonempty conventional free attractors relative to the closed
    family (`attractors`); skipped where the closed family does not cover
    the ground."""
    full = (1 << n) - 1
    cl = closure_table(n, members, convention)
    rooms = sorted({cl[b] for b in orbits(gens)})
    elements = group(gens)
    invariant = all(image(g, r) == r for g in elements for r in rooms)
    closed = sorted(set(cl))
    union = 0
    for m in closed:
        union |= m
    if union != full:
        return "skipped", "closed family does not cover the ground; attractor side undefined"
    conventional, _ = attractors(n, gens, closed, convention)
    attractive = 0 not in rooms and set(rooms) <= set(conventional)
    if invariant == attractive:
        return "holds", ""
    return "fails", (
        f"rooms={_family_repr(n, rooms)} invariant={invariant} attractors={attractive}"
    )


def fibration(n: int, members: Sequence[int], convention: str) -> dict[int, list[int]]:
    """The fibration of the power set by closure value: each closure value
    (`closure_table`, each subset by its own scan) mapped to the subsets
    whose closure it is, ascending."""
    classes: dict[int, list[int]] = {}
    for z, key in enumerate(closure_table(n, members, convention)):
        classes.setdefault(key, []).append(z)
    return classes


def core(cells: Sequence[int]) -> int:
    """The intersection of the masks `cells`, one AND at a time."""
    out = cells[0]
    for z in cells:
        out &= z
    return out


def free_subsets(n: int, masks: Sequence[int]) -> list[int]:
    """The subsets of an n-set holding no nonempty member of `masks`,
    ascending, by a scan of the members for each subset."""
    return [z for z in range(1 << n) if not any(m and m & z == m for m in masks)]


def represented(n: int, members: Sequence[int], convention: str) -> bool:
    """Whether the closed-set representation {(q & key) | core : q free of
    the complement system}, one set per class of the fibration, gives the
    classes again, compared as a set of frozensets."""
    full = (1 << n) - 1
    free = free_subsets(n, [full ^ m for m in members])
    classes = fibration(n, members, convention)
    rep = {frozenset((q & key) | core(cells) for q in free) for key, cells in classes.items()}
    return rep == {frozenset(cells) for cells in classes.values()}


def integrity(n: int, members: Sequence[int], element: Sequence[int], convention: str) -> bool:
    """Whether the point map `element`, applied to every subset of every
    class of the fibration, gives the classes again, as frozensets."""
    classes = {frozenset(cells) for cells in fibration(n, members, convention).values()}
    return {frozenset(image(element, z) for z in c) for c in classes} == classes


def preserves_free(n: int, members: Sequence[int], element: Sequence[int]) -> bool:
    """Whether the point map `element` maps every subset free of the
    complement system into that family again."""
    full = (1 << n) - 1
    free = free_subsets(n, [full ^ m for m in members])
    return all(image(element, q) in free for q in free)


def b3_6_verdict(n: int, members: Sequence[int], convention: str) -> tuple[str, str]:
    """B3_6's (status, note) on the system `members`: the closed-set
    representation gives the fibration (`represented`)."""
    if represented(n, members, convention):
        return "holds", ""
    return "fails", "closed-set representation does not reproduce the fibration"


def b3_7_verdict(
    n: int, members: Sequence[int], element: Sequence[int], convention: str
) -> tuple[str, str]:
    """B3_7's (status, note) on the system `members` and the point map
    `element`: fibration integrity holds exactly when the map preserves
    the complement-free family."""
    integ = integrity(n, members, element, convention)
    pres = preserves_free(n, members, element)
    if integ == pres:
        return "holds", ""
    return "fails", f"integrity={integ} preserves_unfamily={pres}"


def fibration_counts(theorem: str, n: int, convention: str) -> tuple[int, int, int]:
    """The (hold, fail, skip) of `theorem`, B3_6 or B3_7, over its
    exhaustive space on n points: every covering system, for B3_7 with
    every self-map."""
    if theorem == "B3_6":
        statuses = [b3_6_verdict(n, members, convention)[0] for members in coverings(n)]
    else:
        maps = list(itertools.product(range(n), repeat=n))
        statuses = [
            b3_7_verdict(n, members, f, convention)[0] for members in coverings(n) for f in maps
        ]
    # every system of the space covers the ground, so none is skipped
    return statuses.count("holds"), statuses.count("fails"), 0


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


def families(n: int) -> list[list[int]]:
    """Every family of subsets of an n-set as its ascending member masks,
    by ascending family bitmask (bit m set when subset m is a member)."""
    out = []
    for fam in range(1 << (1 << n)):
        out.append([m for m in range(1 << n) if fam >> m & 1])
    return out


def covering_count(n: int) -> int:
    """Independent count of the covering families of an n-set: families on
    k-subsets assembled by inclusion-exclusion over the covered point set."""
    return sum((-1) ** (n - k) * math.comb(n, k) * (1 << (1 << k)) for k in range(n + 1))


def coverings(n: int) -> list[list[int]]:
    """The families whose union is the whole n-set."""
    out = []
    for members in families(n):
        union = 0
        for m in members:
            union |= m
        if union == (1 << n) - 1:
            out.append(members)
    return out


def topologies(n: int) -> list[list[int]]:
    """The families holding the empty set and the ground and closed under
    pairwise union and intersection."""
    full = (1 << n) - 1
    out = []
    for members in families(n):
        present = set(members)
        if 0 in present and full in present and all(
            a | b in present and a & b in present for a in members for b in members
        ):
            out.append(members)
    return out


def generator_sets(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every permutation alone, then every pair of distinct ones, in
    lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    out = [(p,) for p in perms]
    for a in range(len(perms)):
        for b in range(a + 1, len(perms)):
            out.append((perms[a], perms[b]))
    return out


def _doc(n, convention, systems, gens=(), cyclic=False, functions=None, relabel=None):
    """One wire document: systems by member masks, the generators named
    g0, g1, ... and flowing as one cyclic or group flow `phi`."""
    out: dict[str, Any] = {
        "ground": n,
        "convention": convention,
        "systems": {
            name: [[x for x in range(n) if m >> x & 1] for m in members]
            for name, members in systems.items()
        },
    }
    if gens:
        out["permutations"] = {f"g{i}": list(g) for i, g in enumerate(gens)}
        if relabel is not None:
            out["permutations"]["f"] = list(relabel)
        names = [f"g{i}" for i in range(len(gens))]
        out["flows"] = {"phi": {"cyclic": names[0]} if cyclic else {"group": names}}
    if functions is not None:
        out["functions"] = {"f": list(functions)}
    return out


def instance_space(kind: str, n: int, convention: str) -> list[dict[str, Any]]:
    """The wire documents of one exhaustive space in sweep order, listed by
    nested loops with the last-named factor innermost.  Kinds:
    `topologies`, `systems`, `systems_subsets`, `gensets_subsets`,
    `topologies_gensets`, `systems_gensets`, `cycles_powerset`,
    `cycles_coverings`, `systems_functions`, `systems_bijections` and
    `relabelings`."""
    c = convention
    perms = list(itertools.permutations(range(n)))
    if kind == "topologies":
        return [_doc(n, c, {"T": t}) for t in topologies(n)]
    if kind == "systems":
        return [_doc(n, c, {"A": a}) for a in coverings(n)]
    if kind == "systems_subsets":
        return [_doc(n, c, {"A": a, "B": [b]}) for a in coverings(n) for b in range(1 << n)]
    if kind == "gensets_subsets":
        return [
            _doc(n, c, {"chi": [chi]}, g)
            for g in generator_sets(n)
            for chi in range(1, 1 << n)
        ]
    if kind == "topologies_gensets":
        return [_doc(n, c, {"T": t}, g) for t in topologies(n) for g in generator_sets(n)]
    if kind == "systems_gensets":
        return [_doc(n, c, {"A": a}, g) for a in coverings(n) for g in generator_sets(n)]
    if kind == "cycles_powerset":
        return [_doc(n, c, {"Z": list(range(1 << n))}, (p,), cyclic=True) for p in perms]
    if kind == "cycles_coverings":
        return [
            _doc(n, c, {"Z": z}, (p,), cyclic=True) for p in perms for z in coverings(n)
        ]
    if kind == "systems_functions":
        maps = list(itertools.product(range(n), repeat=n))
        return [_doc(n, c, {"A": a}, functions=f) for a in coverings(n) for f in maps]
    if kind == "systems_bijections":
        return [_doc(n, c, {"A": a}, functions=f) for a in coverings(n) for f in perms]
    if kind == "relabelings":
        return [
            _doc(n, c, {"A": a}, (p,), cyclic=True, relabel=r)
            for p in perms
            for a in coverings(n)
            for r in perms
        ]
    raise ValueError(f"unknown space {kind!r}")
