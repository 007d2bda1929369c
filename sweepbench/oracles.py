"""Checks of sweep payloads that share no code with hullflow.

Everything here is written from the claims' definitions: instance counts
in closed form, failure counts by brute force over each instance space (or,
for `L1_3`, from its proven sound form), and a re-check of every returned
witness.  Subsets are bitmasks over {0..n-1}; a system is a tuple of masks;
a permutation or self-map is a tuple in one-line notation.  The hull is
the `full` convention: the intersection of the complement members that
contain the argument, and the empty set when none does.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb, factorial
from typing import Any, Callable, Optional

#: Claims registered as failure-free among the benchmark's sweeps: the CLI
#: exits with 1 when one of them reports failures, 0 otherwise.
REGISTERED_CLEAN = frozenset({"L1_3", "L3_1"})


# ----------------------------------------------------------------------
# finite-set primitives


def img(f: tuple[int, ...], mask: int) -> int:
    out = 0
    for i, v in enumerate(f):
        if mask >> i & 1:
            out |= 1 << v
    return out


def closure(n: int, system: tuple[int, ...]) -> list[int]:
    full = (1 << n) - 1
    comps = [full ^ m for m in system]
    table = []
    for z in range(1 << n):
        over = [c for c in comps if c & z == z]
        acc = full
        for c in over:
            acc &= c
        table.append(acc if over else 0)
    return table


def covering_count(n: int) -> int:
    """Families of subsets of an n-set whose union is the set, by
    inclusion-exclusion over the points left uncovered."""
    return sum((-1) ** k * comb(n, k) * 2 ** (2 ** (n - k)) for k in range(n + 1))


@lru_cache(maxsize=None)
def covering_systems(n: int) -> tuple[tuple[int, ...], ...]:
    full = (1 << n) - 1
    out = []
    for bits in range(1 << (1 << n)):
        fam = tuple(m for m in range(1 << n) if bits >> m & 1)
        union = 0
        for m in fam:
            union |= m
        if union == full:
            out.append(fam)
    return tuple(out)


def perms(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def gensets(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """One permutation or an unordered pair of distinct ones."""
    ps = perms(n)
    return [(p,) for p in ps] + list(itertools.combinations(ps, 2))


def group(n: int, gens) -> set[tuple[int, ...]]:
    """The generated group: closure of the identity under composition with
    the generators (finite, so inverses come for free)."""
    ident = tuple(range(n))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = tuple(g[e[i]] for i in range(n))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def orbits(n: int, gens) -> list[int]:
    """Orbit blocks by union-find over the generators' point maps."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i in range(n):
            parent[find(i)] = find(g[i])
    blocks: dict[int, int] = {}
    for i in range(n):
        blocks[find(i)] = blocks.get(find(i), 0) | 1 << i
    return sorted(blocks.values())


def nonempty_subsets(mask: int) -> list[int]:
    out, sub = [], mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


# ----------------------------------------------------------------------
# the claims, from their definitions


def l1_3_holds(n: int, gens, chi: int) -> bool:
    """chi is an orbit block iff every pair of its nonempty subsets is
    brought to meet by some group element."""
    g = group(n, gens)
    subs = nonempty_subsets(chi)
    coherent = all(any(img(e, a) & b for e in g) for a in subs for b in subs)
    return coherent == (chi in orbits(n, gens))


def l1_3_fail_count(n: int) -> int:
    """Sound form: chi is coherent iff it lies inside one orbit, so the
    claim fails exactly on the proper nonempty subsets of orbits."""
    return sum(
        2 ** bin(block).count("1") - 2 for gens in gensets(n) for block in orbits(n, gens)
    )


def plus(f, system) -> bool:
    """Every nonempty member has a nonempty member mapped into it."""
    ne = [m for m in system if m]
    return all(any(img(f, m2) & ~m == 0 for m2 in ne) for m in ne)


def minus(f, system) -> bool:
    """Every nonempty member has a nonempty member inside its image."""
    ne = [m for m in system if m]
    return all(any(mb & ~img(f, m) == 0 for mb in ne) for m in ne)


def commutes(n: int, f, cl: list[int]) -> bool:
    return all(img(f, cl[z]) == cl[img(f, z)] for z in range(1 << n))


def complement(n: int, system) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(sorted({full ^ m for m in system}))


def s3_8_holds(n: int, system, f) -> bool:
    """Hull commutation, the two-sided memberships over the system and
    over its complement system all agree."""
    cl = closure(n, system)
    comp = complement(n, system)
    return (
        commutes(n, f, cl)
        == (plus(f, system) and minus(f, system))
        == (plus(f, comp) and minus(f, comp))
    )


def k3_9_holds(n: int, system, gens) -> bool:
    """The phase chain: for the generated group, commutation of every
    element, and every element's plus and minus memberships over the
    system and over its complement system, are all true or all false."""
    g = group(n, gens)
    cl = closure(n, system)
    comp = complement(n, system)
    statements = {
        all(commutes(n, e, cl) for e in g),
        all(plus(e, system) for e in g),
        all(minus(e, system) for e in g),
        all(plus(e, comp) for e in g),
        all(minus(e, comp) for e in g),
    }
    return len(statements) == 1


def _power(p, t: int) -> tuple[int, ...]:
    n = len(p)
    out = tuple(range(n))
    for _ in range(t):
        out = tuple(p[out[i]] for i in range(n))
    return out


def chain_holds(n: int, covering, p) -> bool:
    """For the cyclic flow of p: weak >= conventional >= mono+, mono-
    as families of attractors (nonempty invariant sets whose trace under
    the covering is coherent in each sense)."""
    k = len(group(n, (p,)))
    powers = [_power(p, t) for t in range(k)]
    back = [powers[(-t) % k] for t in range(k)]
    blocks = orbits(n, (p,))
    cl = closure(n, covering)
    rooms = {cl[b] for b in blocks}

    def meets(table, a, b, t):
        return img(table[t % k], a) & b

    def union_rooms(a):
        acc = 0
        for r in rooms:
            if r & a:
                acc |= r
        return acc

    fams: dict[str, set[int]] = {"weak": set(), "conv": set(), "plus": set(), "minus": set()}
    for sel in range(1, 1 << len(blocks)):
        theta = 0
        for i, b in enumerate(blocks):
            if sel >> i & 1:
                theta |= b
        trace = {m & theta for m in covering} - {0}
        pairs = [(a, b) for a in trace for b in trace]
        if all(any(meets(powers, a, b, t) for t in range(k)) for a, b in pairs):
            fams["conv"].add(theta)
        # monotone: after every time t0 there is a later (earlier) time at
        # which a's image meets b
        if all(
            all(any(meets(powers, a, b, t) for t in range(t0 + 1, t0 + k + 1)) for t0 in range(k))
            for a, b in pairs
        ):
            fams["plus"].add(theta)
        if all(
            all(any(meets(back, a, b, t) for t in range(t0 + 1, t0 + k + 1)) for t0 in range(k))
            for a, b in pairs
        ):
            fams["minus"].add(theta)
        if all(union_rooms(a) & union_rooms(b) for a, b in pairs):
            fams["weak"].add(theta)
    return (
        fams["weak"] >= fams["conv"]
        and fams["conv"] >= fams["plus"]
        and fams["conv"] >= fams["minus"]
    )


# ----------------------------------------------------------------------
# per-claim expectations


def _wire(doc: dict[str, Any]) -> tuple[int, dict, dict, dict]:
    """(n, systems as masks, permutations and functions as tuples by name)."""
    n = int(doc["ground"])
    systems = {
        name: tuple(sorted(sum(1 << i for i in row) for row in rows))
        for name, rows in doc.get("systems", {}).items()
    }
    perms_ = {name: tuple(v) for name, v in doc.get("permutations", {}).items()}
    funcs = {name: tuple(v) for name, v in doc.get("functions", {}).items()}
    return n, systems, perms_, funcs


def _gens(perms_: dict) -> tuple:
    return tuple(perms_[k] for k in sorted(perms_))


def idem_holds(n: int, system) -> bool:
    """The hull of a covering system is idempotent."""
    cl = closure(n, system)
    return all(cl[cl[z]] == cl[z] for z in range(1 << n))


def l3_1_holds(n: int, system, b: int) -> bool:
    """Every nonempty trace of a member on the hull of B meets B."""
    hull_b = closure(n, system)[b]
    return all(not (m & hull_b) or m & hull_b & b for m in system)


def _witness_idem(doc) -> bool:
    n, systems, _, _ = _wire(doc)
    return idem_holds(n, systems["A"])


def _witness_l3_1(doc) -> bool:
    n, systems, _, _ = _wire(doc)
    (b,) = systems["B"]
    return l3_1_holds(n, systems["A"], b)


def _witness_l1_3(doc) -> bool:
    n, systems, perms_, _ = _wire(doc)
    (chi,) = systems["chi"]
    return l1_3_holds(n, _gens(perms_), chi)


def _witness_k3_9(doc) -> bool:
    n, systems, perms_, _ = _wire(doc)
    return k3_9_holds(n, systems["A"], _gens(perms_))


def _witness_chain(doc) -> bool:
    n, systems, perms_, _ = _wire(doc)
    (p,) = _gens(perms_)
    return chain_holds(n, systems["Z"], p)


def _witness_s3_8(doc) -> bool:
    n, systems, _, funcs = _wire(doc)
    (f,) = funcs.values()
    return s3_8_holds(n, systems["A"], f)


@lru_cache(maxsize=None)
def expected_counts(theorem: str, n: int, samples: Optional[int]) -> tuple[int, int]:
    """(instance_count, fail_count) of a sweep, computed independently."""
    if theorem == "IDEM_ydwed":  # proven on covering systems
        return covering_count(n), 0
    if theorem == "L3_1":  # proven
        return samples, 0
    if theorem == "L1_3":
        nf = factorial(n)
        return (nf + comb(nf, 2)) * (2**n - 1), l1_3_fail_count(n)
    if theorem == "K3_9":
        space = [(s, g) for s in covering_systems(n) for g in gensets(n)]
        return len(space), sum(not k3_9_holds(n, s, g) for s, g in space)
    if theorem == "CHAIN_karrenk":
        space = [(s, p) for p in perms(n) for s in covering_systems(n)]
        return len(space), sum(not chain_holds(n, s, p) for s, p in space)
    if theorem == "S3_8_all":
        maps = list(itertools.product(range(n), repeat=n))
        space = [(s, f) for s in covering_systems(n) for f in maps]
        return len(space), sum(not s3_8_holds(n, s, f) for s, f in space)
    raise KeyError(f"no oracle for {theorem}")


WITNESS_HOLDS: dict[str, Callable[[dict], bool]] = {
    "IDEM_ydwed": _witness_idem,
    "L3_1": _witness_l3_1,
    "L1_3": _witness_l1_3,
    "K3_9": _witness_k3_9,
    "CHAIN_karrenk": _witness_chain,
    "S3_8_all": _witness_s3_8,
}


def check_payload(sweep, seed: int, cap: int, code: Optional[int], text: str) -> list[str]:
    """Every disagreement between one sweep's CLI output and the oracles;
    an empty list means the sweep is correct."""
    if code not in (0, 1):
        return [f"exit code {code}"]
    try:
        result = json.loads(text)["result"]
        count, holds = result["instance_count"], result["hold_count"]
        fails, skips = result["fail_count"], result["skip_count"]
        cexs = result["counterexamples"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable payload: {exc!r}"]
    problems = []
    want_code = 1 if sweep.theorem in REGISTERED_CLEAN and fails else 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    random_mode = sweep.samples is not None
    header = {
        "theorem": sweep.theorem,
        "n": sweep.n,
        "mode": "random" if random_mode else "exhaustive",
        "seed": seed if random_mode else None,
        "samples": sweep.samples,
        "convention": "full",
    }
    for key, want in header.items():
        if result.get(key) != want:
            problems.append(f"{key}={result.get(key)!r}, expected {want!r}")
    want_count, want_fails = expected_counts(sweep.theorem, sweep.n, sweep.samples)
    if count != want_count:
        problems.append(f"instance_count={count}, expected {want_count}")
    if fails != want_fails:
        problems.append(f"fail_count={fails}, expected {want_fails}")
    if holds + fails + skips != count:
        problems.append(f"hold+fail+skip={holds + fails + skips} != instance_count={count}")
    if skips:
        problems.append(f"skip_count={skips}, but every instance is in the claim's domain")
    if len(cexs) != min(fails, cap):
        problems.append(f"{len(cexs)} counterexamples for {fails} failures (cap {cap})")
    ordinals = [c.get("ordinal") for c in cexs]
    if ordinals != sorted(set(ordinals)) or any(
        not isinstance(o, int) or not 0 <= o < count for o in ordinals
    ):
        problems.append(f"counterexample ordinals not ascending within the space: {ordinals}")
    holds_on = WITNESS_HOLDS[sweep.theorem]
    for c in cexs:
        try:
            ok = not holds_on(c["instance"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"witness {c.get('ordinal')} unreadable: {exc!r}")
            continue
        if not ok:
            problems.append(f"witness {c.get('ordinal')} satisfies the claim")
    return problems
