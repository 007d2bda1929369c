"""Theorem checkers and the instance-space sweep engine.

Every checker evaluates one registered claim on one instance and returns a
Verdict: holds, fails (always with a replayable witness), or skipped when
the instance is outside the claim's domain (for example, an attractor side
that is ill-formed because the closed family does not cover the ground).
Sweeps enumerate or sample an instance space, aggregate verdicts, and are
byte-reproducible for fixed parameters and seed.

Several registered claims are falsified by small instances; the sweep
engine reports such counterexamples rather than suppressing them.  See the
README for the catalogue of known findings.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import time
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple, Optional

from . import kernels
from .attract import (
    CoherenceVariant,
    commutes,
    free_attractors,
    room_report,
    saturation_coherent,
    transport,
)
from .cantor import (
    cantor_membership,
    explication_check,
    fibration_integrity,
    phase_chain_check,
    preserves_unfamily,
)
from .dynsys import Autobolism, DiscreteFlow, EndoFunction, invariant_sets, orbit_partition
from .instances import Instance, InstanceError
from .setsys import (
    DEFAULT_ENUM_CAP,
    ClosureConvention,
    GroundSet,
    SetSystem,
    Subset,
    classify,
    closure_map,
    elementarize,
    is_basis_of,
    is_partition,
    product_fibration,
    representation_ok,
)


class SizeLimitError(ValueError):
    """The requested ground size exceeds the per-theorem exhaustive limit,
    or the random-mode limit shared by every claim."""


class TheoremId(Enum):
    S1_1 = "S1_1"                    # self-dual topologies have partition bases
    K1_2 = "K1_2"                    # self-dual and T0 only for the power set
    L1_3 = "L1_3"                    # orbit blocks <-> indifferent coherence
    S2_2 = "S2_2"                    # continuous flows: closures of invariant partitions
    B2_3d = "B2_3d"                  # coincidence of coherence variants (discrete analog)
    L3_1 = "L3_1"                    # trace of a hull is met by the hulled set
    B3_2 = "B3_2"                    # commuting flows preserve invariant partitions under closure
    S3_3 = "S3_3"                    # commutation makes rooms an attractor partition
    B3_4 = "B3_4"                    # room invariance <-> rooms are attractors
    B3_6 = "B3_6"                    # closed-set representation of the closure fibration
    B3_7 = "B3_7"                    # fibration integrity <-> complement-freeness preserved
    S3_8_bij = "S3_8_bij"            # explication of commutative continuity, bijections
    S3_8_all = "S3_8_all"            # explication of commutative continuity, all self-maps
    K3_9 = "K3_9"                    # phase-flow continuity chain
    B3_10 = "B3_10"                  # plus/minus continuity coincide for bijections
    COVAR = "COVAR"                  # attractors are covariant under relabeling
    CHAIN_karrenk = "CHAIN_karrenk"  # weak >= conventional >= monotone attractors
    IDEM_ydwed = "IDEM_ydwed"        # idempotence of the hull operator


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "skipped"
    instance: Optional[Instance] = None  # the failing instance
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("holds", "fails", "skipped"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fails" and self.instance is None:
            raise ValueError("failing verdicts must carry a witness")

    @property
    def witness(self) -> Optional[dict[str, Any]]:
        """The failing instance as a replayable document, serialized on
        read, so a sweep pays only for the witnesses it keeps."""
        return None if self.instance is None else self.instance.to_dict()


#: The verdict of every holding instance without a note; verdicts are
#: frozen, so one serves them all.
_HOLDS = Verdict("holds")


def _holds(note: str = "") -> Verdict:
    return Verdict("holds", note=note) if note else _HOLDS


def _fails(inst: Instance, note: str) -> Verdict:
    return Verdict("fails", inst, note)


def _skip(note: str) -> Verdict:
    return Verdict("skipped", note=note)


# --------------------------------------------------------------------------
# enumeration of instance spaces: indexed sequences of the factors they
# are products of

class _Product(Sequence):
    """The tuples of a mixed-radix product, one entry from each factor, in
    the order of itertools.product: the last factor varies fastest.  Item
    `ordinal` is built on indexing from the ordinal's digits (Knuth, TAOCP
    4A, 7.2.1.1), so a caller builds only the tuples it visits."""

    def __init__(self, *factors: Sequence) -> None:
        self.radices = tuple((f, len(f)) for f in reversed(factors))
        self.size = math.prod(len(f) for f in factors)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, ordinal: int) -> tuple:
        if not 0 <= ordinal < self.size:
            raise IndexError(ordinal)
        out = []
        for factor, radix in self.radices:
            ordinal, digit = divmod(ordinal, radix)
            out.append(factor[digit])
        out.reverse()
        return tuple(out)


class _Permutations(Sequence):
    """The permutations of range(n) in the lexicographic order of
    itertools.permutations, each built on indexing by factorial-base
    unranking, so random.sample draws from all n! of them without listing
    them."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.size = math.factorial(n)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.size:
            raise IndexError(rank)
        rest = list(range(self.n))
        out = []
        for k in range(self.n - 1, -1, -1):
            digit, rank = divmod(rank, math.factorial(k))
            out.append(rest.pop(digit))
        return tuple(out)


def _maps(n: int, bijective_only: bool = False) -> Sequence[tuple[int, ...]]:
    """The self-maps (or bijections) of range(n) as image tuples, in
    lexicographic order."""
    return _Permutations(n) if bijective_only else _Product(*[range(n)] * n)


@functools.cache
def _covering_families(n: int) -> array:
    """The covering families of an n-set (n <= 4) as family bitmasks, bit m
    set when subset m is a member, ascending.  Built on first use for each
    n and kept as one compact array of 16-bit ints: 64594 of them at n=4."""
    if n > 4:
        raise SizeLimitError(f"exhaustive system enumeration capped at n=4, got {n}")
    # a family covers point x when its bitmask meets that of the subsets
    # holding x
    families: Iterable[int] = range(1 << (1 << n))
    for x in range(n):
        holders = sum(1 << m for m in range(1 << n) if m >> x & 1)
        families = filter(holders.__and__, families)
    return array("H", families)


def _byte_members(low: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the set bits of b << low, ascending, for every byte b."""
    out: list[tuple[int, ...]] = [()]
    for m in range(low, low + 8):
        out += [t + (m,) for t in out]
    return tuple(out)


#: The members marked by each value of the low and the high byte of a
#: family bitmask.
_BYTE_MEMBERS = (_byte_members(0), _byte_members(8))


def _members(family: int) -> tuple[int, ...]:
    """The member masks of a family bitmask of at most 16 bits (n <= 4),
    ascending."""
    low, high = _BYTE_MEMBERS
    return low[family & 255] + high[family >> 8]


def enum_topologies(n: int) -> Iterator[SetSystem]:
    """All labeled topologies: families containing the empty set and the
    ground, closed under pairwise union and intersection."""
    ground = GroundSet(n)
    full = ground.full_mask
    inner = range(1, full)
    for sub_bits in range(1 << (full - 1)):
        masks = [0] + [m for m in inner if sub_bits >> (m - 1) & 1] + [full]
        uc, ic = kernels.pairwise_closed(masks)
        if uc and ic:
            yield SetSystem(ground, tuple(masks))


@functools.cache
def _topology_list(n: int) -> tuple[SetSystem, ...]:
    """enum_topologies(n), listed on first use for each n."""
    return tuple(enum_topologies(n))


class _Genset(NamedTuple):
    """One generator set: its permutations named g0, g1, ... and the flow
    they generate.  A space builds each of its generator sets once, so the
    instances that share one share its flow and the orbit blocks the flow
    caches."""

    permutations: dict[str, Autobolism]
    flow: DiscreteFlow


def _genset(
    ground: GroundSet, images: Sequence[tuple[int, ...]], cyclic: bool = False
) -> _Genset:
    """The generator set of these permutation images: the cyclic flow of the
    first, or the group flow of all of them."""
    perms = {f"g{i}": Autobolism(ground, p) for i, p in enumerate(images)}
    gens = list(perms.values())
    flow = DiscreteFlow.cyclic(gens[0]) if cyclic else DiscreteFlow.of_group(gens)
    return _Genset(perms, flow)


def _gensets(n: int) -> list[_Genset]:
    """Generator sets of size one or two, lexicographic."""
    ground = GroundSet(n)
    perms = list(_Permutations(n))
    images = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
    return [_genset(ground, g) for g in images]


def _cycles(n: int) -> list[_Genset]:
    """The cyclic flow of every permutation, lexicographic."""
    ground = GroundSet(n)
    return [_genset(ground, (p,), cyclic=True) for p in _Permutations(n)]


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]


# --------------------------------------------------------------------------
# instance construction helpers

def _genset_instance(
    conv: ClosureConvention, genset: _Genset, systems: dict[str, SetSystem]
) -> Instance:
    """An instance of the generator set's flow, named phi, over `systems`.
    Its permutations and flows dicts are its own (a space may add to
    them); the permutations and the flow in them are shared."""
    return Instance(
        genset.flow.ground, conv, systems=systems,
        permutations=dict(genset.permutations), flows={"phi": genset.flow},
    )


# --------------------------------------------------------------------------
# checkers

def _get_system(inst: Instance, name: str) -> SetSystem:
    try:
        return inst.systems[name]
    except KeyError:
        raise InstanceError(f"systems.{name}", "missing") from None


def _get_single(inst: Instance, name: str) -> Subset:
    sys = _get_system(inst, name)
    if len(sys.masks) != 1:
        raise InstanceError(f"systems.{name}", "must hold exactly one subset")
    return Subset(inst.ground, sys.masks[0])


def _get_flow(inst: Instance) -> DiscreteFlow:
    if not inst.flows:
        raise InstanceError("flows", "missing")
    return next(iter(inst.flows.values()))


def _get_function(inst: Instance) -> EndoFunction:
    if not inst.functions:
        raise InstanceError("functions", "missing")
    return next(iter(inst.functions.values()))


def _check_s1_1(inst: Instance, conv: ClosureConvention) -> Verdict:
    t = _get_system(inst, "T")
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    blocks = elementarize(t).without_empty()
    part = is_partition(blocks.masks, inst.ground.full_mask)
    basis = is_basis_of(blocks, t)
    if flags.is_self_dual == (part and basis):
        return _holds()
    return _fails(inst, f"self_dual={flags.is_self_dual} partition={part} basis={basis}")


def _check_k1_2(inst: Instance, conv: ClosureConvention) -> Verdict:
    t = _get_system(inst, "T")
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    if not flags.is_self_dual:
        return _skip("not self-dual")
    discrete = len(t.masks) == 1 << inst.ground.size
    if flags.is_t0 == discrete:
        return _holds()
    return _fails(inst, f"t0={flags.is_t0} discrete={discrete}")


def _check_l1_3(inst: Instance, conv: ClosureConvention) -> Verdict:
    chi = _get_single(inst, "chi")
    if not chi:
        return _skip("empty chi")
    blocks = _get_flow(inst).orbit_blocks()
    subsets = [a for a in range(1, chi.bits + 1) if a & chi.bits == a]
    coherent = saturation_coherent(blocks, subsets)
    singles = saturation_coherent(blocks, [1 << x for x in chi.indices()])
    is_block = chi.bits in blocks
    note = "" if coherent == singles else "singleton and full-subset checks disagree"
    if coherent == is_block:
        return _holds(note)
    return _fails(
        inst,
        f"coherent={coherent} orbit_block={is_block}"
        + ("; " + note if note else ""),
    )


def _check_idem(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    cl = closure_map(sys, conv)
    if [cl[c] for c in cl] == cl:
        return _holds()
    z = next(z for z, c in enumerate(cl) if cl[c] != c)
    return _fails(inst, f"z={z:#x}: cl(z)={cl[z]:#x} but cl(cl(z))={cl[cl[z]]:#x}")


def _check_l3_1(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    b = _get_single(inst, "B")
    cl = closure_map(sys, conv)
    hullb = cl[b.bits]
    for m in sys.masks:
        x = m & hullb
        if x and not (x & b.bits):
            return _fails(inst, f"member {m:#x} traces to {x:#x}, disjoint from B")
    return _holds()


def _continuous(flow: DiscreteFlow, t: SetSystem) -> bool:
    members = set(t.masks)
    return all(
        {g.apply_mask(m) for m in t.masks} == members for g in flow.generators()
    )


def _invariant_partitions(flow: DiscreteFlow) -> Iterator[list[int]]:
    blocks = list(orbit_partition(flow).masks)
    for grouping in _set_partitions(blocks):
        part = []
        for grp in grouping:
            acc = 0
            for b in grp:
                acc |= b
            part.append(acc)
        yield sorted(part)


def _closed_partitions(
    inst: Instance, name: str, sys: SetSystem, flow: DiscreteFlow,
    conv: ClosureConvention, cl: list[int],
) -> Verdict:
    """Holds when the closure under `sys`, whose table is `cl`, of every
    invariant partition of the flow is again an invariant partition; the
    failing witness keeps `sys` under its own name and adds the partition
    as `P`."""
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not is_partition(closed, inst.ground.full_mask) or not all(
            c in invariant for c in closed
        ):
            witness = Instance(
                inst.ground,
                conv,
                systems={name: sys, "P": SetSystem(inst.ground, tuple(part))},
                permutations=dict(inst.permutations),
                flows=dict(inst.flows),
            )
            return _fails(witness, f"closures {closed} are not an invariant partition")
    return _holds()


def _check_s2_2(inst: Instance, conv: ClosureConvention) -> Verdict:
    t = _get_system(inst, "T")
    flow = _get_flow(inst)
    if not classify(t, conv).is_topology:
        return _skip("not a topology")
    if not _continuous(flow, t):
        return _holds("flow not continuous; premise not met")
    return _closed_partitions(inst, "T", t, flow, conv, closure_map(t, conv))


def _check_b3_2(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    cl = closure_map(sys, conv)
    if not commutes(flow, cl):
        return _holds("flow does not commute with the hull; premise not met")
    return _closed_partitions(inst, "A", sys, flow, conv, cl)


def _check_s3_3(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    cl = closure_map(sys, conv)
    if not commutes(flow, cl):
        return _holds("flow does not commute with the hull; premise not met")
    report = room_report(flow, cl, conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.partition and report.attractors:
        return _holds()
    return _fails(
        inst,
        f"rooms={report.rooms!r} partition={report.partition} "
        f"attractors={report.attractors}",
    )


def _check_b3_4(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    report = room_report(flow, closure_map(sys, conv), conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.invariant == report.attractors:
        return _holds()
    return _fails(
        inst,
        f"rooms={report.rooms!r} invariant={report.invariant} "
        f"attractors={report.attractors}",
    )


def _check_b2_3d(inst: Instance, conv: ClosureConvention) -> Verdict:
    covering = _get_system(inst, "Z")
    flow = _get_flow(inst)
    if not flow.is_cyclic:
        return _skip("monotone variants need a cyclic flow")
    if not covering.covers_ground():
        return _skip("system does not cover the ground")
    variants = [CoherenceVariant.CONVENTIONAL, CoherenceVariant.MONO_PLUS,
                CoherenceVariant.MONO_MINUS]
    if len(covering.masks) == 1 << inst.ground.size:
        variants.append(CoherenceVariant.WEAK)  # the power-set clause
    conventional, plus, minus, *powerset = free_attractors(flow, covering, conv, variants)
    if not (conventional == plus == minus):
        return _fails(
            inst,
            f"conventional={conventional!r} mono+={plus!r} mono-={minus!r}",
        )
    if powerset:
        [weak] = powerset
        blocks = orbit_partition(flow)
        if not (weak == conventional == blocks):
            return _fails(
                inst,
                f"over the power set: weak={weak!r} conventional={conventional!r} "
                f"orbits={blocks!r}",
            )
    return _holds()


def _check_chain(inst: Instance, conv: ClosureConvention) -> Verdict:
    covering = _get_system(inst, "Z")
    flow = _get_flow(inst)
    if not flow.is_cyclic:
        return _skip("monotone variants need a cyclic flow")
    if not covering.covers_ground():
        return _skip("system does not cover the ground")
    weak, conventional, plus, minus = (
        set(family.masks) for family in free_attractors(
            flow, covering, conv,
            (CoherenceVariant.WEAK, CoherenceVariant.CONVENTIONAL,
             CoherenceVariant.MONO_PLUS, CoherenceVariant.MONO_MINUS),
        )
    )
    if weak >= conventional and conventional >= plus and conventional >= minus:
        return _holds()
    return _fails(
        inst,
        f"weak={sorted(weak)} conventional={sorted(conventional)} "
        f"mono+={sorted(plus)} mono-={sorted(minus)}",
    )


def _check_b3_6(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    if representation_ok(product_fibration(sys, conv), sys):
        return _holds()
    return _fails(inst, "closed-set representation does not reproduce the fibration")


def _check_b3_7(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    f = _get_function(inst)
    integ = fibration_integrity(f, sys, conv)
    pres = preserves_unfamily(f, sys)
    if integ == pres:
        return _holds()
    return _fails(inst, f"integrity={integ} preserves_unfamily={pres}")


def _check_s3_8(inst: Instance, conv: ClosureConvention, bijective: bool) -> Verdict:
    sys = _get_system(inst, "A")
    f = _get_function(inst)
    if bijective and not f.is_bijective():
        return _skip("not a bijection")
    rec = explication_check(f, sys, conv)
    if rec.agree:
        return _holds()
    return _fails(
        inst,
        f"commutative={rec.lhs} two-sided(system)={rec.rhs_system} "
        f"two-sided(complement)={rec.rhs_complement}",
    )


def _check_k3_9(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    if not inst.permutations:
        raise InstanceError("permutations", "missing")
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    gens = [inst.permutations[k] for k in sorted(inst.permutations)]
    rec = phase_chain_check(gens, sys, conv)
    if rec.chain_holds:
        return _holds()
    return _fails(inst, f"chain statements {rec.statements}")


def _check_b3_10(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    f = _get_function(inst)
    if not f.is_bijective():
        return _skip("not a bijection")
    plus = cantor_membership(f, sys, True)
    minus = cantor_membership(f, sys, False)
    if plus == minus:
        return _holds()
    return _fails(inst, f"plus={plus} minus={minus}")


def _check_covar(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    relabel = inst.permutations.get("f")
    if relabel is None:
        raise InstanceError("permutations.f", "missing relabeling")
    moved_flow, moved_sys = transport(flow, sys, relabel)
    [original] = free_attractors(flow, sys, conv)
    [moved] = free_attractors(moved_flow, moved_sys, conv)
    expected = SetSystem(
        inst.ground, tuple(relabel.apply_mask(m) for m in original.masks)
    )
    if moved == expected:
        return _holds()
    return _fails(
        inst, f"transported={moved!r} != relabeled originals={expected!r}"
    )


# --------------------------------------------------------------------------
# instance spaces: a space `_xs(n, conv)` is the indexed product of its
# factors, and its sampler `_draw_x(n, conv, rnd)` draws one instance from
# `rnd`

class _Space(_Product):
    """An exhaustive instance space: the instance of an ordinal is built
    from that ordinal's tuple of the factors, so the space's order is that
    of nested loops over the factors, the last one innermost."""

    def __init__(self, build: Callable[..., Instance], *factors: Sequence) -> None:
        super().__init__(*factors)
        self.build = build

    def at(self, ordinal: int) -> Instance:
        return self.build(*self[ordinal])


def _families(ground: GroundSet) -> Callable[[int], SetSystem]:
    """Family bitmask -> set system on `ground`.  It keeps the last 256
    systems it built: every covering family at n <= 3, so a space whose
    family is its innermost factor builds each system once, and at n=4 the
    family that the next ordinals of a space mostly ask for again."""
    return functools.lru_cache(maxsize=256)(lambda family: SetSystem(ground, _members(family)))


def _sample_system(rnd: random.Random, ground: GroundSet) -> SetSystem:
    """Each subset independently with probability 1/2; coverage forced by
    adding the ground when needed."""
    masks = [m for m in range(1 << ground.size) if rnd.random() < 0.5]
    u = 0
    for m in masks:
        u |= m
    if u != ground.full_mask:
        masks.append(ground.full_mask)
    return SetSystem(ground, tuple(masks))


def _sample_perm(rnd: random.Random, ground: GroundSet) -> Autobolism:
    image = list(range(ground.size))
    rnd.shuffle(image)
    return Autobolism(ground, tuple(image))


def _sample_genset(rnd: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """One or two distinct permutations; one on a 1-point ground, which has
    no second."""
    k = rnd.choice((1, 2))
    perms = _Permutations(n)
    return tuple(rnd.sample(perms, min(k, len(perms))))


def _sample_topology(rnd: random.Random, ground: GroundSet) -> SetSystem:
    """The union-and-intersection closure of a random family."""
    masks = set(_sample_system(rnd, ground).masks) | {0, ground.full_mask}
    changed = True
    while changed:
        changed = False
        for a in list(masks):
            for b in list(masks):
                for c in (a | b, a & b):
                    if c not in masks:
                        masks.add(c)
                        changed = True
    return SetSystem(ground, tuple(masks))


def _topologies(n: int, conv: ClosureConvention) -> _Space:
    ground = GroundSet(n)
    return _Space(lambda t: Instance(ground, conv, systems={"T": t}), _topology_list(n))


def _draw_topology(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    return Instance(ground, conv, systems={"T": _sample_topology(rnd, ground)})


def _systems(n: int, conv: ClosureConvention) -> _Space:
    ground = GroundSet(n)

    # the family is the only factor, so no system is asked for twice
    def build(family: int) -> Instance:
        return Instance(ground, conv, systems={"A": SetSystem(ground, _members(family))})

    return _Space(build, _covering_families(n))


def _draw_system(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    return Instance(ground, conv, systems={"A": _sample_system(rnd, ground)})


def _singletons(ground: GroundSet, masks: Iterable[int]) -> list[SetSystem]:
    """The one-member system of each mask."""
    return [SetSystem(ground, (m,)) for m in masks]


def _systems_subsets(n: int, conv: ClosureConvention) -> _Space:
    ground = GroundSet(n)
    system = _families(ground)

    def build(family: int, b: SetSystem) -> Instance:
        return Instance(ground, conv, systems={"A": system(family), "B": b})

    return _Space(build, _covering_families(n), _singletons(ground, range(1 << n)))


def _draw_system_subset(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    sys = _sample_system(rnd, ground)
    b = SetSystem(ground, (rnd.randrange(1 << n),))
    return Instance(ground, conv, systems={"A": sys, "B": b})


def _gensets_subsets(n: int, conv: ClosureConvention) -> _Space:
    def build(genset: _Genset, chi: SetSystem) -> Instance:
        return _genset_instance(conv, genset, {"chi": chi})

    return _Space(build, _gensets(n), _singletons(GroundSet(n), range(1, 1 << n)))


def _draw_genset_subset(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    chi = SetSystem(ground, (rnd.randrange(1, 1 << n),))
    return _genset_instance(conv, _genset(ground, _sample_genset(rnd, n)), {"chi": chi})


def _topologies_gensets(n: int, conv: ClosureConvention) -> _Space:
    return _Space(
        lambda t, genset: _genset_instance(conv, genset, {"T": t}),
        _topology_list(n), _gensets(n),
    )


def _draw_topology_genset(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    t = _sample_topology(rnd, ground)
    return _genset_instance(conv, _genset(ground, _sample_genset(rnd, n)), {"T": t})


def _systems_gensets(n: int, conv: ClosureConvention) -> _Space:
    system = _families(GroundSet(n))

    def build(family: int, genset: _Genset) -> Instance:
        return _genset_instance(conv, genset, {"A": system(family)})

    return _Space(build, _covering_families(n), _gensets(n))


def _draw_system_genset(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    images = _sample_genset(rnd, n)
    ground = GroundSet(n)
    return _genset_instance(conv, _genset(ground, images), {"A": _sample_system(rnd, ground)})


def _cycles_coverings(
    n: int, conv: ClosureConvention, powerset_only: bool = False
) -> _Space:
    system = _families(GroundSet(n))
    # the power set's family bitmask has every subset's bit set
    coverings = [(1 << (1 << n)) - 1] if powerset_only else _covering_families(n)

    def build(cycle: _Genset, covering: int) -> Instance:
        return _genset_instance(conv, cycle, {"Z": system(covering)})

    return _Space(build, _cycles(n), coverings)


def _draw_cycle_covering(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    cycle = _genset(ground, (_sample_perm(rnd, ground).image,), cyclic=True)
    return _genset_instance(conv, cycle, {"Z": _sample_system(rnd, ground)})


def _systems_functions(
    n: int, conv: ClosureConvention, bijective: bool = False
) -> _Space:
    ground = GroundSet(n)
    system = _families(ground)

    def build(family: int, f: EndoFunction) -> Instance:
        return Instance(ground, conv, systems={"A": system(family)}, functions={"f": f})

    functions = [EndoFunction(ground, image) for image in _maps(n, bijective)]
    return _Space(build, _covering_families(n), functions)


def _draw_system_function(
    n: int, conv: ClosureConvention, rnd: random.Random, bijective: bool = False
) -> Instance:
    ground = GroundSet(n)
    if bijective:
        f = EndoFunction(ground, _sample_perm(rnd, ground).image)
    else:
        f = EndoFunction(ground, tuple(rnd.randrange(n) for _ in range(n)))
    sys = _sample_system(rnd, ground)
    return Instance(ground, conv, systems={"A": sys}, functions={"f": f})


def _relabelings(n: int, conv: ClosureConvention) -> _Space:
    ground = GroundSet(n)
    system = _families(ground)

    def build(cycle: _Genset, family: int, rel: Autobolism) -> Instance:
        inst = _genset_instance(conv, cycle, {"A": system(family)})
        inst.permutations["f"] = rel
        return inst

    relabels = [Autobolism(ground, rel) for rel in _Permutations(n)]
    return _Space(build, _cycles(n), _covering_families(n), relabels)


def _draw_relabeling(n: int, conv: ClosureConvention, rnd: random.Random) -> Instance:
    ground = GroundSet(n)
    sys = _sample_system(rnd, ground)
    cycle = _genset(ground, (_sample_perm(rnd, ground).image,), cyclic=True)
    inst = _genset_instance(conv, cycle, {"A": sys})
    inst.permutations["f"] = _sample_perm(rnd, ground)
    return inst


# --------------------------------------------------------------------------
# the claim registry

@dataclass(frozen=True)
class Claim:
    """Everything the harness knows about one claim: the checker; the
    exhaustive space `(n, conv) -> _Space`, its instances in a fixed order,
    allowed up to `max_exhaustive_n` points; the sampler `(n, conv, rnd) -> Instance`
    and the number of random samples drawn by default; whether sweeps are
    expected to be failure-free; and the note attached to sweep reports."""

    checker: Callable[[Instance, ClosureConvention], Verdict]
    space: Callable[[int, ClosureConvention], _Space]
    sample: Callable[[int, ClosureConvention, random.Random], Instance]
    max_exhaustive_n: int
    default_samples: int
    clean: bool = False
    note: str = ""

    def check(self, inst: Instance, conv: ClosureConvention) -> Verdict:
        """Evaluate the claim on one instance.  Every sweep and
        `check_theorem` call goes through here, which gives per-layer
        tracing (sweepbench) one name to time all checker bodies by."""
        return self.checker(inst, conv)


_BIJECTIONS = partial(_systems_functions, bijective=True)
_DRAW_BIJECTION = partial(_draw_system_function, bijective=True)

#: Every claim, by id.  Columns: checker, exhaustive space, sampler,
#: exhaustive ceiling on n, default number of random samples.
CLAIMS: dict[TheoremId, Claim] = {
    TheoremId.S1_1: Claim(_check_s1_1, _topologies, _draw_topology, 4, 1000, clean=True),
    TheoremId.K1_2: Claim(_check_k1_2, _topologies, _draw_topology, 4, 1000, clean=True),
    TheoremId.L1_3: Claim(
        _check_l1_3, _gensets_subsets, _draw_genset_subset, 4, 2000, clean=True
    ),
    TheoremId.S2_2: Claim(
        _check_s2_2, _topologies_gensets, _draw_topology_genset, 3, 500, clean=True
    ),
    TheoremId.B2_3d: Claim(
        _check_b2_3d, partial(_cycles_coverings, powerset_only=True), _draw_cycle_covering,
        4, 1000, note="discrete analog of the continuous coincidence statement",
    ),
    TheoremId.L3_1: Claim(
        _check_l3_1, _systems_subsets, _draw_system_subset, 3, 10000, clean=True
    ),
    TheoremId.B3_2: Claim(
        _check_b3_2, _systems_gensets, _draw_system_genset, 3, 500, clean=True
    ),
    TheoremId.S3_3: Claim(
        _check_s3_3, _systems_gensets, _draw_system_genset, 3, 1000, clean=True
    ),
    TheoremId.B3_4: Claim(
        _check_b3_4, _systems_gensets, _draw_system_genset, 3, 1000, clean=True
    ),
    TheoremId.B3_6: Claim(_check_b3_6, _systems, _draw_system, 3, 1000, clean=True),
    TheoremId.B3_7: Claim(
        _check_b3_7, _systems_functions, _draw_system_function, 3, 1000, clean=True
    ),
    TheoremId.S3_8_bij: Claim(
        partial(_check_s3_8, bijective=True), _BIJECTIONS, _DRAW_BIJECTION, 3, 1000
    ),
    TheoremId.S3_8_all: Claim(
        partial(_check_s3_8, bijective=False), _systems_functions, _draw_system_function,
        3, 1000, note="documented open question: for non-bijective self-maps the "
        "two-sided memberships and hull commutation can disagree",
    ),
    TheoremId.K3_9: Claim(_check_k3_9, _systems_gensets, _draw_system_genset, 3, 500),
    TheoremId.B3_10: Claim(_check_b3_10, _BIJECTIONS, _DRAW_BIJECTION, 3, 1000, clean=True),
    TheoremId.COVAR: Claim(_check_covar, _relabelings, _draw_relabeling, 3, 1000),
    TheoremId.CHAIN_karrenk: Claim(
        _check_chain, _cycles_coverings, _draw_cycle_covering, 3, 1000
    ),
    TheoremId.IDEM_ydwed: Claim(_check_idem, _systems, _draw_system, 4, 1000),
}

#: Claims whose sweeps are expected to be failure-free; a nonzero failure
#: count on these makes the CLI exit nonzero.
PROVED_CLEAN = frozenset(t for t, claim in CLAIMS.items() if claim.clean)


def check_theorem(
    theorem: TheoremId,
    instance: Instance | dict[str, Any],
    conv: ClosureConvention = ClosureConvention.FULL,
) -> Verdict:
    """Evaluate one registered claim on one instance."""
    if isinstance(instance, dict):
        instance = Instance.from_dict(instance)
    return CLAIMS[theorem].check(instance, conv)


#: A parallel sweep deals the ordinals of the instance stream to its
#: workers in blocks of this many.
SHARE_BLOCK = 64


def _share(size: int, worker: int, jobs: int) -> Iterator[int]:
    """The ordinals below `size` whose block `ordinal // SHARE_BLOCK` is
    `worker` modulo `jobs`, ascending."""
    block = SHARE_BLOCK
    for start in range(worker * block, size, jobs * block):
        yield from range(start, min(start + block, size))


# Sweeps draw every instance through these two names, which per-layer
# tracing (sweepbench) times as instance generation.

def _exhaustive_instances(
    theorem: TheoremId, n: int, conv: ClosureConvention, worker: int, jobs: int
) -> Iterator[tuple[int, Instance]]:
    """One worker's share of the claim's exhaustive space, as (ordinal,
    instance) pairs: only the share's instances are built."""
    space = CLAIMS[theorem].space(n, conv)
    for ordinal in _share(len(space), worker, jobs):
        yield ordinal, space.at(ordinal)


def _random_instance(
    theorem: TheoremId, n: int, conv: ClosureConvention, rnd: random.Random
) -> Instance:
    return CLAIMS[theorem].sample(n, conv, rnd)


# --------------------------------------------------------------------------
# sweeping

@dataclass(frozen=True)
class SweepReport:
    theorem: TheoremId
    n: int
    mode: str  # "exhaustive" | "random"
    convention: ClosureConvention
    seed: Optional[int]
    samples: Optional[int]
    instance_count: int
    hold_count: int
    fail_count: int
    skip_count: int
    counterexamples: tuple[dict[str, Any], ...]
    elapsed: float = field(compare=False, default=0.0)

    def to_payload(self) -> dict[str, Any]:
        """Canonical payload; deliberately excludes the elapsed time so
        identical parameters and seed yield identical bytes."""
        return {
            "theorem": self.theorem.value,
            "n": self.n,
            "mode": self.mode,
            "convention": self.convention.value,
            "seed": self.seed,
            "samples": self.samples,
            "instance_count": self.instance_count,
            "hold_count": self.hold_count,
            "fail_count": self.fail_count,
            "skip_count": self.skip_count,
            "counterexamples": list(self.counterexamples),
            "note": CLAIMS[self.theorem].note,
        }


def _evaluate(
    theorem: TheoremId,
    n: int,
    mode: str,
    seed: Optional[int],
    samples: Optional[int],
    conv: ClosureConvention,
    cap: int,
    worker: int,
    jobs: int,
) -> tuple[int, int, int, int, list[dict[str, Any]]]:
    """Check one worker's share of the claim's instance stream: the ordinals
    whose block `ordinal // SHARE_BLOCK` is `worker` modulo `jobs`, and no
    other instance is built.  In exhaustive mode the ordinals number the
    claim's space; in random mode ordinal k is drawn from
    `Random(f"{seed}:{k}")`, for k below `samples`.  Returns the share's
    counts and its first `cap` counterexamples."""
    if mode == "exhaustive":
        share = _exhaustive_instances(theorem, n, conv, worker, jobs)
    else:
        share = (
            (o, _random_instance(theorem, n, conv, random.Random(f"{seed}:{o}")))
            for o in _share(samples or 0, worker, jobs)
        )
    claim = CLAIMS[theorem]
    total = holds = fails = skips = 0
    cexs: list[dict[str, Any]] = []
    for ordinal, inst in share:
        verdict = claim.check(inst, conv)
        total += 1
        if verdict.status == "holds":
            holds += 1
        elif verdict.status == "skipped":
            skips += 1
        else:
            fails += 1
            if len(cexs) < cap:
                cexs.append(
                    {
                        "ordinal": ordinal,
                        "instance": verdict.witness,
                        "note": verdict.note,
                    }
                )
    return total, holds, fails, skips, cexs


def sweep(
    theorem: TheoremId,
    n: int,
    mode: str = "exhaustive",
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    conv: ClosureConvention = ClosureConvention.FULL,
    max_counterexamples: int = 32,
    jobs: int = 1,
) -> SweepReport:
    """Run one claim over its instance space.  Exhaustive mode enumerates
    the full space (subject to the per-claim ceiling); random mode draws
    seeded samples on at most `DEFAULT_ENUM_CAP` points.  With `jobs` > 1,
    up to that many worker processes (no more than the CPU count) each
    check their own share of the ordinals.
    Reports are deterministic for fixed parameters, whatever `jobs` is."""
    claim = CLAIMS[theorem]
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if max_counterexamples < 0:
        raise ValueError(f"max_counterexamples must be at least 0, got {max_counterexamples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    if mode == "exhaustive":
        if n > claim.max_exhaustive_n:
            raise SizeLimitError(
                f"{theorem.value}: exhaustive mode capped at "
                f"n={claim.max_exhaustive_n}, got {n}"
            )
        used_seed: Optional[int] = None
        used_samples: Optional[int] = None
    elif mode == "random":
        if n > DEFAULT_ENUM_CAP:
            raise SizeLimitError(
                f"{theorem.value}: random mode capped at n={DEFAULT_ENUM_CAP}, got {n}"
            )
        used_samples = samples if samples is not None else claim.default_samples
        used_seed = seed
    else:
        raise ValueError(f"mode must be exhaustive or random, got {mode!r}")

    task = (theorem, n, mode, used_seed, used_samples, conv, max_counterexamples)
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        parts = [_evaluate(*task, 0, 1)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evaluate, *task, w, workers) for w in range(workers)]
            parts = [f.result() for f in futures]
    total, holds, fails, skips = (sum(part[i] for part in parts) for i in range(4))
    cexs = sorted((c for part in parts for c in part[4]), key=lambda c: c["ordinal"])

    return SweepReport(
        theorem=theorem,
        n=n,
        mode=mode,
        convention=conv,
        seed=used_seed,
        samples=used_samples,
        instance_count=total,
        hold_count=holds,
        fail_count=fails,
        skip_count=skips,
        counterexamples=tuple(cexs[:max_counterexamples]),
        elapsed=time.perf_counter() - start,
    )
