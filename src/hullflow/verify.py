"""Theorem checkers and the instance-space sweep engine.

Every registered claim has one checker body.  It takes the claim's factor
values (member masks or systems, generator sets, subset masks, self-maps)
and returns a Verdict: holds, fails, or skipped when the values are outside
the claim's domain (for example, an attractor side that is ill-formed
because the closed family does not cover the ground).  Sweeps pass the body
the values their instance space indexes or their sampler draws, and build
an Instance from them only for a failing verdict whose witness they keep;
`check_theorem` unpacks an Instance into the same values.  Every failing
verdict handed out carries a replayable witness.  Sweeps aggregate
verdicts and are byte-reproducible for fixed parameters and seed.

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
from functools import partial, reduce
from operator import or_
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
    classify,
    closure_map,
    closure_map_of,
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
    """A claim's verdict on one instance.  A checker body returns a failing
    verdict without its instance; `check_theorem` and the sweep attach the
    witness (`_witnessed`), so every failing verdict they hand out has
    one."""

    status: str  # "holds" | "fails" | "skipped"
    instance: Optional[Instance] = None  # the failing instance
    note: str = ""
    #: The witness's systems, where a failing body names them: the witness
    #: then holds these systems, the checked instance's permutations and
    #: flows, and the convention checked under.
    systems: Optional[dict[str, SetSystem]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.status not in ("holds", "fails", "skipped"):
            raise ValueError(f"bad status {self.status!r}")

    @property
    def witness(self) -> Optional[dict[str, Any]]:
        """The failing instance as a replayable document, serialized on
        read, so a sweep pays only for the witnesses it keeps."""
        return None if self.instance is None else self.instance.to_dict()


# Verdicts are frozen, so one serves every holding or skipped instance
# with the same note.

@functools.cache
def _holds(note: str = "") -> Verdict:
    return Verdict("holds", note=note)


_HOLDS = _holds()


@functools.cache
def _skip(note: str) -> Verdict:
    return Verdict("skipped", note=note)


def _fails(note: str, systems: Optional[dict[str, SetSystem]] = None) -> Verdict:
    return Verdict("fails", note=note, systems=systems)


def _witnessed(verdict: Verdict, inst: Instance, conv: ClosureConvention) -> Verdict:
    """A body's failing verdict with its witness: the instance checked, or,
    where the body named the witness's systems, an instance of those under
    `conv` with the checked instance's permutations and flows."""
    if verdict.systems is not None:
        inst = Instance(
            inst.ground, conv, systems=verdict.systems,
            permutations=dict(inst.permutations), flows=dict(inst.flows),
        )
    return Verdict("fails", inst, verdict.note)


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


class _Mapped(Sequence):
    """`fn` of each entry of `seq`, computed on indexing."""

    def __init__(self, fn: Callable[[Any], Any], seq: Sequence) -> None:
        self.fn = fn
        self.seq = seq

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, i: int) -> Any:
        return self.fn(self.seq[i])


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


def _families(ground: GroundSet) -> Callable[[int], SetSystem]:
    """Family bitmask -> set system on `ground`.  It keeps the last 256
    systems it built: every covering family at n <= 3, so a space whose
    family is its innermost factor builds each system once, and at n=4 the
    family that the next ordinals of a space mostly ask for again."""
    return functools.lru_cache(maxsize=256)(lambda family: SetSystem(ground, _members(family)))


def _systems_of(n: int) -> _Mapped:
    """The covering systems on n points, each built when indexed."""
    return _Mapped(_families(GroundSet(n)), _covering_families(n))


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
    they generate.  A space builds each of its generator sets once, from
    one Autobolism per permutation, so the instances that share a generator
    set share its flow and the orbit blocks the flow caches, and the
    generator sets that share a permutation share its mask-image table."""

    permutations: dict[str, Autobolism]
    flow: DiscreteFlow


def _genset(gens: Sequence[Autobolism], cyclic: bool = False) -> _Genset:
    """The generator set of these permutations: the cyclic flow of the
    first, or the group flow of all of them."""
    perms = {f"g{i}": g for i, g in enumerate(gens)}
    flow = DiscreteFlow.cyclic(gens[0]) if cyclic else DiscreteFlow.of_group(gens)
    return _Genset(perms, flow)


def _autobolisms(ground: GroundSet) -> list[Autobolism]:
    """Every permutation of the ground, lexicographic, one object each."""
    return [Autobolism(ground, p) for p in _Permutations(ground.size)]


def _gensets(n: int) -> list[_Genset]:
    """Generator sets of size one or two, lexicographic."""
    perms = _autobolisms(GroundSet(n))
    pairs = itertools.combinations(perms, 2)
    return [_genset((p,)) for p in perms] + [_genset(pair) for pair in pairs]


def _cycles(perms: list[Autobolism]) -> list[_Genset]:
    """The cyclic flow of each of these permutations, in their order."""
    return [_genset((p,), cyclic=True) for p in perms]


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
# checker bodies: `_check_x(ground, conv, *values)`, the values in the
# order of the factors of the claim's space

def _check_s1_1(ground: GroundSet, conv: ClosureConvention, t: SetSystem) -> Verdict:
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    blocks = elementarize(t).without_empty()
    part = is_partition(blocks.masks, ground.full_mask)
    basis = is_basis_of(blocks, t)
    if flags.is_self_dual == (part and basis):
        return _HOLDS
    return _fails(f"self_dual={flags.is_self_dual} partition={part} basis={basis}")


def _check_k1_2(ground: GroundSet, conv: ClosureConvention, t: SetSystem) -> Verdict:
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    if not flags.is_self_dual:
        return _skip("not self-dual")
    discrete = len(t.masks) == 1 << ground.size
    if flags.is_t0 == discrete:
        return _HOLDS
    return _fails(f"t0={flags.is_t0} discrete={discrete}")


def _check_l1_3(
    ground: GroundSet, conv: ClosureConvention, genset: _Genset, chi: int
) -> Verdict:
    if not chi:
        return _skip("empty chi")
    blocks = genset.flow.orbit_blocks()
    subsets = [a for a in range(1, chi + 1) if a & chi == a]
    coherent = saturation_coherent(blocks, subsets)
    singles = saturation_coherent(blocks, [1 << x for x in range(ground.size) if chi >> x & 1])
    is_block = chi in blocks
    note = "" if coherent == singles else "singleton and full-subset checks disagree"
    if coherent == is_block:
        return _holds(note)
    return _fails(f"coherent={coherent} orbit_block={is_block}" + ("; " + note if note else ""))


def _check_idem(ground: GroundSet, conv: ClosureConvention, masks: tuple[int, ...]) -> Verdict:
    if reduce(or_, masks, 0) != ground.full_mask:
        return _skip("system does not cover the ground")
    cl = closure_map_of(ground.size, masks, conv)
    if [cl[c] for c in cl] == cl:
        return _HOLDS
    z = next(z for z, c in enumerate(cl) if cl[c] != c)
    return _fails(f"z={z:#x}: cl(z)={cl[z]:#x} but cl(cl(z))={cl[cl[z]]:#x}")


def _check_l3_1(
    ground: GroundSet, conv: ClosureConvention, masks: tuple[int, ...], b: int
) -> Verdict:
    hullb = closure_map_of(ground.size, masks, conv)[b]
    for m in masks:
        x = m & hullb
        if x and not (x & b):
            return _fails(f"member {m:#x} traces to {x:#x}, disjoint from B")
    return _HOLDS


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
    ground: GroundSet, name: str, sys: SetSystem, flow: DiscreteFlow, cl: list[int]
) -> Verdict:
    """Holds when the closure under `sys`, whose table is `cl`, of every
    invariant partition of the flow is again an invariant partition; the
    failing witness keeps `sys` under its own name and adds the partition
    as `P`."""
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not is_partition(closed, ground.full_mask) or not all(
            c in invariant for c in closed
        ):
            return _fails(
                f"closures {closed} are not an invariant partition",
                systems={name: sys, "P": SetSystem(ground, tuple(part))},
            )
    return _HOLDS


def _check_s2_2(
    ground: GroundSet, conv: ClosureConvention, t: SetSystem, genset: _Genset
) -> Verdict:
    flow = genset.flow
    if not classify(t, conv).is_topology:
        return _skip("not a topology")
    if not _continuous(flow, t):
        return _holds("flow not continuous; premise not met")
    return _closed_partitions(ground, "T", t, flow, closure_map(t, conv))


def _check_b3_2(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, genset: _Genset
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    cl = closure_map(sys, conv)
    if not commutes(genset.flow, cl):
        return _holds("flow does not commute with the hull; premise not met")
    return _closed_partitions(ground, "A", sys, genset.flow, cl)


def _check_s3_3(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, genset: _Genset
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    cl = closure_map(sys, conv)
    if not commutes(genset.flow, cl):
        return _holds("flow does not commute with the hull; premise not met")
    report = room_report(genset.flow, cl, conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.partition and report.attractors:
        return _HOLDS
    return _fails(
        f"rooms={report.rooms!r} partition={report.partition} "
        f"attractors={report.attractors}"
    )


def _check_b3_4(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, genset: _Genset
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    report = room_report(genset.flow, closure_map(sys, conv), conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.invariant == report.attractors:
        return _HOLDS
    return _fails(
        f"rooms={report.rooms!r} invariant={report.invariant} "
        f"attractors={report.attractors}"
    )


def _check_b2_3d(
    ground: GroundSet, conv: ClosureConvention, cycle: _Genset, covering: SetSystem
) -> Verdict:
    flow = cycle.flow
    if not flow.is_cyclic:
        return _skip("monotone variants need a cyclic flow")
    if not covering.covers_ground():
        return _skip("system does not cover the ground")
    variants = [CoherenceVariant.CONVENTIONAL, CoherenceVariant.MONO_PLUS,
                CoherenceVariant.MONO_MINUS]
    if len(covering.masks) == 1 << ground.size:
        variants.append(CoherenceVariant.WEAK)  # the power-set clause
    conventional, plus, minus, *powerset = free_attractors(flow, covering, conv, variants)
    if not (conventional == plus == minus):
        return _fails(f"conventional={conventional!r} mono+={plus!r} mono-={minus!r}")
    if powerset:
        [weak] = powerset
        blocks = orbit_partition(flow)
        if not (weak == conventional == blocks):
            return _fails(
                f"over the power set: weak={weak!r} conventional={conventional!r} "
                f"orbits={blocks!r}"
            )
    return _HOLDS


def _check_chain(
    ground: GroundSet, conv: ClosureConvention, cycle: _Genset, covering: SetSystem
) -> Verdict:
    flow = cycle.flow
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
        return _HOLDS
    return _fails(
        f"weak={sorted(weak)} conventional={sorted(conventional)} "
        f"mono+={sorted(plus)} mono-={sorted(minus)}"
    )


def _check_b3_6(ground: GroundSet, conv: ClosureConvention, masks: tuple[int, ...]) -> Verdict:
    sys = SetSystem(ground, masks)
    if representation_ok(product_fibration(sys, conv), sys):
        return _HOLDS
    return _fails("closed-set representation does not reproduce the fibration")


def _check_b3_7(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction
) -> Verdict:
    integ = fibration_integrity(f, sys, conv)
    pres = preserves_unfamily(f, sys, conv)
    if integ == pres:
        return _HOLDS
    return _fails(f"integrity={integ} preserves_unfamily={pres}")


def _check_s3_8(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction,
    bijective: bool,
) -> Verdict:
    if bijective and not f.is_bijective():
        return _skip("not a bijection")
    rec = explication_check(f, sys, conv)
    if rec.agree:
        return _HOLDS
    return _fails(
        f"commutative={rec.lhs} two-sided(system)={rec.rhs_system} "
        f"two-sided(complement)={rec.rhs_complement}"
    )


def _check_k3_9(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, genset: _Genset
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    perms = genset.permutations
    rec = phase_chain_check([perms[k] for k in sorted(perms)], sys, conv)
    if rec.chain_holds:
        return _HOLDS
    return _fails(f"chain statements {rec.statements}")


def _check_b3_10(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction
) -> Verdict:
    if not f.is_bijective():
        return _skip("not a bijection")
    plus = cantor_membership(f, sys, True)
    minus = cantor_membership(f, sys, False)
    if plus == minus:
        return _HOLDS
    return _fails(f"plus={plus} minus={minus}")


def _check_covar(
    ground: GroundSet, conv: ClosureConvention, cycle: _Genset, sys: SetSystem,
    relabel: Optional[Autobolism],
) -> Verdict:
    """`relabel` is None only where `_unpack_covar` found no relabeling on a
    system that does not cover the ground, which is skipped first."""
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    moved_flow, moved_sys = transport(cycle.flow, sys, relabel)
    [original] = free_attractors(cycle.flow, sys, conv)
    [moved] = free_attractors(moved_flow, moved_sys, conv)
    expected = SetSystem(ground, tuple(relabel.apply_mask(m) for m in original.masks))
    if moved == expected:
        return _HOLDS
    return _fails(f"transported={moved!r} != relabeled originals={expected!r}")


# --------------------------------------------------------------------------
# unpacking: the values of a checker body, read out of an Instance in the
# order the claim has always read them (a tuple display evaluates left to
# right), so a document missing two objects reports the same one

def _get_system(inst: Instance, name: str) -> SetSystem:
    try:
        return inst.systems[name]
    except KeyError:
        raise InstanceError(f"systems.{name}", "missing") from None


def _get_single(inst: Instance, name: str) -> int:
    masks = _get_system(inst, name).masks
    if len(masks) != 1:
        raise InstanceError(f"systems.{name}", "must hold exactly one subset")
    return masks[0]


def _get_flow(inst: Instance) -> _Genset:
    """The instance's first flow, with all its permutations."""
    if not inst.flows:
        raise InstanceError("flows", "missing")
    return _Genset(inst.permutations, next(iter(inst.flows.values())))


def _get_function(inst: Instance) -> EndoFunction:
    if not inst.functions:
        raise InstanceError("functions", "missing")
    return next(iter(inst.functions.values()))


def _unpack_t(inst: Instance) -> tuple:
    return (_get_system(inst, "T"),)


def _unpack_masks(inst: Instance) -> tuple:
    return (_get_system(inst, "A").masks,)


def _unpack_masks_b(inst: Instance) -> tuple:
    return _get_system(inst, "A").masks, _get_single(inst, "B")


def _unpack_l1_3(inst: Instance) -> tuple:
    chi = _get_single(inst, "chi")
    # an empty chi is skipped before the flow is read
    return (_get_flow(inst) if chi else None), chi


def _unpack_t_flow(inst: Instance) -> tuple:
    return _get_system(inst, "T"), _get_flow(inst)


def _unpack_a_flow(inst: Instance) -> tuple:
    return _get_system(inst, "A"), _get_flow(inst)


def _unpack_flow_z(inst: Instance) -> tuple:
    covering = _get_system(inst, "Z")
    return _get_flow(inst), covering


def _unpack_a_f(inst: Instance) -> tuple:
    return _get_system(inst, "A"), _get_function(inst)


def _unpack_k3_9(inst: Instance) -> tuple:
    sys = _get_system(inst, "A")
    if not inst.permutations:
        raise InstanceError("permutations", "missing")
    # the chain reads the permutations and no flow
    return sys, _Genset(inst.permutations, None)


def _unpack_covar(inst: Instance) -> tuple:
    sys = _get_system(inst, "A")
    cycle = _get_flow(inst)
    relabel = inst.permutations.get("f")
    # a system that does not cover the ground is skipped before its
    # relabeling is looked for
    if relabel is None and sys.covers_ground():
        raise InstanceError("permutations.f", "missing relabeling")
    return cycle, sys, relabel


# --------------------------------------------------------------------------
# instance spaces: a `_Kind` names a space's factors on n points, the
# Instance of one tuple of factor values, and the sampler that draws one
# tuple from `rnd`

class _Kind(NamedTuple):
    """An instance space: `factors(n)`, the sequences of factor values it is
    the product of; `build(ground, conv, *values)`, the Instance of one
    tuple of values; and `draw(n, rnd)`, one tuple of values drawn from
    `rnd`."""

    factors: Callable[[int], tuple[Sequence, ...]]
    build: Callable[..., Instance]
    draw: Callable[[int, random.Random], tuple]


class _Space(_Product):
    """An exhaustive instance space: item `ordinal` is that ordinal's tuple
    of factor values, in the order of nested loops over the factors, the
    last one innermost, and `at(ordinal)` is its Instance."""

    def __init__(self, build: Callable[..., Instance], *factors: Sequence) -> None:
        super().__init__(*factors)
        self.build = build

    def at(self, ordinal: int) -> Instance:
        return self.build(*self[ordinal])


def _sample_masks(rnd: random.Random, ground: GroundSet) -> tuple[int, ...]:
    """Each subset independently with probability 1/2, ascending; coverage
    forced by adding the ground when needed."""
    masks = [m for m in range(1 << ground.size) if rnd.random() < 0.5]
    u = 0
    for m in masks:
        u |= m
    if u != ground.full_mask:
        masks.append(ground.full_mask)
    return tuple(masks)


def _sample_system(rnd: random.Random, ground: GroundSet) -> SetSystem:
    return SetSystem(ground, _sample_masks(rnd, ground))


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


def _draw_genset(rnd: random.Random, ground: GroundSet) -> _Genset:
    return _genset([Autobolism(ground, p) for p in _sample_genset(rnd, ground.size)])


def _draw_cycle(rnd: random.Random, ground: GroundSet) -> _Genset:
    return _genset((_sample_perm(rnd, ground),), cyclic=True)


def _sample_topology(rnd: random.Random, ground: GroundSet) -> SetSystem:
    """The union-and-intersection closure of a random family."""
    masks = set(_sample_masks(rnd, ground)) | {0, ground.full_mask}
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


def _genset_instance(
    ground: GroundSet, conv: ClosureConvention, genset: _Genset, systems: dict[str, SetSystem]
) -> Instance:
    """An instance of the generator set's flow, named phi, over `systems`.
    Its permutations and flows dicts are its own (a space may add to
    them); the permutations and the flow in them are shared."""
    return Instance(
        ground, conv, systems=systems,
        permutations=dict(genset.permutations), flows={"phi": genset.flow},
    )


_TOPOLOGIES = _Kind(
    lambda n: (_topology_list(n),),
    lambda ground, conv, t: Instance(ground, conv, systems={"T": t}),
    lambda n, rnd: (_sample_topology(rnd, GroundSet(n)),),
)

# member masks, not systems: the bodies on this space build a SetSystem
# only where they need one
_SYSTEMS = _Kind(
    lambda n: (_Mapped(_members, _covering_families(n)),),
    lambda ground, conv, masks: Instance(ground, conv, systems={"A": SetSystem(ground, masks)}),
    lambda n, rnd: (_sample_masks(rnd, GroundSet(n)),),
)


def _draw_system_subset(n: int, rnd: random.Random) -> tuple:
    masks = _sample_masks(rnd, GroundSet(n))
    return masks, rnd.randrange(1 << n)


_SYSTEMS_SUBSETS = _Kind(
    lambda n: (_Mapped(_members, _covering_families(n)), range(1 << n)),
    lambda ground, conv, masks, b: Instance(
        ground, conv, systems={"A": SetSystem(ground, masks), "B": SetSystem(ground, (b,))}
    ),
    _draw_system_subset,
)


def _draw_genset_subset(n: int, rnd: random.Random) -> tuple:
    chi = rnd.randrange(1, 1 << n)
    return _draw_genset(rnd, GroundSet(n)), chi


_GENSETS_SUBSETS = _Kind(
    lambda n: (_gensets(n), range(1, 1 << n)),
    lambda ground, conv, genset, chi: _genset_instance(
        ground, conv, genset, {"chi": SetSystem(ground, (chi,))}
    ),
    _draw_genset_subset,
)


def _draw_topology_genset(n: int, rnd: random.Random) -> tuple:
    ground = GroundSet(n)
    t = _sample_topology(rnd, ground)
    return t, _draw_genset(rnd, ground)


_TOPOLOGIES_GENSETS = _Kind(
    lambda n: (_topology_list(n), _gensets(n)),
    lambda ground, conv, t, genset: _genset_instance(ground, conv, genset, {"T": t}),
    _draw_topology_genset,
)


def _draw_system_genset(n: int, rnd: random.Random) -> tuple:
    ground = GroundSet(n)
    genset = _draw_genset(rnd, ground)
    return _sample_system(rnd, ground), genset


_SYSTEMS_GENSETS = _Kind(
    lambda n: (_systems_of(n), _gensets(n)),
    lambda ground, conv, sys, genset: _genset_instance(ground, conv, genset, {"A": sys}),
    _draw_system_genset,
)


def _cycles_coverings(n: int, powerset_only: bool = False) -> tuple[Sequence, ...]:
    ground = GroundSet(n)
    coverings = [SetSystem.powerset(ground)] if powerset_only else _systems_of(n)
    return _cycles(_autobolisms(ground)), coverings


def _draw_cycle_covering(n: int, rnd: random.Random) -> tuple:
    ground = GroundSet(n)
    cycle = _draw_cycle(rnd, ground)
    return cycle, _sample_system(rnd, ground)


def _build_cycle_covering(
    ground: GroundSet, conv: ClosureConvention, cycle: _Genset, covering: SetSystem
) -> Instance:
    return _genset_instance(ground, conv, cycle, {"Z": covering})


_CYCLES_COVERINGS = _Kind(_cycles_coverings, _build_cycle_covering, _draw_cycle_covering)
_CYCLES_POWERSET = _Kind(
    partial(_cycles_coverings, powerset_only=True), _build_cycle_covering, _draw_cycle_covering
)


def _systems_functions(n: int, bijective: bool = False) -> tuple[Sequence, ...]:
    ground = GroundSet(n)
    return _systems_of(n), [EndoFunction(ground, image) for image in _maps(n, bijective)]


def _draw_system_function(n: int, rnd: random.Random, bijective: bool = False) -> tuple:
    ground = GroundSet(n)
    if bijective:
        f = EndoFunction(ground, _sample_perm(rnd, ground).image)
    else:
        f = EndoFunction(ground, tuple(rnd.randrange(n) for _ in range(n)))
    return _sample_system(rnd, ground), f


def _build_system_function(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction
) -> Instance:
    return Instance(ground, conv, systems={"A": sys}, functions={"f": f})


_SYSTEMS_FUNCTIONS = _Kind(_systems_functions, _build_system_function, _draw_system_function)
_SYSTEMS_BIJECTIONS = _Kind(
    partial(_systems_functions, bijective=True), _build_system_function,
    partial(_draw_system_function, bijective=True),
)


def _relabelings(n: int) -> tuple[Sequence, ...]:
    # the relabelings are the permutations the cycles are made of
    perms = _autobolisms(GroundSet(n))
    return _cycles(perms), _systems_of(n), perms


def _draw_relabeling(n: int, rnd: random.Random) -> tuple:
    ground = GroundSet(n)
    sys = _sample_system(rnd, ground)
    cycle = _draw_cycle(rnd, ground)
    return cycle, sys, _sample_perm(rnd, ground)


def _build_relabeling(
    ground: GroundSet, conv: ClosureConvention, cycle: _Genset, sys: SetSystem,
    rel: Autobolism,
) -> Instance:
    inst = _genset_instance(ground, conv, cycle, {"A": sys})
    inst.permutations["f"] = rel
    return inst


_RELABELINGS = _Kind(_relabelings, _build_relabeling, _draw_relabeling)


# --------------------------------------------------------------------------
# the claim registry

@dataclass(frozen=True)
class Claim:
    """Everything the harness knows about one claim: its checker body
    `(ground, conv, *values) -> Verdict`; `unpack(Instance) -> values`,
    which reads the body's values out of an instance; the kind of its
    instance space, enumerated up to `max_exhaustive_n` points, and the
    number of random samples drawn by default; whether sweeps are expected
    to be failure-free; and the note attached to sweep reports."""

    checker: Callable[..., Verdict]
    unpack: Callable[[Instance], tuple]
    kind: _Kind
    max_exhaustive_n: int
    default_samples: int
    clean: bool = False
    note: str = ""

    def space(self, n: int, conv: ClosureConvention) -> _Space:
        """The exhaustive space on n points: its items are the tuples of
        factor values, in a fixed order, and `at` builds their Instances."""
        return _Space(partial(self.kind.build, GroundSet(n), conv), *self.kind.factors(n))

    def check(self, ground: GroundSet, values: tuple, conv: ClosureConvention) -> Verdict:
        """Evaluate the claim on one tuple of factor values.  Every sweep
        and `check_theorem` call goes through here, which gives per-layer
        tracing (sweepbench) one name to time all checker bodies by."""
        return self.checker(ground, conv, *values)


#: Every claim, by id.  Columns: checker body, unpack, instance space,
#: exhaustive ceiling on n, default number of random samples.
CLAIMS: dict[TheoremId, Claim] = {
    TheoremId.S1_1: Claim(_check_s1_1, _unpack_t, _TOPOLOGIES, 4, 1000, clean=True),
    TheoremId.K1_2: Claim(_check_k1_2, _unpack_t, _TOPOLOGIES, 4, 1000, clean=True),
    TheoremId.L1_3: Claim(
        _check_l1_3, _unpack_l1_3, _GENSETS_SUBSETS, 4, 2000, clean=True
    ),
    TheoremId.S2_2: Claim(
        _check_s2_2, _unpack_t_flow, _TOPOLOGIES_GENSETS, 3, 500, clean=True
    ),
    TheoremId.B2_3d: Claim(
        _check_b2_3d, _unpack_flow_z, _CYCLES_POWERSET, 4, 1000,
        note="discrete analog of the continuous coincidence statement",
    ),
    TheoremId.L3_1: Claim(
        _check_l3_1, _unpack_masks_b, _SYSTEMS_SUBSETS, 3, 10000, clean=True
    ),
    TheoremId.B3_2: Claim(
        _check_b3_2, _unpack_a_flow, _SYSTEMS_GENSETS, 3, 500, clean=True
    ),
    TheoremId.S3_3: Claim(
        _check_s3_3, _unpack_a_flow, _SYSTEMS_GENSETS, 3, 1000, clean=True
    ),
    TheoremId.B3_4: Claim(
        _check_b3_4, _unpack_a_flow, _SYSTEMS_GENSETS, 3, 1000, clean=True
    ),
    TheoremId.B3_6: Claim(_check_b3_6, _unpack_masks, _SYSTEMS, 3, 1000, clean=True),
    TheoremId.B3_7: Claim(
        _check_b3_7, _unpack_a_f, _SYSTEMS_FUNCTIONS, 3, 1000, clean=True
    ),
    TheoremId.S3_8_bij: Claim(
        partial(_check_s3_8, bijective=True), _unpack_a_f, _SYSTEMS_BIJECTIONS, 3, 1000
    ),
    TheoremId.S3_8_all: Claim(
        partial(_check_s3_8, bijective=False), _unpack_a_f, _SYSTEMS_FUNCTIONS,
        3, 1000, note="documented open question: for non-bijective self-maps the "
        "two-sided memberships and hull commutation can disagree",
    ),
    TheoremId.K3_9: Claim(_check_k3_9, _unpack_k3_9, _SYSTEMS_GENSETS, 3, 500),
    TheoremId.B3_10: Claim(
        _check_b3_10, _unpack_a_f, _SYSTEMS_BIJECTIONS, 3, 1000, clean=True
    ),
    TheoremId.COVAR: Claim(_check_covar, _unpack_covar, _RELABELINGS, 3, 1000),
    TheoremId.CHAIN_karrenk: Claim(
        _check_chain, _unpack_flow_z, _CYCLES_COVERINGS, 3, 1000
    ),
    TheoremId.IDEM_ydwed: Claim(_check_idem, _unpack_masks, _SYSTEMS, 4, 1000),
}

#: Claims whose sweeps are expected to be failure-free; a nonzero failure
#: count on these makes the CLI exit nonzero.
PROVED_CLEAN = frozenset(t for t, claim in CLAIMS.items() if claim.clean)


def check_theorem(
    theorem: TheoremId,
    instance: Instance | dict[str, Any],
    conv: ClosureConvention = ClosureConvention.FULL,
) -> Verdict:
    """Evaluate one registered claim on one instance: the claim's body on
    the values unpacked from it.  A failing verdict's witness is the
    instance given."""
    if isinstance(instance, dict):
        instance = Instance.from_dict(instance)
    claim = CLAIMS[theorem]
    verdict = claim.check(instance.ground, claim.unpack(instance), conv)
    return _witnessed(verdict, instance, conv) if verdict.status == "fails" else verdict


#: A parallel sweep deals the ordinals of the instance stream to its
#: workers in blocks of this many.
SHARE_BLOCK = 64


def _share(size: int, worker: int, jobs: int) -> Iterator[int]:
    """The ordinals below `size` whose block `ordinal // SHARE_BLOCK` is
    `worker` modulo `jobs`, ascending."""
    block = SHARE_BLOCK
    for start in range(worker * block, size, jobs * block):
        yield from range(start, min(start + block, size))


# Sweeps draw every tuple of factor values through these two names, which
# per-layer tracing (sweepbench) times as instance generation.

def _exhaustive_instances(
    theorem: TheoremId, n: int, conv: ClosureConvention, worker: int, jobs: int
) -> Iterator[tuple[int, tuple]]:
    """One worker's share of the claim's exhaustive space, as (ordinal,
    factor values) pairs: only the share's tuples are indexed."""
    space = CLAIMS[theorem].space(n, conv)
    for ordinal in _share(len(space), worker, jobs):
        yield ordinal, space[ordinal]


def _random_instance(theorem: TheoremId, n: int, rnd: random.Random) -> tuple:
    """One tuple of factor values drawn from `rnd`."""
    return CLAIMS[theorem].kind.draw(n, rnd)


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
    other tuple of factor values is made.  In exhaustive mode the ordinals
    number the claim's space; in random mode ordinal k is drawn from
    `Random(f"{seed}:{k}")`, for k below `samples`.  The claim's body
    checks the values themselves; an Instance is built only for a failing
    verdict whose witness is kept.  Returns the share's counts and its
    first `cap` counterexamples."""
    if mode == "exhaustive":
        share = _exhaustive_instances(theorem, n, conv, worker, jobs)
    else:
        share = (
            (o, _random_instance(theorem, n, random.Random(f"{seed}:{o}")))
            for o in _share(samples or 0, worker, jobs)
        )
    claim = CLAIMS[theorem]
    ground = GroundSet(n)
    total = holds = fails = skips = 0
    cexs: list[dict[str, Any]] = []
    for ordinal, values in share:
        verdict = claim.check(ground, values, conv)
        total += 1
        if verdict.status == "holds":
            holds += 1
        elif verdict.status == "skipped":
            skips += 1
        else:
            fails += 1
            if len(cexs) < cap:
                inst = claim.kind.build(ground, conv, *values)
                cexs.append(
                    {
                        "ordinal": ordinal,
                        "instance": _witnessed(verdict, inst, conv).witness,
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
