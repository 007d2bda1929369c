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

import itertools
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Iterator, Optional

from . import kernels
from .attract import (
    AttractorQuery,
    CoherenceVariant,
    coherence_variant,
    closure_commutation_report,
    free_attractors,
    invariant_sets,
    saturation_coherent,
    transport,
)
from .cantor import (
    EndoFunction,
    cantor_membership,
    explication_check,
    fibration_integrity,
    phase_chain_check,
    preserves_unfamily,
)
from .dynsys import Autobolism, DiscreteFlow, orbit_partition
from .instances import Instance, InstanceError, convention_name, parse_convention
from .setsys import (
    ClosureConvention,
    GroundSet,
    SetSystem,
    Subset,
    classify,
    closure_map,
    elementarize,
    is_basis_of,
    product_fibration,
)


class SizeLimitError(ValueError):
    """The requested ground size exceeds the per-theorem exhaustive limit."""


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


#: Standing annotations attached to sweep reports of claims with a known,
#: deliberately documented failure mode.
THEOREM_NOTES: dict[TheoremId, str] = {
    TheoremId.S3_8_all: (
        "documented open question: for non-bijective self-maps the two-sided "
        "memberships and hull commutation can disagree"
    ),
    TheoremId.B2_3d: "discrete analog of the continuous coincidence statement",
}

#: Claims whose sweeps are expected to be failure-free; a nonzero failure
#: count on these makes the CLI exit nonzero.  (The harness has mined
#: counterexamples to several of the other registered claims.)
PROVED_CLEAN = frozenset(
    {
        TheoremId.L1_3,
        TheoremId.L3_1,
        TheoremId.B3_2,
        TheoremId.S3_3,
        TheoremId.B3_4,
        TheoremId.B3_6,
        TheoremId.B3_7,
        TheoremId.S1_1,
        TheoremId.K1_2,
        TheoremId.B3_10,
        TheoremId.S2_2,
    }
)


@dataclass(frozen=True)
class Limits:
    max_exhaustive_n: int
    default_samples: int


#: Per-theorem ceilings: data, not code.
THEOREM_LIMITS: dict[TheoremId, Limits] = {
    TheoremId.S1_1: Limits(4, 1000),
    TheoremId.K1_2: Limits(4, 1000),
    TheoremId.L1_3: Limits(4, 2000),
    TheoremId.S2_2: Limits(3, 500),
    TheoremId.B2_3d: Limits(4, 1000),
    TheoremId.L3_1: Limits(3, 10000),
    TheoremId.B3_2: Limits(3, 500),
    TheoremId.S3_3: Limits(3, 1000),
    TheoremId.B3_4: Limits(3, 1000),
    TheoremId.B3_6: Limits(3, 1000),
    TheoremId.B3_7: Limits(3, 1000),
    TheoremId.S3_8_bij: Limits(3, 1000),
    TheoremId.S3_8_all: Limits(3, 1000),
    TheoremId.K3_9: Limits(3, 500),
    TheoremId.B3_10: Limits(3, 1000),
    TheoremId.COVAR: Limits(3, 1000),
    TheoremId.CHAIN_karrenk: Limits(3, 1000),
    TheoremId.IDEM_ydwed: Limits(4, 1000),
}


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "fails" | "skipped"
    witness: Optional[dict[str, Any]] = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("holds", "fails", "skipped"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fails" and self.witness is None:
            raise ValueError("failing verdicts must carry a witness")


def _holds(note: str = "") -> Verdict:
    return Verdict("holds", note=note)


def _fails(inst: Instance, note: str) -> Verdict:
    return Verdict("fails", witness=inst.to_dict(), note=note)


def _skip(note: str) -> Verdict:
    return Verdict("skipped", note=note)


# --------------------------------------------------------------------------
# enumeration of instance spaces

def enum_systems(n: int, covering_only: bool = False) -> Iterator[SetSystem]:
    """All families of subsets of an n-set, ascending by family bitmask;
    optionally only those whose union is the ground."""
    if n > 4:
        raise SizeLimitError(f"exhaustive system enumeration capped at n=4, got {n}")
    ground = GroundSet(n)
    full = ground.full_mask
    for fam_bits in range(1 << (1 << n)):
        masks = tuple(m for m in range(1 << n) if fam_bits >> m & 1)
        if covering_only:
            u = 0
            for m in masks:
                u |= m
            if u != full:
                continue
        yield SetSystem(ground, masks)


def enum_functions(n: int, bijective_only: bool = False) -> Iterator[EndoFunction]:
    """All self-maps (or bijections) of an n-set in lexicographic order."""
    if n > 5:
        raise SizeLimitError(f"exhaustive function enumeration capped at n=5, got {n}")
    ground = GroundSet(n)
    if bijective_only:
        for image in itertools.permutations(range(n)):
            yield EndoFunction(ground, image)
    else:
        for image in itertools.product(range(n), repeat=n):
            yield EndoFunction(ground, image)


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


def _perms(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def _gensets(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Generator sets of size one or two, lexicographic."""
    perms = _perms(n)
    out: list[tuple[tuple[int, ...], ...]] = [(p,) for p in perms]
    out.extend(itertools.combinations(perms, 2))
    return out


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

def _mask_system(ground: GroundSet, masks: Iterable[int]) -> SetSystem:
    return SetSystem(ground, tuple(masks))


def _instance(
    n: int,
    conv: ClosureConvention,
    systems: dict[str, SetSystem] | None = None,
    perms: dict[str, Autobolism] | None = None,
    functions: dict[str, EndoFunction] | None = None,
    flows: dict[str, DiscreteFlow] | None = None,
) -> Instance:
    inst = Instance(GroundSet(n), conv)
    inst.systems.update(systems or {})
    inst.permutations.update(perms or {})
    inst.functions.update(functions or {})
    inst.flows.update(flows or {})
    return inst


def _genset_instance(
    n: int, conv: ClosureConvention, genset: tuple[tuple[int, ...], ...],
    systems: dict[str, SetSystem], cyclic: bool = False
) -> Instance:
    ground = GroundSet(n)
    perms = {f"g{i}": Autobolism(ground, p) for i, p in enumerate(genset)}
    gens = list(perms.values())
    if cyclic:
        flow = DiscreteFlow.cyclic(gens[0])
    else:
        flow = DiscreteFlow.of_group(gens)
    return _instance(n, conv, systems=systems, perms=perms, flows={"phi": flow})


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
    part = classify(blocks, conv).is_partition
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
    for z in range(len(cl)):
        if cl[cl[z]] != cl[z]:
            return _fails(
                inst, f"z={z:#x}: cl(z)={cl[z]:#x} but cl(cl(z))={cl[cl[z]]:#x}"
            )
    return _holds()


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


def _is_partition_masks(masks: Iterable[int], full: int) -> bool:
    seen = 0
    for m in masks:
        if m == 0 or seen & m:
            return False
        seen |= m
    return seen == full


def _check_s2_2(inst: Instance, conv: ClosureConvention) -> Verdict:
    t = _get_system(inst, "T")
    flow = _get_flow(inst)
    if not classify(t, conv).is_topology:
        return _skip("not a topology")
    if not _continuous(flow, t):
        return _holds("flow not continuous; premise not met")
    cl = closure_map(t, conv)
    full = inst.ground.full_mask
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not _is_partition_masks(closed, full) or not all(
            c in invariant for c in closed
        ):
            witness = _instance(
                inst.ground.size,
                conv,
                systems={
                    "T": t,
                    "P": _mask_system(inst.ground, part),
                },
                perms=dict(inst.permutations),
                flows=dict(inst.flows),
            )
            return _fails(witness, f"closures {closed} are not an invariant partition")
    return _holds()


def _check_b3_2(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    report = closure_commutation_report(flow, sys, conv)
    if not report.commutes:
        return _holds("flow does not commute with the hull; premise not met")
    cl = closure_map(sys, conv)
    full = inst.ground.full_mask
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not _is_partition_masks(closed, full) or not all(
            c in invariant for c in closed
        ):
            witness = _instance(
                inst.ground.size,
                conv,
                systems={"A": sys, "P": _mask_system(inst.ground, part)},
                perms=dict(inst.permutations),
                flows=dict(inst.flows),
            )
            return _fails(witness, f"closures {closed} are not an invariant partition")
    return _holds()


def _check_s3_3(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    report = closure_commutation_report(flow, sys, conv)
    if not report.commutes:
        return _holds("flow does not commute with the hull; premise not met")
    if report.rooms_are_attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.rooms_partition and report.rooms_are_attractors:
        return _holds()
    return _fails(
        inst,
        f"rooms={report.rooms!r} partition={report.rooms_partition} "
        f"attractors={report.rooms_are_attractors}",
    )


def _check_b3_4(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    flow = _get_flow(inst)
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    report = closure_commutation_report(flow, sys, conv)
    if report.rooms_are_attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.rooms_invariant == report.rooms_are_attractors:
        return _holds()
    return _fails(
        inst,
        f"rooms={report.rooms!r} invariant={report.rooms_invariant} "
        f"attractors={report.rooms_are_attractors}",
    )


def _variant_system(
    flow: DiscreteFlow, covering: SetSystem, conv: ClosureConvention,
    variant: CoherenceVariant,
) -> SetSystem:
    q = AttractorQuery(flow, covering, conv, variant)
    return SetSystem(
        flow.ground,
        tuple(
            theta
            for theta in invariant_sets(flow).masks
            if coherence_variant(q, Subset(flow.ground, theta))
        ),
    )


def _check_b2_3d(inst: Instance, conv: ClosureConvention) -> Verdict:
    covering = _get_system(inst, "Z")
    flow = _get_flow(inst)
    if not flow.is_cyclic:
        return _skip("monotone variants need a cyclic flow")
    if not covering.covers_ground():
        return _skip("system does not cover the ground")
    conventional = _variant_system(flow, covering, conv, CoherenceVariant.CONVENTIONAL)
    plus = _variant_system(flow, covering, conv, CoherenceVariant.MONO_PLUS)
    minus = _variant_system(flow, covering, conv, CoherenceVariant.MONO_MINUS)
    if not (conventional == plus == minus):
        return _fails(
            inst,
            f"conventional={conventional!r} mono+={plus!r} mono-={minus!r}",
        )
    if len(covering.masks) == 1 << inst.ground.size:
        weak = _variant_system(flow, covering, conv, CoherenceVariant.WEAK)
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
    weak = set(_variant_system(flow, covering, conv, CoherenceVariant.WEAK).masks)
    conventional = set(
        _variant_system(flow, covering, conv, CoherenceVariant.CONVENTIONAL).masks
    )
    plus = set(_variant_system(flow, covering, conv, CoherenceVariant.MONO_PLUS).masks)
    minus = set(_variant_system(flow, covering, conv, CoherenceVariant.MONO_MINUS).masks)
    if weak >= conventional and conventional >= plus and conventional >= minus:
        return _holds()
    return _fails(
        inst,
        f"weak={sorted(weak)} conventional={sorted(conventional)} "
        f"mono+={sorted(plus)} mono-={sorted(minus)}",
    )


def _check_b3_6(inst: Instance, conv: ClosureConvention) -> Verdict:
    sys = _get_system(inst, "A")
    fib = product_fibration(sys, conv)
    if fib.representation_ok:
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
    original = free_attractors(AttractorQuery(flow, sys, conv))
    moved = free_attractors(AttractorQuery(moved_flow, moved_sys, conv))
    expected = SetSystem(
        inst.ground, tuple(relabel.apply_mask(m) for m in original.masks)
    )
    if moved == expected:
        return _holds()
    return _fails(
        inst, f"transported={moved!r} != relabeled originals={expected!r}"
    )


_CHECKERS: dict[TheoremId, Callable[[Instance, ClosureConvention], Verdict]] = {
    TheoremId.S1_1: _check_s1_1,
    TheoremId.K1_2: _check_k1_2,
    TheoremId.L1_3: _check_l1_3,
    TheoremId.S2_2: _check_s2_2,
    TheoremId.B2_3d: _check_b2_3d,
    TheoremId.L3_1: _check_l3_1,
    TheoremId.B3_2: _check_b3_2,
    TheoremId.S3_3: _check_s3_3,
    TheoremId.B3_4: _check_b3_4,
    TheoremId.B3_6: _check_b3_6,
    TheoremId.B3_7: _check_b3_7,
    TheoremId.S3_8_bij: lambda i, c: _check_s3_8(i, c, True),
    TheoremId.S3_8_all: lambda i, c: _check_s3_8(i, c, False),
    TheoremId.K3_9: _check_k3_9,
    TheoremId.B3_10: _check_b3_10,
    TheoremId.COVAR: _check_covar,
    TheoremId.CHAIN_karrenk: _check_chain,
    TheoremId.IDEM_ydwed: _check_idem,
}


def check_theorem(
    theorem: TheoremId,
    instance: Instance | dict[str, Any],
    conv: ClosureConvention = ClosureConvention.FULL,
) -> Verdict:
    """Evaluate one registered claim on one instance."""
    if isinstance(instance, dict):
        instance = Instance.from_dict(instance)
    return _CHECKERS[theorem](instance, conv)


# --------------------------------------------------------------------------
# instance spaces

def _exhaustive_instances(
    theorem: TheoremId, n: int, conv: ClosureConvention
) -> Iterator[Instance]:
    if theorem in (TheoremId.S1_1, TheoremId.K1_2):
        for t in enum_topologies(n):
            yield _instance(n, conv, systems={"T": t})
    elif theorem is TheoremId.L1_3:
        ground = GroundSet(n)
        for genset in _gensets(n):
            for chi in range(1, 1 << n):
                inst = _genset_instance(
                    n, conv, genset, {"chi": _mask_system(ground, (chi,))}
                )
                yield inst
    elif theorem in (TheoremId.IDEM_ydwed, TheoremId.B3_6):
        for sys in enum_systems(n, covering_only=True):
            yield _instance(n, conv, systems={"A": sys})
    elif theorem is TheoremId.L3_1:
        ground = GroundSet(n)
        for sys in enum_systems(n, covering_only=True):
            for b in range(1 << n):
                yield _instance(
                    n, conv, systems={"A": sys, "B": _mask_system(ground, (b,))}
                )
    elif theorem is TheoremId.S2_2:
        for t in enum_topologies(n):
            for genset in _gensets(n):
                yield _genset_instance(n, conv, genset, {"T": t})
    elif theorem in (TheoremId.B3_2, TheoremId.S3_3, TheoremId.B3_4, TheoremId.K3_9):
        for sys in enum_systems(n, covering_only=True):
            for genset in _gensets(n):
                yield _genset_instance(n, conv, genset, {"A": sys})
    elif theorem in (TheoremId.B2_3d, TheoremId.CHAIN_karrenk):
        ground = GroundSet(n)
        if theorem is TheoremId.B2_3d:
            coverings = [SetSystem.powerset(ground)]
        else:
            coverings = list(enum_systems(n, covering_only=True))
        for p in _perms(n):
            for covering in coverings:
                yield _genset_instance(n, conv, (p,), {"Z": covering}, cyclic=True)
    elif theorem in (TheoremId.B3_7, TheoremId.S3_8_all, TheoremId.S3_8_bij,
                     TheoremId.B3_10):
        bij = theorem in (TheoremId.S3_8_bij, TheoremId.B3_10)
        functions = list(enum_functions(n, bijective_only=bij))
        for sys in enum_systems(n, covering_only=True):
            for f in functions:
                yield _instance(n, conv, systems={"A": sys}, functions={"f": f})
    elif theorem is TheoremId.COVAR:
        ground = GroundSet(n)
        for p in _perms(n):
            for sys in enum_systems(n, covering_only=True):
                for rel in _perms(n):
                    inst = _instance(
                        n,
                        conv,
                        systems={"A": sys},
                        perms={
                            "g0": Autobolism(ground, p),
                            "f": Autobolism(ground, rel),
                        },
                    )
                    inst.flows["phi"] = DiscreteFlow.cyclic(inst.permutations["g0"])
                    yield inst
    else:  # pragma: no cover
        raise AssertionError(f"no exhaustive space for {theorem}")


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
    perms = _perms(n)
    k = rnd.choice((1, 2))
    return tuple(tuple(p) for p in rnd.sample(perms, k))


def _random_instance(
    theorem: TheoremId, n: int, conv: ClosureConvention, rnd: random.Random
) -> Instance:
    ground = GroundSet(n)
    if theorem in (TheoremId.S1_1, TheoremId.K1_2):
        # random topologies: union-and-intersection closure of a random family
        sys = _sample_system(rnd, ground)
        masks = set(sys.masks) | {0, ground.full_mask}
        changed = True
        while changed:
            changed = False
            for a in list(masks):
                for b in list(masks):
                    for c in (a | b, a & b):
                        if c not in masks:
                            masks.add(c)
                            changed = True
        return _instance(n, conv, systems={"T": SetSystem(ground, tuple(masks))})
    if theorem is TheoremId.L1_3:
        chi = rnd.randrange(1, 1 << n)
        return _genset_instance(
            n, conv, _sample_genset(rnd, n), {"chi": _mask_system(ground, (chi,))}
        )
    if theorem in (TheoremId.IDEM_ydwed, TheoremId.B3_6):
        return _instance(n, conv, systems={"A": _sample_system(rnd, ground)})
    if theorem is TheoremId.L3_1:
        return _instance(
            n,
            conv,
            systems={
                "A": _sample_system(rnd, ground),
                "B": _mask_system(ground, (rnd.randrange(1 << n),)),
            },
        )
    if theorem is TheoremId.S2_2:
        topo = _random_instance(TheoremId.S1_1, n, conv, rnd).systems["T"]
        return _genset_instance(n, conv, _sample_genset(rnd, n), {"T": topo})
    if theorem in (TheoremId.B3_2, TheoremId.S3_3, TheoremId.B3_4, TheoremId.K3_9):
        return _genset_instance(
            n, conv, _sample_genset(rnd, n), {"A": _sample_system(rnd, ground)}
        )
    if theorem in (TheoremId.B2_3d, TheoremId.CHAIN_karrenk):
        return _genset_instance(
            n,
            conv,
            (tuple(_sample_perm(rnd, ground).image),),
            {"Z": _sample_system(rnd, ground)},
            cyclic=True,
        )
    if theorem in (TheoremId.B3_7, TheoremId.S3_8_all):
        f = EndoFunction(ground, tuple(rnd.randrange(n) for _ in range(n)))
        return _instance(
            n, conv, systems={"A": _sample_system(rnd, ground)}, functions={"f": f}
        )
    if theorem in (TheoremId.S3_8_bij, TheoremId.B3_10):
        f = EndoFunction(ground, _sample_perm(rnd, ground).image)
        return _instance(
            n, conv, systems={"A": _sample_system(rnd, ground)}, functions={"f": f}
        )
    if theorem is TheoremId.COVAR:
        inst = _instance(
            n,
            conv,
            systems={"A": _sample_system(rnd, ground)},
            perms={"g0": _sample_perm(rnd, ground), "f": _sample_perm(rnd, ground)},
        )
        inst.flows["phi"] = DiscreteFlow.cyclic(inst.permutations["g0"])
        return inst
    raise AssertionError(f"no sampler for {theorem}")  # pragma: no cover


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
            "convention": convention_name(self.convention),
            "seed": self.seed,
            "samples": self.samples,
            "instance_count": self.instance_count,
            "hold_count": self.hold_count,
            "fail_count": self.fail_count,
            "skip_count": self.skip_count,
            "counterexamples": list(self.counterexamples),
            "note": THEOREM_NOTES.get(self.theorem, ""),
        }


def _evaluate(
    theorem: TheoremId,
    ordered: Iterable[tuple[int, Instance]],
    conv: ClosureConvention,
    cap: int,
) -> tuple[int, int, int, int, list[dict[str, Any]]]:
    total = holds = fails = skips = 0
    cexs: list[dict[str, Any]] = []
    checker = _CHECKERS[theorem]
    for ordinal, inst in ordered:
        verdict = checker(inst, conv)
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


def _chunk_worker(args: tuple) -> tuple[int, int, int, int, list[dict[str, Any]]]:
    theorem_value, chunk, conv_value, cap = args
    theorem = TheoremId(theorem_value)
    conv = parse_convention(conv_value)
    ordered = [(ordinal, Instance.from_dict(doc)) for ordinal, doc in chunk]
    return _evaluate(theorem, ordered, conv, cap)


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
    the full space (subject to the per-theorem ceiling); random mode draws
    seeded samples.  Reports are deterministic for fixed parameters."""
    limits = THEOREM_LIMITS[theorem]
    start = time.perf_counter()
    if mode == "exhaustive":
        if n > limits.max_exhaustive_n:
            raise SizeLimitError(
                f"{theorem.value}: exhaustive mode capped at "
                f"n={limits.max_exhaustive_n}, got {n}"
            )
        instances: Iterable[tuple[int, Instance]] = enumerate(
            _exhaustive_instances(theorem, n, conv)
        )
        used_seed: Optional[int] = None
        used_samples: Optional[int] = None
    elif mode == "random":
        used_samples = samples if samples is not None else limits.default_samples
        used_seed = seed

        def _gen() -> Iterator[tuple[int, Instance]]:
            for ordinal in range(used_samples):
                rnd = random.Random(f"{seed}:{ordinal}")
                yield ordinal, _random_instance(theorem, n, conv, rnd)

        instances = _gen()
    else:
        raise ValueError(f"mode must be exhaustive or random, got {mode!r}")

    if jobs <= 1:
        total, holds, fails, skips, cexs = _evaluate(
            theorem, instances, conv, max_counterexamples
        )
    else:
        from concurrent.futures import ProcessPoolExecutor

        work = [(ordinal, inst.to_dict()) for ordinal, inst in instances]
        chunk_size = max(1, len(work) // (jobs * 4) + 1)
        chunks = [
            work[i : i + chunk_size] for i in range(0, len(work), chunk_size)
        ]
        total = holds = fails = skips = 0
        all_cexs: list[dict[str, Any]] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for t, h, f, s, cexs_part in pool.map(
                _chunk_worker,
                [
                    (theorem.value, chunk, convention_name(conv), max_counterexamples)
                    for chunk in chunks
                ],
            ):
                total += t
                holds += h
                fails += f
                skips += s
                all_cexs.extend(cexs_part)
        all_cexs.sort(key=lambda c: c["ordinal"])
        cexs = all_cexs[:max_counterexamples]

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
        counterexamples=tuple(cexs),
        elapsed=time.perf_counter() - start,
    )
