"""Attractors of discrete flows relative to a covering set system.

A free attractor is a nonempty flow-invariant set whose trace under the
relativizing system satisfies the coherence criterion: any two nonempty
trace sets can be brought to meet by some flow time, which orbit saturation
decides without listing the group.  Weak and monotone variants quantify the
criterion differently; one per-set decision serves every variant, and every
attractor family is built from it.  Rooms are the closures of the orbits,
and the closure-commutation report ties the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Optional, Sequence

from . import kernels
from .dynsys import Autobolism, DiscreteFlow, compose, invert, is_invariant, saturate
from .setsys import (
    CapExceededError,
    ClosureConvention,
    GroundMismatchError,
    HullKind,
    SetSystem,
    Subset,
    closed_family,
    closure_map,
    hull_map,
    is_partition,
)


class NonInvariantError(ValueError):
    """A set that must be flow-invariant is not."""


class VariantUnsupportedError(ValueError):
    """Monotone coherence requires integer time, i.e. a cyclic flow."""


class CoherenceVariant(Enum):
    WEAK = "weak"
    CONVENTIONAL = "conventional"
    MONO_PLUS = "mono+"
    MONO_MINUS = "mono-"


@dataclass(frozen=True)
class AttractorQuery:
    """A flow with its relativizing covering system and criterion choices."""

    flow: DiscreteFlow
    covering: SetSystem
    conv: ClosureConvention = ClosureConvention.FULL
    variant: CoherenceVariant = CoherenceVariant.CONVENTIONAL
    cadence: Optional[SetSystem] = None
    coherence: Optional[SetSystem] = None
    #: The pre-room family, which the weak criterion reads for every
    #: candidate set; computed once, for weak queries only.
    rooms: Optional[SetSystem] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.covering.ground != self.flow.ground:
            raise GroundMismatchError(f"{self.covering.ground} vs {self.flow.ground}")
        if not self.covering.covers_ground():
            raise ValueError("relativizing system must cover the flow's ground")
        if self.variant is CoherenceVariant.WEAK:
            rooms = pre_rooms(self.flow, self.covering, self.conv)[0]
            object.__setattr__(self, "rooms", rooms)


def invariant_sets(flow: DiscreteFlow, cap: int = 1 << 20) -> SetSystem:
    """All nonempty unions of orbit blocks (the nonempty invariant sets)."""
    blocks = flow.orbit_blocks()
    if 1 << len(blocks) > cap:
        raise CapExceededError(f"2^{len(blocks)} invariant sets exceed cap {cap}")
    out = []
    for sel in range(1, 1 << len(blocks)):
        acc = 0
        for i, b in enumerate(blocks):
            if sel >> i & 1:
                acc |= b
        out.append(acc)
    return SetSystem(flow.ground, tuple(out))


def saturation_coherent(blocks: Sequence[int], trace: Sequence[int]) -> bool:
    """True when every ordered pair (a, b) of masks from the trace has b
    meeting sat(a), the union of the orbit blocks meeting a.  That is the
    same as some element of the group whose orbits are the blocks mapping
    a onto a set meeting b, so the group itself is never listed."""
    for a in trace:
        sat = saturate(blocks, a)
        if not all(b & sat for b in trace):
            return False
    return True


def _trace(covering: SetSystem, theta: int) -> list[int]:
    return sorted({m & theta for m in covering.masks} - {0})


def _coherent(q: AttractorQuery, theta: int) -> bool:
    """The query's coherence criterion on the trace of the covering on the
    nonempty invariant set theta.  Monotone variants are decided by
    periodicity on cyclic flows: a witness within one generator period
    yields infinitely many strictly increasing (or decreasing) witness
    times."""
    trace = _trace(q.covering, theta)
    monotone = q.variant in (CoherenceVariant.MONO_PLUS, CoherenceVariant.MONO_MINUS)
    if monotone and not q.flow.is_cyclic:
        raise VariantUnsupportedError(
            "monotone coherence needs integer time; use a cyclic flow"
        )
    if q.variant is not CoherenceVariant.WEAK:
        return saturation_coherent(q.flow.orbit_blocks(), trace)
    # weak: unions of the pre-room selections must meet
    assert q.rooms is not None
    rooms = q.rooms
    for a in trace:
        ua = reduce(lambda x, y: x | y, (k for k in rooms.masks if k & a), 0)
        for b in trace:
            ub = reduce(lambda x, y: x | y, (k for k in rooms.masks if k & b), 0)
            if not ua & ub:
                return False
    return True


def free_attractors(q: AttractorQuery) -> SetSystem:
    """All nonempty invariant sets passing the coherence criterion of the
    query's variant."""
    return SetSystem(
        q.flow.ground,
        tuple(theta for theta in invariant_sets(q.flow).masks if _coherent(q, theta)),
    )


def coherence_variant(q: AttractorQuery, chi: Subset) -> bool:
    """Evaluate the query's coherence criterion on one nonempty invariant
    set."""
    if not chi:
        raise NonInvariantError("coherence criteria apply to nonempty sets")
    if not is_invariant(q.flow.generators(), chi):
        raise NonInvariantError(f"{chi!r} is not flow-invariant")
    return _coherent(q, chi.bits)


def topological_attractors(
    topologies: Sequence[SetSystem],
    coherence: SetSystem,
    cadence: SetSystem,
) -> SetSystem:
    """Members of the cadence inside the common carrier such that any two
    nonempty coherence members inside them are met by a single common
    member of all the topologies.  An empty common family yields the empty
    system; the empty set is never attractive."""
    if not topologies:
        return SetSystem(coherence.ground, ())
    ground = topologies[0].ground
    common = set(topologies[0].masks)
    for t in topologies[1:]:
        if t.ground != ground:
            raise GroundMismatchError(f"{t.ground} vs {ground}")
        common &= set(t.masks)
    z = reduce(lambda a, b: a | b, common, 0)
    for sys in (coherence, cadence):
        if sys.ground != ground:
            raise GroundMismatchError(f"{sys.ground} vs {ground}")
        if sys.union_mask() & z != z:
            raise ValueError("coherence and cadence must cover the common carrier")
    if not common:
        return SetSystem(ground, ())
    out = []
    coh = [m for m in coherence.masks if m]
    for k in cadence.masks:
        if k == 0 or k & ~z:
            continue
        inside = [a for a in coh if a & ~k == 0]
        ok = all(
            any(th & a and th & b for th in common)
            for a in inside
            for b in inside
        )
        if ok:
            out.append(k)
    return SetSystem(ground, tuple(out))


def pre_rooms(
    flow: DiscreteFlow, relsys: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> tuple[SetSystem, bool]:
    """Closures of the orbits under the system's hull operator, plus a flag
    recording whether they partition the ground (then they are rooms)."""
    if relsys.ground != flow.ground:
        raise GroundMismatchError(f"{relsys.ground} vs {flow.ground}")
    cl = closure_map(relsys, conv)
    blocks = flow.orbit_blocks()
    rooms = sorted({cl[b] for b in blocks})
    return SetSystem(flow.ground, tuple(rooms)), is_partition(rooms, flow.ground.full_mask)


def flows_equivalent(
    f: DiscreteFlow,
    g: DiscreteFlow,
    relsys: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when the two flows have the same pre-room family relative to
    the system."""
    if f.ground != g.ground:
        raise GroundMismatchError(f"{f.ground} vs {g.ground}")
    return pre_rooms(f, relsys, conv)[0] == pre_rooms(g, relsys, conv)[0]


def transport(
    flow: DiscreteFlow, system: SetSystem, f: Autobolism
) -> tuple[DiscreteFlow, SetSystem]:
    """Conjugate the flow by the relabeling f and map the system forward."""
    if f.ground != flow.ground:
        raise GroundMismatchError(f"{f.ground} vs {flow.ground}")
    fi = invert(f)
    moved = SetSystem(system.ground, tuple(f.apply_mask(m) for m in system.masks))
    if flow.is_cyclic:
        assert flow.generator is not None
        new = DiscreteFlow.cyclic(compose(f, compose(flow.generator, fi)))
    else:
        gens = [compose(f, compose(g, fi)) for g in flow.generators()]
        new = DiscreteFlow.of_group(gens)
    return new, moved


@dataclass(frozen=True)
class HullSpec:
    """A hull operator given by a system, a hull kind and a convention."""

    system: SetSystem
    kind: HullKind
    conv: ClosureConvention = ClosureConvention.FULL

    def table(self) -> list[int]:
        return hull_map(self.system, self.kind, self.conv)


def hull_rooms(
    flow: DiscreteFlow, spec: HullSpec
) -> tuple[SetSystem, bool, bool]:
    """Images of the orbits under an arbitrary hull operator, the
    commutation premise (every generator commutes with the operator on all
    subsets), and the partition verdict.  The family is returned even when
    the premise fails."""
    if spec.system.ground != flow.ground:
        raise GroundMismatchError(f"{spec.system.ground} vs {flow.ground}")
    if not spec.system.covers_ground():
        raise ValueError("the hull system must cover the flow's ground")
    table = spec.table()
    premise = all(
        kernels.commutes_with_closure(g.image, table)
        for g in flow.generators()
    )
    blocks = flow.orbit_blocks()
    rooms = sorted({table[b] for b in blocks})
    return (
        SetSystem(flow.ground, tuple(rooms)),
        premise,
        is_partition(rooms, flow.ground.full_mask),
    )


@dataclass(frozen=True)
class FlowClosureReport:
    """How a flow interacts with the hull operator of a covering system:
    whether every generator commutes with the closure, the room family and
    its partition status, whether the rooms are flow-invariant, and whether
    they are all free attractors relative to the closed family (None when
    the closed family fails to cover the ground, which makes the attractor
    side ill-formed)."""

    commutes: bool
    rooms: SetSystem
    rooms_partition: bool
    rooms_invariant: bool
    rooms_are_attractors: Optional[bool]

    @property
    def invariance_matches_attractors(self) -> Optional[bool]:
        if self.rooms_are_attractors is None:
            return None
        return self.rooms_invariant == self.rooms_are_attractors

    @property
    def commutation_conclusion_holds(self) -> Optional[bool]:
        if not self.commutes:
            return True
        if self.rooms_are_attractors is None:
            return None
        return self.rooms_partition and self.rooms_are_attractors


def closure_commutation_report(
    flow: DiscreteFlow,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> FlowClosureReport:
    """Joint report of closure commutation, rooms, room invariance and the
    rooms-are-attractors test against the closed family."""
    if not system.covers_ground():
        raise ValueError("the covering system must cover the flow's ground")
    cl = closure_map(system, conv)
    commutes = all(
        kernels.commutes_with_closure(g.image, cl)
        for g in flow.generators()
    )
    rooms, rooms_partition = pre_rooms(flow, system, conv)
    rooms_invariant = all(
        is_invariant(flow.generators(), Subset(flow.ground, r)) for r in rooms.masks
    )
    closed = closed_family(system, conv)
    rooms_are_attractors: Optional[bool]
    if not closed.covers_ground():
        rooms_are_attractors = None
    elif any(r == 0 for r in rooms.masks):
        rooms_are_attractors = False  # the empty set is never attractive
    else:
        q = AttractorQuery(flow, closed, conv)
        at = free_attractors(q)
        rooms_are_attractors = all(r in at for r in rooms.masks)
    return FlowClosureReport(
        commutes=commutes,
        rooms=rooms,
        rooms_partition=rooms_partition,
        rooms_invariant=rooms_invariant,
        rooms_are_attractors=rooms_are_attractors,
    )
