"""Attractors of discrete flows relative to a covering set system.

A free attractor is a nonempty flow-invariant set whose trace under the
relativizing system satisfies the coherence criterion: any two nonempty
trace sets can be brought to meet by some flow time, which orbit saturation
decides without listing the group.  Weak and monotone variants quantify the
criterion differently; one pass over the invariant sets builds the family
of every variant asked for.  Rooms are the images of the orbits under a
closure table, and the room report ties them to the attractors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import Optional, Sequence

from .dynsys import (
    Autobolism,
    DiscreteFlow,
    compose,
    invert,
    saturate,
)
from .setsys import (
    ClosureConvention,
    GroundMismatchError,
    SetSystem,
    closure_map,
    is_partition,
)


class VariantUnsupportedError(ValueError):
    """Monotone coherence requires integer time, i.e. a cyclic flow."""


class CoherenceVariant(Enum):
    WEAK = "weak"
    CONVENTIONAL = "conventional"
    MONO_PLUS = "mono+"
    MONO_MINUS = "mono-"


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


def _weak(rooms: Sequence[int], trace: Sequence[int]) -> bool:
    """The weak criterion: for any two trace sets, the unions of the
    pre-rooms meeting each of them meet."""
    # saturate() unites the members of any family that meet a mask
    unions = [saturate(rooms, a) for a in trace]
    return all(u & w for u in unions for w in unions)


#: The most keys each coherence memo keeps.  Every n=3 sweep asks at most
#: 1,187 distinct questions of either.
COHERENCE_MEMO = 4096

#: The most points on which the memos are asked.  There a key is at most
#: about 20 ints below 16 (a trace holds at most 15 masks), so both memos
#: full hold about 2 MB.  On more points a system may have 2^(n-1)
#: members and a trace as many masks, so one key would grow with 2^n while
#: keys rarely repeat: each verdict is decided afresh there.
MEMO_POINTS = 4

#: The conventional criterion kept by (orbit blocks, trace) and the weak one
#: by (pre-rooms, trace), both as sorted tuples of ints: each reads nothing
#: else of the flow or the covering, and a key keeps no system or flow alive.
_coherent = lru_cache(maxsize=COHERENCE_MEMO)(saturation_coherent)
_weakly_coherent = lru_cache(maxsize=COHERENCE_MEMO)(_weak)


def free_attractors(
    flow: DiscreteFlow,
    covering: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
    variants: Sequence[CoherenceVariant] = (CoherenceVariant.CONVENTIONAL,),
) -> tuple[SetSystem, ...]:
    """The free attractors of the flow relative to the covering, one family
    per variant asked for, in that order: the nonempty invariant sets whose
    trace under the covering passes the variant's coherence criterion.

    Each trace is taken once, as a sorted tuple, and decided once for all
    the variants but the weak one.  The monotone variants share the
    conventional decision by periodicity on cyclic flows: a witness within
    one generator period yields infinitely many strictly increasing (or
    decreasing) witness times.  The weak criterion asks instead that, for
    any two trace sets, the unions of the pre-rooms meeting each of them
    meet.  Each criterion is a pure function of its key, (orbit blocks,
    trace) or (pre-rooms, trace), so on up to MEMO_POINTS points each key
    is decided once per process while its memo holds it."""
    if covering.ground != flow.ground:
        raise GroundMismatchError(f"{covering.ground} vs {flow.ground}")
    if not covering.covers_ground():
        raise ValueError("relativizing system must cover the flow's ground")
    return _free_attractors(flow, covering, conv, variants)


def _free_attractors(
    flow: DiscreteFlow,
    covering: SetSystem,
    conv: ClosureConvention,
    variants: Sequence[CoherenceVariant] = (CoherenceVariant.CONVENTIONAL,),
) -> tuple[SetSystem, ...]:
    """free_attractors, for a caller that has compared the grounds and
    checked that the covering covers the ground."""
    candidates = flow._invariant
    if (
        CoherenceVariant.MONO_PLUS in variants or CoherenceVariant.MONO_MINUS in variants
    ) and not flow.is_cyclic:
        raise VariantUnsupportedError(
            "monotone coherence needs integer time; use a cyclic flow"
        )
    weak = CoherenceVariant.WEAK in variants
    conventional = any(v is not CoherenceVariant.WEAK for v in variants)
    blocks = flow.orbit_blocks()
    if weak:
        # the pre-rooms: the orbits' closures, read off the covering's table
        table = covering.context(conv)._cl
        rooms = tuple(sorted({table[b] for b in blocks}))
    if flow.ground.size <= MEMO_POINTS:
        coherent_by, weak_by = _coherent, _weakly_coherent
    else:
        coherent_by, weak_by = saturation_coherent, _weak
    masks = covering.masks
    coherent: list[int] = []
    weakly_coherent: list[int] = []
    for theta in candidates:
        traced = {m & theta for m in masks}
        traced.discard(0)
        trace = tuple(sorted(traced))
        if conventional and coherent_by(blocks, trace):
            coherent.append(theta)
        if weak and weak_by(rooms, trace):
            weakly_coherent.append(theta)
    strong = SetSystem(flow.ground, tuple(coherent))
    weakly = SetSystem(flow.ground, tuple(weakly_coherent)) if weak else strong
    return tuple(weakly if v is CoherenceVariant.WEAK else strong for v in variants)


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


def _rooms(flow: DiscreteFlow, table: Sequence[int]) -> tuple[SetSystem, bool]:
    rooms = sorted({table[b] for b in flow.orbit_blocks()})
    return SetSystem(flow.ground, tuple(rooms)), is_partition(rooms, flow.ground.full_mask)


def pre_rooms(
    flow: DiscreteFlow, relsys: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> tuple[SetSystem, bool]:
    """Closures of the orbits under the system's hull operator, plus a flag
    recording whether they partition the ground (then they are rooms)."""
    if relsys.ground != flow.ground:
        raise GroundMismatchError(f"{relsys.ground} vs {flow.ground}")
    return _rooms(flow, closure_map(relsys, conv))


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
class RoomReport:
    """The rooms of a flow under a closure table, whether they partition
    the ground, whether they are flow-invariant, and whether they are all
    free attractors relative to the table's closed family (None when that
    family fails to cover the ground, which makes the attractor side
    ill-formed)."""

    rooms: SetSystem
    partition: bool
    invariant: bool
    attractors: Optional[bool]


def room_report(
    flow: DiscreteFlow, table: Sequence[int], conv: ClosureConvention = ClosureConvention.FULL
) -> RoomReport:
    """The room report of the flow under a closure table, such as the
    closure_map of a covering system; no other table is built."""
    rooms, partition = _rooms(flow, table)
    # a set is mapped onto itself by every generator exactly when it is a
    # union of orbit blocks
    blocks = flow.orbit_blocks()
    invariant = all(saturate(blocks, r) == r for r in rooms.masks)
    closed = SetSystem(flow.ground, tuple(set(table)))
    attractors: Optional[bool] = None
    if closed.covers_ground():
        # the empty set is never attractive
        attractors = 0 not in rooms.masks and set(rooms.masks) <= set(
            _free_attractors(flow, closed, conv)[0].masks
        )
    return RoomReport(rooms, partition, invariant, attractors)
