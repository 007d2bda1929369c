"""Attractors of discrete flows relative to a covering set system.

A free attractor is a nonempty flow-invariant set whose trace under the
relativizing system satisfies the coherence criterion: any two nonempty
trace sets can be brought to meet by some flow time, which orbit saturation
decides without listing the group.  The conventional family is read off
the orbit blocks that the covering's members meet, with no trace taken;
the monotone ones share it on cyclic flows.  The weak variant traces each
invariant set it is asked about member by member (_weak_test).
CHAIN_karrenk's body relies on the monotone families being the
conventional one: its verdict holds exactly when the weak family contains
the conventional one.  That is a theorem where no orbit block's pre-room
is empty, as a nonempty pre-room contains its block, so the body builds
no family there; where a pre-room is empty it lists the weak family once
and compares the two.  Rooms are the images of the orbits under a closure
table, and the room report ties them to the attractors.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence

from .dynsys import (
    Autobolism,
    DiscreteFlow,
    compose,
    invert,
    saturate,
)
from .setsys import (
    ClosureConvention,
    Frozen,
    GroundMismatchError,
    SetSystem,
    _set,
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


_WEAK, _CONVENTIONAL = CoherenceVariant.WEAK, CoherenceVariant.CONVENTIONAL


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


def _weak_by_family(rooms: tuple[int, ...], family: int) -> bool:
    """_weak on the trace whose nonempty sets are the bits of `family`, a
    family bitmask (bit a set when a is a trace set); bit 0 is ignored."""
    return _weak(rooms, [a for a in range(1, family.bit_length()) if family >> a & 1])


#: The most keys the weak coherence memo keeps.  Every n=3 sweep asks it
#: at most 412 distinct questions (CHAIN_karrenk's).
COHERENCE_MEMO = 4096

#: The most points on which the weak memo is asked.  There a key is the
#: pre-rooms, at most 4 ints below 16, and the trace's family bitmask,
#: below 2^16, so the memo full holds about 1 MB.  On more points a
#: system may have 2^(n-1) members and a trace as many masks, so one key
#: would grow with 2^n while keys rarely repeat: each verdict is decided
#: afresh there.
MEMO_POINTS = 4

#: The weak criterion kept by (pre-rooms as a sorted tuple, the trace's
#: family bitmask): it reads nothing else of the flow or the covering, and
#: a key keeps no system or flow alive.
_weakly_coherent = lru_cache(maxsize=COHERENCE_MEMO)(_weak_by_family)


def _weak_test(
    flow: DiscreteFlow, masks: Sequence[int], table: Sequence[int]
) -> Callable[[int], bool]:
    """The weak criterion on the flow's invariant sets relative to the
    covering whose members are `masks` and whose closure table is
    `table`, as a predicate on an invariant set: for any two of its trace
    sets, the unions of the pre-rooms (the orbits' closures) meeting each
    of them meet.  The trace is taken member by member.  On up to
    MEMO_POINTS points it is a family bitmask, and each (pre-rooms, trace)
    key is decided once per process while its memo holds it; above, it
    is a set, decided afresh."""
    rooms = tuple(sorted({table[b] for b in flow.orbit_blocks()}))
    if flow.ground.size > MEMO_POINTS:
        def coherent(theta: int) -> bool:
            traced = {m & theta for m in masks}
            traced.discard(0)
            return _weak(rooms, traced)

        return coherent

    def coherent_by_family(theta: int) -> bool:
        # bit 0 is set in every key, as the criterion ignores it
        family = 1
        for m in masks:
            family |= 1 << (m & theta)
        return _weakly_coherent(rooms, family)

    return coherent_by_family


def _block_incidence(blocks: Sequence[int], masks: Sequence[int]) -> int:
    """The block-incidence family of a covering: for each member m, the
    set of the indices i of the orbit blocks that m meets (bit i for
    blocks[i]), kept when nonempty, as a family bitmask on 2^k cells for k
    blocks (bit s set when s is in the family)."""
    family = 0
    for m in masks:
        s, bit = 0, 1
        for block in blocks:
            if block & m:
                s |= bit
            bit <<= 1
        family |= 1 << s
    return family & ~1


def _coherent_index_sets(k: int, beta: int) -> tuple[int, ...]:
    """The nonempty sets S of block indices, below 2^k and ascending, whose
    traces of the block-incidence family `beta` (_block_incidence), the
    nonempty b & S for b in `beta`, pairwise intersect (Erdős, Ko and Rado,
    "Intersection theorems for systems of finite sets", 1961).

    A trace set m & theta of the invariant set theta, the union of the
    blocks in S, meets the union of the blocks meeting another, m' & theta,
    exactly when a block in S meets both m and m': so theta is
    conventionally coherent exactly when S is one of these sets, and its
    trace is never taken."""
    members = [s for s in range(1, 1 << k) if beta >> s & 1]
    out = []
    for index_set in range(1, 1 << k):
        cut = {s & index_set for s in members}
        cut.discard(0)
        if all(a & b for a in cut for b in cut):
            out.append(index_set)
    return tuple(out)


def free_attractors(
    flow: DiscreteFlow,
    covering: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
    variants: Sequence[CoherenceVariant] = (CoherenceVariant.CONVENTIONAL,),
) -> tuple[SetSystem, ...]:
    """The free attractors of the flow relative to the covering, one family
    per variant asked for, in that order: the nonempty invariant sets whose
    trace under the covering passes the variant's coherence criterion.

    The conventional family is read off the covering's block-incidence
    family (_coherent_index_sets), with no trace taken.  The monotone
    variants share it by periodicity on cyclic flows: a witness within one
    generator period yields infinitely many strictly increasing (or
    decreasing) witness times.  The weak criterion asks instead that, for
    any two trace sets, the unions of the pre-rooms meeting each of them
    meet (_weak_test): each invariant set's trace is taken once, and on up
    to MEMO_POINTS points each (pre-rooms, trace) key is decided once per
    process while its memo holds it.  The grounds, the covering and the
    variants are checked before any family is built."""
    if covering.ground != flow.ground:
        raise GroundMismatchError(f"{covering.ground} vs {flow.ground}")
    if not covering.covers_ground():
        raise ValueError("relativizing system must cover the flow's ground")
    if not flow.is_cyclic and any(v is not _WEAK and v is not _CONVENTIONAL for v in variants):
        raise VariantUnsupportedError("monotone coherence needs integer time; use a cyclic flow")
    masks = covering.masks
    strong: tuple[int, ...] = ()
    weak = strong
    if any(v is not _WEAK for v in variants):
        strong = _conventional(flow, masks, {})
    if _WEAK in variants:
        # the weak criterion alone reads the covering's closure table
        weak = tuple(filter(_weak_test(flow, masks, closure_map(covering, conv)), flow._invariant))
    # the monotone families are the conventional one
    return tuple(SetSystem(flow.ground, weak if v is _WEAK else strong) for v in variants)


def _conventional(
    flow: DiscreteFlow, masks: Sequence[int], memo: dict[tuple[int, int], tuple[int, ...]]
) -> tuple[int, ...]:
    """The masks of the conventional free attractors, ascending, relative
    to the covering whose members are `masks`, for a caller that has
    compared the grounds and checked that the covering covers the ground.
    `memo` keeps the positions of the coherent index sets by (k,
    block-incidence family) for as long as its caller keeps it: a sweep's
    share, a draw or a call."""
    blocks = flow.orbit_blocks()
    key = (len(blocks), _block_incidence(blocks, masks))
    positions = memo.get(key)
    if positions is None:
        positions = memo[key] = tuple(s - 1 for s in _coherent_index_sets(*key))
    # the invariant sets, listed in the order of their index sets
    return tuple(map(flow._invariant.__getitem__, positions))


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


class RoomReport(Frozen):
    """The rooms of a flow under a closure table, whether they partition
    the ground, whether they are flow-invariant, and whether they are all
    free attractors relative to the table's closed family (None when that
    family fails to cover the ground, which makes the attractor side
    ill-formed)."""

    __slots__ = _fields = ("rooms", "partition", "invariant", "attractors")

    def __init__(
        self, rooms: SetSystem, partition: bool, invariant: bool, attractors: Optional[bool]
    ) -> None:
        _set(self, "rooms", rooms)
        _set(self, "partition", partition)
        _set(self, "invariant", invariant)
        _set(self, "attractors", attractors)


def room_report(flow: DiscreteFlow, table: Sequence[int]) -> RoomReport:
    """The room report of the flow under a closure table, such as the
    closure_map of a covering system; no other table is built, as the
    attractor side is the conventional family, which reads none."""
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
            _conventional(flow, closed.masks, {})
        )
    return RoomReport(rooms, partition, invariant, attractors)
