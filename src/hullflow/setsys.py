"""Set-system algebra on finite ground sets.

Ground elements are the integers 0..n-1 and subsets are bit vectors over
them.  A SetSystem is a duplicate-free family of subsets in ascending mask
order; complements are taken inside the declared ground set.  The two empty
aggregations are fixed constants: an intersection over an empty family is
the empty set, and so is a union over an empty family.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

from . import kernels

MAX_GROUND = 64
DEFAULT_ENUM_CAP = 20  # largest ground size for which 2^n loops are allowed


class CapExceededError(RuntimeError):
    """An operation would enumerate beyond the configured cap."""


class GroundMismatchError(ValueError):
    """Operands live on different ground sets."""


def _check_enum(n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
    if n > cap:
        raise CapExceededError(f"ground size {n} exceeds enumeration cap {cap}")


@dataclass(frozen=True, order=True)
class GroundSet:
    """The carrier {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if not 1 <= self.size <= MAX_GROUND:
            raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {self.size}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True, order=True)
class Subset:
    """A subset of a ground set, stored as a bit vector."""

    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        if self.bits & ~self.ground.full_mask:
            raise ValueError(f"bits 0x{self.bits:x} outside ground of size {self.ground.size}")

    @classmethod
    def of(cls, ground: GroundSet, elements: Iterable[int]) -> "Subset":
        bits = 0
        for e in elements:
            bits |= 1 << e
        return cls(ground, bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ground.size) if self.bits >> i & 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.indices())) + "}"


@dataclass(frozen=True)
class SetSystem:
    """A duplicate-free family of subsets in canonical ascending order."""

    ground: GroundSet
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.masks)))
        # the ends of the sorted members bound them all; the first
        # offender in input order is looked for only on error
        if canon and (canon[0] < 0 or canon[-1] >> self.ground.size):
            full = self.ground.full_mask
            m = next(m for m in self.masks if m & ~full)
            raise ValueError(f"member 0x{m:x} outside ground of size {self.ground.size}")
        if canon != self.masks:
            object.__setattr__(self, "masks", canon)

    @classmethod
    def of(cls, ground: GroundSet, families: Iterable[Iterable[int]]) -> "SetSystem":
        masks = [Subset.of(ground, fam).bits for fam in families]
        return cls(ground, tuple(masks))

    @classmethod
    def powerset(cls, ground: GroundSet) -> "SetSystem":
        _check_enum(ground.size)
        return cls(ground, tuple(range(1 << ground.size)))

    @property
    def members(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.ground, m) for m in self.masks)

    def union_mask(self) -> int:
        return reduce(operator.or_, self.masks, 0)

    def covers_ground(self) -> bool:
        return reduce(operator.or_, self.masks, 0) == (1 << self.ground.size) - 1

    def without_empty(self) -> "SetSystem":
        return SetSystem(self.ground, tuple(m for m in self.masks if m))

    def __repr__(self) -> str:
        return "[" + " ".join(repr(s) for s in self.members) + "]"


class ClosureConvention(enum.Enum):
    """Which complement family the hull of a system intersects over:
    the full complement system, or the complement system with the empty
    member removed."""

    FULL = "full"
    NONEMPTY = "nonempty"


@dataclass(frozen=True)
class HullKind:
    """Binary triple (j, k, l) selecting one of the eight hull constructions:
    j: 0 = unite the gathered family, 1 = intersect it;
    k: 0 = gather members contained in the argument, 1 = members containing it;
    l: 0 = gather from the system itself, 1 = from its complement system.
    """

    j: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if any(flag not in (0, 1) for flag in (self.j, self.k, self.l)):
            raise ValueError("hull flags must be 0 or 1")


CLOSURE_KIND = HullKind(1, 1, 1)


def complement_system(system: SetSystem) -> SetSystem:
    """The family of ground-complements of the members."""
    full = system.ground.full_mask
    return SetSystem(system.ground, tuple(full ^ m for m in system.masks))


def _hull_sources(system: SetSystem, l: int, conv: ClosureConvention) -> Sequence[int]:
    if l == 0:
        return system.masks
    return _complements(system.ground.size, system.masks, conv)


def _complements(n: int, masks: Sequence[int], conv: ClosureConvention) -> list[int]:
    """The complements of the members, the empty one left out under
    NONEMPTY."""
    full = (1 << n) - 1
    if conv is ClosureConvention.NONEMPTY:
        return [full ^ m for m in masks if m != full]
    return [full ^ m for m in masks]


def hull(
    system: SetSystem,
    kind: HullKind,
    q: Subset,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> Subset:
    """One of the eight hull constructions applied to q.  The convention
    matters only when the complement system is the source (l = 1)."""
    if q.ground != system.ground:
        raise GroundMismatchError(f"{q.ground} vs {system.ground}")
    sources = _hull_sources(system, kind.l, conv)
    return Subset(system.ground, kernels.hull_value(sources, q.bits, kind.j, kind.k))


def closure(
    system: SetSystem, q: Subset, conv: ClosureConvention = ClosureConvention.FULL
) -> Subset:
    """Smallest member-intersection of the complement system containing q
    (the empty set when no complement member contains q)."""
    return hull(system, CLOSURE_KIND, q, conv)


def closure_map(
    system: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> list[int]:
    """Closure of every subset of the ground, indexed by mask; closure()
    gives the same value for one subset."""
    return closure_map_of(system.ground.size, system.masks, conv)


def closure_map_of(
    n: int, masks: Sequence[int], conv: ClosureConvention = ClosureConvention.FULL
) -> list[int]:
    """closure_map of the system on n points whose members are `masks`,
    for a caller that holds the members and no SetSystem."""
    _check_enum(n)
    return kernels.closure_table(n, _complements(n, masks, conv))


def closed_family(
    system: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> SetSystem:
    """All closure values over the full power set, deduplicated."""
    return SetSystem(system.ground, tuple(set(closure_map(system, conv))))


def elementarize(system: SetSystem) -> SetSystem:
    """For each member, the intersection of its selection; the family of
    fixed blocks of the selection-intersection operator."""
    out = set()
    for m in system.masks:
        sel = [c for c in system.masks if c & m]
        out.add(reduce(operator.and_, sel) if sel else 0)
    return SetSystem(system.ground, tuple(out))


def union_closure(system: SetSystem) -> SetSystem:
    """All unions of subfamilies, computed as a pairwise fixpoint seeded
    with the empty set."""
    acc = {0}
    acc.update(system.masks)
    frontier = list(acc)
    while frontier:
        m = frontier.pop()
        for other in list(acc):
            u = m | other
            if u not in acc:
                acc.add(u)
                frontier.append(u)
    return SetSystem(system.ground, tuple(acc))


def is_basis_of(basis: SetSystem, topology: SetSystem) -> bool:
    """True when the union closure of the basis, plus the empty set, is
    exactly the given family."""
    if basis.ground != topology.ground:
        raise GroundMismatchError(f"{basis.ground} vs {topology.ground}")
    generated = set(union_closure(basis).masks) | {0}
    return generated == set(topology.masks)


def is_partition(masks: Iterable[int], full: int) -> bool:
    """True when the masks are nonempty, pairwise disjoint and their union
    is `full`."""
    seen = 0
    for m in masks:
        if m == 0 or seen & m:
            return False
        seen |= m
    return seen == full


@dataclass(frozen=True)
class SystemFlags:
    covers_ground: bool
    is_topology: bool
    is_self_dual: bool
    is_complete: bool
    is_quasitopology: bool
    is_partition: bool
    is_t0: bool


def classify(
    system: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> SystemFlags:
    """Structural flags of a system.  Completeness means the empty set is
    the only subset with empty closure; a quasitopology is a complete system
    closed under pairwise unions and intersections (on finite carriers the
    pairwise check suffices for the topology axioms as well)."""
    ground = system.ground
    full = ground.full_mask
    masks = list(system.masks)
    member_set = set(masks)
    covers = system.union_mask() == full

    union_ok, inter_ok = kernels.pairwise_closed(masks)
    is_topology = (
        0 in member_set and full in member_set and union_ok and inter_ok
    )

    self_dual = member_set == {full ^ m for m in masks}

    cl = closure_map(system, conv)
    complete = all((cl[z] == 0) == (z == 0) for z in range(1 << ground.size))
    quasitopology = complete and union_ok and inter_ok

    partition = is_partition((m for m in masks if m), full)

    t0 = all(
        any((m >> x & 1) != (m >> y & 1) for m in masks)
        for x in range(ground.size)
        for y in range(x + 1, ground.size)
    )

    return SystemFlags(
        covers_ground=covers,
        is_topology=is_topology,
        is_self_dual=self_dual,
        is_complete=complete,
        is_quasitopology=quasitopology,
        is_partition=partition,
        is_t0=t0,
    )


def un_ov(system: SetSystem) -> SetSystem:
    """The complement-free subsets: the subsets of the ground containing
    no nonempty member."""
    ground = system.ground
    _check_enum(ground.size)
    nonempty = [m for m in system.masks if m]
    un = []
    for z in range(1 << ground.size):
        if not any(m & z == m for m in nonempty):
            un.append(z)
    return SetSystem(ground, tuple(un))


@dataclass(frozen=True)
class FibrationClass:
    key: int            # the common closure value
    member_masks: tuple[int, ...]
    core: int           # intersection of the class members


@dataclass(frozen=True)
class FibrationPartition:
    ground: GroundSet
    classes: tuple[FibrationClass, ...]


def product_fibration(
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
    cl: Optional[list[int]] = None,
) -> FibrationPartition:
    """Partition of the power set by closure value, with per-class cores.
    `cl` is the system's closure_map under `conv`, for a caller that holds
    it already."""
    if cl is None:
        cl = closure_map(system, conv)
    by_key: dict[int, list[int]] = {}
    for z in range(1 << system.ground.size):
        by_key.setdefault(cl[z], []).append(z)
    classes = tuple(
        FibrationClass(
            key=key,
            member_masks=tuple(sorted(zs)),
            core=reduce(operator.and_, zs),
        )
        for key, zs in sorted(by_key.items())
    )
    return FibrationPartition(system.ground, classes)


def representation_ok(fib: FibrationPartition, system: SetSystem) -> bool:
    """Whether the closed-set representation {Q | core : Q in trace of the
    complement-free family on the class key} reproduces the classes of
    `system`'s fibration exactly."""
    un_compl = un_ov(complement_system(system))
    rep = set()
    for fc in fib.classes:
        rep.add(frozenset((q & fc.key) | fc.core for q in un_compl.masks))
    return rep == {frozenset(fc.member_masks) for fc in fib.classes}
