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
from functools import cache, reduce
from itertools import compress, count
from typing import Iterable, Sequence

from . import kernels

MAX_GROUND = 64
DEFAULT_ENUM_CAP = 20  # largest ground size for which 2^n loops are allowed


class CapExceededError(RuntimeError):
    """An operation would enumerate beyond the configured cap."""


class GroundMismatchError(ValueError):
    """Operands live on different ground sets."""


def _check_enum(n: int) -> None:
    if n > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"ground size {n} exceeds enumeration cap {DEFAULT_ENUM_CAP}")


#: How a Frozen record's constructor sets its fields.
_set = object.__setattr__


class Record:
    """A record of the fields named in `_fields`, its constructor's
    parameters in order: printed as `Name(field=value, ...)`, equal to a
    record of the same class whose `_key()` (its fields, unless the class
    leaves some out) is equal, pickled as a call of its constructor, and
    referenced weakly (tests check that no cache keeps a system alive).
    These methods are written out, not generated when the library is
    imported, which every launch would pay for."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Frozen(Record):
    """A record whose fields its constructor sets once, with `_set`, and
    that is hashed as its `_key()`.  Assigning or deleting an attribute
    raises AttributeError: frozen records are shared, and used as keys."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GroundSet(Frozen):
    """The carrier {0, ..., size-1}."""

    __slots__ = _fields = ("size",)

    def __init__(self, size: int) -> None:
        if not 1 <= size <= MAX_GROUND:
            raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {size}")
        _set(self, "size", size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


class Subset(Frozen):
    """A subset of a ground set, stored as a bit vector."""

    __slots__ = _fields = ("ground", "bits")

    def __init__(self, ground: GroundSet, bits: int) -> None:
        if bits & ~ground.full_mask:
            raise ValueError(f"bits 0x{bits:x} outside ground of size {ground.size}")
        _set(self, "ground", ground)
        _set(self, "bits", bits)

    @classmethod
    def of(cls, ground: GroundSet, elements: Iterable[int]) -> "Subset":
        bits = 0
        for e in elements:
            if not 0 <= e < ground.size:
                raise ValueError(f"index {e} outside ground of size {ground.size}")
            bits |= 1 << e
        return cls(ground, bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ground.size) if self.bits >> i & 1)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.indices())) + "}"


class SetSystem(Frozen):
    """A duplicate-free family of subsets in canonical ascending order."""

    __slots__ = _fields = ("ground", "masks")

    def __init__(self, ground: GroundSet, masks: Iterable[int]) -> None:
        # a tuple of strictly ascending masks, as most callers build, is
        # canonical already and kept as it is
        canon = masks
        if type(canon) is not tuple or not all(map(operator.lt, canon, canon[1:])):
            canon = tuple(sorted(set(canon)))
        # the ends of the sorted members bound them all; the first
        # offender in input order is looked for only on error
        if canon and (canon[0] < 0 or canon[-1] >> ground.size):
            m = next(m for m in masks if m & ~ground.full_mask)
            raise ValueError(f"member 0x{m:x} outside ground of size {ground.size}")
        _set(self, "ground", ground)
        _set(self, "masks", canon)

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
        return self.union_mask() == self.ground.full_mask

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


class HullKind(Frozen):
    """Binary triple (j, k, l) selecting one of the eight hull constructions:
    j: 0 = unite the gathered family, 1 = intersect it;
    k: 0 = gather members contained in the argument, 1 = members containing it;
    l: 0 = gather from the system itself, 1 = from its complement system.
    """

    __slots__ = _fields = ("j", "k", "l")

    def __init__(self, j: int, k: int, l: int) -> None:
        if any(flag not in (0, 1) for flag in (j, k, l)):
            raise ValueError("hull flags must be 0 or 1")
        _set(self, "j", j)
        _set(self, "k", k)
        _set(self, "l", l)


CLOSURE_KIND = HullKind(1, 1, 1)


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
    sources = _complements(system.ground.size, system.masks, conv) if kind.l else system.masks
    return Subset(system.ground, kernels.hull_value(sources, q.bits, kind.j, kind.k))


def closure(
    system: SetSystem, q: Subset, conv: ClosureConvention = ClosureConvention.FULL
) -> Subset:
    """Smallest member-intersection of the complement system containing q
    (the empty set when no complement member contains q)."""
    return hull(system, CLOSURE_KIND, q, conv)


def closure_map(
    system: SetSystem, conv: ClosureConvention = ClosureConvention.FULL
) -> Sequence[int]:
    """Closure of every subset of the ground, indexed by mask; closure()
    gives the same value for one subset.  Built from the system's family
    bitmask on each call (closure_map_of): a caller that reads it often
    keeps it.  Up to n=4 it is immutable `bytes` (see closure_tables_of),
    and a tuple above."""
    n = system.ground.size
    return closure_map_of(n, family_of(n, system.masks), conv)


#: The cell byte of a packed table (see _family_tables) where no source
#: contains the subset, and the translation that makes it 0.
_NO_SOURCE = 0xFF
_NO_SOURCE_TO_EMPTY = bytes(range(_NO_SOURCE)) + b"\0"


@cache
def _family_tables(n: int) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
    """(LOW, HIGH) on n <= 4 points, built on first use for each n: LOW[b]
    is the closure table of the system whose members are the set bits of
    the byte b (members 0-7), HIGH[b] that of b << 8 (members 8-15, so
    HIGH holds one table below 4 points).  The complement 2^n - 1 - m of
    member m is folded in here, so the tables are indexed by the system's
    own family bitmask.  A table is 2^n bytes, cell z in byte z, with
    _NO_SOURCE where no complement contains z: as every cell value is at
    most 15, the ints two tables read as (little-endian) AND to the
    table of the union of their families.  That is the method of four
    Russians (Arlazarov, Dinic, Kronrod and Faradzev, 1970): the table of
    a family is the AND of the tables of its two bytes.  Each table is
    the AND of the table of b without its lowest bit and the one-member
    table of that bit."""
    size = 1 << n
    full = size - 1
    out = []
    for low in (0, 8):
        one = [
            int.from_bytes(
                bytes(full ^ m if (full ^ m) & z == z else _NO_SOURCE for z in range(size)),
                "little",
            )
            for m in range(low, min(low + 8, size))
        ]
        tables = [(1 << (8 * size)) - 1]  # the empty family's: no source
        for b in range(1, 1 << len(one)):
            rest = b & (b - 1)
            tables.append(tables[rest] & one[(b ^ rest).bit_length() - 1])
        out.append(tuple(t.to_bytes(size, "little") for t in tables))
    return out[0], out[1]


def closure_map_of(
    n: int, family: int, conv: ClosureConvention = ClosureConvention.FULL
) -> Sequence[int]:
    """closure_map of the system on n points whose family bitmask is
    `family` (bit m set when subset m is a member), for a caller that holds
    the family and no SetSystem.  Up to n=4 it is closure_tables_of's table
    of a run of one family, as immutable `bytes`; above n=4 the complements
    of the members are unpacked for kernels.closure_table, whose table is
    kept as a tuple.  Either is hashable, so a checker body's memo keys
    rows of verdicts by the table."""
    if n <= 4:
        return closure_tables_of(n, (family,), conv)
    _check_enum(n)
    return tuple(kernels.closure_table(n, _complements(n, family_members(family), conv)))


def closure_tables_of(
    n: int, families: Sequence[int], conv: ClosureConvention = ClosureConvention.FULL
) -> bytes:
    """The closure tables (closure_map) of the systems on n <= 4 points
    whose family bitmasks are a run, joined in the run's order: 2^n bytes
    per family.  A family's table is the AND of the two tables of
    _family_tables that its low and its high byte index, where the
    complements are folded in.  The LOW tables of the run's families are
    joined, and so are their HIGH tables, so one AND of the two joins read
    as ints intersects every cell of the run, and one translation empties
    the cells that no complement contains."""
    if n > 4:
        raise ValueError(f"joined closure tables take at most 4 points, got {n}")
    if conv is ClosureConvention.NONEMPTY:
        # the full member's complement is the empty one left out
        keep = ~(1 << ((1 << n) - 1))
        families = [family & keep for family in families]
    low, high = _family_tables(n)
    lows = int.from_bytes(b"".join([low[family & 255] for family in families]), "little")
    highs = int.from_bytes(b"".join([high[family >> 8] for family in families]), "little")
    cells = (lows & highs).to_bytes(len(families) << n, "little")
    return cells.translate(_NO_SOURCE_TO_EMPTY)


class MeetingFamilies(dict):
    """The family bitmask of the subsets of n points that meet q, by q:
    the union of the kernels.holding_families of q's points, worked out on
    q's first lookup and kept, so that a caller asking for the same
    subsets again (a sweep's hulls and traces) reads them back."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, q: int) -> int:
        out = 0
        for x, holders in enumerate(kernels.holding_families(self.n)):
            if q >> x & 1:
                out |= holders
        self[q] = out
        return out


def closure_of(
    meets: MeetingFamilies, family: int, q: int,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> int:
    """closure() of the subset q under the system on `meets.n` points whose
    family bitmask is `family`, for a caller that holds the family and no
    SetSystem, where closure_map builds all 2^n cells.  The complements
    containing q are those of the members disjoint from q, so their
    intersection is the ground less the points that some of them hold;
    the empty set when there is none (under NONEMPTY the full member,
    whose complement is left out, is not counted)."""
    full = (1 << meets.n) - 1
    if conv is ClosureConvention.NONEMPTY:
        family &= ~(1 << full)
    disjoint = family & ~meets[q]
    if not disjoint:
        return 0
    out = full
    for x, holders in enumerate(kernels.holding_families(meets.n)):
        if disjoint & holders:
            out ^= 1 << x
    return out


def family_of(n: int, masks: Iterable[int]) -> int:
    """The family bitmask of the members `masks` of a system on n points,
    folded in O(2^n) from one binary digit per subset: at most
    DEFAULT_ENUM_CAP points."""
    _check_enum(n)
    digits = bytearray(b"0") * (1 << n)
    for m in masks:
        digits[m] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def complement_family(n: int, family: int) -> int:
    """The family bitmask of the ground-complements of the members of the
    system on n points whose family bitmask is `family`: the complement of
    member m is 2^n - 1 - m, so it is `family`'s 2^n binary digits in
    reverse order."""
    return int(format(family, f"0{1 << n}b")[::-1], 2)


def _byte_members(low: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the set bits of b << low, ascending, for every byte b."""
    out: list[tuple[int, ...]] = [()]
    for m in range(low, low + 8):
        out += [t + (m,) for t in out]
    return tuple(out)


#: The members marked by each value of the low and the high byte of a
#: 16-bit family bitmask.
_BYTE_MEMBERS = (_byte_members(0), _byte_members(8))


#: A binary digit of bin() as a flag for itertools.compress.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def family_members(family: int) -> tuple[int, ...]:
    """The member masks of a family bitmask, ascending: up to n=4 two
    lookups by byte, above it the positions compressed out of its binary
    digits, least significant first, in O(2^n)."""
    if family >> 16 == 0:
        low, high = _BYTE_MEMBERS
        return low[family & 255] + high[family >> 8]
    return tuple(compress(count(), bin(family)[:1:-1].encode().translate(_DIGIT_FLAGS)))


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


class SystemFlags(Frozen):
    """The structural flags of a system (classify)."""

    __slots__ = _fields = (
        "covers_ground", "is_topology", "is_self_dual", "is_complete",
        "is_quasitopology", "is_partition", "is_t0",
    )

    def __init__(
        self, covers_ground: bool, is_topology: bool, is_self_dual: bool, is_complete: bool,
        is_quasitopology: bool, is_partition: bool, is_t0: bool,
    ) -> None:
        _set(self, "covers_ground", covers_ground)
        _set(self, "is_topology", is_topology)
        _set(self, "is_self_dual", is_self_dual)
        _set(self, "is_complete", is_complete)
        _set(self, "is_quasitopology", is_quasitopology)
        _set(self, "is_partition", is_partition)
        _set(self, "is_t0", is_t0)


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


def shifted(family: int) -> tuple[int, int]:
    """A nonempty family bitmask as its least member and the bitmask
    shifted down by it (bit i set when least + i is a member).  One family
    gives one pair, and a family of a few close members is a small int
    however high they lie: unshifted, the family bitmasks of the classes
    of a closure table on n points take up to 4^n bits together."""
    least = (family & -family).bit_length() - 1
    return least, family >> least


def fibration_classes(cl: Sequence[int]) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
    """The fibration of the power set by closure value, read off the
    closure table `cl`: each class key (a closure value) mapped to the
    family bitmask of the class's cells, those z whose closure cl[z] is
    the key, built shifted by the least cell (the first met), and to its
    core (the AND of its cells)."""
    classes: dict[int, tuple[int, int]] = {}
    cores: dict[int, int] = {}
    for z, key in enumerate(cl):
        least, cells = classes.get(key, (z, 0))
        classes[key] = least, cells | 1 << (z - least)
        cores[key] = cores.get(key, z) & z
    return classes, cores
