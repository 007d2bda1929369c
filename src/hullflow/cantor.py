"""Cantor-continuity of endofunctions relative to a set system.

A map is commutatively Cantor-continuous when it commutes with the
system's hull operator on every subset.  The one-sided memberships ask,
for every nonempty member, for a nonempty member mapped into it (plus
side) or contained in its image (minus side); both quantifiers skip the
empty set on both sides.

Both memberships read a side only through its minimal nonempty members,
those holding no other nonempty member.  The subsets holding a nonempty
member form an up-set, fixed by its antichain of minimal elements, and a
map's image of subsets is monotone (Davey and Priestley, *Introduction to
Lattices and Order*, 2002).  Every nonempty member M holds a minimal one
M0, and f(M0) lies inside f(M).  Plus side: if f(M) lies inside a member,
so does f(M0), and a member holding a minimal member that holds an image
holds that image too.  Minus side: f(M) holds a member when f(M0) does,
and a set holds a nonempty member exactly when it holds a minimal one.
So each membership holds exactly when it holds with both quantifiers
over the minimal members, and a side's memberships depend on its minimal
family and the map alone, as hull commutation depends on the closure
table and the map alone.

So Cantor's decisions are kept in one store, the memo every checker body
call gets (see verify.Claim), in two parts fetched apart: hull
commutation by (closure table, map image) (_hull_row) and each side's
plus and minus memberships by (minimal family, map image) (_side_row),
one key space for a system's side and a complement's side alike.  A memo
lives for a share, a draw or a document: an exhaustive sweep decides
each key once per share, far fewer than its instances, and a public
function here hands its rows a memo of the call's own.  What the rows
are decided under, the closure table and the two sides, is computed
from the system's family bitmask by whoever holds it: a sweep's checker
body once per system, a public function here once per call.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import kernels
from .dynsys import Autobolism, EndoFunction
from .setsys import (
    DEFAULT_ENUM_CAP,
    ClosureConvention,
    Frozen,
    GroundMismatchError,
    SetSystem,
    _set,
    closure_map,
    complement_family,
    family_members,
    family_of,
    fibration_classes,
    shifted,
)


class _Side(NamedTuple):
    """One side of Cantor's memberships over a system on n points, made
    from the family bitmask of its members: its minimal nonempty members
    (those holding no other nonempty member), their family bitmask and its
    up-closure, every subset holding a nonempty member."""

    n: int
    members: tuple[int, ...]
    family: int
    up: int

    @classmethod
    def of(cls, n: int, family: int) -> "_Side":
        up = kernels.up_closure(n, family & ~1)
        minimal = kernels.minimal_members(n, up)
        return cls(n, family_members(minimal), minimal, up)


def _sides(n: int, family: int) -> tuple[_Side, _Side]:
    """The sides of the system of `family` and of its complement system."""
    return _Side.of(n, family), _Side.of(n, complement_family(n, family))


def _free_family(n: int, family: int) -> int:
    """The family bitmask of the subsets holding no nonempty complement of
    a member of `family` (a system on n points): outside the up-closure of
    the complement family."""
    return ~kernels.up_closure(n, complement_family(n, family) & ~1) & (1 << (1 << n)) - 1


def _classes(cl: Sequence[int]) -> dict[tuple[int, int], tuple[int, ...]]:
    """The fibration classes of the closure table `cl`, each one's shifted
    family bitmask (setsys.fibration_classes) mapped to its cells."""
    classes, _ = fibration_classes(cl)
    return {
        (least, cells): tuple(map(least.__add__, family_members(cells)))
        for least, cells in classes.values()
    }


def is_commutative_cantor(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when the commutator with the hull operator vanishes on every
    subset of the ground: statement 0 of the phase chain."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    return _hull_row(closure_map(system, conv), {}).of(f)


def cantor_membership(f: EndoFunction, system: SetSystem, plus: bool) -> bool:
    """Plus side: every nonempty member admits a nonempty member mapped
    into it.  Minus side: every nonempty member admits a nonempty member
    contained in its image.  Above DEFAULT_ENUM_CAP points no family
    bitmask of 2^n bits is built: the nonempty members are mapped point
    by point and compared pair by pair."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    n = system.ground.size
    if n <= DEFAULT_ENUM_CAP:
        side = _Side.of(n, family_of(n, system.masks))
        return bool(_side_row(side, {}).of(f) & (1 if plus else 2))
    nonempty = [m for m in system.masks if m]
    images = [f.apply_mask(m) for m in nonempty]
    # a lies inside b exactly when a | b == b
    if plus:
        return all(m in map(m.__or__, images) for m in nonempty)
    return all(img in map(img.__or__, nonempty) for img in images)


def _images(table: Sequence[int], members: Iterable[int]) -> int:
    """The family bitmask of the images of `members` under the map whose
    mask-image table is `table`."""
    family = 0
    for m in members:
        family |= 1 << table[m]
    return family


def _memberships(table: Sequence[int], side: _Side) -> int:
    """The plus and the minus membership on `side`, as bit 0 and bit 1, of
    the map whose mask-image table is `table`, for a caller that has
    compared the grounds; by the module's argument the images of the
    side's minimal nonempty members answer for all of them.  With N the
    side's minimal family and I the family of their images, a subset holds
    a member of a family exactly when it lies in that family's up-closure:
    the plus membership holds when every member of N does so for I, and
    the minus membership when every image does so for N (whose up-closure
    is the side's).  The image of a nonempty set is nonempty, so neither
    family holds the empty set."""
    images = _images(table, side.members)
    plus = not side.family & ~kernels.up_closure(side.n, images)
    minus = not images & ~side.up
    return plus | minus << 1


def preserves_unfamily(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when f maps every complement-free subset (no nonempty member of
    the complement system inside it) to a complement-free subset: when
    the family of images of that family lies inside it.  The family does
    not depend on `conv`."""
    n = system.ground.size
    return _preserves(f.mask_table(), _free_family(n, family_of(n, system.masks)))


def _preserves(table: Sequence[int], free: int) -> bool:
    """preserves_unfamily on the free family `free`, of the map whose
    mask-image table is `table`."""
    return not _images(table, family_members(free)) & ~free


def fibration_integrity(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when mapping every closure-fibration class elementwise through
    f reproduces the class family exactly: the families of images of the
    cells of the classes of the system's closure table under `conv`,
    shifted as the classes are (setsys.shifted), are the classes again."""
    return _integrity(f.mask_table(), _classes(closure_map(system, conv)))


def _integrity(table: Sequence[int], classes: dict[tuple[int, int], tuple[int, ...]]) -> bool:
    """fibration_integrity on the classes `classes` (_classes), of the map
    whose mask-image table is `table`."""
    return {shifted(_images(table, cells)) for cells in classes.values()} == classes.keys()


def is_trivially_commutative(system: SetSystem) -> bool:
    """True when every co-singleton is a member, which forces the hull
    operator to be the identity and every self-map to commute with it."""
    full = system.ground.full_mask
    members = set(system.masks)
    return all(full ^ (1 << x) in members for x in range(system.ground.size))


class ExplicationRecord(Frozen):
    """Commutative Cantor-continuity next to the two-sided memberships over
    the system and over its complement system."""

    __slots__ = _fields = ("lhs", "rhs_system", "rhs_complement")

    def __init__(self, lhs: bool, rhs_system: bool, rhs_complement: bool) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs_system", rhs_system)
        _set(self, "rhs_complement", rhs_complement)

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs_system == self.rhs_complement

    @classmethod
    def of_bits(cls, bits: int) -> "ExplicationRecord":
        """The record of a map whose chain statements are `bits` (see
        _chain_bits): hull commutation is statement 0, and each two-sided
        membership holds when both of its side's statements do."""
        return cls(bool(bits & 1), bits & 0b110 == 0b110, bits & 0b11000 == 0b11000)


def explication_check(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> ExplicationRecord:
    """Hull commutation next to the two-sided memberships, read off the
    map's chain statements.  The grounds are compared once, here."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    return ExplicationRecord.of_bits(_chain_bits(_system_rows(system, conv), f))


class PhaseChainRecord(Frozen):
    """The five statements of the phase-flow continuity chain for the
    generated group: all-element commutativity, the plus and minus
    memberships over the system, and both memberships over the complement
    system.  The chain holds when all five agree."""

    __slots__ = _fields = (
        "commutes", "plus_system", "minus_system", "plus_complement", "minus_complement",
    )

    def __init__(
        self, commutes: bool, plus_system: bool, minus_system: bool,
        plus_complement: bool, minus_complement: bool,
    ) -> None:
        _set(self, "commutes", commutes)
        _set(self, "plus_system", plus_system)
        _set(self, "minus_system", minus_system)
        _set(self, "plus_complement", plus_complement)
        _set(self, "minus_complement", minus_complement)

    @property
    def statements(self) -> tuple[bool, bool, bool, bool, bool]:
        return self._values()

    @property
    def chain_holds(self) -> bool:
        return len(set(self.statements)) == 1

    @classmethod
    def of_bits(cls, bits: int) -> "PhaseChainRecord":
        """The record of the statements `bits`, statement i in bit i."""
        return cls(*(bool(bits >> i & 1) for i in range(5)))


#: The bits of the five chain statements: the chain holds when the group's
#: bits are none or all of them.
ALL_STATEMENTS = 0b11111


class _Row(NamedTuple):
    """One part of Cantor's decisions: what it is decided under (a closure
    table or a membership side), the function that decides a verdict from
    a map's mask-image table and `under`, and the verdicts by map image,
    kept in the memo of a share, a draw or a document."""

    under: Any
    decide: Callable[[Sequence[int], Any], int]
    verdicts: dict[tuple[int, ...], int]

    def of(self, f: EndoFunction) -> int:
        """The verdict on the map f, read off the row and decided into it
        on a miss."""
        verdict = self.verdicts.get(f.image)
        if verdict is None:
            verdict = self.verdicts[f.image] = self.decide(f.mask_table(), self.under)
        return verdict


def _hull_row(cl: Sequence[int], memo: dict) -> _Row:
    """Hull commutation under the closure table `cl`, kept in `memo` by
    the table, which is hashable: `bytes` up to 4 points, a tuple above
    (setsys.closure_map_of)."""
    verdicts = memo.setdefault(("commutes", cl), {})
    return _Row(cl, kernels.commutes_with_closure, verdicts)


def _side_row(side: _Side, memo: dict) -> _Row:
    """The plus and the minus membership on `side`, as bit 0 and bit 1,
    kept in `memo` by the side's minimal family."""
    verdicts = memo.setdefault(("members", side.family), {})
    return _Row(side, _memberships, verdicts)


def _chain_rows(
    cl: Sequence[int], sides: tuple[_Side, _Side], memo: dict
) -> tuple[_Row, _Row, _Row]:
    """The rows of the five chain statements under a system whose closure
    table is `cl` and whose sides are `sides` (_sides): hull commutation,
    and the memberships over the system and over its complement system."""
    side, compl_side = sides
    return _hull_row(cl, memo), _side_row(side, memo), _side_row(compl_side, memo)


def _system_rows(system: SetSystem, conv: ClosureConvention) -> tuple[_Row, _Row, _Row]:
    """_chain_rows of `system` under `conv`, in a memo of the call's own."""
    n = system.ground.size
    return _chain_rows(closure_map(system, conv), _sides(n, family_of(n, system.masks)), {})


def _chain_bits(rows: tuple[_Row, _Row, _Row], f: EndoFunction) -> int:
    """The five chain statements on the map f, as bits (bit i: statement
    i of PhaseChainRecord), read off a system's rows (_chain_rows)."""
    commutes, side, compl_side = rows
    # a sweep finds most maps decided: the verdicts are read in place, and
    # only a missing one is decided through _Row.of (three calls of it per
    # map took S3_8 and K3_9 sweeps a fifth longer)
    image = f.image
    hull = commutes.verdicts.get(image)
    if hull is None:
        hull = commutes.of(f)
    own = side.verdicts.get(image)
    if own is None:
        own = side.of(f)
    compl = compl_side.verdicts.get(image)
    if compl is None:
        compl = compl_side.of(f)
    return hull | own << 1 | compl << 3


def phase_chain_check(
    gens: Sequence[Autobolism],
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> PhaseChainRecord:
    """Evaluate the continuity chain for the group generated by gens,
    relative to a covering system.

    Each statement quantifies over the group, but it is decided on the
    generators.  Commuting with the hull and both one-sided memberships
    are closed under composition, the identity satisfies all three, and in
    a finite group every element is a product of generators (an inverse is
    a positive power).  So a statement holds for every group element
    exactly when it holds for every generator, and the group's bits are
    the AND of its generators' bits, each generator image decided once
    per call."""
    if not system.covers_ground():
        raise ValueError("the system must cover the ground")
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.ground != system.ground:
            raise GroundMismatchError(f"{g.ground} vs {system.ground}")
    rows = _system_rows(system, conv)
    bits = ALL_STATEMENTS
    for g in gens:
        bits &= _chain_bits(rows, g)
    return PhaseChainRecord.of_bits(bits)
