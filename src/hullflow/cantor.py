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
table and the map alone.  An exhaustive sweep decides each once per
(minimal family, map image) and once per (closure table, map image)
(_sweep_rows): far fewer than its systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from . import kernels
from .dynsys import Autobolism, EndoFunction
from .setsys import (
    DEFAULT_ENUM_CAP,
    ClosureConvention,
    GroundMismatchError,
    HullContext,
    SetSystem,
    _Side,
    family_members,
    shifted,
)


def is_commutative_cantor(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when the commutator with the hull operator vanishes on every
    subset of the ground: statement 0 of the phase chain, decided once per
    (system, convention, image of f)."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    return _commutes(system.context(conv), f)


def _commutes(ctx: HullContext, f: EndoFunction) -> bool:
    """is_commutative_cantor of f under the context `ctx`, kept in it by
    f's image."""
    verdict = ctx._commutes.get(f.image)
    if verdict is None:
        verdict = ctx._commutes[f.image] = kernels.commutes_with_closure(
            f.mask_table(), ctx._cl
        )
    return verdict


def cantor_membership(f: EndoFunction, system: SetSystem, plus: bool) -> bool:
    """Plus side: every nonempty member admits a nonempty member mapped
    into it.  Minus side: every nonempty member admits a nonempty member
    contained in its image."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    plus_holds, minus_holds = _system_memberships(f, system, ClosureConvention.FULL)
    return plus_holds if plus else minus_holds


def _system_memberships(
    f: EndoFunction, system: SetSystem, conv: ClosureConvention
) -> tuple[bool, bool]:
    """The plus and the minus membership of f over the system, for a
    caller that has compared the grounds: from the system's side of its
    context under `conv` on at most DEFAULT_ENUM_CAP points.  Above the
    cap no family bitmask of 2^n bits is built: the nonempty members are
    mapped point by point and compared pair by pair."""
    if system.ground.size <= DEFAULT_ENUM_CAP:
        return _memberships(f.mask_table(), system.context(conv)._side)
    nonempty = [m for m in system.masks if m]
    images = [f.apply_mask(m) for m in nonempty]
    # a lies inside b exactly when a | b == b
    plus = all(m in map(m.__or__, images) for m in nonempty)
    minus = all(img in map(img.__or__, nonempty) for img in images)
    return plus, minus


def _images(table: Sequence[int], members: Iterable[int]) -> int:
    """The family bitmask of the images of `members` under the map whose
    mask-image table is `table`."""
    family = 0
    for m in members:
        family |= 1 << table[m]
    return family


def _membership(images: int, side: _Side, plus: bool) -> bool:
    """cantor_membership on `side` of the map whose images of the side's
    minimal nonempty members make the family bitmask `images`, for a
    caller that has compared the grounds; by the module's argument the
    minimal members answer for all of them.  With N the side's minimal
    family, a subset holds a member of a family exactly when it lies in
    that family's up-closure: the plus membership holds when every member
    of N does so for `images`, and the minus membership when every image
    does so for N (whose up-closure is the side's).  The image of a
    nonempty set is nonempty, so neither family holds the empty set."""
    if plus:
        return not side.family & ~kernels.up_closure(side.n, images)
    return not images & ~side.up


def _memberships(table: Sequence[int], side: _Side) -> tuple[bool, bool]:
    """The plus and the minus membership on `side` of the map whose
    mask-image table is `table`, from one family of images."""
    images = _images(table, side.members)
    return _membership(images, side, True), _membership(images, side, False)


def preserves_unfamily(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when f maps every complement-free subset (no nonempty member of
    the complement system inside it) to a complement-free subset: when
    the family of images of that family lies inside it.  The family is
    kept as a family bitmask in the system's context under `conv`, beside
    the fibration classes; it does not depend on `conv`."""
    free = system.context(conv)._unfamily
    return not _images(f.mask_table(), family_members(free)) & ~free


def fibration_integrity(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when mapping every closure-fibration class elementwise through
    f reproduces the class family exactly: the families of images of the
    cells of the classes of the system's context under `conv`, shifted as
    the classes are (setsys.shifted), are the classes again."""
    classes = system.context(conv)._classes
    table = f.mask_table()
    return {shifted(_images(table, cells)) for cells in classes.values()} == classes.keys()


def is_trivially_commutative(system: SetSystem) -> bool:
    """True when every co-singleton is a member, which forces the hull
    operator to be the identity and every self-map to commute with it."""
    full = system.ground.full_mask
    members = set(system.masks)
    return all(full ^ (1 << x) in members for x in range(system.ground.size))


@dataclass(frozen=True)
class ExplicationRecord:
    """Commutative Cantor-continuity next to the two-sided memberships over
    the system and over its complement system."""

    lhs: bool
    rhs_system: bool
    rhs_complement: bool

    @property
    def agree(self) -> bool:
        return self.lhs == self.rhs_system == self.rhs_complement

    @classmethod
    def of_bits(cls, bits: int) -> "ExplicationRecord":
        """The record of a map whose chain statements are `bits` (see
        _statements): hull commutation is statement 0, and each two-sided
        membership holds when both of its side's statements do."""
        return cls(bool(bits & 1), bits & 0b110 == 0b110, bits & 0b11000 == 0b11000)


def explication_check(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> ExplicationRecord:
    """Hull commutation next to the two-sided memberships, read off the
    map's chain statements under the system's context.  The grounds are
    compared once, here."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    ctx = system.context(conv)
    bits = _statements(f.mask_table(), ctx._cl, ctx._side, ctx._compl_side)
    return ExplicationRecord.of_bits(bits)


@dataclass(frozen=True)
class PhaseChainRecord:
    """The five statements of the phase-flow continuity chain for the
    generated group: all-element commutativity, the plus and minus
    memberships over the system, and both memberships over the complement
    system.  The chain holds when all five agree."""

    commutes: bool
    plus_system: bool
    minus_system: bool
    plus_complement: bool
    minus_complement: bool

    @property
    def statements(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.commutes,
            self.plus_system,
            self.minus_system,
            self.plus_complement,
            self.minus_complement,
        )

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


def _statements(table: Sequence[int], cl: Sequence[int], side: _Side, compl_side: _Side) -> int:
    """The five chain statements on the map whose mask-image table is
    `table`, as bits (bit i: statement i of PhaseChainRecord), from a
    context's closure table `cl` and its two membership sides."""
    plus, minus = _memberships(table, side)
    plus_compl, minus_compl = _memberships(table, compl_side)
    return (
        kernels.commutes_with_closure(table, cl)
        | plus << 1 | minus << 2 | plus_compl << 3 | minus_compl << 4
    )


class _SweepRows(NamedTuple):
    """A sweep's rows of Cantor's decisions for one context (_sweep_rows):
    its closure table and hull commutation by map image, and for each
    membership side, the side and its plus and minus memberships by map
    image, as bit 0 and bit 1."""

    cl: Sequence[int]
    commutes: dict[tuple[int, ...], bool]
    side: _Side
    members: dict[tuple[int, ...], int]
    compl_side: _Side
    compl_members: dict[tuple[int, ...], int]


def _sweep_rows(ctx: HullContext, memo: dict) -> _SweepRows:
    """The rows that a sweep's `memo` (see verify.Claim) keeps for the
    context `ctx`, made on first ask: hull commutation under the closure
    table, and each side's memberships under its minimal family, one key
    for a system's side and a complement's side alike.  No other code
    makes these keys.  A closure table is hashable `bytes` on the at most
    4 points of an exhaustive sweep."""
    side, compl_side = ctx._side, ctx._compl_side
    return _SweepRows(
        ctx._cl, memo.setdefault(("commutes", ctx._cl), {}),
        side, memo.setdefault(("members", side.family), {}),
        compl_side, memo.setdefault(("members", compl_side.family), {}),
    )


def _swept_statements(rows: _SweepRows, f: EndoFunction) -> int:
    """_statements on the map f, read off a sweep's rows and decided into
    them on a miss."""
    image = f.image
    commutes = rows.commutes.get(image)
    if commutes is None:
        commutes = rows.commutes[image] = kernels.commutes_with_closure(f.mask_table(), rows.cl)
    members = rows.members.get(image)
    if members is None:
        plus, minus = _memberships(f.mask_table(), rows.side)
        members = rows.members[image] = plus | minus << 1
    compl_members = rows.compl_members.get(image)
    if compl_members is None:
        plus, minus = _memberships(f.mask_table(), rows.compl_side)
        compl_members = rows.compl_members[image] = plus | minus << 1
    return commutes | members << 1 | compl_members << 3


def _row(ctx: HullContext, g: EndoFunction, memo: Optional[dict] = None) -> int:
    """_statements on the map g under the context `ctx`, decided on first
    ask and kept in the context by g's image: read off a sweep's `memo`
    where there is one (_swept_statements)."""
    row = ctx._rows.get(g.image)
    if row is None:
        row = ctx._rows[g.image] = (
            _statements(g.mask_table(), ctx._cl, ctx._side, ctx._compl_side)
            if memo is None
            else _swept_statements(_sweep_rows(ctx, memo), g)
        )
    return row


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
    exactly when it holds for every generator.  A statement depends only on
    the system, the convention and the generator, so each generator image
    is decided once per (system, convention): its row of bits in the
    system's context, and the group's bits are the AND of its generators'
    rows."""
    if not system.covers_ground():
        raise ValueError("the system must cover the ground")
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if g.ground != system.ground:
            raise GroundMismatchError(f"{g.ground} vs {system.ground}")
    ctx = system.context(conv)
    bits = ALL_STATEMENTS
    for g in gens:
        bits &= _row(ctx, g)
    return PhaseChainRecord.of_bits(bits)
