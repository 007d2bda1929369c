"""Cantor-continuity of endofunctions relative to a set system.

A map is commutatively Cantor-continuous when it commutes with the
system's hull operator on every subset.  The one-sided memberships ask,
for every nonempty member, for a nonempty member mapped into it (plus
side) or contained in its image (minus side); both quantifiers skip the
empty set on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernels
from .dynsys import Autobolism, EndoFunction
from .setsys import ClosureConvention, GroundMismatchError, HullContext, SetSystem


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
    ctx = system.context(conv)
    return _holds(ctx, 0, f, ctx._verdicts.setdefault(f.image, [None] * 5))


def cantor_membership(f: EndoFunction, system: SetSystem, plus: bool) -> bool:
    """Plus side: every nonempty member admits a nonempty member mapped
    into it.  Minus side: every nonempty member admits a nonempty member
    contained in its image."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    nonempty = [m for m in system.masks if m]
    images = list(map(f.apply_mask, nonempty))
    # a lies inside b exactly when a | b == b
    if plus:
        return all(m in map(m.__or__, images) for m in nonempty)
    return all(img in map(img.__or__, nonempty) for img in images)


def preserves_unfamily(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when f maps every complement-free subset (no nonempty member of
    the complement system inside it) to a complement-free subset.  The
    family does not depend on `conv`; it is kept in the system's context
    under `conv`, beside the fibration classes."""
    members = system.context(conv)._unfamily
    return all(f.apply_mask(q) in members for q in members)


def fibration_integrity(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when mapping every closure-fibration class elementwise through
    f reproduces the class family exactly."""
    actual = system.context(conv)._classes
    return {frozenset(f.apply_mask(z) for z in c) for c in actual} == actual


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


def explication_check(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> ExplicationRecord:
    """Hull commutation next to the two-sided memberships, reading the
    closure table and the complement system of the system's context."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    ctx = system.context(conv)
    compl = ctx._compl
    return ExplicationRecord(
        lhs=kernels.commutes_with_closure(f.mask_table(), ctx._cl),
        rhs_system=cantor_membership(f, system, True) and cantor_membership(f, system, False),
        rhs_complement=cantor_membership(f, compl, True) and cantor_membership(f, compl, False),
    )


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


def _holds(
    ctx: HullContext, statement: int, g: EndoFunction, verdicts: list[Optional[bool]]
) -> bool:
    """Statement `statement` of PhaseChainRecord (0: commuting with the
    hull; 1-4: the plus and the minus membership over the system, then over
    its complement system) for the map g under the context `ctx`, whose
    verdicts on g's image are `verdicts`: decided on first ask."""
    verdict = verdicts[statement]
    if verdict is None:
        if statement == 0:
            verdict = kernels.commutes_with_closure(g.mask_table(), ctx._cl)
        else:
            over = ctx._system() if statement <= 2 else ctx._compl
            verdict = cantor_membership(g, over, statement % 2 == 1)
        verdicts[statement] = verdict
    return verdict


def phase_chain_check(
    gens: Sequence[Autobolism],
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> PhaseChainRecord:
    """Evaluate the continuity chain for the group generated by gens,
    relative to a covering system.

    Each statement quantifies over the group, but it is decided on the
    distinct generators.  Commuting with the hull and both one-sided
    memberships are closed under composition, the identity satisfies all
    three, and in a finite group every element is a product of generators
    (an inverse is a positive power).  So a statement holds for every
    group element exactly when it holds for every generator.  A statement
    depends only on the system, the convention and the generator, so each
    is decided once per (system, convention, generator image)."""
    if not system.covers_ground():
        raise ValueError("the system must cover the ground")
    distinct = {g.image: g for g in gens}
    if not distinct:
        raise ValueError("need at least one generator")
    for g in distinct.values():
        if g.ground != system.ground:
            raise GroundMismatchError(f"{g.ground} vs {system.ground}")
    ctx = system.context(conv)
    verdicts = ctx._verdicts
    rows = [(g, verdicts.setdefault(image, [None] * 5)) for image, g in distinct.items()]
    return PhaseChainRecord(
        *(all(_holds(ctx, statement, g, row) for g, row in rows) for statement in range(5))
    )
