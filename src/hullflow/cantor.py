"""Cantor-continuity of endofunctions relative to a set system.

A map is commutatively Cantor-continuous when it commutes with the
system's hull operator on every subset.  The one-sided memberships ask,
for every nonempty member, for a nonempty member mapped into it (plus
side) or contained in its image (minus side); both quantifiers skip the
empty set on both sides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernels
from .dynsys import Autobolism, EndoFunction
from .setsys import (
    ClosureConvention,
    GroundMismatchError,
    SetSystem,
    closure_map,
    complement_system,
    product_fibration,
    un_ov,
)


def is_commutative_cantor(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when the commutator with the hull operator vanishes on every
    subset of the ground."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    cl = closure_map(system, conv)
    return kernels.commutes_with_closure(f.mask_table(), cl)


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
    family does not depend on `conv`; it is kept in the context of
    (system, conv), beside the fibration classes."""
    members = _system_context(system, conv)._unfamily
    return all(f.apply_mask(q) in members for q in members)


def fibration_integrity(
    f: EndoFunction,
    system: SetSystem,
    conv: ClosureConvention = ClosureConvention.FULL,
) -> bool:
    """True when mapping every closure-fibration class elementwise through
    f reproduces the class family exactly."""
    actual = _system_context(system, conv)._classes
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
    """Hull commutation next to the two-sided memberships.  The closure
    table and the complement system are those of the system's context, so
    a sweep whose system is the outer factor builds them once per system."""
    if f.ground != system.ground:
        raise GroundMismatchError(f"{f.ground} vs {system.ground}")
    ctx = _system_context(system, conv)
    compl = ctx.compl
    return ExplicationRecord(
        lhs=kernels.commutes_with_closure(f.mask_table(), ctx.cl),
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


class _SystemContext:
    """What the explication, the fibration checks and the chain statements
    need of one system under one convention: its closure table and
    complement system, built once; its fibration classes and
    complement-free family, built from those on first use; and each chain
    statement's verdict on each generator, kept by the generator's image
    and decided on first ask."""

    def __init__(self, system: SetSystem, conv: ClosureConvention) -> None:
        self.system, self.conv = system, conv
        self.cl = closure_map(system, conv)
        self.compl = compl = complement_system(system)
        # statements 1-4 of PhaseChainRecord: the system a membership
        # quantifies over, and its side
        self.memberships = ((system, True), (system, False), (compl, True), (compl, False))
        # generator image -> the verdicts of the five statements on it,
        # None until decided
        self.verdicts: dict[tuple[int, ...], list[Optional[bool]]] = {}

    @functools.cached_property
    def _classes(self) -> set[frozenset[int]]:
        """The classes of the closure fibration, as sets of masks."""
        fib = product_fibration(self.system, self.conv, self.cl)
        return {frozenset(fc.member_masks) for fc in fib.classes}

    @functools.cached_property
    def _unfamily(self) -> frozenset[int]:
        """The complement-free subsets."""
        return frozenset(un_ov(self.compl).masks)

    def holds(self, statement: int, g: Autobolism, verdicts: list[Optional[bool]]) -> bool:
        """Statement `statement` of PhaseChainRecord (0: commuting with the
        hull) for the generator g, whose verdicts list is `verdicts`."""
        verdict = verdicts[statement]
        if verdict is None:
            if statement == 0:
                verdict = kernels.commutes_with_closure(g.mask_table(), self.cl)
            else:
                over, plus = self.memberships[statement - 1]
                verdict = cantor_membership(g, over, plus)
            verdicts[statement] = verdict
        return verdict


@functools.lru_cache(maxsize=1)
def _system_context(system: SetSystem, conv: ClosureConvention) -> _SystemContext:
    """The context of the last (system, convention) asked for: a sweep
    whose system is the outer factor asks for the same one again for every
    generator set or function."""
    return _SystemContext(system, conv)


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
    ctx = _system_context(system, conv)
    rows = [(g, ctx.verdicts.setdefault(image, [None] * 5)) for image, g in distinct.items()]
    return PhaseChainRecord(
        *(all(ctx.holds(statement, g, row) for g, row in rows) for statement in range(5))
    )
