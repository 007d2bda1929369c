"""Permutation dynamics: autobolisms, generated phase groups, orbits and
their invariant topologies, coherence witnesses, phasicity.

A flow is either cyclic (one generator, integer time via powers) or a
generated permutation group (group time).  Orbits, and the coherence
questions that saturation by orbits answers, need only the generators;
the group is listed only where an element is wanted.  Group generation and
witness search run breadth-first in a fixed order, so results are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import kernels
from .setsys import (
    CapExceededError,
    GroundMismatchError,
    GroundSet,
    SetSystem,
    Subset,
    union_closure,
)

DEFAULT_GROUP_CAP = 10080


@dataclass(frozen=True, order=True)
class Autobolism:
    """A permutation of the ground set; image[i] is where i goes."""

    ground: GroundSet
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(self.ground.size)):
            raise ValueError(f"not a permutation of 0..{self.ground.size - 1}: {self.image}")

    @classmethod
    def identity(cls, ground: GroundSet) -> "Autobolism":
        return cls(ground, tuple(range(ground.size)))

    @classmethod
    def of(cls, ground: GroundSet, image: Sequence[int]) -> "Autobolism":
        return cls(ground, tuple(image))

    def __call__(self, x: int) -> int:
        return self.image[x]

    def apply_mask(self, mask: int) -> int:
        return kernels.image(list(self.image), mask)

    def apply(self, subset: Subset) -> Subset:
        if subset.ground != self.ground:
            raise GroundMismatchError(f"{subset.ground} vs {self.ground}")
        return Subset(self.ground, self.apply_mask(subset.bits))

    def is_identity(self) -> bool:
        return all(self.image[i] == i for i in range(self.ground.size))

    def order(self) -> int:
        k, p = 1, self
        ident = Autobolism.identity(self.ground)
        while p != ident:
            p = compose(self, p)
            k += 1
        return k


def compose(f: Autobolism, g: Autobolism) -> Autobolism:
    """Pointwise f after g."""
    if f.ground != g.ground:
        raise GroundMismatchError(f"{f.ground} vs {g.ground}")
    return Autobolism(f.ground, tuple(f.image[g.image[i]] for i in range(f.ground.size)))


def invert(f: Autobolism) -> Autobolism:
    out = [0] * f.ground.size
    for i, j in enumerate(f.image):
        out[j] = i
    return Autobolism(f.ground, tuple(out))


def power(f: Autobolism, k: int) -> Autobolism:
    if k < 0:
        return power(invert(f), -k)
    acc = Autobolism.identity(f.ground)
    for _ in range(k):
        acc = compose(f, acc)
    return acc


class PhaseGroup:
    """A composition- and inverse-closed set of autobolisms, kept in the
    breadth-first discovery order of its generation."""

    __slots__ = ("ground", "generators", "elements", "_member_set")

    def __init__(self, ground: GroundSet, generators: tuple[Autobolism, ...],
                 elements: tuple[Autobolism, ...]):
        self.ground = ground
        self.generators = generators
        self.elements = elements
        self._member_set = frozenset(g.image for g in elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, f: Autobolism) -> bool:
        return f.image in self._member_set

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhaseGroup) and self._member_set == other._member_set

    def __hash__(self) -> int:
        return hash(self._member_set)

    def mask_tables(self) -> list[list[int]]:
        """Mask-image table of every group element: the input of the
        brute-force coherence oracles in kernels, used only by the tests."""
        return [kernels.perm_table(list(g.image)) for g in self.elements]


def _common_ground(gens: Sequence[Autobolism]) -> GroundSet:
    if not gens:
        raise ValueError("need at least one generator")
    ground = gens[0].ground
    for g in gens[1:]:
        if g.ground != ground:
            raise GroundMismatchError(f"{g.ground} vs {ground}")
    return ground


def generate_group(
    gens: Sequence[Autobolism], cap: int = DEFAULT_GROUP_CAP
) -> PhaseGroup:
    """Breadth-first closure of the generators and their inverses, seeded
    with the identity."""
    ground = _common_ground(gens)
    step: list[Autobolism] = []
    for g in gens:
        if g not in step:
            step.append(g)
        gi = invert(g)
        if gi not in step:
            step.append(gi)
    ident = Autobolism.identity(ground)
    discovered = [ident]
    seen = {ident.image}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for h in step:
                cand = compose(h, cur)
                if cand.image not in seen:
                    seen.add(cand.image)
                    discovered.append(cand)
                    nxt.append(cand)
                    if len(discovered) > cap:
                        raise CapExceededError(
                            f"group order exceeds cap {cap}"
                        )
        frontier = nxt
    return PhaseGroup(ground, tuple(gens), tuple(discovered))


@dataclass(frozen=True)
class DiscreteFlow:
    """Either the cyclic flow of one generator (integer time) or the
    permutation group generated by a list of generators (group time).

    Only the generators are stored.  Orbits come from the generators
    alone; the group itself is built on the first call of phase_group."""

    ground: GroundSet
    gens: tuple[Autobolism, ...]
    is_cyclic: bool = False

    @classmethod
    def cyclic(cls, generator: Autobolism) -> "DiscreteFlow":
        return cls(generator.ground, (generator,), True)

    @classmethod
    def of_group(cls, gens: Sequence[Autobolism]) -> "DiscreteFlow":
        return cls(_common_ground(gens), tuple(gens))

    @property
    def generator(self) -> Optional[Autobolism]:
        """The generator of a cyclic flow; None for a group flow."""
        return self.gens[0] if self.is_cyclic else None

    def generators(self) -> tuple[Autobolism, ...]:
        return self.gens

    def orbit_blocks(self) -> tuple[int, ...]:
        """Orbit blocks as masks in ascending order, computed once from the
        generators."""
        return self._blocks

    @cached_property
    def _blocks(self) -> tuple[int, ...]:
        perms = [list(g.image) for g in self.gens]
        return tuple(kernels.orbit_blocks(self.ground.size, perms))

    def phase_group(self) -> PhaseGroup:
        """The generated group, built on the first call and kept; raises
        CapExceededError beyond DEFAULT_GROUP_CAP elements."""
        return self._group

    @cached_property
    def _group(self) -> PhaseGroup:
        return generate_group(self.gens)

    def period(self) -> int:
        """Order of the generator; only cyclic flows carry integer time."""
        if not self.is_cyclic:
            raise ValueError("group flows have no integer time")
        return self.gens[0].order()


def saturate(blocks: Iterable[int], a: int) -> int:
    """Union of the orbit blocks meeting the mask a.  This is the set of
    all g(x) with g in the group and x in a, so a mask b meets it exactly
    when some group element maps a onto a set meeting b."""
    out = 0
    for block in blocks:
        if block & a:
            out |= block
    return out


def orbit(flow: DiscreteFlow, z: int) -> Subset:
    """All states reachable from z under the flow's group."""
    if not 0 <= z < flow.ground.size:
        raise ValueError(f"state {z} outside ground of size {flow.ground.size}")
    for block in flow.orbit_blocks():
        if block >> z & 1:
            return Subset(flow.ground, block)
    raise AssertionError("unreachable: orbits partition the ground")


def orbit_partition(flow: DiscreteFlow) -> SetSystem:
    """The partition of the ground set into group orbits."""
    return SetSystem(flow.ground, flow.orbit_blocks())


def invariant_basis(gens: Sequence[Autobolism]) -> SetSystem:
    """Orbit partition of the generated group; the common invariant
    topology is its union closure plus the empty set."""
    return orbit_partition(DiscreteFlow.of_group(gens))


def invariant_topology(gens: Sequence[Autobolism]) -> SetSystem:
    """All subsets fixed by every generator: the union closure of the orbit
    partition together with the empty set."""
    basis = invariant_basis(gens)
    return union_closure(basis)  # union closure always contains the empty set


def is_invariant(gens: Iterable[Autobolism], x: Subset) -> bool:
    """True when every generator maps x onto itself (generators suffice for
    invariance under the generated group)."""
    return all(g.apply_mask(x.bits) == x.bits for g in gens)


def coherence_witness(
    gens: Sequence[Autobolism], a: Subset, b: Subset
) -> Optional[Autobolism]:
    """First group element (breadth-first discovery order) whose image of a
    meets b, or None."""
    if not a or not b:
        raise ValueError("coherence witnesses are defined for nonempty sets")
    group = generate_group(gens)
    for g in group.elements:
        if g.apply_mask(a.bits) & b.bits:
            return g
    return None


def is_phasic(flows: Sequence[Autobolism]) -> bool:
    """True when the listed family is already closed under composition
    (hence equal to its generated group)."""
    images = {f.image for f in flows}
    return all(
        compose(f, g).image in images for f in flows for g in flows
    )
