"""Self-maps and permutation dynamics: endofunctions, autobolisms, flows,
orbits and their invariant topologies.

A self-map builds the image of every subset once, on first use, and reads
it from then on.

A flow is either cyclic (one generator, integer time via powers) or a
generated permutation group (group time).  Orbits, and the coherence
questions that saturation by orbits answers, need only the generators, so
no group is ever listed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import kernels
from .setsys import (
    DEFAULT_ENUM_CAP,
    CapExceededError,
    Frozen,
    GroundMismatchError,
    GroundSet,
    SetSystem,
    _check_enum,
    _set,
)


class EndoFunction(Frozen):
    """A (not necessarily bijective) self-map of the ground set; image[i]
    is where i goes.  It keeps its mask table in its `__dict__`."""

    _fields = ("ground", "image")

    def __init__(self, ground: GroundSet, image: tuple[int, ...]) -> None:
        n = ground.size
        if len(image) != n or any(not 0 <= v < n for v in image):
            raise ValueError(f"not a self-map of 0..{n - 1}: {image}")
        _set(self, "ground", ground)
        _set(self, "image", image)

    @classmethod
    def of(cls, ground: GroundSet, image: Sequence[int]) -> "EndoFunction":
        return cls(ground, tuple(image))

    def apply_mask(self, mask: int) -> int:
        """The image of a subset: read from the table within the
        enumeration cap, taken point by point above it."""
        if self.ground.size <= DEFAULT_ENUM_CAP:
            return self._table[mask]
        out = 0
        for i, y in enumerate(self.image):
            if mask >> i & 1:
                out |= 1 << y
        return out

    def mask_table(self) -> Sequence[int]:
        """The image of every subset, indexed by mask, built once on first
        use.  Up to 4 points it is `bytes`, as a closure table is there
        (setsys.closure_tables_of), so hull commutation composes the two by
        translation; above 4 points it is a list.  Its 2^n cells are built
        only within the enumeration cap: above it CapExceededError is
        raised."""
        return self._table

    @cached_property
    def _table(self) -> Sequence[int]:
        _check_enum(self.ground.size)
        table = kernels.perm_table(self.image)
        return bytes(table) if self.ground.size <= 4 else table

    def is_bijective(self) -> bool:
        return len(set(self.image)) == self.ground.size


class Autobolism(EndoFunction):
    """A permutation of the ground set: the self-map it is.  It never
    equals an EndoFunction, as records of two classes never do."""

    def __init__(self, ground: GroundSet, image: tuple[int, ...]) -> None:
        if sorted(image) != list(range(ground.size)):
            raise ValueError(f"not a permutation of 0..{ground.size - 1}: {image}")
        _set(self, "ground", ground)
        _set(self, "image", image)

    @classmethod
    def identity(cls, ground: GroundSet) -> "Autobolism":
        return cls(ground, tuple(range(ground.size)))


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


#: The most invariant sets a flow lists.
INVARIANT_CAP = 1 << 20


def _common_ground(gens: Sequence[Autobolism]) -> GroundSet:
    if not gens:
        raise ValueError("need at least one generator")
    ground = gens[0].ground
    for g in gens[1:]:
        if g.ground != ground:
            raise GroundMismatchError(f"{g.ground} vs {ground}")
    return ground


class DiscreteFlow(Frozen):
    """Either the cyclic flow of one generator (integer time) or the
    permutation group generated by a list of generators (group time).

    Only the generators are stored; orbits come from them alone.  The
    flow keeps its orbit blocks and invariant sets, once listed, in its
    `__dict__`."""

    _fields = ("ground", "gens", "is_cyclic")

    def __init__(
        self, ground: GroundSet, gens: tuple[Autobolism, ...], is_cyclic: bool = False
    ) -> None:
        _set(self, "ground", ground)
        _set(self, "gens", gens)
        _set(self, "is_cyclic", is_cyclic)

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

    @cached_property
    def _invariant(self) -> tuple[int, ...]:
        """The nonempty unions of orbit blocks, ascending, listed once.
        Each block doubles the unions built so far, so the enumeration
        takes one step per set, and entry S - 1 is the union of the blocks
        whose indices are the bits of S.  That order is ascending: the
        blocks are disjoint and ascending, so the highest point of two
        unions' difference lies in the block of highest index on which
        their index sets differ."""
        if 1 << len(self._blocks) > INVARIANT_CAP:
            raise CapExceededError(
                f"2^{len(self._blocks)} invariant sets exceed cap {INVARIANT_CAP}"
            )
        unions = [0]
        for block in self._blocks:
            unions += [u | block for u in unions]
        return tuple(unions[1:])


def saturate(blocks: Iterable[int], a: int) -> int:
    """Union of the orbit blocks meeting the mask a.  This is the set of
    all g(x) with g in the group and x in a, so a mask b meets it exactly
    when some group element maps a onto a set meeting b."""
    out = 0
    for block in blocks:
        if block & a:
            out |= block
    return out


def orbit_partition(flow: DiscreteFlow) -> SetSystem:
    """The partition of the ground set into group orbits."""
    return SetSystem(flow.ground, flow.orbit_blocks())


def invariant_sets(flow: DiscreteFlow) -> SetSystem:
    """All nonempty unions of orbit blocks (the nonempty invariant sets),
    listed once per flow; at most INVARIANT_CAP of them."""
    return SetSystem(flow.ground, flow._invariant)


def invariant_topology(gens: Sequence[Autobolism]) -> SetSystem:
    """All subsets fixed by every generator: the invariant sets of the
    generated group together with the empty set."""
    flow = DiscreteFlow.of_group(gens)
    return SetSystem(flow.ground, (0,) + invariant_sets(flow).masks)

