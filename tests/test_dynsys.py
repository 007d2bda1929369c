"""Permutation dynamics: orbits, invariant topologies and coherence, each
checked against the group listed by the brute-force oracle."""

import itertools
import random

import pytest

import oracles
from hullflow import kernels
from hullflow.dynsys import (
    Autobolism,
    DiscreteFlow,
    EndoFunction,
    compose,
    invariant_topology,
    invert,
    orbit_partition,
    saturate,
)
from hullflow.setsys import (
    DEFAULT_ENUM_CAP,
    CapExceededError,
    GroundMismatchError,
    GroundSet,
    SetSystem,
    Subset,
    classify,
    elementarize,
)

G2 = GroundSet(2)
G3 = GroundSet(3)


@pytest.fixture
def swap01():
    return Autobolism.of(G3, [1, 0, 2])


@pytest.fixture
def swap12():
    return Autobolism.of(G3, [0, 2, 1])


@pytest.fixture
def rot():
    return Autobolism.of(G3, [1, 2, 0])


class TestComposition:
    def test_involution(self, swap01):
        assert compose(swap01, swap01) == Autobolism.identity(G3)

    def test_rotation_squares(self, rot):
        assert compose(rot, rot) == Autobolism.of(G3, [2, 0, 1])

    def test_identity_neutral(self, swap01):
        ident = Autobolism.identity(G3)
        assert compose(swap01, ident) == swap01
        assert compose(ident, swap01) == swap01

    def test_invert(self, rot, swap01):
        assert invert(Autobolism.identity(G3)) == Autobolism.identity(G3)
        assert invert(rot) == compose(rot, rot)
        assert invert(swap01) == swap01
        assert compose(swap01, invert(swap01)) == Autobolism.identity(G3)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Autobolism.of(G3, [0, 0, 1])


class TestSelfMaps:
    def test_apply_mask_above_the_cap_takes_points(self, monkeypatch):
        # no 2^n table is built beyond the enumeration cap
        def no_table(perm):
            raise AssertionError(f"table built for {len(perm)} points")

        monkeypatch.setattr(kernels, "perm_table", no_table)
        rnd = random.Random(40)
        for n in (DEFAULT_ENUM_CAP + 1, 40, 64):
            image = [rnd.randrange(n) for _ in range(n)]
            f = EndoFunction.of(GroundSet(n), image)
            for mask in [0, (1 << n) - 1] + [rnd.getrandbits(n) for _ in range(50)]:
                assert f.apply_mask(mask) == oracles.image(image, mask)

    @pytest.mark.parametrize("n", [DEFAULT_ENUM_CAP + 1, 40, 64])
    def test_mask_table_above_the_cap_raises(self, n):
        # 2^n cells are never built beyond the enumeration cap; a subset's
        # image is still taken point by point
        f = Autobolism.identity(GroundSet(n))
        with pytest.raises(CapExceededError, match=f"ground size {n} exceeds enumeration cap"):
            f.mask_table()
        assert f.apply_mask(0b101) == 0b101

    def test_autobolism_is_an_endofunction(self, rot):
        assert isinstance(rot, EndoFunction)
        assert rot.is_bijective()
        assert rot.mask_table() == EndoFunction.of(G3, rot.image).mask_table()


class TestGroupGeneration:
    # the oracle's group listing, which the coherence tests below rely on

    def test_involution_order_two(self, swap01):
        assert len(oracles.group([swap01])) == 2

    def test_two_swaps_generate_symmetric_group(self, swap01, swap12):
        assert len(oracles.group([swap01, swap12])) == 6

    def test_identity_alone(self):
        assert len(oracles.group([Autobolism.identity(G3)])) == 1

    def test_generator_order_and_duplicates_irrelevant(self, swap01, swap12):
        a = oracles.group([swap01, swap12])
        b = oracles.group([swap12, swap01, swap12])
        assert len(a) == len(b) and set(a) == set(b)

    def test_discovery_order_starts_with_identity(self, swap01, swap12):
        grp = oracles.group([swap01, swap12])
        assert grp[0] == Autobolism.identity(G3).image


class TestOrbits:
    def test_cyclic_orbit(self, swap01):
        flow = DiscreteFlow.cyclic(swap01)
        assert Subset.of(G3, [0, 1]).bits in flow.orbit_blocks()

    def test_fixed_point(self, swap01):
        assert Subset.of(G3, [2]).bits in DiscreteFlow.cyclic(swap01).orbit_blocks()

    def test_transitive_group(self, swap01, swap12):
        flow = DiscreteFlow.of_group([swap01, swap12])
        assert flow.orbit_blocks() == (Subset.of(G3, [0, 1, 2]).bits,)

    def test_partition(self, swap01, swap12):
        assert orbit_partition(DiscreteFlow.cyclic(swap01)) == SetSystem.of(
            G3, [[0, 1], [2]]
        )
        ident = DiscreteFlow.cyclic(Autobolism.identity(G3))
        assert orbit_partition(ident) == SetSystem.of(G3, [[0], [1], [2]])
        s3 = DiscreteFlow.of_group([swap01, swap12])
        assert orbit_partition(s3) == SetSystem.of(G3, [[0, 1, 2]])


class TestInvariantTopology:
    def test_basis_and_full(self, swap01):
        assert orbit_partition(DiscreteFlow.cyclic(swap01)) == SetSystem.of(G3, [[0, 1], [2]])
        assert invariant_topology([swap01]) == SetSystem.of(
            G3, [[], [0, 1], [2], [0, 1, 2]]
        )

    def test_rotation(self, rot):
        assert orbit_partition(DiscreteFlow.cyclic(rot)) == SetSystem.of(G3, [[0, 1, 2]])
        assert invariant_topology([rot]) == SetSystem.of(G3, [[], [0, 1, 2]])

    def test_identity_everything(self):
        ident = Autobolism.identity(G2)
        assert invariant_topology([ident]) == SetSystem.powerset(G2)

    def test_always_self_dual(self):
        for n in (2, 3, 4, 5):
            ground = GroundSet(n)
            for image in itertools.permutations(range(n)):
                t = invariant_topology([Autobolism.of(ground, image)])
                assert classify(t).is_self_dual, image

    def test_elementarize_matches_orbits(self):
        # the selection-intersection blocks of the invariant topology are
        # exactly the orbit blocks
        for n in (2, 3, 4):
            ground = GroundSet(n)
            perms = list(itertools.permutations(range(n)))
            for pair in itertools.combinations(perms, 2):
                gens = [Autobolism.of(ground, p) for p in pair]
                t = invariant_topology(gens)
                blocks = elementarize(t).without_empty()
                assert blocks == orbit_partition(DiscreteFlow.of_group(gens))


class TestCoherenceWitness:
    # a witness is a listed group element whose image of a meets b

    def test_swap_moves_zero_to_one(self, swap01):
        w = oracles.witness(oracles.group([swap01]), 0b001, 0b010)
        assert w == swap01.image

    def test_overlap_gives_identity(self, swap01):
        w = oracles.witness(oracles.group([swap01]), 0b101, 0b100)
        assert w == Autobolism.identity(G3).image

    def test_orbit_separation(self, swap01):
        assert oracles.witness(oracles.group([swap01]), 0b001, 0b100) is None

    def test_distinct_orbits_never_cohere(self):
        # no witness connects nonempty pieces of two distinct orbit blocks
        for n in (3, 4):
            ground = GroundSet(n)
            for image in itertools.permutations(range(n)):
                g = Autobolism.of(ground, image)
                elements = oracles.group([g])
                blocks = orbit_partition(DiscreteFlow.cyclic(g)).masks
                for b1 in blocks:
                    for b2 in blocks:
                        if b1 == b2:
                            continue
                        assert oracles.witness(elements, b1 & -b1, b2 & -b2) is None


class TestCoherenceSingletonAgreement:
    def test_singleton_pairs_decide_full_subset_check(self):
        # checking one-point pairs is equivalent to checking all nonempty
        # subset pairs, exhaustively over generator pairs on 3 points
        perms = [Autobolism.of(G3, p) for p in itertools.permutations(range(3))]
        gensets = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
        for gens in gensets:
            tables = oracles.mask_tables(oracles.group(gens))
            for chi in range(1, 8):
                assert oracles.coherent_block(tables, chi, True) == (
                    oracles.coherent_block(tables, chi, False)
                )


def _gensets(ground):
    """Every generator set of size one or two on the ground."""
    perms = [Autobolism.of(ground, p) for p in itertools.permutations(range(ground.size))]
    return [(p,) for p in perms] + list(itertools.combinations(perms, 2))


class TestSaturationOracle:
    # orbit saturation decides coherence without listing the group; the
    # brute-force route over the group's mask tables is the oracle

    def test_saturate_is_union_of_group_images(self):
        for n in (2, 3, 4):
            for gens in _gensets(GroundSet(n)):
                blocks = DiscreteFlow.of_group(gens).orbit_blocks()
                elements = oracles.group(gens)
                for a in range(1 << n):
                    images = 0
                    for g in elements:
                        images |= oracles.image(g, a)
                    assert saturate(blocks, a) == images

    def test_coherent_block_both_modes(self):
        from hullflow.attract import saturation_coherent

        for n in (1, 2, 3, 4):
            ground = GroundSet(n)
            for gens in _gensets(ground):
                tables = oracles.mask_tables(oracles.group(gens))
                blocks = DiscreteFlow.of_group(gens).orbit_blocks()
                for chi in range(1, 1 << n):
                    subsets = [a for a in range(1, chi + 1) if a & chi == a]
                    points = [1 << x for x in range(n) if chi >> x & 1]
                    assert saturation_coherent(blocks, subsets) == (
                        oracles.coherent_block(tables, chi, False)
                    ), (gens, chi)
                    assert saturation_coherent(blocks, points) == (
                        oracles.coherent_block(tables, chi, True)
                    ), (gens, chi)


class TestLazyFlow:
    # generators of S_12: a 12-cycle and a transposition
    G12 = GroundSet(12)
    CYCLE = Autobolism.of(G12, list(range(1, 12)) + [0])
    SWAP = Autobolism.of(G12, [1, 0] + list(range(2, 12)))

    def test_orbits_need_no_group(self):
        flow = DiscreteFlow.of_group([self.CYCLE, self.SWAP])
        assert flow.orbit_blocks() == (self.G12.full_mask,)
        assert orbit_partition(flow) == SetSystem(self.G12, (self.G12.full_mask,))
        assert invariant_topology([self.CYCLE, self.SWAP]) == SetSystem(
            self.G12, (0, self.G12.full_mask)
        )

    def test_generators_validated_eagerly(self, swap01):
        with pytest.raises(ValueError):
            DiscreteFlow.of_group([])
        with pytest.raises(GroundMismatchError):
            DiscreteFlow.of_group([swap01, Autobolism.identity(G2)])


class TestPhasicity:
    def test_lone_involution(self):
        # the classic two-point example: a single swap is aphasic (the
        # family is not the group it generates), its invariant topology is
        # indiscrete, and the swap itself already witnesses coherence for
        # the disjoint singleton pair
        swap = Autobolism.of(G2, [1, 0])
        assert oracles.group([swap]) != [swap.image]
        assert invariant_topology([swap]) == SetSystem.of(G2, [[], [0, 1]])
        assert swap.apply_mask(0b01) & 0b10
