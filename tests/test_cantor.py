"""Cantor-continuity: commutators, memberships, fibration integrity."""

import functools
import itertools
import operator
import random

import pytest

import oracles
from hullflow import cantor, setsys, verify
from hullflow.cantor import (
    cantor_membership,
    explication_check,
    fibration_integrity,
    is_commutative_cantor,
    is_trivially_commutative,
    phase_chain_check,
    preserves_unfamily,
)
from hullflow.dynsys import Autobolism, EndoFunction
from hullflow.setsys import (
    ClosureConvention,
    GroundSet,
    SetSystem,
    closure_map,
    closure_map_of,
    family_of,
    fibration_classes,
)
from hullflow.verify import TheoremId, check_theorem

G2 = GroundSet(2)
G3 = GroundSet(3)

A2 = SetSystem.of(G2, [[0], [0, 1]])


def endo(ground, *image):
    return EndoFunction.of(ground, image)


class TestCommutativeCantor:
    def test_identity_always(self):
        ident = endo(G2, 0, 1)
        assert is_commutative_cantor(ident, A2)

    def test_swap_fails_here(self):
        assert not is_commutative_cantor(endo(G2, 1, 0), A2)

    def test_trivial_when_cosingletons_present(self):
        full = SetSystem.powerset(G2)
        for image in itertools.product(range(2), repeat=2):
            assert is_commutative_cantor(EndoFunction.of(G2, image), full)

    def test_trivially_commutative_flag(self):
        assert is_trivially_commutative(SetSystem.powerset(G2))
        assert not is_trivially_commutative(A2)
        cosingles = SetSystem.of(G3, [[1, 2], [0, 2], [0, 1], [0, 1, 2]])
        assert is_trivially_commutative(cosingles)


class TestMemberships:
    def test_constant_zero_two_sided(self):
        c0 = endo(G2, 0, 0)
        assert cantor_membership(c0, A2, True)
        assert cantor_membership(c0, A2, False)

    def test_swap_fails_plus(self):
        assert not cantor_membership(endo(G2, 1, 0), A2, True)

    def test_identity_both_sides_everywhere(self):
        for members in oracles.families(2):
            sys = SetSystem(G2, tuple(members))
            ident = endo(G2, 0, 1)
            assert cantor_membership(ident, sys, True)
            assert cantor_membership(ident, sys, False)

    def test_inverse_swaps_sides(self):
        # a bijection sits in one side exactly when its inverse sits in the
        # other side
        for members in oracles.coverings(3):
            sys = SetSystem(G3, tuple(members))
            for image in itertools.permutations(range(3)):
                f = EndoFunction.of(G3, image)
                finv = EndoFunction.of(
                    G3, tuple(image.index(i) for i in range(3))
                )
                assert cantor_membership(f, sys, True) == cantor_membership(
                    finv, sys, False
                )


def membership_cases():
    """(system, self-map) pairs: every family with every self-map up to 3
    points; seeded systems of densities 0.1 to 0.8 with seeded self-maps
    on 4 to 8 points."""
    for n in (1, 2, 3):
        ground = GroundSet(n)
        maps = [EndoFunction.of(ground, image) for image in itertools.product(range(n), repeat=n)]
        for members in oracles.families(n):
            sys = SetSystem(ground, tuple(members))
            yield from ((sys, f) for f in maps)
    rnd = random.Random(19)
    for n in range(4, 9):
        ground = GroundSet(n)
        for density in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
            for _ in range(6):
                sys = SetSystem(ground, tuple(m for m in range(1 << n) if rnd.random() < density))
                for _ in range(2):
                    yield sys, EndoFunction.of(ground, [rnd.randrange(n) for _ in range(n)])


class TestMembershipsAgainstPairScan:
    # the memberships from up-closures of family bitmasks, against the
    # pair scan they replaced, on both sides, both signs and under both
    # conventions: cantor_membership, explication_check, each side's row
    # and the rows of the five chain statements that K3_9 and S3_8 read

    def test_every_route_matches_the_pair_scan(self):
        outcomes = set()
        for sys, f in membership_cases():
            full = sys.ground.full_mask
            plus, minus = oracles.memberships(f.image, sys.masks)
            plus_c, minus_c = oracles.memberships(f.image, [full ^ m for m in sys.masks])
            outcomes.add((plus, minus, plus_c, minus_c))
            assert cantor_membership(f, sys, True) == plus, (sys, f.image)
            assert cantor_membership(f, sys, False) == minus, (sys, f.image)
            for conv in ClosureConvention:
                rec = explication_check(f, sys, conv)
                assert (rec.rhs_system, rec.rhs_complement) == (
                    plus and minus, plus_c and minus_c
                ), (sys, f.image, conv)
                sides = cantor._sides(sys.ground.size, family_of(sys.ground.size, sys.masks))
                got = [cantor._side_row(s, {}).of(f) for s in sides]
                assert got == [plus | minus << 1, plus_c | minus_c << 1], (sys, f.image, conv)
                rows = cantor._chain_rows(closure_map(sys, conv), sides, {})
                bits = cantor._chain_bits(rows, f)
                assert [bits >> i & 1 for i in range(1, 5)] == [plus, minus, plus_c, minus_c], (
                    sys, f.image, conv
                )
        # every combination of the four verdicts occurs
        assert len(outcomes) == 16

    def test_beyond_the_enumeration_cap_matches_the_pair_scan(self):
        # above DEFAULT_ENUM_CAP no family bitmask is built: the members
        # are compared pair by pair, point by point
        rnd = random.Random(23)
        ground = GroundSet(24)
        for _ in range(40):
            members = tuple(rnd.getrandbits(24) & rnd.getrandbits(24) for _ in range(rnd.randint(1, 6)))
            sys = SetSystem(ground, members)
            image = [rnd.randrange(24) for _ in range(24)]
            f = EndoFunction.of(ground, image)
            plus, minus = oracles.memberships(image, sys.masks)
            assert cantor_membership(f, sys, True) == plus
            assert cantor_membership(f, sys, False) == minus


def covering_cases():
    """(n, system, maps): every covering system with every self-map up to
    3 points, then 300 seeded covering systems on 4 points, each with 12
    seeded self-maps."""
    for n in (1, 2, 3):
        ground = GroundSet(n)
        maps = [EndoFunction.of(ground, image) for image in itertools.product(range(n), repeat=n)]
        for members in oracles.coverings(n):
            yield n, SetSystem(ground, tuple(members)), maps
    rnd = random.Random(29)
    ground = GroundSet(4)
    drawn = 0
    while drawn < 300:
        family = rnd.getrandbits(16)
        members = tuple(m for m in range(16) if family >> m & 1)
        if functools.reduce(operator.or_, members, 0) != 15:
            continue
        drawn += 1
        maps = [EndoFunction.of(ground, [rnd.randrange(4) for _ in range(4)]) for _ in range(12)]
        yield 4, SetSystem(ground, members), maps


def covering_families():
    """(n, family bitmask, members) of every covering system up to 3
    points, then of 2,000 seeded covering systems on 4 points."""
    for n in (1, 2, 3):
        for family in verify._covering_families(n):
            yield n, family, [m for m in range(1 << n) if family >> m & 1]
    for family in random.Random(31).sample(verify._covering_families(4), 2000):
        yield 4, family, [m for m in range(16) if family >> m & 1]


class TestFamilyParts:
    # what the checker bodies read of a system, computed from its family
    # bitmask alone, against the oracles' scans of its members: the
    # closure table, both sides' minimal members and up-closures, the
    # complement family (the family's bits reversed), the complement-free
    # family and the fibration classes

    def test_parts_match_the_oracles(self):
        for n, family, members in covering_families():
            full = (1 << n) - 1
            complements = [full ^ m for m in members]
            assert setsys.complement_family(n, family) == sum(1 << m for m in complements)
            for side, masks in zip(cantor._sides(n, family), (members, complements)):
                minimal = oracles.minimal_members(masks)
                assert (side.members, side.family) == (
                    tuple(minimal), sum(1 << m for m in minimal)
                ), (n, members)
                above = [z for z in range(1 << n) if any(m and m & z == m for m in masks)]
                assert side.up == sum(1 << z for z in above), (n, members)
            free = oracles.free_subsets(n, complements)
            assert cantor._free_family(n, family) == sum(1 << z for z in free), (n, members)
            for conv in ClosureConvention:
                cl = closure_map_of(n, family, conv)
                assert list(cl) == oracles.closure_table(n, members, conv.value), (n, members)
                fibration = oracles.fibration(n, members, conv.value)
                assert cantor._classes(cl) == {
                    setsys.shifted(sum(1 << z for z in cells)): tuple(cells)
                    for cells in fibration.values()
                }, (n, members, conv)


class TestMinimalMembers:
    # a side keeps its minimal nonempty members, read off its up-closure;
    # a sweep decides the memberships once per (minimal family, map image)
    # and hull commutation once per (closure table, map image), so every
    # system that shares a row reads the verdicts of the first one

    def test_each_side_keeps_its_minimal_members(self):
        # both sides come from the system's family bitmask, the
        # complement's as its bits reversed; a side reads no convention
        for n, sys, _ in covering_cases():
            full = sys.ground.full_mask
            sides = cantor._sides(n, family_of(n, sys.masks))
            for side, masks in zip(sides, (sys.masks, [full ^ m for m in sys.masks])):
                minimal = oracles.minimal_members(masks)
                assert side.members == tuple(minimal), sys
                assert side.family == sum(1 << m for m in minimal)
                above = [z for z in range(1 << n) if any(m & z == m for m in minimal)]
                assert side.up == sum(1 << z for z in above)

    @pytest.mark.parametrize("conv", list(ClosureConvention), ids=lambda c: c.value)
    def test_sweep_rows_match_the_pair_scan_over_every_member(self, conv):
        # one memo per ground size, as a sweep keeps one per share: a row
        # decided for one system answers for every later one with the
        # same closure table or the same minimal family on either side
        memos = {}
        shared = 0
        for n, sys, maps in covering_cases():
            memo = memos.setdefault(n, {})
            before = len(memo)
            sides = cantor._sides(n, family_of(n, sys.masks))
            rows = cantor._chain_rows(closure_map(sys, conv), sides, memo)
            shared += len(memo) < before + 3
            cl = oracles.closure_table(n, sys.masks, conv.value)
            for f in maps:
                bits = cantor._chain_bits(rows, f)
                expected = oracles.map_statements(f.image, cl, sys.masks, n)
                assert [bool(bits >> i & 1) for i in range(5)] == list(expected), (
                    sys, f.image
                )
        assert shared > 0


class TestPreservesUnfamily:
    def test_identity(self):
        assert preserves_unfamily(endo(G2, 0, 1), A2)

    def test_constant_zero(self):
        assert preserves_unfamily(endo(G2, 0, 0), A2)

    def test_constant_one_fails(self):
        assert not preserves_unfamily(endo(G2, 1, 1), A2)


class TestFibrationIntegrity:
    def test_identity(self):
        assert fibration_integrity(endo(G2, 0, 1), A2)

    def test_commuting_bijection_permutes_classes(self):
        t = SetSystem.of(G3, [[], [0], [1, 2], [0, 1, 2]])
        swap12 = endo(G3, 0, 2, 1)
        assert is_commutative_cantor(swap12, t)
        assert fibration_integrity(swap12, t)

    def test_mined_divergence_from_unfamily(self):
        # the two integrity readings come apart: the constant map keeps
        # complement-freeness but collapses fibration classes
        c0 = endo(G2, 0, 0)
        assert preserves_unfamily(c0, A2)
        assert not fibration_integrity(c0, A2)


class TestExplication:
    def test_identity_all_true(self):
        rec = explication_check(endo(G2, 0, 1), A2)
        assert rec.lhs and rec.rhs_system and rec.rhs_complement and rec.agree

    def test_bijections_on_two_points(self):
        rec_swap = explication_check(endo(G2, 1, 0), A2)
        assert rec_swap.lhs is False
        assert rec_swap.rhs_system is False
        assert rec_swap.rhs_complement is False
        assert rec_swap.agree

    def test_mined_constant_zero_disagreement(self):
        # the fixed disagreeing instance: not commutative, yet two-sided
        # over the system itself
        rec = explication_check(endo(G2, 0, 0), A2)
        assert rec.lhs is False
        assert rec.rhs_system is True
        assert not rec.agree

    @pytest.mark.parametrize(
        "order", [tuple(ClosureConvention), tuple(reversed(ClosureConvention))]
    )
    def test_one_system_under_each_convention_gets_its_own_table(self, monkeypatch, order):
        # nothing is kept with the system: each check builds the closure
        # table under its own convention, and the two tables' empty-set
        # cells differ on this system
        from hullflow import setsys

        a2 = SetSystem(A2.ground, A2.masks)  # an object no other check has read
        built = []
        closure_map_of = setsys.closure_map_of
        monkeypatch.setattr(
            setsys, "closure_map_of",
            lambda n, family, conv: built.append(conv) or closure_map_of(n, family, conv),
        )
        f = endo(G2, 0, 0)
        for conv in order:
            assert explication_check(f, a2, conv) == explication_check(f, a2, conv)
        assert built == [conv for conv in order for _ in range(2)]
        assert closure_map(a2, order[0]) != closure_map(a2, order[1])

    def test_function_on_another_ground(self):
        from hullflow.setsys import GroundMismatchError

        with pytest.raises(GroundMismatchError):
            explication_check(endo(G3, 0, 0, 0), A2)

    def test_constant_zero_confirmed_by_direct_enumeration(self):
        # independent confirmation over all four subsets
        c0 = endo(G2, 0, 0)
        compl = [G2.full_mask ^ m for m in A2.masks]
        disagreement = False
        for z in range(4):
            fam = [m for m in compl if m & z == z]
            cl_z = 0
            if fam:
                cl_z = fam[0]
                for m in fam[1:]:
                    cl_z &= m
            fz = c0.apply_mask(z)
            fam2 = [m for m in compl if m & fz == fz]
            cl_fz = 0
            if fam2:
                cl_fz = fam2[0]
                for m in fam2[1:]:
                    cl_fz &= m
            if c0.apply_mask(cl_z) != cl_fz:
                disagreement = True
        assert disagreement


class TestBijectionCoincidence:
    def test_exhaustive_three_points(self):
        for members in oracles.coverings(3):
            sys = SetSystem(G3, tuple(members))
            for image in itertools.permutations(range(3)):
                f = EndoFunction.of(G3, image)
                assert cantor_membership(f, sys, True) == cantor_membership(
                    f, sys, False
                )

    def test_randomized_four_points(self):
        import random

        rnd = random.Random(23)
        g4 = GroundSet(4)
        for _ in range(300):
            masks = [m for m in range(16) if rnd.random() < 0.5]
            masks.append(15)
            sys = SetSystem(g4, tuple(masks))
            image = list(range(4))
            rnd.shuffle(image)
            f = EndoFunction.of(g4, tuple(image))
            assert cantor_membership(f, sys, True) == cantor_membership(
                f, sys, False
            )


class TestPhaseChain:
    def test_identity_group(self):
        rec = phase_chain_check([Autobolism.identity(G3)], SetSystem.powerset(G3))
        assert rec.chain_holds and rec.commutes

    def test_swap_group_with_invariant_basis(self):
        swap01 = Autobolism.of(G3, [1, 0, 2])
        basis = SetSystem.of(G3, [[0, 1], [2]])
        rec = phase_chain_check([swap01], basis)
        assert rec.chain_holds
        assert all(rec.statements)

    def test_mined_chain_break(self):
        # system-side and complement-side memberships come apart for the
        # swap group on this covering
        sys = SetSystem.of(G3, [[0], [0, 1], [2]])
        swap01 = Autobolism.of(G3, [1, 0, 2])
        rec = phase_chain_check([swap01], sys)
        assert not rec.chain_holds
        assert rec.statements == (False, False, False, True, True)


class TestPhaseChainOverGenerators:
    # the chain is decided on the generators; the oracle lists the group
    # and takes each hull by its own scan of the complements

    def test_exhaustive_three_points(self):
        perms = [Autobolism.of(G3, p) for p in itertools.permutations(range(3))]
        gensets = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
        for members in oracles.coverings(3):
            sys = SetSystem(G3, tuple(members))
            for gens in gensets:
                for conv in ClosureConvention:
                    got = phase_chain_check(gens, sys, conv).statements
                    assert got == oracles.chain_statements(
                        3, sys.masks, gens, conv.value
                    ), (gens, sys)

    @pytest.mark.parametrize(
        "order", [tuple(ClosureConvention), tuple(reversed(ClosureConvention))]
    )
    def test_one_system_under_each_convention_in_turn(self, monkeypatch, order):
        # nothing is kept with a system: one system object checked under
        # one convention and then the other gets a closure table under each
        # convention, one per check.  On a covering system the two
        # conventions differ only at the empty set, and no statement of the
        # chain tells them apart, so the oracle alone cannot see a table
        # reused across them; the tables built can.
        from hullflow import setsys

        built = []
        closure_map_of = setsys.closure_map_of
        monkeypatch.setattr(
            setsys, "closure_map_of",
            lambda n, family, conv: (
                built.append((family, conv)) or closure_map_of(n, family, conv)
            ),
        )
        perms = [Autobolism.of(G3, p) for p in itertools.permutations(range(3))]
        systems = [SetSystem(G3, tuple(members)) for members in oracles.coverings(3)]
        for sys in systems:
            for conv in order:
                for g in perms:
                    got = phase_chain_check([g], sys, conv).statements
                    assert got == oracles.chain_statements(3, sys.masks, [g], conv.value), (
                        sys, conv, g,
                    )
        assert built == [
            (setsys.family_of(3, sys.masks), conv)
            for sys in systems for conv in order for _ in perms
        ]
        assert any(closure_map(sys, order[0]) != closure_map(sys, order[1]) for sys in systems)

    def test_randomized_four_points(self):
        import random

        rnd = random.Random(29)
        g4 = GroundSet(4)
        perms = list(itertools.permutations(range(4)))
        for _ in range(500):
            masks = [m for m in range(16) if rnd.random() < 0.5]
            if 15 not in masks:
                masks.append(15)
            sys = SetSystem(g4, tuple(masks))
            gens = [Autobolism.of(g4, p) for p in rnd.sample(perms, rnd.choice((1, 2)))]
            conv = rnd.choice(list(ClosureConvention))
            got = phase_chain_check(gens, sys, conv).statements
            assert got == oracles.chain_statements(4, sys.masks, gens, conv.value), (gens, sys)


class TestRepresentation:
    # B3_6's closed-set representation, read off family bitmasks, against
    # the oracle's frozensets

    def test_powerset_representation_holds(self):
        members = [[x for x in range(3) if m >> x & 1] for m in range(8)]
        doc = {"ground": 3, "systems": {"A": members}}
        assert check_theorem(TheoremId.B3_6, doc).status == "holds"
        assert oracles.represented(3, list(range(8)), "full")

    def test_mined_representation_failure(self):
        # the singleton partition already defeats the closed-set
        # representation: the class of the empty hull holds both extremes
        parts = SetSystem.of(G3, [[0], [1], [2]])
        doc = {"ground": 3, "systems": {"A": [[0], [1], [2]]}}
        assert check_theorem(TheoremId.B3_6, doc).status == "fails"
        assert not oracles.represented(3, parts.masks, "full")
        classes, _ = fibration_classes(closure_map(parts))
        assert classes[0] == (0, 1 << 0 | 1 << 0b111)  # shifted by its least cell, 0
        assert oracles.fibration(3, parts.masks, "full")[0] == [0, 0b111]
