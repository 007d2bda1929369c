"""Set-system algebra: hulls, elementarization, classification, fibration."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hullflow import cantor, kernels, setsys
from hullflow.setsys import (
    CapExceededError,
    ClosureConvention,
    GroundMismatchError,
    GroundSet,
    HullKind,
    MeetingFamilies,
    SetSystem,
    Subset,
    classify,
    closed_family,
    closure,
    closure_map,
    closure_map_of,
    closure_of,
    closure_tables_of,
    complement_family,
    elementarize,
    family_members,
    family_of,
    fibration_classes,
    hull,
    is_basis_of,
    is_partition,
    union_closure,
)
from hullflow.verify import TheoremId, check_theorem

FULL = ClosureConvention.FULL
NONEMPTY = ClosureConvention.NONEMPTY

G2 = GroundSet(2)
G3 = GroundSet(3)


def sub(ground, *elements):
    return Subset.of(ground, elements)


def system(ground, *families):
    return SetSystem.of(ground, families)


@pytest.fixture
def t_selfdual():
    # the running example: a self-dual non-discrete topology on three points
    return system(G3, [], [0], [1, 2], [0, 1, 2])


def systems_strategy(n, covering=False):
    ground = GroundSet(n)

    def build(mask_list):
        masks = list(mask_list)
        if covering:
            masks.append(ground.full_mask)
        return SetSystem(ground, tuple(masks))

    return st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), min_size=0, max_size=10
    ).map(build)


class TestSubset:
    def test_ground_mismatch(self):
        # a subset of another ground is rejected, not read as a mask
        with pytest.raises(GroundMismatchError):
            closure(system(G3, [0], [1, 2]), sub(G2, 0))

    def test_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Subset(G2, 0b100)

    @pytest.mark.parametrize("index", [-1, -2, 3, 5])
    def test_out_of_range_index(self, index):
        # worded as the instance parser words it, with no shift attempted
        with pytest.raises(ValueError) as err:
            Subset.of(G3, [0, index])
        assert str(err.value) == f"index {index} outside ground of size 3"

    def test_ground_bounds(self):
        with pytest.raises(ValueError):
            GroundSet(0)
        with pytest.raises(ValueError):
            GroundSet(65)


class TestSetSystem:
    def test_canonical_order_and_dedup(self):
        s = system(G2, [0, 1], [0], [0])
        assert s.masks == (0b01, 0b11)

    def test_equality_order_insensitive(self):
        assert system(G2, [0], [1]) == system(G2, [1], [0])

    def test_powerset_cap(self):
        with pytest.raises(CapExceededError):
            SetSystem.powerset(GroundSet(21))

    @pytest.mark.parametrize("bad", [[-1], [8], [-3, 9], [12, -2], [8, 1 << 70, -1]])
    def test_member_outside_the_ground_is_named(self, bad):
        # the first offender in input order, at the front, the back or
        # among valid members, whether or not it is the smallest or largest
        for at in range(4):
            masks = [0b101, 0b011, 0b111]
            masks[at:at] = bad
            with pytest.raises(ValueError) as err:
                SetSystem(G3, tuple(masks))
            assert str(err.value) == f"member 0x{bad[0]:x} outside ground of size 3"

    def test_unsorted_and_duplicate_members_are_canonicalized(self):
        rnd = random.Random(3)
        for _ in range(200):
            masks = [rnd.randrange(8) for _ in range(rnd.randrange(12))]
            s = SetSystem(G3, tuple(masks))
            assert s.masks == tuple(sorted(set(masks)))
            assert s == SetSystem(G3, tuple(reversed(masks)))

    def test_ascending_members_are_kept_and_range_checked(self):
        # a tuple of strictly ascending members is canonical and kept as it
        # is; a list, or a tuple with a repeat, is canonicalized; ascending
        # members are still checked against the ground
        masks = (0b001, 0b011, 0b110)
        assert SetSystem(G3, masks).masks is masks
        assert SetSystem(G3, list(masks)).masks == masks
        assert SetSystem(G3, (1, 1, 3)).masks == (1, 3)
        for bad, named in (((-1, 2), -1), ((1, 8), 8), ((0, 3, 1 << 70), 1 << 70)):
            with pytest.raises(ValueError) as err:
                SetSystem(G3, bad)
            assert str(err.value) == f"member 0x{named:x} outside ground of size 3"

    def test_covers_ground(self):
        s, gap = system(G3, [0], [1, 2]), system(G3, [0], [1])
        assert s.covers_ground() and not gap.covers_ground()
        assert pickle.loads(pickle.dumps(s)).covers_ground()


class TestHull:
    def test_closure_smallest_closed_superset(self, t_selfdual):
        assert closure(t_selfdual, sub(G3, 1)) == sub(G3, 1, 2)

    def test_interior_union_of_open_subsets(self, t_selfdual):
        # kind 000 unites the members contained in the argument
        assert hull(t_selfdual, HullKind(0, 0, 0), sub(G3, 0, 1)) == sub(G3, 0)

    def test_empty_intersection_is_empty(self):
        a = system(G2, [0], [0, 1])
        assert closure(a, sub(G2, 0)) == sub(G2)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            HullKind(2, 0, 0)

    def test_eight_kinds_consistent_with_direct_formula(self, t_selfdual):
        # cross-check every kind against a set-comprehension oracle
        masks = t_selfdual.masks
        compl = family_members(complement_family(3, family_of(3, t_selfdual.masks)))
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    src = compl if l else masks
                    for q in range(8):
                        fam = [
                            m
                            for m in src
                            if ((m & q == q) if k else (m & q == m))
                        ]
                        if not fam:
                            expect = 0
                        elif j:
                            expect = fam[0]
                            for m in fam[1:]:
                                expect &= m
                        else:
                            expect = 0
                            for m in fam:
                                expect |= m
                        got = hull(t_selfdual, HullKind(j, k, l), Subset(G3, q))
                        assert got.bits == expect, (j, k, l, q)

    def test_hull_map_matches_hull_per_subset(self):
        # the closure table against the single-subset route: every
        # system at n <= 2, seeded systems at n = 3..4
        small = [
            SetSystem(GroundSet(n), masks)
            for n in (1, 2)
            for r in range((1 << n) + 1)
            for masks in itertools.combinations(range(1 << n), r)
        ]
        rnd = random.Random(5)
        seeded = [
            SetSystem(
                GroundSet(n),
                tuple(m for m in range(1 << n) if rnd.random() < rnd.random()),
            )
            for n in (3, 4)
            for _ in range(60)
        ]
        for sys in small + seeded:
            ground = sys.ground
            for conv in (FULL, NONEMPTY):
                expect = [
                    closure(sys, Subset(ground, z), conv).bits
                    for z in range(1 << ground.size)
                ]
                assert list(closure_map(sys, conv)) == expect, (sys, conv)


def scanned_closure(n, members, z, conv):
    """The closure of z by kernels.hull_value over complements taken here,
    not through setsys."""
    full = (1 << n) - 1
    sources = [full ^ m for m in members if conv is FULL or m != full]
    return kernels.hull_value(sources, z, 1, 1)


class TestFamilyRoutes:
    # the shortcuts the sweeps take, against the per-subset scan they
    # replaced: the table of a family bitmask and the closure of one subset

    def test_family_bitmask_round_trip(self):
        rnd = random.Random(7)
        for n in range(1, 9):
            for _ in range(20):
                members = tuple(m for m in range(1 << n) if rnd.random() < 0.5)
                family = family_of(n, members)
                assert family == sum(1 << m for m in members)
                assert family_members(family) == members

    def test_family_table_matches_scan(self):
        rnd = random.Random(11)
        cases = [(n, members) for n in (1, 2, 3) for members in oracles.coverings(n)]
        cases += [
            (4, [m for m in range(16) if family >> m & 1])
            for family in (rnd.getrandbits(16) for _ in range(2000))
        ]
        # above n=4 the members are unpacked for the zeta transform
        cases += [
            (n, [m for m in range(1 << n) if rnd.random() < 0.5]) for n in (5, 6) for _ in range(20)
        ]
        expected = {}
        for n, members in cases:
            family = sum(1 << m for m in members)
            for conv in (FULL, NONEMPTY):
                expect = [scanned_closure(n, members, z, conv) for z in range(1 << n)]
                assert list(closure_map_of(n, family, conv)) == expect, (n, members, conv)
                expected.setdefault((n, conv), []).append((family, expect))
        # up to n=4 the run's tables come joined from one AND: the whole
        # case list of each n at once, then runs of 0, 1 and 64 families,
        # some of whose 64 consecutive bitmasks cross a high byte
        runs = []
        for n in (1, 2, 3, 4):
            for conv in (FULL, NONEMPTY):
                families, tables = zip(*expected[n, conv])
                joined = closure_tables_of(n, families, conv)
                assert list(joined) == [c for table in tables for c in table], (n, conv)
                runs += [(n, conv, families[:0]), (n, conv, families[:1])]
                runs.append((n, conv, families[-64:]))
        runs += [
            (4, conv, range(start, start + 64))
            for start in (0, 0x100 - 32, 0x8000 - 1, 0xFFFF - 63)
            for conv in (FULL, NONEMPTY)
        ]
        for n, conv, families in runs:
            expect = [
                scanned_closure(n, [m for m in range(1 << n) if family >> m & 1], z, conv)
                for family in families
                for z in range(1 << n)
            ]
            assert list(closure_tables_of(n, families, conv)) == expect, (n, conv, families)

    def test_single_subset_matches_table(self):
        # B = 0 is among the cases, and so is a B that every member meets,
        # whose hull is empty where none is disjoint from it
        cases = [
            (n, members, b)
            for n in (1, 2, 3)
            for members in oracles.coverings(n)
            for b in range(1 << n)
        ]
        rnd = random.Random(13)
        for _ in range(200):
            n = rnd.randint(5, 8)
            members = [m for m in range(1 << n) if rnd.random() < 0.5]
            cases.append((n, members, rnd.randrange(1 << n)))
        meets = {n: MeetingFamilies(n) for n in range(1, 9)}
        none_disjoint = 0
        for n, members, b in cases:
            sys = SetSystem(GroundSet(n), tuple(members))
            family = family_of(n, sys.masks)
            none_disjoint += all(m & b for m in members)
            for conv in (FULL, NONEMPTY):
                cell = closure_of(meets[n], family, b, conv)
                assert cell == closure_map(sys, conv)[b], (sys, b)
        assert none_disjoint

    def test_holding_and_meeting_families(self):
        for n in range(1, 11):
            holders = kernels.holding_families(n)
            assert holders == tuple(
                sum(1 << m for m in range(1 << n) if m >> x & 1) for x in range(n)
            )
            meets = MeetingFamilies(n)
            for q in random.Random(n).sample(range(1 << n), min(1 << n, 40)):
                assert meets[q] == sum(1 << m for m in range(1 << n) if m & q), (n, q)


class TestClosedFamily:
    def test_small_example(self):
        a = system(G2, [0], [0, 1])
        assert closed_family(a) == system(G2, [], [1])

    def test_self_dual_topology_closed_is_itself(self, t_selfdual):
        assert closed_family(t_selfdual) == t_selfdual

    def test_powerset_all_closed(self):
        p = SetSystem.powerset(G2)
        assert closed_family(p) == p

    def test_cap(self):
        big = SetSystem(GroundSet(21), (1,))
        with pytest.raises(CapExceededError):
            closed_family(big)


class TestElementarize:
    def test_selection_intersections(self, t_selfdual):
        assert elementarize(t_selfdual) == system(G3, [], [0], [1, 2])

    def test_partition_is_fixed(self):
        p = system(G3, [0], [1, 2])
        assert elementarize(p) == p

    @given(systems_strategy(3))
    @settings(max_examples=60)
    def test_empty_member_survives(self, s):
        # one direction is universal: an empty member yields an empty block
        if 0 in s.masks:
            assert 0 in elementarize(s).masks

    def test_empty_block_without_empty_member(self):
        # the converse direction fails: overlapping members can intersect to
        # nothing even though the empty set is not a member
        a = system(G2, [0], [0, 1], [1])
        e = elementarize(a)
        assert 0 in e.masks and 0 not in a.masks


class TestUnionClosure:
    def test_example(self):
        a = system(G3, [0], [1, 2])
        assert union_closure(a) == system(G3, [], [0], [1, 2], [0, 1, 2])

    def test_fixpoint(self, t_selfdual):
        assert union_closure(t_selfdual) == t_selfdual

    def test_basis(self, t_selfdual):
        b = system(G3, [0], [1, 2])
        assert is_basis_of(b, t_selfdual)
        assert is_basis_of(t_selfdual.without_empty(), t_selfdual)
        assert not is_basis_of(system(G3, [0]), t_selfdual)


class TestClassify:
    def test_self_dual_topology(self, t_selfdual):
        flags = classify(t_selfdual)
        assert flags.is_topology and flags.is_self_dual and not flags.is_t0

    def test_discrete(self):
        flags = classify(SetSystem.powerset(G3))
        assert flags.is_topology and flags.is_self_dual and flags.is_t0

    def test_partition_flag(self):
        assert classify(system(G3, [0], [1, 2])).is_partition
        assert not classify(system(G3, [0], [0, 1], [2])).is_partition

    def test_partition_flag_ignores_the_empty_member(self):
        assert classify(system(G3, [], [0], [1, 2])).is_partition
        assert not classify(system(G3, [], [0], [1])).is_partition

    def test_is_partition_against_pairwise_definition(self):
        # every family of subsets of a 3-set, in every member order
        full = G3.full_mask
        for bits in range(1 << 8):
            masks = [m for m in range(8) if bits >> m & 1]
            expected = (
                all(masks)
                and all(a & b == 0 for a, b in itertools.combinations(masks, 2))
                and sum(masks) == full
            )
            assert is_partition(masks, full) == expected, masks
            assert is_partition(reversed(masks), full) == expected, masks
        assert not is_partition([1, 1, 6], full)  # a repeated block overlaps itself

    def test_completeness(self):
        assert classify(system(G2, [], [0], [0, 1])).is_complete
        assert not classify(system(G2, [0], [0, 1])).is_complete

    def test_every_finite_quasitopology_is_a_topology(self):
        for n in (1, 2, 3):
            for members in oracles.families(n):
                s = SetSystem(GroundSet(n), tuple(members))
                flags = classify(s)
                if flags.is_quasitopology:
                    assert flags.is_topology, s

    def test_quasitopology_hull_laws(self, t_selfdual):
        cl = closure_map(t_selfdual)
        for a in range(8):
            for b in range(8):
                assert cl[a | b] & (cl[a] | cl[b]) == cl[a] | cl[b]
                assert cl[a & b] & ~(cl[a] & cl[b]) == 0
                assert cl[a | b] == cl[a] | cl[b]  # topology: union is exact

    def test_stronger_laws_fail_somewhere(self):
        union_gap = inter_gap = False
        for members in oracles.coverings(3):
            cl = closure_map(SetSystem(G3, tuple(members)))
            for a in range(8):
                for b in range(8):
                    if cl[a | b] & ~(cl[a] | cl[b]):
                        union_gap = True
                    if (cl[a] & cl[b]) & ~cl[a & b]:
                        inter_gap = True
            if union_gap and inter_gap:
                break
        assert union_gap and inter_gap


class TestIdempotence:
    @given(systems_strategy(4, covering=True))
    @settings(max_examples=80)
    def test_full_convention_idempotent_on_covering(self, s):
        cl = closure_map(s, FULL)
        assert all(cl[cl[z]] == cl[z] for z in range(len(cl)))

    def test_nonempty_convention_witness(self):
        # the fixed witness: hull of {0} is empty, but the hull of the empty
        # set is {1}, so iterating the hull moves
        a = system(G2, [0], [0, 1])
        cl = closure_map(a, NONEMPTY)
        assert cl[0b01] == 0
        assert cl[0] == 0b10
        assert cl[cl[0b01]] != cl[0b01]


class TestMonotonicity:
    @given(systems_strategy(4, covering=True), st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=120)
    def test_standard_direction(self, s, a, b):
        cl = closure_map(s, FULL)
        if cl[a]:
            assert cl[a] & a == a  # extensive once a closed superset exists
        small, large = a & b, a | b
        if cl[small] and cl[large]:
            assert cl[small] & ~cl[large] == 0  # monotone where defined


class TestTraceLemma:
    @given(systems_strategy(4, covering=True), st.integers(0, 15))
    @settings(max_examples=120)
    def test_hull_trace_meets_argument_full(self, s, b):
        cl = closure_map(s, FULL)
        for m in s.masks:
            x = m & cl[b]
            if x:
                assert x & b, (s, b, m)

    def test_nonempty_convention_empty_argument_gap(self):
        # with the empty complement member removed, the trace statement fails
        # for the empty argument: the hull of {} is nonempty, so its trace
        # has a nonempty member that the empty set cannot meet
        a = system(G2, [], [0], [0, 1])
        cl = closure_map(a, NONEMPTY)
        hull_empty = cl[0]
        assert hull_empty == 0b10
        assert any(m & hull_empty for m in a.masks)


def free_family(s, conv=FULL):
    """The subsets holding no nonempty member of `s`, ascending, as the
    library reads them: the complement-free family of the complement
    system of `s`, whose complement system is `s`.  It reads no
    convention."""
    n = s.ground.size
    return family_members(cantor._free_family(n, complement_family(n, family_of(n, s.masks))))


class TestUnOv:
    # the complement-free family (un_ov: the subsets holding no nonempty
    # member) is read off an up-closure; the oracle scans the members for
    # each subset

    def test_small_example(self):
        a = system(G2, [0], [0, 1])
        assert free_family(a) == tuple(oracles.free_subsets(2, a.masks)) == (0b00, 0b10)

    def test_partition_of_powerset(self):
        a = system(G3, [0], [0, 1], [2])
        free = free_family(a)
        assert free == tuple(oracles.free_subsets(3, a.masks)) == (0b000, 0b010)
        # the rest of the power set holds some nonempty member
        rest = set(range(8)) - set(free)
        assert all(any(m and m & z == m for m in a.masks) for z in rest)

    def test_powerset_un_trivial(self):
        powerset = SetSystem.powerset(G2)
        assert free_family(powerset) == tuple(oracles.free_subsets(2, powerset.masks)) == (0,)

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_every_family_up_to_three_points(self, conv):
        # it reads no convention
        for n in (1, 2, 3):
            for members in oracles.families(n):
                s = SetSystem(GroundSet(n), tuple(members))
                assert free_family(s, conv) == tuple(oracles.free_subsets(n, members))


def classes_of(s, conv=FULL):
    """The fibration of `s` as the library groups its closure table: each
    class key mapped to its cells, ascending, and its core."""
    classes, cores = fibration_classes(closure_map(s, conv))
    return {
        key: (tuple(least + i for i in family_members(cells)), cores[key])
        for key, (least, cells) in classes.items()
    }


def oracle_classes(s, conv=FULL):
    """The same from the oracle, which groups the subsets by their scanned
    closure."""
    fibration = oracles.fibration(s.ground.size, s.masks, conv.value)
    return {key: (tuple(cells), oracles.core(cells)) for key, cells in fibration.items()}


class TestProductFibration:
    # the fibration classes are grouped off the closure table as family
    # bitmasks with their cores; the oracle groups the subsets by their
    # scanned closure

    def test_powerset_classes_singletons(self):
        powerset = SetSystem.powerset(G2)
        classes = classes_of(powerset)
        assert classes == oracle_classes(powerset)
        assert all(cells == (key,) for key, (cells, _) in classes.items())
        assert oracles.represented(2, powerset.masks, "full")
        doc = {"ground": 2, "systems": {"A": [[], [0], [1], [0, 1]]}}
        assert check_theorem(TheoremId.B3_6, doc).status == "holds"

    def test_small_example(self):
        a = system(G2, [0], [0, 1])
        by_key = {key: cells for key, (cells, _) in classes_of(a).items()}
        assert classes_of(a) == oracle_classes(a)
        assert by_key == {0: (0b00, 0b01, 0b11), 0b10: (0b10,)}

    @given(systems_strategy(3, covering=True), st.sampled_from([FULL, NONEMPTY]))
    @settings(max_examples=60)
    def test_classes_partition_powerset(self, s, conv):
        classes = classes_of(s, conv)
        assert classes == oracle_classes(s, conv)
        seen = sorted(z for cells, _ in classes.values() for z in cells)
        assert seen == list(range(8))
        for cells, core in classes.values():
            assert core == oracles.core(cells)
