"""Attractors: free, topological, coherence variants, rooms, transport."""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

import oracles
from hullflow import attract, verify
from hullflow.attract import (
    CoherenceVariant,
    VariantUnsupportedError,
    free_attractors,
    pre_rooms,
    room_report,
    saturation_coherent,
    topological_attractors,
    transport,
)
from hullflow.cantor import is_commutative_cantor
from hullflow.dynsys import Autobolism, DiscreteFlow, invariant_sets
from hullflow.instances import Instance
from hullflow.setsys import (
    ClosureConvention,
    GroundSet,
    SetSystem,
    Subset,
    closure_map,
)
from hullflow.verify import TheoremId, check_theorem, sweep

G2 = GroundSet(2)
G3 = GroundSet(3)
G4 = GroundSet(4)


@pytest.fixture
def swap01_flow():
    return DiscreteFlow.cyclic(Autobolism.of(G3, [1, 0, 2]))


class TestInvariantSets:
    def test_unions_of_blocks(self, swap01_flow):
        assert invariant_sets(swap01_flow) == SetSystem.of(
            G3, [[0, 1], [2], [0, 1, 2]]
        )

    def test_transitive(self):
        rot = DiscreteFlow.cyclic(Autobolism.of(G3, [1, 2, 0]))
        assert invariant_sets(rot) == SetSystem.of(G3, [[0, 1, 2]])

    def test_identity(self):
        ident = DiscreteFlow.cyclic(Autobolism.identity(G2))
        assert invariant_sets(ident) == SetSystem.of(G2, [[0], [1], [0, 1]])


class TestFreeAttractors:
    def test_orbit_is_attractive(self, swap01_flow):
        [family] = free_attractors(swap01_flow, SetSystem.powerset(G3))
        assert Subset.of(G3, [0, 1]).bits in family.masks

    def test_whole_space_fails(self, swap01_flow):
        [family] = free_attractors(swap01_flow, SetSystem.powerset(G3))
        assert Subset.of(G3, [0, 1, 2]).bits not in family.masks

    def test_fixed_singleton(self, swap01_flow):
        [family] = free_attractors(swap01_flow, SetSystem.powerset(G3))
        assert Subset.of(G3, [2]).bits in family.masks

    def test_powerset_covering_yields_orbit_partition(self, swap01_flow):
        [family] = free_attractors(swap01_flow, SetSystem.powerset(G3))
        assert family == SetSystem.of(G3, [[0, 1], [2]])

    def test_block_refined_covering(self, swap01_flow):
        covering = SetSystem.of(G3, [[0, 1], [2], [0, 1, 2]])
        [family] = free_attractors(swap01_flow, covering)
        assert family == SetSystem.of(G3, [[0, 1], [2]])

    def test_orbit_blocks_always_attractive(self):
        # one inclusion is universal: every orbit block passes the
        # coherence criterion under any covering
        from hullflow.dynsys import orbit_partition

        rnd = random.Random(5)
        for _ in range(50):
            n = rnd.choice((3, 4))
            ground = GroundSet(n)
            image = list(range(n))
            rnd.shuffle(image)
            flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
            masks = [m for m in range(1 << n) if rnd.random() < 0.5]
            masks.append(ground.full_mask)
            covering = SetSystem(ground, tuple(masks))
            [attractors] = free_attractors(flow, covering)
            for block in orbit_partition(flow).masks:
                assert block in attractors.masks

    def test_orbit_subset_covering_gives_orbit_partition(self):
        # when the covering holds every subset of every orbit, the free
        # attractors are exactly the orbit blocks
        from hullflow.dynsys import orbit_partition

        rnd = random.Random(6)
        for _ in range(40):
            n = rnd.choice((3, 4))
            ground = GroundSet(n)
            image = list(range(n))
            rnd.shuffle(image)
            flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
            orbits = orbit_partition(flow).masks
            members = {q for q in range(1 << n) if any(q & o == q for o in orbits)}
            members.add(ground.full_mask)
            for _ in range(rnd.randrange(0, 4)):
                members.add(rnd.randrange(1 << n))
            covering = SetSystem(ground, tuple(members))
            assert free_attractors(flow, covering) == (orbit_partition(flow),)

    def test_contains_an_orbit_premise_insufficient(self):
        # mined: members that merely contain a full orbit may straddle a
        # second one, letting an orbit union cohere
        ground = GroundSet(4)
        flow = DiscreteFlow.cyclic(Autobolism.of(ground, [1, 0, 3, 2]))
        covering = SetSystem.of(ground, [[0, 1, 2], [2, 3], [0, 1, 2, 3]])
        [attractors] = free_attractors(flow, covering)
        assert ground.full_mask in attractors.masks

    def test_covering_must_cover(self, swap01_flow):
        with pytest.raises(ValueError):
            free_attractors(swap01_flow, SetSystem.of(G3, [[0]]))

    def test_family_against_group_oracle(self):
        # every generator set of size one or two and every covering system
        # on up to three points: the attractor family is the set of
        # invariant sets whose trace coheres under the listed group
        for n in (1, 2, 3):
            ground = GroundSet(n)
            perms = [Autobolism.of(ground, p) for p in itertools.permutations(range(n))]
            coverings = [SetSystem(ground, tuple(c)) for c in oracles.coverings(n)]
            for gens in [(p,) for p in perms] + list(itertools.combinations(perms, 2)):
                elements = oracles.group(gens)
                tables = oracles.mask_tables(elements)
                invariant = [
                    m for m in range(1, 1 << n)
                    if all(oracles.image(g.image, m) == m for g in gens)
                ]
                flow = DiscreteFlow.of_group(gens)
                for covering in coverings:
                    expected = tuple(
                        m for m in invariant
                        if oracles.trace_coherent(
                            tables, sorted({c & m for c in covering.masks} - {0})
                        )
                    )
                    for conv in ClosureConvention:
                        [got] = free_attractors(flow, covering, conv)
                        assert got.masks == expected, (gens, covering, conv)


CONVENTIONAL, WEAK = CoherenceVariant.CONVENTIONAL, CoherenceVariant.WEAK

#: The variant tuples asked for: each criterion alone, and every variant
#: in both orders.
VARIANT_TUPLES = [
    (CONVENTIONAL,), (WEAK,), tuple(CoherenceVariant), tuple(reversed(CoherenceVariant)),
]


def _clear_memos():
    attract._weakly_coherent.cache_clear()


def incidence_key(gens, members):
    """The (k, block-incidence family) of the flow of `gens` and the
    covering `members`, from the oracle's orbits: for each member, the
    set of the indices of the orbits it meets, kept when nonempty, as a
    family bitmask."""
    blocks = oracles.orbits(gens)
    family = 0
    for m in members:
        indices = sum(1 << i for i, block in enumerate(blocks) if block & m)
        if indices:
            family |= 1 << indices
    return len(blocks), family


class TestCoherenceMemos:
    # the conventional families come from the block-incidence family,
    # decided once per (k, block-incidence family) in a sweep's memo, and
    # the weak criterion is decided once per key while its memo holds it:
    # the families must be those of the plain definition, whatever the
    # memos already hold

    @staticmethod
    def _compare(flow, gens, covering, conv, memo):
        n = flow.ground.size
        conventional, weak = oracles.attractors(n, gens, covering.masks, conv.value)
        for variants in VARIANT_TUPLES:
            if not flow.is_cyclic and variants != (CONVENTIONAL,) and variants != (WEAK,):
                with pytest.raises(VariantUnsupportedError):
                    free_attractors(flow, covering, conv, variants)
                continue
            want = tuple(tuple(weak if v is WEAK else conventional) for v in variants)
            got = free_attractors(flow, covering, conv, variants)
            assert tuple(f.masks for f in got) == want, (gens, covering, conv, variants)
            # a sweep's memo, shared by every case of the test, and the
            # covering's members and closure table
            table = closure_map(covering, conv)
            got = attract._free_attractors(flow, covering.masks, table, variants, memo)
            assert got == want, (gens, covering, conv, variants)

    def test_families_match_the_plain_definition(self):
        # every cycle and every generator set of size one or two, every
        # covering, both conventions, on up to three points
        memo = {}
        for n in (1, 2, 3):
            ground = GroundSet(n)
            perms = [Autobolism.of(ground, p) for p in itertools.permutations(range(n))]
            gensets = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
            flows = [(DiscreteFlow.cyclic(p), (p,)) for p in perms]
            flows += [(DiscreteFlow.of_group(gens), gens) for gens in gensets]
            coverings = [SetSystem(ground, tuple(c)) for c in oracles.coverings(n)]
            for flow, gens in flows:
                for covering in coverings:
                    for conv in ClosureConvention:
                        self._compare(flow, gens, covering, conv, memo)

    def test_seeded_families_match_the_plain_definition(self):
        rnd = random.Random(20)
        memo = {}
        for _ in range(300):
            n = rnd.randint(4, 6)
            ground = GroundSet(n)
            gens = []
            for _ in range(rnd.choice((1, 2))):
                image = list(range(n))
                rnd.shuffle(image)
                gens.append(Autobolism.of(ground, image))
            cyclic = len(gens) == 1 and rnd.random() < 0.5
            flow = DiscreteFlow.cyclic(gens[0]) if cyclic else DiscreteFlow.of_group(gens)
            masks = [m for m in range(1 << n) if rnd.random() < 0.3] + [ground.full_mask]
            covering = SetSystem(ground, tuple(masks))
            self._compare(flow, gens, covering, rnd.choice(list(ClosureConvention)), memo)

    def test_chain_sweep_decides_each_key_once(self, monkeypatch):
        # an n=3 CHAIN_karrenk sweep decides 1,090 conventional families
        # (5 orbit partitions x 218 coverings) from 115 distinct (k,
        # block-incidence family) keys, each once; and it asks 3,706 weak
        # questions, 1,187 of them distinct (pre-rooms, trace) keys, all
        # within the weak memo's fixed bound
        assert attract._weakly_coherent.cache_info().maxsize == attract.COHERENCE_MEMO == 4096
        keys = []
        index_sets = attract._coherent_index_sets
        monkeypatch.setattr(
            attract, "_coherent_index_sets", lambda *key: keys.append(key) or index_sets(*key)
        )
        expected = {
            incidence_key([p], c)
            for p in itertools.permutations(range(3))
            for c in oracles.coverings(3)
        }
        assert len(expected) == 115
        for conv in ClosureConvention:
            _clear_memos()
            del keys[:]
            sweep(TheoremId.CHAIN_karrenk, 3, "exhaustive", conv=conv)
            assert sorted(keys) == sorted(expected)
            weak = attract._weakly_coherent.cache_info()
            assert (weak.misses, weak.hits) == (1187, 3706 - 1187)

    def test_seeded_flows_decide_each_key_once(self):
        # on four points, where a trace's sets need not come out of a set in
        # ascending order: one weak miss per distinct (pre-rooms, trace
        # sets); on five and six points the memo is not asked
        rnd = random.Random(21)
        _clear_memos()
        weak = set()
        for _ in range(300):
            n = rnd.randint(4, 6)
            ground = GroundSet(n)
            image = list(range(n))
            rnd.shuffle(image)
            flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
            masks = [m for m in range(1 << n) if rnd.random() < 0.3] + [ground.full_mask]
            covering = SetSystem(ground, tuple(masks))
            free_attractors(flow, covering, variants=(CONVENTIONAL, WEAK))
            if n > attract.MEMO_POINTS:
                continue
            blocks = frozenset(oracles.orbits([image]))
            cl = oracles.closure_table(n, covering.masks, "full")
            rooms = frozenset(cl[b] for b in blocks)
            for theta in invariant_sets(flow).masks:
                trace = frozenset(m & theta for m in covering.masks) - {0}
                weak.add((rooms, trace))
        assert attract._weakly_coherent.cache_info().misses == len(weak)

    @staticmethod
    def _held_by_memos(run) -> int:
        """The bytes the weak memo holds after `run()`: what clearing it
        frees."""
        _clear_memos()
        gc.collect()
        tracemalloc.start()
        try:
            run()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            _clear_memos()
            gc.collect()
            return before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_random_sweep_leaves_the_memos_at_most_full(self):
        # on four points a key is a few small ints, so the weak memo full
        # holds about 1 MB (0.98 MB measured)
        infos = []

        def run():
            rep = sweep(TheoremId.CHAIN_karrenk, 4, "random", samples=3000, seed=0)
            assert rep.instance_count == 3000
            infos.append(attract._weakly_coherent.cache_info())

        assert attract.MEMO_POINTS == 4
        assert self._held_by_memos(run) < 2_000_000
        [info] = infos
        assert info.misses > info.maxsize == info.currsize

    def test_random_sweep_on_ten_points_keeps_nothing(self, monkeypatch):
        # a system on ten points has about 2^9 members, so a trace may hold
        # hundreds of masks: such weak keys rarely repeat and are not kept;
        # and a random sweep hands the conventional families a memo of each
        # draw's own, empty on entry
        infos, memos, sizes = [], [], []
        families = verify._free_attractors

        def counted(*a):
            memos.append(a[4])
            sizes.append(len(a[4]))
            return families(*a)

        monkeypatch.setattr(verify, "_free_attractors", counted)

        def run():
            for theorem in (TheoremId.CHAIN_karrenk, TheoremId.B3_4):
                rep = sweep(theorem, 10, "random", samples=6, seed=0)
                assert rep.instance_count == 6
            infos.append(attract._weakly_coherent.cache_info())

        # clearing an empty memo frees at most allocator noise
        assert abs(self._held_by_memos(run)) < 1024
        assert [(i.hits, i.misses, i.currsize) for i in infos] == [(0, 0, 0)]
        # every memo is kept alive here, so distinct ids are distinct dicts
        assert memos and sizes == [0] * len(memos)
        assert len({id(memo) for memo in memos}) == len(memos)

    def test_memos_keep_no_flow_or_system_alive(self):
        # the keys are tuples of ints
        flow = DiscreteFlow.cyclic(Autobolism.of(G3, [1, 0, 2]))
        covering = SetSystem.of(G3, [[0], [0, 1], [2]])
        free_attractors(flow, covering, variants=tuple(CoherenceVariant))
        dropped = [weakref.ref(flow), weakref.ref(covering)]
        del flow, covering
        gc.collect()
        assert [ref() for ref in dropped] == [None, None]


class TestTopologicalAttractors:
    def test_single_topology_literal_reading(self):
        t = SetSystem.of(G3, [[], [0], [1, 2], [0, 1, 2]])
        p = SetSystem.powerset(G3)
        out = topological_attractors([t], p, p)
        assert out == SetSystem(G3, tuple(range(1, 8)))

    def test_empty_set_never_attractive(self):
        t = SetSystem.powerset(G2)
        out = topological_attractors([t], t, t)
        assert 0 not in out.masks

    def test_trivial_common_family(self):
        t1 = SetSystem.of(G2, [[]])
        t2 = SetSystem.of(G2, [[], [0]])
        ground_cover = SetSystem.powerset(G2)
        assert (
            topological_attractors([t1, t2], ground_cover, ground_cover).masks == ()
        )

    def test_disjoint_families_empty(self):
        t1 = SetSystem.of(G2, [[0]])
        t2 = SetSystem.of(G2, [[1]])
        p = SetSystem.powerset(G2)
        assert topological_attractors([t1, t2], p, p).masks == ()


def _mono_oracle(flow, covering, chi, increasing):
    """Independent monotone check: scan a window of explicit powers far out
    in time rather than using periodicity; the period and the powers come
    from the oracle's image tuples, not from the library."""
    gen = flow.generator.image
    period = oracles.period(gen)
    horizon = 10 * period
    times = range(horizon, horizon + period) if increasing else range(-horizon - period, -horizon)
    trace = sorted({m & chi for m in covering.masks} - {0})
    for a in trace:
        for b in trace:
            hit = False
            for t in times:
                img = oracles.image(oracles.power(gen, t), a)
                if img & b:
                    hit = True
                    break
            if not hit:
                return False
    return True


class TestSaturationCoherence:
    def test_trace_coherent_oracle(self):
        # saturation by orbit blocks against the scan over all group tables
        rnd = random.Random(5)
        for _ in range(400):
            n = rnd.choice((2, 3, 4))
            ground = GroundSet(n)
            perms = list(itertools.permutations(range(n)))
            gens = [Autobolism.of(ground, p) for p in rnd.sample(perms, rnd.choice((1, 2)))]
            tables = oracles.mask_tables(oracles.group(gens))
            blocks = DiscreteFlow.of_group(gens).orbit_blocks()
            trace = rnd.sample(range(1, 1 << n), rnd.randint(1, min(5, (1 << n) - 1)))
            assert saturation_coherent(blocks, trace) == (
                oracles.trace_coherent(tables, trace)
            ), (gens, trace)


class TestCoherenceVariants:
    def test_conventional_example(self, swap01_flow):
        [family] = free_attractors(
            swap01_flow, SetSystem.powerset(G3), variants=(CoherenceVariant.CONVENTIONAL,)
        )
        assert Subset.of(G3, [0, 1]).bits in family.masks

    def test_mono_equals_conventional_brute_force(self):
        # dual route: the periodicity shortcut against the long-window oracle
        rnd = random.Random(11)
        for _ in range(40):
            n = rnd.choice((2, 3))
            ground = GroundSet(n)
            image = list(range(n))
            rnd.shuffle(image)
            flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
            masks = [m for m in range(1 << n) if rnd.random() < 0.5]
            masks.append(ground.full_mask)
            covering = SetSystem(ground, tuple(masks))
            families = free_attractors(
                flow, covering,
                variants=(CoherenceVariant.MONO_PLUS, CoherenceVariant.MONO_MINUS),
            )
            for chi in invariant_sets(flow).masks:
                for family, increasing in zip(families, (True, False)):
                    got = chi in family.masks
                    want = _mono_oracle(flow, covering, chi, increasing)
                    assert got == want

    def test_mono_rejected_on_group_flows(self):
        flow = DiscreteFlow.of_group(
            [Autobolism.of(G3, [1, 0, 2]), Autobolism.of(G3, [0, 2, 1])]
        )
        with pytest.raises(VariantUnsupportedError):
            free_attractors(
                flow, SetSystem.powerset(G3), variants=(CoherenceVariant.MONO_PLUS,)
            )

    def test_inclusion_chain_on_powerset(self):
        # weak >= conventional = mono on the power-set covering
        for n in (2, 3):
            ground = GroundSet(n)
            p = SetSystem.powerset(ground)
            for image in itertools.permutations(range(n)):
                flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
                families = free_attractors(flow, p, variants=tuple(CoherenceVariant))
                sets = {
                    variant: set(family.masks)
                    for variant, family in zip(CoherenceVariant, families)
                }
                assert sets[CoherenceVariant.WEAK] >= sets[CoherenceVariant.CONVENTIONAL]
                assert (
                    sets[CoherenceVariant.CONVENTIONAL]
                    == sets[CoherenceVariant.MONO_PLUS]
                    == sets[CoherenceVariant.MONO_MINUS]
                )

    def test_chain_breaks_under_hungry_hulls(self):
        # mined boundary case: when an orbit has no closed superset, its
        # pre-room is empty and the weak criterion loses the conventional
        # attractor, so the chain inclusion fails
        covering = SetSystem.of(G2, [[0], [0, 1]])
        flow = DiscreteFlow.cyclic(Autobolism.of(G2, [1, 0]))
        chi = Subset.of(G2, [0, 1]).bits
        conventional, weak = free_attractors(
            flow, covering, variants=(CoherenceVariant.CONVENTIONAL, CoherenceVariant.WEAK)
        )
        assert chi in conventional.masks
        assert chi not in weak.masks


class TestPreRooms:
    def test_powerset_rooms_are_orbits(self, swap01_flow):
        rooms, verdict = pre_rooms(swap01_flow, SetSystem.powerset(G3))
        assert rooms == SetSystem.of(G3, [[0, 1], [2]])
        assert verdict

    def test_block_covering(self, swap01_flow):
        covering = SetSystem.of(G3, [[0, 1], [2], [0, 1, 2]])
        rooms, verdict = pre_rooms(swap01_flow, covering)
        assert rooms == SetSystem.of(G3, [[0, 1], [2]])
        assert verdict

    def test_overlapping_rooms_found(self):
        # size-3 instance whose orbit closures overlap without coinciding
        flow = DiscreteFlow.cyclic(Autobolism.identity(G3))
        covering = SetSystem.of(G3, [[0], [0, 1], [2]])
        rooms, verdict = pre_rooms(flow, covering)
        assert rooms == SetSystem.of(G3, [[1], [0, 1], [2]])
        assert not verdict


class TestTransport:
    def test_identity_relabel(self, swap01_flow):
        covering = SetSystem.powerset(G3)
        new_flow, new_sys = transport(swap01_flow, covering, Autobolism.identity(G3))
        assert new_flow.generator == swap01_flow.generator
        assert new_sys == covering

    def test_conjugating_swap_by_rotation(self, swap01_flow):
        rot = Autobolism.of(G3, [1, 2, 0])
        new_flow, _ = transport(swap01_flow, SetSystem.powerset(G3), rot)
        assert new_flow.generator == Autobolism.of(G3, [0, 2, 1])

    def test_attractor_covariance_randomized(self):
        rnd = random.Random(17)
        for _ in range(60):
            n = rnd.choice((2, 3, 4))
            ground = GroundSet(n)
            image = list(range(n))
            rnd.shuffle(image)
            flow = DiscreteFlow.cyclic(Autobolism.of(ground, image))
            masks = [m for m in range(1 << n) if rnd.random() < 0.5]
            masks.append(ground.full_mask)
            covering = SetSystem(ground, tuple(masks))
            relabel_img = list(range(n))
            rnd.shuffle(relabel_img)
            relabel = Autobolism.of(ground, relabel_img)
            moved_flow, moved_sys = transport(flow, covering, relabel)
            [original] = free_attractors(flow, covering)
            [moved] = free_attractors(moved_flow, moved_sys)
            expected = SetSystem(
                ground, tuple(relabel.apply_mask(m) for m in original.masks)
            )
            assert moved == expected


def _commutes(flow, sys):
    """Whether every generator of the flow commutes with the system's hull."""
    return all(is_commutative_cantor(g, sys) for g in flow.generators())


def _instance(flow, sys):
    """A claim instance holding the flow `phi` and the system `A`."""
    return Instance(
        flow.ground, systems={"A": sys}, permutations={"g": flow.generator},
        flows={"phi": flow},
    )


class TestClosureCommutationReport:
    def test_powerset_all_good(self, swap01_flow):
        sys = SetSystem.powerset(G3)
        cl = closure_map(sys)
        rep = room_report(swap01_flow, cl)
        assert _commutes(swap01_flow, sys) and rep.partition
        assert rep.invariant and rep.attractors
        assert check_theorem(TheoremId.S3_3, _instance(swap01_flow, sys)).status == "holds"

    def test_room_invariance_against_pointwise_oracle(self):
        # every generator set of size one or two and every covering system
        # on up to three points: the rooms are invariant exactly when every
        # generator maps each of them onto itself
        for n in (1, 2, 3):
            ground = GroundSet(n)
            perms = [Autobolism.of(ground, p) for p in itertools.permutations(range(n))]
            for gens in [(p,) for p in perms] + list(itertools.combinations(perms, 2)):
                flow = DiscreteFlow.of_group(gens)
                for c in oracles.coverings(n):
                    rep = room_report(flow, closure_map(SetSystem(ground, tuple(c))))
                    assert rep.invariant == all(
                        oracles.image(g.image, r) == r for g in gens for r in rep.rooms.masks
                    ), (gens, c)

    def test_invariant_block_covering(self, swap01_flow):
        covering = SetSystem.of(G3, [[0, 1], [2], [0, 1, 2]])
        cl = closure_map(covering)
        assert _commutes(swap01_flow, covering)
        assert room_report(swap01_flow, cl).rooms == SetSystem.of(G3, [[0, 1], [2]])

    def test_mined_commutation_counterexample(self):
        # commuting flow whose rooms fail to partition: the core finding
        # behind the red sweep of the commutation theorem
        flow = DiscreteFlow.cyclic(Autobolism.identity(G3))
        sys = SetSystem.of(G3, [[0], [0, 1], [2]])
        cl = closure_map(sys)
        assert _commutes(flow, sys)
        assert not room_report(flow, cl).partition
        assert check_theorem(TheoremId.S3_3, _instance(flow, sys)).status == "fails"

    def test_mined_invariance_vs_attractors_counterexample(self):
        # invariant rooms that are not attractors: two closed sets isolate
        # pieces of different orbits inside one room
        sys = SetSystem.of(G3, [[], [0, 1], [1], [1, 2]])
        flow = DiscreteFlow.cyclic(Autobolism.of(G3, [1, 0, 2]))
        rep = room_report(flow, closure_map(sys))
        assert rep.invariant is True
        assert rep.attractors is False
        assert check_theorem(TheoremId.B3_4, _instance(flow, sys)).status == "fails"

    def test_mined_attractors_need_not_be_room_unions(self):
        # even when every room is an attractor, the attractors of the closed
        # family can contain sets that are no union of rooms: the invariant
        # singleton {0} coheres although its own closure is {0,1}
        from hullflow.setsys import closed_family, union_closure

        sys = SetSystem.of(G3, [[0, 1], [2]])
        flow = DiscreteFlow.cyclic(Autobolism.identity(G3))
        rep = room_report(flow, closure_map(sys))
        assert rep.rooms == SetSystem.of(G3, [[0, 1], [2]])
        assert rep.attractors is True
        [attractors] = free_attractors(flow, closed_family(sys))
        assert Subset.of(G3, [0]).bits in attractors.masks
        assert Subset.of(G3, [0]).bits not in union_closure(rep.rooms).masks
