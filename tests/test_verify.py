"""Sweep engine: enumeration, checkers, determinism, witness replay."""

import concurrent.futures
import importlib.util
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import tracemalloc

import pytest

import oracles
from hullflow import attract, cantor, kernels, setsys, verify
from hullflow.instances import Instance
from hullflow.setsys import ClosureConvention, GroundSet, SetSystem
from hullflow.verify import (
    CLAIMS,
    PROVED_CLEAN,
    Claim,
    SizeLimitError,
    TheoremId,
    Verdict,
    check_theorem,
    enum_topologies,
    sweep,
)

FULL = ClosureConvention.FULL
NONEMPTY = ClosureConvention.NONEMPTY


T_SELFDUAL = {
    "ground": 3,
    "systems": {"T": [[], [0], [1, 2], [0, 1, 2]]},
}


#: The exhaustive space of each claim, as an `oracles.instance_space` kind.
SPACE_KINDS = {
    TheoremId.S1_1: "topologies",
    TheoremId.K1_2: "topologies",
    TheoremId.L1_3: "gensets_subsets",
    TheoremId.S2_2: "topologies_gensets",
    TheoremId.B2_3d: "cycles_powerset",
    TheoremId.L3_1: "systems_subsets",
    TheoremId.B3_2: "systems_gensets",
    TheoremId.S3_3: "systems_gensets",
    TheoremId.B3_4: "systems_gensets",
    TheoremId.B3_6: "systems",
    TheoremId.B3_7: "systems_functions",
    TheoremId.S3_8_bij: "systems_bijections",
    TheoremId.S3_8_all: "systems_functions",
    TheoremId.K3_9: "systems_gensets",
    TheoremId.B3_10: "systems_bijections",
    TheoremId.COVAR: "relabelings",
    TheoremId.CHAIN_karrenk: "cycles_coverings",
    TheoremId.IDEM_ydwed: "systems",
}


def closed_form_size(kind, n):
    """The number of instances of a space, from the closed-form counts of
    its factors."""
    perms = math.factorial(n)
    coverings = oracles.covering_count(n)
    topologies = oracles.count_preorders(n)
    gensets = perms + math.comb(perms, 2)
    return {
        "topologies": topologies,
        "systems": coverings,
        "systems_subsets": coverings << n,
        "gensets_subsets": gensets * ((1 << n) - 1),
        "topologies_gensets": topologies * gensets,
        "systems_gensets": coverings * gensets,
        "cycles_powerset": perms,
        "cycles_coverings": perms * coverings,
        "systems_functions": coverings * n**n,
        "systems_bijections": coverings * perms,
        "relabelings": perms * coverings * perms,
    }[kind]


def family_bitmask(members):
    """The family bitmask of a list of member masks: bit m set when m is a
    member."""
    return sum(1 << m for m in members)


class TestEnumeration:
    # the spaces take their systems from verify._covering_families and
    # their self-maps from verify._maps

    def test_covering_families_one_point(self):
        # {{0}} and {{}, {0}}
        assert list(verify._covering_families(1)) == [0b10, 0b11]

    def test_all_families_two_points(self):
        # the covering families are the oracle's families whose union is
        # the ground, in the same order
        families = oracles.families(2)
        assert len(families) == 16
        covering = [f for f in families if all(any(m >> x & 1 for m in f) for x in (0, 1))]
        assert list(verify._covering_families(2)) == list(map(family_bitmask, covering))

    def test_covering_at_most_total(self):
        for n in (1, 2, 3):
            assert len(verify._covering_families(n)) <= len(oracles.families(n))

    def test_covering_count_matches_inclusion_exclusion(self):
        for n in (1, 2, 3):
            got = list(verify._covering_families(n))
            assert got == list(map(family_bitmask, oracles.coverings(n)))
            assert len(got) == oracles.covering_count(n)

    def test_size_limit(self):
        # a space over systems is capped where its families are
        with pytest.raises(SizeLimitError):
            CLAIMS[TheoremId.IDEM_ydwed].space(5, FULL)

    def test_functions(self):
        assert len(verify._maps(2)) == 4
        assert len(verify._maps(2, bijective_only=True)) == 2
        assert list(verify._maps(3)) == list(itertools.product(range(3), repeat=3))
        assert list(verify._maps(3, bijective_only=True)) == list(
            itertools.permutations(range(3))
        )

    def test_function_order(self):
        assert verify._maps(3)[0] == (0, 0, 0)
        assert verify._maps(3, bijective_only=True)[0] == (0, 1, 2)

    def test_topology_counts_against_preorder_oracle(self):
        for n in (1, 2, 3):
            assert sum(1 for _ in enum_topologies(n)) == oracles.count_preorders(n)

    def test_frozen_topology_counts(self):
        assert sum(1 for _ in enum_topologies(2)) == 4
        assert sum(1 for _ in enum_topologies(3)) == 29


class TestIndexedSpaces:
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_order_against_nested_loops(self, theorem):
        kind = SPACE_KINDS[theorem]
        for n in range(1, min(3, CLAIMS[theorem].max_exhaustive_n) + 1):
            for conv in (FULL, NONEMPTY):
                space = CLAIMS[theorem].space(n, conv)
                assert len(space) == closed_form_size(kind, n), n
                listed = oracles.instance_space(kind, n, conv.value)
                assert [space.at(o).to_dict() for o in range(len(space))] == listed, n

    def test_covering_systems_at_four_points(self):
        space = CLAIMS[TheoremId.IDEM_ydwed].space(4, FULL)
        assert len(space) == oracles.covering_count(4) == 64594
        listed = oracles.instance_space("systems", 4, "full")
        assert [space.at(o).to_dict() for o in range(len(space))] == listed

    def test_ordinals_out_of_range(self):
        space = CLAIMS[TheoremId.B3_7].space(2, FULL)
        for ordinal in (-1, len(space)):
            with pytest.raises(IndexError):
                space.at(ordinal)

    def test_covering_families_over_the_cap(self):
        with pytest.raises(SizeLimitError):
            verify._covering_families(5)


class TestTwoRoutes:
    # a sweep hands the checker body the factor values its space indexes;
    # check_theorem unpacks the same values from an instance
    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_sweep_verdicts_match_check_theorem(self, theorem, conv):
        claim = CLAIMS[theorem]
        for n in (1, 2):
            ground, space = GroundSet(n), claim.space(n, conv)
            counts = {"holds": 0, "fails": 0, "skipped": 0}
            witnesses = []
            for ordinal, values in verify._exhaustive_instances(theorem, n, conv, 0, 1):
                replay = check_theorem(theorem, space.at(ordinal), conv)
                verdict = claim.check(ground, values, conv)
                assert (verdict.status, verdict.note) == (replay.status, replay.note), ordinal
                counts[replay.status] += 1
                if replay.status == "fails":
                    witnesses.append(
                        {"ordinal": ordinal, "instance": replay.witness, "note": replay.note}
                    )
            rep = sweep(theorem, n, "exhaustive", conv=conv, max_counterexamples=len(space))
            assert (rep.hold_count, rep.fail_count, rep.skip_count) == tuple(counts.values())
            assert list(rep.counterexamples) == witnesses


class TestCheckTheorem:
    def test_s1_1_holds_on_self_dual(self):
        assert check_theorem(TheoremId.S1_1, T_SELFDUAL).status == "holds"

    def test_s1_1_skips_non_topology(self):
        inst = {"ground": 2, "systems": {"T": [[0]]}}
        assert check_theorem(TheoremId.S1_1, inst).status == "skipped"

    def test_s3_8_all_fails_on_fixed_witness(self):
        inst = {
            "ground": 2,
            "systems": {"A": [[0], [0, 1]]},
            "functions": {"f": [0, 0]},
        }
        verdict = check_theorem(TheoremId.S3_8_all, inst)
        assert verdict.status == "fails"
        assert verdict.witness is not None

    def test_l3_1_holds(self):
        inst = {
            "ground": 3,
            "systems": {"A": [[0], [1, 2], [0, 1, 2]], "B": [[1]]},
        }
        assert check_theorem(TheoremId.L3_1, inst).status == "holds"

    def test_l1_3_literal_biconditional_fails_inside_orbit(self):
        # mined: a proper nonempty subset of an orbit is coherent without
        # being an orbit block
        inst = {
            "ground": 3,
            "permutations": {"g0": [1, 0, 2]},
            "flows": {"phi": {"group": ["g0"]}},
            "systems": {"chi": [[0]]},
        }
        verdict = check_theorem(TheoremId.L1_3, inst)
        assert verdict.status == "fails"

    def test_l1_3_holds_on_orbit_blocks(self):
        inst = {
            "ground": 3,
            "permutations": {"g0": [1, 0, 2]},
            "flows": {"phi": {"group": ["g0"]}},
            "systems": {"chi": [[0, 1]]},
        }
        assert check_theorem(TheoremId.L1_3, inst).status == "holds"

    def test_s3_3_mined_counterexample(self):
        inst = {
            "ground": 3,
            "systems": {"A": [[0], [0, 1], [2]]},
            "permutations": {"g0": [0, 1, 2]},
            "flows": {"phi": {"group": ["g0"]}},
        }
        assert check_theorem(TheoremId.S3_3, inst).status == "fails"

    def test_b3_4_mined_counterexample(self):
        inst = {
            "ground": 3,
            "systems": {"A": [[], [0, 1], [1], [1, 2]]},
            "permutations": {"g0": [1, 0, 2]},
            "flows": {"phi": {"group": ["g0"]}},
        }
        assert check_theorem(TheoremId.B3_4, inst).status == "fails"

    def test_idem_nonempty_witness(self):
        inst = {"ground": 2, "systems": {"A": [[0], [0, 1]]}}
        assert check_theorem(TheoremId.IDEM_ydwed, inst, FULL).status == "holds"
        assert check_theorem(TheoremId.IDEM_ydwed, inst, NONEMPTY).status == "fails"


class TestSweep:
    def test_determinism_byte_identical(self):
        a = sweep(TheoremId.L3_1, 3, "random", samples=200, seed=9)
        b = sweep(TheoremId.L3_1, 3, "random", samples=200, seed=9)
        assert json.dumps(a.to_payload(), sort_keys=True) == json.dumps(
            b.to_payload(), sort_keys=True
        )

    def test_different_seed_differs(self):
        a = sweep(TheoremId.S3_8_all, 2, "random", samples=100, seed=1)
        b = sweep(TheoremId.S3_8_all, 2, "random", samples=100, seed=2)
        assert a.to_payload() != b.to_payload()

    def test_counts_sum(self):
        rep = sweep(TheoremId.B3_10, 2, "exhaustive")
        assert rep.hold_count + rep.fail_count + rep.skip_count == rep.instance_count

    def test_b3_10_clean(self):
        assert sweep(TheoremId.B3_10, 3, "exhaustive").fail_count == 0

    def test_s3_8_all_finds_the_witness(self):
        rep = sweep(TheoremId.S3_8_all, 2, "exhaustive")
        assert rep.fail_count >= 1
        fixed = {
            "ground": 2,
            "convention": "full",
            "systems": {"A": [[0], [0, 1]]},
            "functions": {"f": [0, 0]},
        }
        found = any(
            c["instance"]["systems"]["A"] == fixed["systems"]["A"]
            and c["instance"]["functions"]["f"] == fixed["functions"]["f"]
            for c in rep.counterexamples
        )
        assert found

    def test_idem_sweeps_both_conventions(self):
        clean = sweep(TheoremId.IDEM_ydwed, 3, "exhaustive", conv=FULL)
        assert clean.fail_count == 0
        dirty = sweep(TheoremId.IDEM_ydwed, 2, "exhaustive", conv=NONEMPTY)
        assert dirty.fail_count >= 1
        witnessed = any(
            c["instance"]["systems"]["A"] == [[0], [0, 1]]
            for c in dirty.counterexamples
        )
        assert witnessed

    def test_witness_replay(self):
        # soundness coupling: every failing witness replays to a failure
        for theorem, n in (
            (TheoremId.S3_8_all, 2),
            (TheoremId.S3_3, 2),
            (TheoremId.B3_6, 2),
        ):
            rep = sweep(theorem, n, "exhaustive")
            for c in rep.counterexamples[:10]:
                verdict = check_theorem(theorem, c["instance"])
                assert verdict.status == "fails"

    def test_counterexample_cap(self):
        rep = sweep(TheoremId.B3_6, 2, "exhaustive", max_counterexamples=3)
        assert len(rep.counterexamples) == 3
        assert rep.fail_count > 3

    def test_exhaustive_size_limit(self):
        with pytest.raises(SizeLimitError):
            sweep(TheoremId.B3_6, 4, "exhaustive")

    def test_jobs_match_serial(self):
        serial = sweep(TheoremId.B3_7, 2, "exhaustive")
        parallel = sweep(TheoremId.B3_7, 2, "exhaustive", jobs=2)
        assert serial.to_payload() == parallel.to_payload()

    def test_random_jobs_match_serial(self):
        serial = sweep(TheoremId.L3_1, 3, "random", samples=200, seed=4)
        parallel = sweep(TheoremId.L3_1, 3, "random", samples=200, seed=4, jobs=3)
        assert serial.to_payload() == parallel.to_payload()

    def test_proved_clean_registry(self):
        assert TheoremId.B3_10 in PROVED_CLEAN
        assert TheoremId.CHAIN_karrenk not in PROVED_CLEAN

    def test_every_claim_registered_once(self):
        assert list(CLAIMS) == list(TheoremId)
        assert all(isinstance(claim, Claim) for claim in CLAIMS.values())
        assert PROVED_CLEAN == {t for t, claim in CLAIMS.items() if claim.clean}

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize(
        "theorem, n, mode, samples",
        [
            (TheoremId.S3_3, 3, "exhaustive", None),
            (TheoremId.S3_8_all, 3, "random", 300),
        ],
    )
    def test_jobs_match_serial_past_the_cap(self, monkeypatch, theorem, n, mode, samples, jobs):
        # more failures than the cap, and the first 40 spread over more than
        # one block of ordinals, so the merge must sort the workers' witnesses
        # by ordinal before cutting; `jobs` CPUs give `jobs` workers
        kwargs = dict(samples=samples, seed=3, max_counterexamples=40)
        serial = sweep(theorem, n, mode, **kwargs)
        assert serial.fail_count > 40
        assert serial.counterexamples[-1]["ordinal"] >= verify.SHARE_BLOCK
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        parallel = sweep(theorem, n, mode, jobs=jobs, **kwargs)
        assert parallel.to_payload() == serial.to_payload()

    @pytest.mark.parametrize("conv, fails, built", [(FULL, 0, 0), (NONEMPTY, 470, 32)])
    def test_instances_only_for_kept_witnesses(self, monkeypatch, conv, fails, built):
        # a holding verdict builds no Instance, SetSystem or Verdict; of the
        # nonempty sweep's failures only the 32 whose witnesses are kept
        # build an Instance
        made = {Instance: 0, SetSystem: 0, Verdict: 0}
        for cls in made:
            def counting(obj, *args, _cls=cls, _init=cls.__init__, **kwargs):
                made[_cls] += 1
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        rep = sweep(TheoremId.IDEM_ydwed, 4, "exhaustive", conv=conv, jobs=1)
        assert (rep.instance_count, rep.fail_count) == (64594, fails)
        assert len(rep.counterexamples) == built
        assert made[Instance] == built
        if not fails:
            assert made == {Instance: 0, SetSystem: 0, Verdict: 0}

    def test_parallel_parent_serializes_no_instance(self, monkeypatch):
        calls = []
        to_dict = Instance.to_dict

        def counting(inst):
            calls.append(1)
            return to_dict(inst)

        monkeypatch.setattr(Instance, "to_dict", counting)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rep = sweep(TheoremId.L3_1, 3, "exhaustive", jobs=2)
        assert rep.instance_count > 64 and rep.fail_count == 0
        assert calls == []

    def test_only_kept_witnesses_serialized(self, monkeypatch):
        calls = []
        to_dict = Instance.to_dict

        def counting(inst):
            calls.append(1)
            return to_dict(inst)

        monkeypatch.setattr(Instance, "to_dict", counting)
        rep = sweep(TheoremId.S3_3, 3, "exhaustive", max_counterexamples=5)
        assert rep.fail_count > 5 and len(rep.counterexamples) == 5
        assert len(calls) <= 5

    @pytest.mark.parametrize("theorem", [TheoremId.B3_2, TheoremId.S3_3, TheoremId.B3_4])
    def test_one_closure_table_per_instance(self, monkeypatch, theorem):
        # the claims on a flow and the hull of a system read their premise
        # and their rooms from one table; S3_3 builds no attractor family
        # where its commutation premise fails
        tables, families = [], []
        closure_table, free_attractors = kernels.closure_table, attract.free_attractors
        monkeypatch.setattr(
            kernels, "closure_table", lambda *a: tables.append(a) or closure_table(*a)
        )
        monkeypatch.setattr(
            attract, "free_attractors", lambda *a: families.append(a) or free_attractors(*a)
        )
        space = CLAIMS[theorem].space(2, FULL)
        vacuous = 0
        for ordinal in range(len(space)):
            del tables[:], families[:]
            verdict = check_theorem(theorem, space.at(ordinal))
            assert len(tables) == 1, ordinal
            if verdict.note.startswith("flow does not commute"):
                vacuous += 1
                assert families == [], ordinal
        # B3_4 has no commutation premise
        assert (vacuous > 0) == (theorem is not TheoremId.B3_4)

    def test_chain_statements_decided_once_per_system_and_generator(self, monkeypatch):
        # the system is the outer factor of K3_9's space, and a chain
        # statement depends only on the system and one generator: at most
        # 218 systems x 6 generators x 4 memberships, where deciding every
        # instance afresh makes 25,872 membership calls and 6272
        # commutation tests
        memberships, commutations = [], []
        membership, commutes = cantor.cantor_membership, kernels.commutes_with_closure
        monkeypatch.setattr(
            cantor, "cantor_membership", lambda *a: memberships.append(a) or membership(*a)
        )
        monkeypatch.setattr(
            kernels, "commutes_with_closure",
            lambda *a: commutations.append(a) or commutes(*a),
        )
        rep = sweep(TheoremId.K3_9, 3, "exhaustive")
        assert rep.instance_count == 218 * 21
        assert 0 < len(memberships) <= 218 * 6 * 4
        assert 0 < len(commutations) <= 218 * 6

    def test_one_closure_table_and_complement_per_explication_system(self, monkeypatch):
        # the system is the outer factor of S3_8_all's space, and the
        # explication reads its closure table and complement system from
        # the system's context: 218 systems x 27 functions, where building
        # them per instance makes 5886 of each
        tables, complements = [], []
        closure_table, complement_system = kernels.closure_table, cantor.complement_system
        monkeypatch.setattr(
            kernels, "closure_table", lambda *a: tables.append(a) or closure_table(*a)
        )
        monkeypatch.setattr(
            cantor, "complement_system",
            lambda *a: complements.append(a) or complement_system(*a),
        )
        rep = sweep(TheoremId.S3_8_all, 3, "exhaustive")
        assert rep.instance_count == 218 * 27
        assert 0 < len(tables) <= 218
        assert 0 < len(complements) <= 218

    @pytest.mark.parametrize(
        "theorem, instances, maps",
        [
            # 27 self-maps, built once per space
            (TheoremId.S3_8_all, 218 * 27, 27),
            # the chain statements on each image are decided first in its
            # one-generator set
            (TheoremId.K3_9, 218 * 21, 6),
            # 21 generator sets sharing one object for each of the 6
            # permutations
            (TheoremId.B3_2, 218 * 21, 6),
        ],
    )
    def test_one_mask_image_table_per_map(self, monkeypatch, theorem, instances, maps):
        # building a map's table on every commutation test and membership
        # makes 5886, 1308 and 6272
        tables = []
        perm_table = kernels.perm_table
        monkeypatch.setattr(
            kernels, "perm_table", lambda *a: tables.append(a) or perm_table(*a)
        )
        rep = sweep(theorem, 3, "exhaustive")
        assert rep.instance_count == instances
        assert 0 < len(tables) <= maps

    def test_b3_7_one_complement_free_family_per_instance(self, monkeypatch):
        # the system is the outer factor of B3_7's space, and the
        # complement-free family is read from the system's context: 218
        # systems x 27 functions, where building it per instance makes 5886
        families = []
        un_ov = setsys.un_ov

        def counted(*a):
            families.append(a)
            return un_ov(*a)

        monkeypatch.setattr(setsys, "un_ov", counted)
        monkeypatch.setattr(cantor, "un_ov", counted)
        rep = sweep(TheoremId.B3_7, 3, "exhaustive")
        assert rep.instance_count == 218 * 27
        assert 0 < len(families) <= 218

    def test_b3_7_one_fibration_per_system(self, monkeypatch):
        # the fibration classes are read from the system's context too, and
        # built from its closure table: one table per system
        fibrations, tables = [], []
        product_fibration, closure_table = cantor.product_fibration, kernels.closure_table
        monkeypatch.setattr(
            cantor, "product_fibration",
            lambda *a: fibrations.append(a) or product_fibration(*a),
        )
        monkeypatch.setattr(
            kernels, "closure_table", lambda *a: tables.append(a) or closure_table(*a)
        )
        rep = sweep(TheoremId.B3_7, 3, "exhaustive")
        assert rep.instance_count == 218 * 27
        assert 0 < len(fibrations) <= 218
        assert 0 < len(tables) <= 218

    def test_k3_9_verdicts_agree_under_both_conventions(self):
        # on a covering system the two conventions' closure tables differ
        # only at the empty set, and a permutation commutes with one exactly
        # when it commutes with the other (README, findings): the same
        # counts, and every witness at the same ordinal with the same
        # statements
        full, nonempty = (
            sweep(TheoremId.K3_9, 3, "exhaustive", conv=c, max_counterexamples=1200)
            for c in (FULL, NONEMPTY)
        )
        assert (full.hold_count, full.fail_count, full.skip_count) == (3378, 1200, 0)
        assert (nonempty.hold_count, nonempty.fail_count, nonempty.skip_count) == (
            3378, 1200, 0,
        )
        assert [(c["ordinal"], c["note"]) for c in full.counterexamples] == [
            (c["ordinal"], c["note"]) for c in nonempty.counterexamples
        ]
        assert len(full.counterexamples) == 1200

    def test_one_orbit_partition_per_generator_set(self, monkeypatch):
        # the instances of one generator set share its flow, whose orbit
        # blocks are computed once: 21 generator sets at n=3, 147 instances
        calls = []
        orbit_blocks = kernels.orbit_blocks
        monkeypatch.setattr(
            kernels, "orbit_blocks", lambda *a: calls.append(a) or orbit_blocks(*a)
        )
        rep = sweep(TheoremId.L1_3, 3, "exhaustive")
        assert rep.instance_count == 21 * 7
        assert len(calls) == 21

    def test_random_size_limit(self):
        # checked before any sampling, so no 2^n draw is attempted
        with pytest.raises(SizeLimitError):
            sweep(TheoremId.IDEM_ydwed, 21, "random", samples=0)


class TestBenchmarkNames:
    def test_traced_names_exist(self):
        # sweepbench's tracer times instance generation and the checker
        # bodies by these names; one the library lost would read 0 silently
        path = pathlib.Path(__file__).resolve().parent.parent / "sweepbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("sweepbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.GENERATORS
        for name in tracer.GENERATORS:
            assert inspect.isfunction(getattr(verify, name, None)), name
        assert inspect.isfunction(getattr(verify.Claim, "check", None))


class TestGeneratorSampler:
    def test_lazy_permutations_in_lexicographic_order(self):
        for n in range(7):
            lazy = verify._Permutations(n)
            assert len(lazy) == len(list(itertools.permutations(range(n))))
            assert list(lazy) == list(itertools.permutations(range(n)))

    def test_one_point_draws_one_generator(self):
        for seed in range(20):
            assert verify._sample_genset(random.Random(seed), 1) == ((0,),)

    def test_draw_lists_no_permutations(self):
        tracemalloc.start()
        try:
            verify._sample_genset(random.Random(0), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each task in this process and
    records the worker count it was asked for."""

    made: list = []

    def __init__(self, max_workers):
        RecordingPool.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


class TestWorkerShares:
    @pytest.mark.parametrize(
        "cpus, jobs, workers",
        [(2, 5000, 2), (3, 5000, 3), (8, 3, 3), (None, 5000, None), (1, 4, None)],
    )
    def test_pool_bounded_by_cpu_count(self, monkeypatch, recording_pool, cpus, jobs, workers):
        kwargs = dict(samples=300, max_counterexamples=3)
        serial = sweep(TheoremId.S3_8_all, 3, "random", **kwargs)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = sweep(TheoremId.S3_8_all, 3, "random", jobs=jobs, **kwargs)
        assert recording_pool.made == ([] if workers is None else [workers])
        assert rep.to_payload() == serial.to_payload()

    @pytest.mark.parametrize("theorem, n", [(TheoremId.L1_3, 3), (TheoremId.IDEM_ydwed, 3)])
    def test_worker_builds_only_its_share(self, monkeypatch, theorem, n):
        # the worker indexes the factor tuples of its own ordinals only, and
        # keeping no witness (cap 0) builds no Instance
        indexed, built = [], []
        getitem, init = verify._Space.__getitem__, Instance.__init__

        def indexing(space, ordinal):
            indexed.append(ordinal)
            return getitem(space, ordinal)

        def counting(inst, *args, **kwargs):
            built.append(1)
            init(inst, *args, **kwargs)

        monkeypatch.setattr(verify._Space, "__getitem__", indexing)
        monkeypatch.setattr(Instance, "__init__", counting)
        total, *_ = verify._evaluate(theorem, n, "exhaustive", None, None, FULL, 0, 1, 2)
        size = closed_form_size(SPACE_KINDS[theorem], n)
        share = [o for o in range(size) if o // verify.SHARE_BLOCK % 2 == 1]
        assert 0 < len(share) < size
        assert total == len(share)
        assert indexed == share
        assert built == []

    @pytest.mark.parametrize("jobs", [2, 3, 7])
    def test_shares_match_serial_for_every_claim(self, monkeypatch, recording_pool, jobs):
        # deal single ordinals, so that even the small n=2 spaces reach
        # every worker
        monkeypatch.setattr(verify, "SHARE_BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for theorem in TheoremId:
            for n, mode, samples in ((2, "exhaustive", None), (3, "random", 200)):
                kwargs = dict(samples=samples, seed=5, max_counterexamples=4)
                serial = sweep(theorem, n, mode, **kwargs).to_payload()
                parallel = sweep(theorem, n, mode, jobs=jobs, **kwargs).to_payload()
                assert parallel == serial, (theorem, mode)


class TestInstanceRoundTrip:
    def test_to_from_dict(self):
        doc = {
            "ground": 3,
            "convention": "nonempty",
            "systems": {"T": [[], [0], [1, 2], [0, 1, 2]]},
            "permutations": {"s": [1, 0, 2]},
            "flows": {"phi": {"cyclic": "s"}},
        }
        inst = Instance.from_dict(doc)
        again = Instance.from_dict(inst.to_dict())
        assert again.to_dict() == inst.to_dict()
        assert again.systems["T"] == inst.systems["T"]
        assert again.flows["phi"].generator == inst.flows["phi"].generator
