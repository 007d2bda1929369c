"""Sweep engine: enumeration, checkers, determinism, witness replay."""

import array
import functools
import importlib.util
import inspect
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import random
import signal
import time
import tracemalloc
import types

import pytest

import oracles
from hullflow import attract, cantor, cli, kernels, setsys, verify
from hullflow.dynsys import DiscreteFlow, EndoFunction
from hullflow.instances import Instance, InstanceError
from hullflow.setsys import ClosureConvention, GroundSet, SetSystem, closure_map_of
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
            CLAIMS[TheoremId.IDEM_ydwed].space(5)

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
        kind, claim = SPACE_KINDS[theorem], CLAIMS[theorem]
        for n in range(1, min(3, claim.max_exhaustive_n) + 1):
            space = claim.space(n)
            assert len(space) == closed_form_size(kind, n), n
            for conv in (FULL, NONEMPTY):
                listed = oracles.instance_space(kind, n, conv.value)
                build = functools.partial(claim.kind.build, GroundSet(n), conv)
                assert [build(*values).to_dict() for values in space] == listed, n

    def test_covering_systems_at_four_points(self):
        claim = CLAIMS[TheoremId.IDEM_ydwed]
        space = claim.space(4)
        assert len(space) == oracles.covering_count(4) == 64594
        listed = oracles.instance_space("systems", 4, "full")
        build = functools.partial(claim.kind.build, GroundSet(4), FULL)
        assert [build(*values).to_dict() for values in space] == listed

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_run_matches_indexing(self, theorem):
        # a cut of the space is handed out as runs: one value of the outer
        # factors each, and a contiguous stretch of the inner factor under
        # it, sliced where the factor is a sequence (families, subsets,
        # flows, functions) and indexed where it computes its values
        # (systems).  The runs of the whole space, and of cuts that start
        # before, at and after a wrap of the inner factor and end past one
        # or more wraps, flatten to the indexed items; every run but the
        # first starts the inner factor, and every run but the last ends it
        claim = CLAIMS[theorem]
        rnd = random.Random(theorem.value)
        for n in range(1, min(3, claim.max_exhaustive_n) + 1):
            space = claim.space(n)
            indexed = [space[o] for o in range(len(space))]
            *outer_factors, factor = space.factors
            inner = len(factor)
            starts = {0, 1, inner - 1, inner, inner + 1, len(space) - inner - 1}
            starts |= {rnd.randrange(len(space)) for _ in range(8)}
            cuts = [(0, len(space))] + [
                (start, min(start + length, len(space)))
                for start in sorted(o for o in starts if 0 <= o < len(space))
                for length in (1, 2, inner, inner + 1, 2 * inner + 3, verify.SHARE_BLOCK)
            ]
            for start, stop in cuts:
                runs = space.run(start, stop)
                for i, (outer, stretch) in enumerate(runs):
                    assert isinstance(outer, tuple) and len(outer) == len(outer_factors)
                    if isinstance(factor, (array.array, list, tuple, range)):
                        assert type(stretch) is type(factor)
                    first = start % inner if i == 0 else 0
                    assert list(stretch) == [factor[d] for d in range(first, first + len(stretch))]
                    assert i == len(runs) - 1 or first + len(stretch) == inner
                flat = [(*outer, v) for outer, stretch in runs for v in stretch]
                assert flat == indexed[start:stop], (n, start, stop)

    def test_ordinals_out_of_range(self):
        space = CLAIMS[TheoremId.B3_7].space(2)
        for ordinal in (-1, len(space)):
            with pytest.raises(IndexError):
                space[ordinal]

    def test_covering_families_over_the_cap(self):
        with pytest.raises(SizeLimitError):
            verify._covering_families(5)


class TestFactorRoundTrip:
    # a witness names each factor value and a document is read back into
    # the same values: every claim's reader, and its space's factor by
    # factor reader, inverts the space's build
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_read_inverts_put_on_every_ordinal(self, theorem):
        claim = CLAIMS[theorem]
        for n in (1, 2, 3):
            ground = GroundSet(n)
            for conv in (FULL, NONEMPTY):
                for ordinal, values in enumerate(claim.space(n)):
                    inst = claim.kind.build(ground, conv, *values)
                    assert claim.unpack(inst) == values, (n, ordinal)
                    assert claim.kind.unpack(inst) == values, (n, ordinal)

    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_read_inverts_put_on_drawn_values_through_the_wire(self, theorem):
        claim = CLAIMS[theorem]
        for n in (1, 3, 4):
            for seed in range(40):
                values = claim.kind.draw(n, random.Random(seed))
                inst = claim.kind.build(GroundSet(n), NONEMPTY, *values)
                assert claim.unpack(Instance.from_dict(inst.to_dict())) == values, (n, seed)


class TestTwoRoutes:
    # a sweep hands the claim a block of runs of the factor values its
    # space indexes, with its share's memo; check_theorem unpacks the same
    # values from an instance and hands them over as a run of one, with a
    # memo of its own
    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_sweep_verdicts_match_check_theorem(self, theorem, conv):
        claim = CLAIMS[theorem]
        for n in (1, 2):
            ground, space = GroundSet(n), claim.space(n)
            counts = {"holds": 0, "fails": 0, "skipped": 0}
            witnesses, memo = [], {}
            checked = [
                (ordinal, verdict)
                for block, runs in verify._exhaustive_instances(theorem, n, 0, 1)
                for ordinal, verdict in zip(block, claim.check(ground, runs, conv, memo))
            ]
            assert [ordinal for ordinal, _ in checked] == list(range(len(space)))
            for ordinal, verdict in checked:
                inst = claim.kind.build(ground, conv, *space[ordinal])
                replay = check_theorem(theorem, inst, conv)
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

    def test_l1_3_empty_chi_without_flows_is_skipped(self):
        # an empty chi is skipped before the flow is read, so a document
        # with no flows gets a row with no orbit blocks, asked for that chi
        inst = {"ground": 3, "systems": {"chi": [[]]}}
        verdict = check_theorem(TheoremId.L1_3, inst)
        assert (verdict.status, verdict.note) == ("skipped", "empty chi")

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
            sweep(TheoremId.B3_7, 4, "exhaustive")

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
    def test_jobs_match_serial_past_the_cap(
        self, monkeypatch, hand_off_early, theorem, n, mode, samples, jobs
    ):
        # more failures than the cap, and the first 40 spread over more than
        # one block of ordinals (of 64, so that 300 samples make 5), so the
        # merge must sort the workers' witnesses by ordinal before cutting;
        # `jobs` CPUs give `jobs` workers after block 1
        monkeypatch.setattr(verify, "SHARE_BLOCK", 64)
        kwargs = dict(samples=samples, seed=3, max_counterexamples=40)
        serial = sweep(theorem, n, mode, **kwargs)
        assert serial.fail_count > 40
        assert serial.counterexamples[-1]["ordinal"] >= verify.SHARE_BLOCK
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        parallel = sweep(theorem, n, mode, jobs=jobs, **kwargs)
        assert parallel.to_payload() == serial.to_payload()

    def test_idempotence_by_translation_matches_composition(self):
        # up to 4 points a closure table is bytes, composed with itself by
        # one translation as a run of one table; above 4 points it is a
        # tuple, compared cell by cell with its composition: every covering
        # family up to n=4, seeded families at n=5 and 6, and arbitrary byte
        # and tuple tables, most of them not idempotent
        tables = [
            (n, closure_map_of(n, family, conv))
            for n in (1, 2, 3, 4)
            for family in verify._covering_families(n)
            for conv in (FULL, NONEMPTY)
        ]
        assert all(isinstance(cl, bytes) for _, cl in tables)
        rnd = random.Random(13)
        for n in (5, 6):
            for conv in (FULL, NONEMPTY):
                tables += [
                    (n, closure_map_of(n, rnd.getrandbits(1 << n) & rnd.getrandbits(1 << n), conv))
                    for _ in range(100)
                ]
        assert all(isinstance(cl, tuple) for _, cl in tables[-400:])
        tables += [
            (n, bytes(rnd.randrange(1 << n) for _ in range(1 << n)))
            for n in (1, 2, 3, 4)
            for _ in range(500)
        ]
        tables += [
            (n, tuple(rnd.randrange(1 << n) for _ in range(1 << n)))
            for n in (5, 6)
            for _ in range(50)
        ]
        composed = [[cl[c] for c in cl] == list(cl) for _, cl in tables]
        assert [not verify._not_idempotent(cl, n) for n, cl in tables] == composed
        assert composed.count(False) > 1000

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

    def test_parallel_parent_serializes_no_instance(self, monkeypatch, hand_off_early):
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
        # where its commutation premise fails; room_report takes the
        # conventional family that free_attractors reads
        tables, families = count_closure_tables(monkeypatch), []
        conventional = attract._conventional
        monkeypatch.setattr(
            attract, "_conventional", lambda *a: families.append(a) or conventional(*a)
        )
        claim = CLAIMS[theorem]
        space = claim.space(2)
        vacuous = 0
        for ordinal in range(len(space)):
            # the wire form's round trip gives each instance a system of its
            # own, which has built no table for an earlier instance
            inst = claim.kind.build(GroundSet(2), FULL, *space[ordinal])
            inst = Instance.from_dict(inst.to_dict())
            del tables[:], families[:]
            verdict = check_theorem(theorem, inst)
            assert len(tables) == 1, ordinal
            if verdict.note.startswith("flow does not commute"):
                vacuous += 1
                assert families == [], ordinal
        # B3_4 has no commutation premise
        assert (vacuous > 0) == (theorem is not TheoremId.B3_4)

    @pytest.mark.parametrize(
        "theorem, n, kwargs, instances",
        [
            # the table comes from the family bitmask
            (TheoremId.IDEM_ydwed, 4, {}, 64594),
            # the hull of B is one cell, taken from the family bitmask
            (TheoremId.L3_1, 8, dict(mode="random", samples=500, seed=0), 500),
        ],
    )
    def test_closure_sweeps_build_no_closure_table(self, monkeypatch, theorem, n, kwargs, instances):
        # building the table through kernels.closure_table takes one call
        # per instance
        tables = []
        closure_table = kernels.closure_table
        monkeypatch.setattr(
            kernels, "closure_table", lambda *a: tables.append(a) or closure_table(*a)
        )
        rep = sweep(theorem, n, **kwargs)
        assert rep.instance_count == instances
        assert tables == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_idem_one_joined_table_call_per_share_block(
        self, monkeypatch, hand_off_early, tmp_path, jobs
    ):
        # the IDEM_ydwed body takes each share block's tables from one
        # closure_tables_of call on its run and builds no table of one
        # family: one call per block of 64,594 families (253 at blocks of
        # 256), summed over the workers, which append to one file
        log = tmp_path / "calls"
        for module, name in ((verify, "closure_tables_of"), (verify, "closure_map_of"),
                             (setsys, "closure_map_of")):
            def counted(*a, _fn=getattr(module, name), _name=name):
                with open(log, "a") as out:
                    out.write(_name + "\n")
                return _fn(*a)

            monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        rep = sweep(TheoremId.IDEM_ydwed, 4, "exhaustive", jobs=jobs)
        assert rep.instance_count == 64594
        blocks = -(-64594 // verify.SHARE_BLOCK)
        assert log.read_text().splitlines() == ["closure_tables_of"] * blocks

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "theorem, instances",
        [
            (TheoremId.B3_2, 4578),
            (TheoremId.S3_3, 4578),
            (TheoremId.B3_4, 4578),
            # the system is the inner factor of this space
            (TheoremId.CHAIN_karrenk, 1308),
        ],
    )
    def test_one_closure_table_per_system(self, monkeypatch, theorem, instances, conv):
        # a table is built once per system, whatever the order of the
        # factors: where the system is the outer factor, a run cut by a
        # share block goes on with the table the memo kept for it, and
        # CHAIN_karrenk keeps each covering's table in the memo; at most 218
        # covering systems at n=3, where one table per instance makes
        # `instances`
        tables = count_closure_tables(monkeypatch)
        rep = sweep(theorem, 3, "exhaustive", conv=conv)
        assert rep.instance_count == instances
        assert 0 < len(tables) <= 218

    def test_covar_untransported_family_once_per_cycle_and_system(self, monkeypatch):
        # one transported family per instance, and the untransported one
        # kept in the sweep's memo by the system and the cycle's orbit
        # blocks: 218 systems x 5 orbit partitions of the 6 cycles at n=3,
        # where computing it per instance makes 15,696 calls and per
        # (cycle, system) 9156
        families = []
        free_attractors = attract.free_attractors
        monkeypatch.setattr(
            verify, "free_attractors", lambda *a: families.append(a) or free_attractors(*a)
        )
        for conv in (FULL, NONEMPTY):
            del families[:]
            rep = sweep(TheoremId.COVAR, 3, "exhaustive", conv=conv)
            assert rep.instance_count == 7848
            assert 0 < len(families) <= 7848 + 218 * 5

    def test_chain_statements_decided_once_per_system_and_generator(self, monkeypatch):
        # a chain statement depends only on the system and one generator,
        # and each generator's statements are kept in the sweep's memo: at
        # most 218 systems x 6 generators x 2 sides, where deciding every
        # instance afresh makes 12,936 side decisions (both memberships of
        # one side each) and 6272 commutation tests
        memberships, commutations = [], []
        membership, commutes = cantor._memberships, kernels.commutes_with_closure
        monkeypatch.setattr(
            cantor, "_memberships", lambda *a: memberships.append(a) or membership(*a)
        )
        monkeypatch.setattr(
            kernels, "commutes_with_closure",
            lambda *a: commutations.append(a) or commutes(*a),
        )
        for conv in (FULL, NONEMPTY):
            del memberships[:], commutations[:]
            rep = sweep(TheoremId.K3_9, 3, "exhaustive", conv=conv)
            assert rep.instance_count == 218 * 21
            assert 0 < len(memberships) <= 218 * 6 * 2
            assert 0 < len(commutations) <= 218 * 6

    def test_k3_9_reads_each_generator_once_per_run(self, monkeypatch):
        # a run's statements are read off the system's rows once per
        # distinct generator image, not once per generator of each of its
        # 21 flows; a share block may cut a system's run, and each part
        # reads its own
        read = []
        chain_bits = cantor._chain_bits
        monkeypatch.setattr(
            cantor, "_chain_bits", lambda rows, f: read.append(f.image) or chain_bits(rows, f)
        )
        expected = sum(
            len({g.image for flow in flows for g in flow.gens})
            for _, runs in verify._exhaustive_instances(TheoremId.K3_9, 3, 0, 1)
            for (system,), flows in runs
            if system is not None
        )
        # at least 6 per system, and fewer than one per generator of the
        # 6 + 15 generator sets
        assert 218 * 6 <= expected < 218 * 36
        for conv in (FULL, NONEMPTY):
            del read[:]
            rep = sweep(TheoremId.K3_9, 3, "exhaustive", conv=conv)
            assert rep.instance_count == 218 * 21
            assert len(read) == expected

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_k3_9_counts_match_the_group_listing_oracle(self, conv):
        # the sweep ANDs the generators' rows of statements; the oracle
        # lists every element of each group and takes every hull by its own
        # scan of the complements
        for n in (1, 2, 3):
            rep = sweep(TheoremId.K3_9, n, "exhaustive", conv=conv)
            counts = (rep.hold_count, rep.fail_count, rep.skip_count)
            assert counts == oracles.k3_9_counts(n, conv.value), n

    def test_k3_9_failing_verdicts_name_their_own_statements(self):
        # one failing verdict serves every instance with the same statement
        # bitmask, and only those: each of the 1200 witnesses' notes names
        # the statements the group-listing oracle finds on it
        rep = sweep(TheoremId.K3_9, 3, "exhaustive", max_counterexamples=1200)
        assert len(rep.counterexamples) == 1200
        for cex in rep.counterexamples:
            doc = cex["instance"]
            members = [sum(1 << x for x in m) for m in doc["systems"]["A"]]
            gens = [doc["permutations"][k] for k in sorted(doc["permutations"])]
            statements = oracles.chain_statements(3, members, gens, "full")
            assert cex["note"] == f"chain statements {statements}", doc
        assert len({c["note"] for c in rep.counterexamples}) > 1

    @pytest.mark.parametrize(
        "theorem, instances, compared",
        [
            # the explication record compares none: the grounds of a
            # sweep's factor values are one
            (TheoremId.S3_8_all, 218 * 27, 0),
            # none per instance: only building the 15 two-generator flows
            # compares their grounds
            (TheoremId.K3_9, 218 * 21, 15),
            # the commutation premise compares none, nor does the room
            # report's attractor family: only the 15 flows
            (TheoremId.B3_2, 218 * 21, 15),
            (TheoremId.S3_3, 218 * 21, 15),
            # both memberships from the system's side compare none
            (TheoremId.B3_10, 218 * 6, 0),
        ],
    )
    def test_ground_compared_at_most_once_per_instance(
        self, monkeypatch, theorem, instances, compared
    ):
        # comparing the grounds in each membership as well made 20,610
        # comparisons in an S3_8_all sweep and 13,095 in a K3_9 sweep;
        # is_commutative_cantor's comparison per generator made 6287 in a
        # B3_2 sweep and 7076 in an S3_3 sweep, and cantor_membership's
        # made 2616 in a B3_10 sweep; explication_check's made 5886 in an
        # S3_8_all sweep, and free_attractors' 789 in an S3_3 sweep
        comparisons = []
        eq = GroundSet.__eq__
        monkeypatch.setattr(GroundSet, "__eq__", lambda a, b: comparisons.append(1) or eq(a, b))
        rep = sweep(theorem, 3, "exhaustive")
        assert rep.instance_count == instances
        assert len(comparisons) <= compared
        assert (len(comparisons) > 0) == (compared > 0)

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "theorem, n, instances, keys",
        [
            # 15 orbit partitions x 15 nonempty chi
            (TheoremId.L1_3, 4, 4500, 225),
            # 5 orbit partitions of the 6 cycles x 218 coverings
            (TheoremId.CHAIN_karrenk, 3, 1308, 5 * 218),
            # 5 orbit partitions of the 21 generator sets x the 90 closure
            # tables of the 218 systems
            (TheoremId.B3_4, 3, 4578, 90 * 5),
        ],
    )
    def test_body_once_per_orbit_block_key(self, monkeypatch, theorem, n, instances, keys, conv):
        # the block body decides each (orbit partition, chi), (orbit
        # partition, covering) or (closure table, orbit partition) once in
        # the sweep's memo, whatever share block asks for it: every one of
        # them occurs in the space, so as many decisions as keys are one
        # each
        decided = count_decisions(monkeypatch, theorem)
        rep = sweep(theorem, n, "exhaustive", conv=conv)
        assert rep.instance_count == instances
        assert len(decided) == keys

    def test_random_sweep_keeps_no_verdicts(self, monkeypatch):
        # a random sweep keeps no verdicts across draws, which would keep
        # every drawn system alive: each draw's block body gets a memo of
        # its own, empty on entry, and decides its draw, even on two points,
        # where the orbit partitions repeat
        decided = count_decisions(monkeypatch, TheoremId.L1_3)
        memos, sizes = [], []
        claim = CLAIMS[TheoremId.L1_3]
        body = claim.checker

        def checker(*a):
            memos.append(a[3])
            sizes.append(len(a[3]))
            return body(*a)

        patched = Claim(
            checker, claim.kind, claim.max_exhaustive_n, claim.default_samples,
            claim.clean, claim.note, claim.read,
        )
        monkeypatch.setitem(CLAIMS, TheoremId.L1_3, patched)
        rep = sweep(TheoremId.L1_3, 2, "random", samples=50, seed=3)
        assert rep.instance_count == len(decided) == 50
        # every memo is kept alive here, so distinct ids are distinct dicts
        assert sizes == [0] * 50
        assert len({id(memo) for memo in memos}) == 50

    def test_random_sweep_keeps_one_draw_alive(self):
        # a B3_10 draw on 12 points holds about 2^11 member masks and a
        # map, some 0.22 MB kept.  5 draws are the fewest that a sweep
        # drawing its share block whole before checking any keeps above 1
        # MB (1.10 MB for 5, 0.88 MB for 4; 1.31 MB for the 6 drawn here);
        # checked one at a time they peak at 0.3 MB.  (An L3_1 draw is a
        # family bitmask of 512 bytes, which no share block lifts above 1
        # MB.)
        tracemalloc.start()
        try:
            rep = sweep(TheoremId.B3_10, 12, "random", samples=6, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instance_count == 6
        assert peak < 1 << 20

    def test_random_explication_sweep_keeps_one_draw_alive(self):
        # each draw reaches the S3_8 block body alone, and on 10 points its
        # tables are lists, which the translation route never copies.  A
        # draw's map keeps its table of 2^10 images, so 35 draws are the
        # fewest that a sweep drawing its share block whole keeps above 1
        # MB (1.03 MB for 35, 0.998 MB for 34); checked one at a time they
        # peak at 0.09 MB
        tracemalloc.start()
        try:
            rep = sweep(TheoremId.S3_8_all, 10, "random", samples=35, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instance_count == 35
        assert peak < 1 << 20

    @pytest.mark.parametrize("theorem", [TheoremId.B3_6, TheoremId.B3_7], ids=lambda t: t.value)
    def test_random_fibration_sweep_keeps_its_classes_small(self, theorem):
        # a draw on 12 points has some 4,000 classes of one cell: shifted
        # by its least cell each is a one-bit int, where their unshifted
        # family bitmasks take 2^23 bits together (about 3.2 MB at peak)
        tracemalloc.start()
        try:
            rep = sweep(theorem, 12, "random", samples=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instance_count == 2
        assert peak < 5 << 19

    @pytest.mark.parametrize(
        "theorem, flows",
        [(TheoremId.CHAIN_karrenk, 6), (TheoremId.B3_4, 21)],
    )
    def test_invariant_sets_listed_once_per_flow(self, monkeypatch, theorem, flows):
        # the flow keeps its invariant sets: at most one listing per cycle
        # or generator set, where listing them per attractor family makes
        # one per body call
        listed = []
        invariant = DiscreteFlow.__dict__["_invariant"]
        counted = functools.cached_property(lambda flow: listed.append(1) or invariant.func(flow))
        counted.__set_name__(DiscreteFlow, "_invariant")
        monkeypatch.setattr(DiscreteFlow, "_invariant", counted)
        for conv in (FULL, NONEMPTY):
            del listed[:]
            sweep(theorem, 3, "exhaustive", conv=conv)
            assert 0 < len(listed) <= flows

    def test_one_closure_table_and_complement_per_explication_system(self, monkeypatch):
        # the explication reads its closure table and its complement side,
        # from the complement family, once per system: 218 systems x 27
        # functions, where building them per instance makes 5886 of each
        tables, complements = count_closure_tables(monkeypatch), []
        complement_family = cantor.complement_family
        monkeypatch.setattr(
            cantor, "complement_family",
            lambda *a: complements.append(a) or complement_family(*a),
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
        # the complement-free family is read off the up-closure of the
        # system's complement family, once per system: 218 systems x 27
        # functions, where building it per instance makes 5886
        closures = []
        up_closure = kernels.up_closure
        monkeypatch.setattr(
            kernels, "up_closure", lambda *a: closures.append(a) or up_closure(*a)
        )
        rep = sweep(TheoremId.B3_7, 3, "exhaustive")
        assert rep.instance_count == 218 * 27
        assert 0 < len(closures) <= 218

    def test_b3_7_one_fibration_per_system(self, monkeypatch):
        # the fibration classes are read once per system too, and grouped
        # from its closure table: one table per system
        fibrations, tables = [], count_closure_tables(monkeypatch)
        fibration_classes = cantor.fibration_classes
        monkeypatch.setattr(
            cantor, "fibration_classes",
            lambda *a: fibrations.append(a) or fibration_classes(*a),
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


#: The group claims with a block body: L1_3 and CHAIN_karrenk keep a row
#: of verdicts per orbit partition, B3_4 one per closure table and orbit
#: partition, and K3_9 reads a system's rows once per run.
GROUP_BLOCKS = [TheoremId.L1_3, TheoremId.K3_9, TheoremId.CHAIN_karrenk, TheoremId.B3_4]


@functools.cache
def l1_3_oracle(n, gens):
    """L1_3's oracle verdicts on the group of `gens`, by chi: they read no
    convention."""
    return {chi: oracles.l1_3_verdict(n, gens, chi) for chi in range(1, 1 << n)}


def group_oracle(theorem, n, values, conv):
    """A group claim's (status, note, systems) on one tuple of its factor
    values, from the oracle of the claim, which keeps nothing and reads no
    block-incidence family."""
    if theorem is TheoremId.L1_3:
        flow, chi = values
        return (*l1_3_oracle(n, tuple(g.image for g in flow.gens))[chi], None)
    if theorem is TheoremId.CHAIN_karrenk:
        cycle, covering = values
        members = setsys.family_members(covering)
        return (*oracles.chain_verdict(n, cycle.generator.image, members, conv.value), None)
    system, flow = values
    verdict = oracles.k3_9_verdict if theorem is TheoremId.K3_9 else oracles.b3_4_verdict
    members = setsys.family_members(system)
    return (*verdict(n, members, [g.image for g in flow.gens], conv.value), None)


class TestOrbitBlockKeys:
    # the group claims' block bodies keep their rows of verdicts by orbit
    # blocks, and read a system once per run: on every cut of a space
    # into blocks of runs, in enumeration order, and on its tuples
    # shuffled as runs of one, with one memo for every block, as a share
    # keeps, and with a fresh one per block, their verdicts must be each
    # tuple's on a run of one and the oracle's

    @staticmethod
    def check_blocks(theorem, n, conv, space, seed):
        """Check the claim's block body on the runs of `space`, a product
        of the claim's factors, cut into the sweep's share blocks and into
        short blocks of 2 to 9 tuples, many of which hold a change of flow
        or system; then on its tuples shuffled, as runs of one, cut the
        same ways.  Returns the verdicts' statuses and how many blocks held
        more than one value of the outer factor."""
        claim, ground = CLAIMS[theorem], GroundSet(n)
        tuples = list(space)
        expected = [group_oracle(theorem, n, values, conv) for values in tuples]

        def seen(verdicts):
            return [(v.status, v.note, v.systems) for v in verdicts]

        alone = (claim.check(ground, verify._one_run(values), conv, {})[0] for values in tuples)
        assert seen(alone) == expected
        rnd = random.Random(seed)
        order = rnd.sample(range(len(tuples)), len(tuples))
        crossings = 0
        for positions in (range(len(tuples)), order):
            share = list(range(0, len(tuples), verify.SHARE_BLOCK)) + [len(tuples)]
            short = [0]
            while short[-1] < len(tuples):
                short.append(min(short[-1] + rnd.randint(2, 9), len(tuples)))
            for cuts in (share, short):
                if positions is order:
                    blocks = [
                        [run for i in order[a:b] for run in verify._one_run(tuples[i])]
                        for a, b in zip(cuts, cuts[1:])
                    ]
                else:
                    blocks = [space.run(a, b) for a, b in zip(cuts, cuts[1:])]
                crossings += sum(len({id(outer[0]) for outer, _ in runs}) > 1 for runs in blocks)
                for fresh in (False, True):
                    memo = {}
                    verdicts = [
                        v
                        for runs in blocks
                        for v in claim.check(ground, runs, conv, {} if fresh else memo)
                    ]
                    assert seen(verdicts) == [expected[i] for i in positions], (cuts, fresh)
        return {status for status, _, _ in expected}, crossings

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", GROUP_BLOCKS, ids=lambda t: t.value)
    def test_every_ordinal_up_to_three_points(self, theorem, conv):
        statuses, crossings = set(), 0
        for n in (1, 2, 3):
            space = CLAIMS[theorem].space(n)
            got, crossed = self.check_blocks(theorem, n, conv, space, f"{theorem.value}:{n}")
            statuses |= got
            crossings += crossed
        assert statuses >= {"holds", "fails"}
        assert crossings > 0

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_l1_3_every_ordinal_at_four_points(self, conv):
        space = CLAIMS[TheoremId.L1_3].space(4)
        statuses, crossings = self.check_blocks(TheoremId.L1_3, 4, conv, space, "L1_3:4")
        assert statuses == {"holds", "fails"}
        assert crossings > 0

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "theorem, systems", [(TheoremId.B3_4, 8), (TheoremId.CHAIN_karrenk, 80)],
        ids=["B3_4", "CHAIN_karrenk"],
    )
    def test_seeded_slices_at_four_points(self, theorem, systems, conv):
        # every flow of the space against a seeded sample of its systems
        claim = CLAIMS[theorem]
        factors = [list(f.values(4)) if f.acts else f.values(4) for f in claim.kind.factors]
        [pos] = [i for i, f in enumerate(claim.kind.factors) if not f.acts]
        picked = random.Random(f"{theorem.value}:{conv.value}").sample(
            range(len(factors[pos])), systems
        )
        factors[pos] = [factors[pos][i] for i in sorted(picked)]
        space = verify._Product(*factors)
        statuses, crossings = self.check_blocks(theorem, 4, conv, space, f"{theorem.value}:4")
        assert "holds" in statuses
        assert crossings > 0


class TestChainDecisions:
    # CHAIN_karrenk's monotone families are its conventional one, so its
    # verdict holds exactly when the weak family contains the conventional
    # one.  Where no orbit block has an empty pre-room that holds by
    # theorem, and the decision builds no family; a decision with an empty
    # pre-room builds its conventional family and lists the weak family
    # once, asking the weak criterion about every invariant set in order

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_only_a_failing_decision_takes_the_whole_weak_family(self, monkeypatch, conv):
        asked, tests, built, listed, decisions = [], [], [], [], []
        weak_test, families = verify._weak_test, verify._conventional
        members_of, decide = verify.family_members, verify._chain_verdict

        def counted_test(*a):
            tests.append(a)
            coherent = weak_test(*a)
            return lambda theta: asked.append(theta) or coherent(theta)

        def counted_decide(*a):
            before = len(asked), len(tests), len(built), len(listed)
            verdict = decide(*a)
            calls = len(tests) - before[1], len(built) - before[2], len(listed) - before[3]
            decisions.append((a, verdict, asked[before[0]:], calls))
            return verdict

        monkeypatch.setattr(verify, "_weak_test", counted_test)
        monkeypatch.setattr(verify, "_conventional", lambda *a: built.append(a) or families(*a))
        monkeypatch.setattr(verify, "family_members", lambda f: listed.append(f) or members_of(f))
        monkeypatch.setattr(verify, "_chain_verdict", counted_decide)
        rep = sweep(TheoremId.CHAIN_karrenk, 3, "exhaustive", conv=conv)
        assert (rep.hold_count, rep.fail_count) == (894, 414)
        assert len(decisions) == 1090
        shortcut = failing = 0
        for (flow, family, table, _), verdict, thetas, calls in decisions:
            if all(table[b] for b in flow.orbit_blocks()):
                # no family built, no weak question, no member listed
                assert (verdict, thetas, calls) == (verify._HOLDS, [], (0, 0, 0))
                shortcut += 1
                continue
            # an empty pre-room: one weak test, one family built and one
            # member list, and at n=3 each such decision fails, having
            # asked about every invariant set once, in order
            assert (calls, verdict.status) == ((1, 1, 1), "fails")
            assert thetas == list(flow._invariant)
            failing += 1
        assert (shortcut, failing) == (785, 305)

    def test_verdicts_do_not_depend_on_the_convention(self):
        # every (cycle, covering) on up to three points, in one block with
        # one memo per convention, and 500 seeded draws on four points:
        # each status and note is the same under both conventions, and
        # both holds and fails occur
        claim, statuses = CLAIMS[TheoremId.CHAIN_karrenk], set()

        def decided(ground, runs, conv):
            return [(v.status, v.note) for v in verify._check_chain(ground, conv, runs, {})]

        for n in (1, 2, 3):
            ground, space = GroundSet(n), claim.space(n)
            runs = list(space.run(0, len(space)))
            full = decided(ground, runs, FULL)
            assert full == decided(ground, runs, NONEMPTY), n
            statuses.update(status for status, _ in full)
        assert statuses == {"holds", "fails"}
        ground, statuses = GroundSet(4), set()
        for k in range(500):
            values = verify._random_instance(
                TheoremId.CHAIN_karrenk, 4, random.Random(f"conv:{k}")
            )
            run = verify._one_run(values)
            [full] = decided(ground, run, FULL)
            assert [full] == decided(ground, run, NONEMPTY), values
            statuses.add(full[0])
        assert {"holds", "fails"} <= statuses

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_pre_rooms_route_each_decision_as_the_oracle_holds(self, monkeypatch, conv):
        # every (cycle, covering) on up to three points, in one block with
        # one memo as a sweep's share, and 2,000 draws each on four to
        # seven points.  The oracle builds every family by its definition,
        # and holds only where its weak family contains its conventional
        # one: it must hold wherever no orbit block has an empty pre-room
        # (each closure by its own scan), and exactly those decisions take
        # the shortcut, which builds no conventional family
        routes, built = [], []
        decide, families = verify._chain_verdict, verify._conventional

        def routed(flow, family, *rest):
            before = len(built)
            verdict = decide(flow, family, *rest)
            routes.append((flow.generator.image, family, len(built) > before))
            return verdict

        monkeypatch.setattr(verify, "_chain_verdict", routed)
        monkeypatch.setattr(verify, "_conventional", lambda *a: built.append(a) or families(*a))
        claim, taken = CLAIMS[TheoremId.CHAIN_karrenk], {}

        def pre_rooms(n, gen, members):
            return [oracles.closure(n, members, conv.value, b) for b in oracles.orbits([gen])]

        for n in range(1, 8):
            ground = GroundSet(n)
            if n <= 3:
                space = claim.space(n)
                cases = list(space)
                verdicts = claim.check(ground, space.run(0, len(space)), conv, {})
            else:
                draws = (random.Random(f"{n}:{k}") for k in range(2000))
                cases = [verify._random_instance(TheoremId.CHAIN_karrenk, n, r) for r in draws]
                runs = [verify._one_run(values) for values in cases]
                verdicts = [v for run in runs for v in claim.check(ground, run, conv, {})]
            for (cycle, covering), verdict in zip(cases, verdicts):
                if covering is None:
                    assert verdict.status == "skipped"
                    continue
                gen, members = cycle.generator.image, setsys.family_members(covering)
                expected = oracles.chain_verdict(n, gen, members, conv.value)
                assert (verdict.status, verdict.note) == expected, (n, gen, covering)
                if 0 not in pre_rooms(n, gen, members):
                    assert expected == ("holds", ""), (n, gen, covering)
            for gen, family, full_route in routes:
                rooms = pre_rooms(n, gen, setsys.family_members(family))
                assert full_route == (0 in rooms), (n, gen, family)
            taken[n] = sum(full_route for *_, full_route in routes), len(routes)
            del routes[:]
        # (decisions by the full route, decisions): both branches reached
        assert taken[3] == (305, 1090)
        assert all(0 < full < decided for full, decided in map(taken.get, (4, 5, 6, 7)))

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [5, 6])
    def test_random_draws_above_the_memo_points_match_the_oracle(self, n, conv):
        # above MEMO_POINTS a trace is a set, decided afresh: the weak memo
        # is not asked
        attract._weakly_coherent.cache_clear()
        claim, ground, statuses = CLAIMS[TheoremId.CHAIN_karrenk], GroundSet(n), set()
        for k in range(60):
            values = verify._random_instance(
                TheoremId.CHAIN_karrenk, n, random.Random(f"{n}:{k}")
            )
            [verdict] = claim.check(ground, verify._one_run(values), conv, {})
            seen = (verdict.status, verdict.note, verdict.systems)
            assert seen == group_oracle(TheoremId.CHAIN_karrenk, n, values, conv), values
            statuses.add(verdict.status)
        assert statuses == {"holds", "fails"}
        assert attract._weakly_coherent.cache_info().currsize == 0


class TestHullOnlyClaims:
    # B3_2, S3_3, B3_4 and IDEM_ydwed read a covering system only through
    # its closure table.  Decided with a fresh memo per system, so that no
    # row is shared between systems, every instance up to n=3 that shares
    # (closure table, the rest of the instance) with another gets the same
    # status and note, so a body that starts to read the members fails
    # here

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "theorem",
        [TheoremId.B3_2, TheoremId.S3_3, TheoremId.B3_4, TheoremId.IDEM_ydwed],
        ids=lambda t: t.value,
    )
    def test_one_status_per_table_and_rest(self, theorem, conv):
        claim, shared = CLAIMS[theorem], 0
        for n in (1, 2, 3):
            ground, space = GroundSet(n), claim.space(n)
            verdicts = [
                v for run in space.run(0, len(space)) for v in claim.check(ground, [run], conv, {})
            ]
            tables, seen = {}, {}
            for (family, *rest), verdict in zip(space, verdicts):
                if family not in tables:
                    members = setsys.family_members(family)
                    tables[family] = tuple(oracles.closure_table(n, members, conv.value))
                key = tables[family], tuple(tuple(g.image for g in flow.gens) for flow in rest)
                seen.setdefault(key, set()).add((verdict.status, verdict.note))
            assert all(len(outcomes) == 1 for outcomes in seen.values()), n
            shared += len(seen) < len(space)
        assert shared


class TestL3_1Body:
    # L3_1's body takes the hull of B and the failing members off family
    # bitmasks; the oracle scans the complements for the hull, then the
    # members.  Under NONEMPTY some instances fail (37 of 1,744 at n=3), so
    # the failing branch and its note are compared too

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_matches_the_scans(self, conv):
        claim, failed = CLAIMS[TheoremId.L3_1], 0
        for n in (1, 2, 3):
            # the whole exhaustive space in one block, with one memo, as a
            # sweep's share
            space = claim.space(n)
            verdicts = claim.check(GroundSet(n), space.run(0, len(space)), conv, {})
            for (family, b), verdict in zip(space, verdicts):
                expected = oracles.l3_1_verdict(n, setsys.family_members(family), b, conv.value)
                assert (verdict.status, verdict.note) == expected, (n, family, b)
                failed += expected[0] == "fails"
        for n in (6, 8):
            rnd = random.Random(f"L3_1:{n}")
            for _ in range(2000):
                members, b = oracles.sample_members(rnd, n), rnd.randrange(1 << n)
                run = (family_bitmask(members),), (b,)
                [verdict] = claim.check(GroundSet(n), [run], conv, {})
                expected = oracles.l3_1_verdict(n, members, b, conv.value)
                assert (verdict.status, verdict.note) == expected, (n, members, b)
        assert (failed > 0) == (conv is NONEMPTY)

    def test_documents_of_any_family(self):
        # a document's system need not cover the ground
        for n, conv in itertools.product((1, 2, 3), (FULL, NONEMPTY)):
            for members in oracles.families(n):
                for b in range(1 << n):
                    inst = oracles._doc(n, conv.value, {"A": members, "B": [b]})
                    verdict = check_theorem(TheoremId.L3_1, inst, conv)
                    expected = oracles.l3_1_verdict(n, members, b, conv.value)
                    assert (verdict.status, verdict.note) == expected, (members, b)


class TestSystemDraws:
    # a random system's coins are read from one getrandbits call, which
    # CPython fills with the Mersenne Twister words that random() reads two
    # at a time; the oracle asks random() once per subset.  The state after
    # a draw must match too, as the draws that follow (B, generators, maps)
    # read on from it

    def test_draws_match_one_random_call_per_subset(self):
        forced = 0
        for n in range(1, 11):
            ground = GroundSet(n)
            for seed in range(300):
                expected, coins = random.Random(f"{seed}:{n}"), random.Random(f"{seed}:{n}")
                members = oracles.sample_members(expected, n)
                # the draws whose ground was added to cover
                forced += members != [m for m in range(1 << n) if coins.random() < 0.5]
                for factor, value in (
                    (verify._MEMBERS, tuple(members)), (verify._FAMILY, family_bitmask(members))
                ):
                    rnd = random.Random(f"{seed}:{n}")
                    assert factor.draw(rnd, ground) == value, (n, seed)
                    assert rnd.getstate() == expected.getstate(), (n, seed)
        assert forced

    def test_l3_1_draw_tosses_no_coin_per_subset(self, monkeypatch):
        # the system is drawn as one family bitmask, and its members are
        # never listed
        calls = []

        class Counted(random.Random):
            def random(self):
                calls.append("random")
                return super().random()

            # keeps randrange on getrandbits, as a subclass that overrides
            # random() alone would move it onto random()
            def getrandbits(self, k):
                return super().getrandbits(k)

        monkeypatch.setattr(random, "Random", Counted)
        monkeypatch.setattr(verify, "family_members", lambda family: calls.append("members"))
        rep = sweep(TheoremId.L3_1, 8, "random", samples=50, seed=0)
        assert rep.instance_count == 50
        assert calls == []


class TestFibrationClaims:
    # B3_6 and B3_7 read the fibration classes and the complement-free
    # family as family bitmasks, the latter off an up-closure; the oracles
    # group the subsets by their scanned closure, scan the members for
    # each subset and compare frozensets

    FIBRATION_CLAIMS = [TheoremId.B3_6, TheoremId.B3_7]

    @staticmethod
    def oracle(theorem, n, values, conv):
        if theorem is TheoremId.B3_6:
            (family,) = values
            members = [m for m in range(1 << n) if family >> m & 1]
            return oracles.b3_6_verdict(n, members, conv.value)
        family, f = values
        return oracles.b3_7_verdict(n, setsys.family_members(family), f.image, conv.value)

    def check(self, theorem, n, conv, runs):
        """The claim's verdicts on a block of runs, each against the
        oracle's; returns the oracle's statuses."""
        got = CLAIMS[theorem].check(GroundSet(n), runs, conv, {})
        expected = [
            self.oracle(theorem, n, (*outer, v), conv) for outer, inner in runs for v in inner
        ]
        assert [(v.status, v.note) for v in got] == expected
        return {status for status, _ in expected}

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", FIBRATION_CLAIMS, ids=lambda t: t.value)
    def test_every_instance_up_to_three_points(self, theorem, conv):
        statuses = set()
        for n in (1, 2, 3):
            space = CLAIMS[theorem].space(n)
            statuses |= self.check(theorem, n, conv, space.run(0, len(space)))
            rep = sweep(theorem, n, "exhaustive", conv=conv)
            counts = (rep.hold_count, rep.fail_count, rep.skip_count)
            assert counts == oracles.fibration_counts(theorem.value, n, conv.value), n
        assert statuses == {"holds", "fails"}

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_classes_and_cores_of_every_family_up_to_three_points(self, conv):
        # a class's core taken as its least cell leaves every verdict as it
        # is (where the representation holds, the AND of a class is its
        # least cell), so the classes and cores are compared themselves
        for n in (1, 2, 3):
            for members in oracles.families(n):
                # a class is its least cell and its family bitmask shifted
                # down by that cell
                fibration = oracles.fibration(n, members, conv.value)
                expected = (
                    {
                        key: (cells[0], family_bitmask(z - cells[0] for z in cells))
                        for key, cells in fibration.items()
                    },
                    {key: oracles.core(cells) for key, cells in fibration.items()},
                )
                cl = closure_map_of(n, family_bitmask(members), conv)
                assert setsys.fibration_classes(cl) == expected, (n, members)

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_b3_6_seeded_sample_at_four_points(self, conv):
        families = verify._covering_families(4)
        picked = random.Random(f"B3_6:4:{conv.value}").sample(families, 2000)
        assert self.check(TheoremId.B3_6, 4, conv, [((), picked)]) == {"holds", "fails"}


class TestCantorRows:
    # an exhaustive sweep decides hull commutation once per (closure table,
    # map image) and each side's memberships once per (minimal family, map
    # image), in its memo; the oracle decides every (system, map) afresh
    # by pair scans over every nonempty member

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.S3_8_all, TheoremId.S3_8_bij],
                             ids=lambda t: t.value)
    def test_s3_8_counts_match_the_pair_scan_oracle(self, theorem, conv):
        bijective = theorem is TheoremId.S3_8_bij
        for n in (1, 2, 3):
            rep = sweep(theorem, n, "exhaustive", conv=conv)
            counts = (rep.hold_count, rep.fail_count, rep.skip_count)
            assert counts == oracles.s3_8_counts(n, conv.value, bijective), n

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize(
        "theorem, instances, commutations, memberships",
        [
            # 90 closure tables and 19 minimal families, over both sides,
            # among the 218 coverings at n=3, by 27 self-maps: one
            # statement row per instance makes 5886 of each
            (TheoremId.S3_8_all, 218 * 27, 90 * 27, 19 * 27),
            # the same by 6 bijections
            (TheoremId.S3_8_bij, 218 * 6, 90 * 6, 19 * 6),
            # the same by the 6 permutations that generate the 21 groups
            (TheoremId.K3_9, 218 * 21, 90 * 6, 19 * 6),
            # the premise of B3_2 and S3_3 reads hull commutation alone,
            # where one test per system and generator makes 218 x 6
            (TheoremId.B3_2, 218 * 21, 90 * 6, 0),
            (TheoremId.S3_3, 218 * 21, 90 * 6, 0),
            # B3_10 reads the system's side alone: 18 minimal families on
            # that side, by 6 bijections, where one decision per instance
            # makes 218 x 6
            (TheoremId.B3_10, 218 * 6, 0, 18 * 6),
        ],
        ids=["S3_8_all", "S3_8_bij", "K3_9", "B3_2", "S3_3", "B3_10"],
    )
    def test_cantor_decisions_once_per_table_and_minimal_family(
        self, monkeypatch, theorem, instances, commutations, memberships, conv
    ):
        # a side keyed by its whole family, or each side's rows kept
        # apart, gives the same verdicts and more decisions
        decided = {"commutes": 0, "members": 0}
        commutes, members = kernels.commutes_with_closure, cantor._memberships

        def counted(key, decide):
            def call(*a):
                decided[key] += 1
                return decide(*a)
            return call

        monkeypatch.setattr(kernels, "commutes_with_closure", counted("commutes", commutes))
        monkeypatch.setattr(cantor, "_memberships", counted("members", members))
        rep = sweep(theorem, 3, "exhaustive", conv=conv)
        assert rep.instance_count == instances
        assert decided == {"commutes": commutations, "members": memberships}

    def test_random_b3_10_builds_no_closure_table(self, monkeypatch):
        # B3_10 reads the system's membership side, and no closure table,
        # which takes 2^16 cells on 16 points
        tables = count_closure_tables(monkeypatch)
        rep = sweep(TheoremId.B3_10, 16, "random", samples=3, seed=0)
        assert rep.instance_count == 3
        assert tables == []

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_b3_10_counts_match_the_pair_scan_oracle(self, conv):
        for n in (1, 2, 3):
            rep = sweep(TheoremId.B3_10, n, "exhaustive", conv=conv)
            counts = (rep.hold_count, rep.fail_count, rep.skip_count)
            assert counts == oracles.b3_10_counts(n), n

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.B3_2, TheoremId.S3_3], ids=lambda t: t.value)
    def test_premise_met_matches_the_group_listing_oracle(self, theorem, conv):
        # the instances that get past the commutation premise, whose
        # verdict is not its note, against the pairs whose listed group
        # commutes with the hull element by element
        claim, premise = CLAIMS[theorem], "flow does not commute with the hull; premise not met"
        for n in (1, 2, 3):
            ground, memo, met = GroundSet(n), {}, 0
            for _, runs in verify._exhaustive_instances(theorem, n, 0, 1):
                met += sum(v.note != premise for v in claim.check(ground, runs, conv, memo))
            assert met == oracles.commutation_premise_met(n, conv.value), n
            if n == 3:
                assert met == 1170


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

    def test_per_layer_names_exist(self):
        # sweepbench reports calls of these functions as per-layer metrics;
        # sweeps that route around them must not lose them
        for module, name in ((kernels, "closure_table"), (setsys, "closure_map"),
                             (cantor, "cantor_membership")):
            assert inspect.isfunction(getattr(module, name, None)), name


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


def flatten(runs):
    """The tuples of factor values a block of runs holds, in order."""
    return [(*outer, v) for outer, inner in runs for v in inner]


def count_closure_tables(monkeypatch):
    """A list that gets one entry per closure table of a family, whatever
    the route: one per family of a `closure_tables_of` run (setsys's names
    and verify's), through which `closure_map_of` builds its table on up
    to 4 points; one per `closure_map_of` call above 4 points; and one per
    `kernels.closure_table` call on up to 4 points (above them
    `closure_map_of` builds its table through it)."""
    tables = []

    def wrap(module, name, count):
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a: tables.extend([a] * count(*a)) or fn(*a)
        )

    for module in (setsys, verify):
        wrap(module, "closure_map_of", lambda n, *a: int(n > 4))
        wrap(module, "closure_tables_of", lambda n, families, *a: len(families))
    wrap(kernels, "closure_table", lambda n, sources: int(n <= 4))
    return tables


#: The function each group claim with a memo decides a verdict by, once per
#: orbit partition and chi, per orbit partition and covering, or per
#: system and orbit partition.
DECISIONS = {
    TheoremId.L1_3: "_l1_3_verdict",
    TheoremId.CHAIN_karrenk: "_chain_verdict",
    TheoremId.B3_4: "_room_verdict",
}


def count_decisions(monkeypatch, theorem):
    """A list that gets one entry per verdict the claim's block body
    decides."""
    decided = []
    name = DECISIONS[theorem]
    decide = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a: decided.append(a) or decide(*a))
    return decided


class RecordingProcess:
    """Stands in for multiprocessing.Process: runs its target in this
    process when started, and records the arguments of each start."""

    started: list = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        RecordingProcess.started.append(self.args)
        self.target(*self.args)

    def join(self):
        pass

    def terminate(self):
        pass


@pytest.fixture
def recording_process(monkeypatch):
    RecordingProcess.started = []
    monkeypatch.setattr(multiprocessing, "Process", RecordingProcess)
    return RecordingProcess


def deals(started):
    """The (worker, shares, first block) of each child started, from its
    arguments `(send, *task, worker, shares, first)`."""
    return [args[-3:] for args in started]


@pytest.fixture
def hand_off_early(monkeypatch):
    """Makes a parallel sweep hand off at its first eligible boundary, the
    end of block 1, the first block whose cost sets the pace: at a FORK_S
    of 0 a rest of any length outweighs the children."""
    monkeypatch.setattr(verify, "FORK_S", 0)


def clock_by_blocks(monkeypatch, cost):
    """Stands in for verify's clock: it reads 0 until the first checker
    body call, and each call moves it on by `cost(i)`, i the call's index.
    An exhaustive sweep calls the body once per block."""
    now, calls = [0.0], itertools.count()
    check = Claim.check

    def timed(claim, *args):
        now[0] += cost(next(calls))
        return check(claim, *args)

    monkeypatch.setattr(Claim, "check", timed)
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))


def force_hand_off(monkeypatch, k):
    """Makes a parallel sweep hand off after block k - 1 whatever its pace
    (k < 0 counts from the end of the space's blocks), to as many shares as
    it has workers, and check every share in this process.  Returns a list
    that gets the parts of each such sweep: the sweeping process's first,
    then each child share's."""
    swept = []

    def parallel_parts(task, workers):
        dealt = []

        def hand_off(at, blocks):
            if at != k % blocks:
                return 1
            dealt.append(at)
            return workers

        parts = [verify._evaluate(*task, 0, 1, 0, hand_off)]
        parts += [verify._evaluate(*task, w, workers, *dealt) for w in range(1, workers) if dealt]
        swept.append(parts)
        return parts

    monkeypatch.setattr(verify, "_parallel_parts", parallel_parts)
    return swept


def failing_everywhere(monkeypatch, theorem):
    """Registers in place of the claim one that fails every instance of
    the same space, so that a sweep's counterexamples, up to its cap, name
    the ordinals it checked."""
    claim = CLAIMS[theorem]
    fails = verify._fails("stand-in")
    patched = Claim(
        verify._each(lambda *values: fails), claim.kind, claim.max_exhaustive_n,
        claim.default_samples, read=claim.read,
    )
    monkeypatch.setitem(CLAIMS, theorem, patched)


@pytest.mark.usefixtures("hand_off_early")
class TestWorkerShares:
    @pytest.mark.parametrize(
        "cpus, jobs, workers",
        [(2, 5000, 2), (3, 5000, 3), (8, 3, 3), (None, 5000, None), (1, 4, None)],
    )
    def test_pool_bounded_by_cpu_count(self, monkeypatch, recording_process, cpus, jobs, workers):
        # `workers` shares: the sweeping process checks share 0 and starts
        # one child for each other share; a serial sweep starts none.  300
        # samples fill 5 blocks of 64: the hand-off after block 1 deals 3,
        # as many as any share count here
        monkeypatch.setattr(verify, "SHARE_BLOCK", 64)
        kwargs = dict(samples=300, max_counterexamples=3)
        serial = sweep(TheoremId.S3_8_all, 3, "random", **kwargs)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = sweep(TheoremId.S3_8_all, 3, "random", jobs=jobs, **kwargs)
        assert deals(recording_process.started) == [(w, workers, 2) for w in range(1, workers or 1)]
        assert rep.to_payload() == serial.to_payload()

    @pytest.mark.parametrize("block", [None, 147, 146, 49, 37, 21])
    def test_no_child_for_an_empty_share(self, monkeypatch, recording_process, block):
        # L1_3 at n=3 has 147 ordinals.  A sweep hands off after block 1
        # (hand_off_early) and deals the blocks left to no more shares than
        # they fill, so that no child gets an empty share: none where one,
        # two or three blocks hold them all (one of the default size does),
        # one child for --jobs 2 and 3 alike where four do (blocks of 37),
        # and jobs - 1 where seven do; random mode deals its 147 samples
        # the same way.  None is the default block
        if block is not None:
            monkeypatch.setattr(verify, "SHARE_BLOCK", block)
        left = -(-147 // verify.SHARE_BLOCK) - 2
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for mode, samples in (("exhaustive", None), ("random", 147)):
            kwargs = dict(samples=samples, seed=2, max_counterexamples=3)
            serial = sweep(TheoremId.L1_3, 3, mode, **kwargs)
            assert serial.instance_count == 147
            for jobs in (2, 3):
                recording_process.started.clear()
                rep = sweep(TheoremId.L1_3, 3, mode, jobs=jobs, **kwargs)
                workers = min(jobs, left)
                started = deals(recording_process.started)
                assert started == [(w, workers, 2) for w in range(1, workers)], (mode, jobs)
                assert rep.to_payload() == serial.to_payload()

    @pytest.mark.parametrize("fork_s, started", [(0, [(1, 2, 2)]), (math.inf, [])])
    def test_hand_off_after_block_one_or_never(
        self, monkeypatch, recording_process, fork_s, started
    ):
        # at a FORK_S of 0 a sweep hands off after block 1, whose cost is
        # the first to set a pace; at an infinite one it never does, though
        # every block takes an hour
        monkeypatch.setattr(verify, "FORK_S", fork_s)
        monkeypatch.setattr(verify, "SHARE_BLOCK", 64)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        clock_by_blocks(monkeypatch, lambda i: 3600.0)
        for mode, samples in (("exhaustive", None), ("random", 218)):
            serial = sweep(TheoremId.IDEM_ydwed, 3, mode, samples=samples)
            recording_process.started.clear()
            rep = sweep(TheoremId.IDEM_ydwed, 3, mode, samples=samples, jobs=2)
            assert deals(recording_process.started) == started, mode
            assert rep.to_payload() == serial.to_payload()

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("k", [1, 2, -1], ids=["1", "2", "last"])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_hand_off_partitions_the_ordinals(self, monkeypatch, mode, k, jobs):
        # L1_3's 147 ordinals (or samples) in 10 blocks of 16: after a
        # hand-off at boundary k, the sweeping process has checked blocks 0
        # to k - 1 and goes on with share 0 of the blocks from k on, and
        # child share w checks the blocks k + w, k + w + jobs, ...: every
        # ordinal is checked once.  At the last boundary, one block is left
        # for share 0 and none for the others
        monkeypatch.setattr(verify, "SHARE_BLOCK", 16)
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        failing_everywhere(monkeypatch, TheoremId.L1_3)
        swept = force_hand_off(monkeypatch, k)
        samples = 147 if mode == "random" else None
        rep = sweep(TheoremId.L1_3, 3, mode, samples=samples, max_counterexamples=147, jobs=jobs)
        assert [c["ordinal"] for c in rep.counterexamples] == list(range(147))
        [parts] = swept
        first = k % 10
        checked = [[c["ordinal"] for c in part[4]] for part in parts]
        assert [part[0] for part in parts] == list(map(len, checked))
        assert checked[0] == [
            o for o in range(147) if o // 16 < first or (o // 16 - first) % jobs == 0
        ]
        for w, share in enumerate(checked[1:], 1):
            assert share == [o for o in range(147) if o // 16 >= first and (o // 16 - first) % jobs == w]

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("k", [1, 2, -1], ids=["1", "2", "last"])
    def test_hand_off_matches_serial_for_every_claim(self, monkeypatch, conv, k):
        # every claim's exhaustive payload on up to 3 points, in blocks of
        # 5, with a hand-off to 2 shares forced at boundary k: every space
        # of more blocks than k is handed off
        monkeypatch.setattr(verify, "SHARE_BLOCK", 5)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        swept = force_hand_off(monkeypatch, k)
        for theorem in TheoremId:
            for n in range(1, 4):
                kwargs = dict(conv=conv, max_counterexamples=4)
                serial = sweep(theorem, n, **kwargs).to_payload()
                assert sweep(theorem, n, jobs=2, **kwargs).to_payload() == serial, (theorem, n)
                blocks = -(-len(CLAIMS[theorem].space(n)) // 5)
                assert len(swept[-1]) == (2 if k % blocks else 1), (theorem, n)

    def test_a_slow_first_block_sets_no_pace(self, monkeypatch, recording_process):
        # L1_3 at n=4 fills 18 blocks.  Its first block, which warms the
        # memo, takes 8 FORK_S, and each later one FORK_S / 16: the rest
        # measured after block 1 is one FORK_S, which two shares would not
        # outweigh.  Paced by block 0, it would be 128 FORK_S
        monkeypatch.setattr(verify, "FORK_S", 1.0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = sweep(TheoremId.L1_3, 4)
        clock_by_blocks(monkeypatch, lambda i: 8.0 if i == 0 else 1 / 16)
        rep = sweep(TheoremId.L1_3, 4, jobs=2)
        assert recording_process.started == []
        assert rep.to_payload() == serial.to_payload()

    @pytest.mark.parametrize(
        "cost, jobs, started",
        [
            # the sweep has run for FORK_S after block 1, and the 16 blocks
            # left take 8 FORK_S: as many shares as workers
            (1 / 2, 5, [(1, 5, 2), (2, 5, 2), (3, 5, 2), (4, 5, 2)]),
            (1 / 2, 2, [(1, 2, 2)]),
            # it has run for FORK_S after block 3, and the 14 left take 3.5
            (1 / 4, 5, [(1, 3, 4), (2, 3, 4)]),
            # after block 7, the 10 left take 1.25 FORK_S, and less later
            (1 / 8, 5, []),
        ],
    )
    def test_children_as_the_rest_outweighs(
        self, monkeypatch, recording_process, cost, jobs, started
    ):
        # w - 1 children for the most shares w, up to the workers, whose
        # w * FORK_S the rest exceeds, once the sweep has run for FORK_S;
        # each block of L1_3 n=4's 18 costs `cost` FORK_S
        monkeypatch.setattr(verify, "FORK_S", 1.0)
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        serial = sweep(TheoremId.L1_3, 4)
        clock_by_blocks(monkeypatch, lambda i: cost)
        rep = sweep(TheoremId.L1_3, 4, jobs=jobs)
        assert deals(recording_process.started) == started
        assert rep.to_payload() == serial.to_payload()

    def test_sweeping_process_keeps_its_memo_across_the_hand_off(self, monkeypatch, deadline):
        # the blocks the sweeping process checks after the hand-off read
        # the verdicts decided before it from the same memo: the process
        # decides none twice.  Its first two blocks meet all 15 orbit
        # partitions on 4 points, each under all 15 chi.  Its child, a real
        # process, counts in a copy of the list
        decided = count_decisions(monkeypatch, TheoremId.L1_3)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = []

        class Process(multiprocessing.Process):
            def start(self):
                started.append(decided[:])
                super().start()

        monkeypatch.setattr(multiprocessing, "Process", Process)
        serial = sweep(TheoremId.L1_3, 4)
        del decided[:]
        assert sweep(TheoremId.L1_3, 4, jobs=2).to_payload() == serial.to_payload()
        [before] = started
        keys = [(blocks, chi) for _, blocks, chi in decided]
        assert len(before) == len(keys) == len(set(keys)) == 15 * 15

    def test_parent_builds_the_cached_factors_before_the_pool(self, monkeypatch):
        # forked children inherit the covering families the parent built,
        # where each would otherwise build them again on every sweep; the
        # 218 systems at n=3 fill 4 blocks of 64
        monkeypatch.setattr(verify, "SHARE_BLOCK", 64)
        cached = []

        class Process(RecordingProcess):
            def start(self):
                cached.append(verify._covering_families.cache_info().currsize)
                super().start()

        verify._covering_families.cache_clear()
        monkeypatch.setattr(multiprocessing, "Process", Process)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rep = sweep(TheoremId.IDEM_ydwed, 3, "exhaustive", jobs=2)
        assert rep.instance_count == 218
        assert cached == [1]

    def test_child_builds_maps_and_flows_only_for_its_share(self, monkeypatch):
        # a process keeps no maps or flows: each builds its space's
        # generator sets, cycles, self-maps or relabelings, every one of
        # them through these two constructors (a permutation is a
        # self-map), and a body may build more per instance (COVAR).  The
        # sweeping process builds its space and checks its first blocks
        # before the child starts; the child builds a space of its own and
        # what its share's ordinals need, so that the two build what a
        # serial sweep builds and one space more.  Blocks of 16 give every
        # space here a child
        monkeypatch.setattr(verify, "SHARE_BLOCK", 16)
        built = []

        class Process(RecordingProcess):
            def start(self):
                built.append("child")
                super().start()
                built.append("sent")

        for cls in (EndoFunction, DiscreteFlow):
            def counting(obj, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built.append(_cls)
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        monkeypatch.setattr(multiprocessing, "Process", Process)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for theorem in (TheoremId.L1_3, TheoremId.CHAIN_karrenk, TheoremId.S3_8_all,
                        TheoremId.COVAR):
            del built[:]
            CLAIMS[theorem].space(3)
            space = len(built)
            del built[:]
            sweep(theorem, 3, "exhaustive")
            serial = len(built)
            del built[:]
            sweep(theorem, 3, "exhaustive", jobs=2)
            start, sent = built.index("child"), built.index("sent")
            assert start >= space and sent - start - 1 >= space, theorem
            assert len(built) - 2 == serial + space, theorem

    @pytest.mark.parametrize("theorem, n", [(TheoremId.L1_3, 3), (TheoremId.IDEM_ydwed, 3)])
    def test_worker_builds_only_its_share(self, monkeypatch, theorem, n):
        # the worker's walk yields the factor tuples of its own ordinals
        # only, each the one its ordinal indexes, and keeping no witness
        # (cap 0) builds no Instance; blocks of 64 give worker 1 of 2 a
        # share of these spaces
        monkeypatch.setattr(verify, "SHARE_BLOCK", 64)
        walked, built = [], []
        walk, init = verify._exhaustive_instances, Instance.__init__

        def recording(*args):
            for block, runs in walk(*args):
                values = flatten(runs)
                assert len(block) == len(values)
                walked.extend(zip(block, values))
                yield block, runs

        def counting(inst, *args, **kwargs):
            built.append(1)
            init(inst, *args, **kwargs)

        monkeypatch.setattr(verify, "_exhaustive_instances", recording)
        monkeypatch.setattr(Instance, "__init__", counting)
        total, *_ = verify._evaluate(theorem, n, "exhaustive", None, None, FULL, 0, 1, 2)
        size = closed_form_size(SPACE_KINDS[theorem], n)
        share = [o for o in range(size) if o // verify.SHARE_BLOCK % 2 == 1]
        assert 0 < len(share) < size
        assert total == len(share)
        assert [ordinal for ordinal, _ in walked] == share
        space = CLAIMS[theorem].space(n)
        assert all(values == space[ordinal] for ordinal, values in walked)
        assert built == []

    def test_walk_unranks_once_per_share_block(self, monkeypatch):
        # each block's first ordinal is unranked, and the walk steps to
        # the rest: 1010 unrankings in an IDEM_ydwed n=4 sweep, where
        # unranking every ordinal makes 64,594
        unranked = []
        digits = verify._Product._digits
        monkeypatch.setattr(
            verify._Product, "_digits",
            lambda space, ordinal: unranked.append(ordinal) or digits(space, ordinal),
        )
        rep = sweep(TheoremId.IDEM_ydwed, 4, "exhaustive")
        assert rep.instance_count == 64594
        assert unranked == list(range(0, 64594, verify.SHARE_BLOCK))

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_walk_matches_indexing_across_carries(self, monkeypatch, block):
        # blocks that end inside, at and across the wraps of the inner
        # factors of a three-factor space
        monkeypatch.setattr(verify, "SHARE_BLOCK", block)
        space = CLAIMS[TheoremId.COVAR].space(3)
        for jobs in (1, 2, 3):
            for worker in range(jobs):
                blocks = list(verify._exhaustive_instances(TheoremId.COVAR, 3, worker, jobs))
                assert [b for b, _ in blocks] == list(
                    verify._share_blocks(len(space), worker, jobs)
                )
                pairs = [pair for b, runs in blocks for pair in zip(b, flatten(runs))]
                assert len(pairs) == sum(len(b) for b, _ in blocks)
                assert all(values == space[o] for o, values in pairs)

    @pytest.mark.parametrize("jobs", [2, 3, 7])
    def test_shares_match_serial_for_every_claim(self, monkeypatch, recording_process, jobs):
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


def share_by_worker(monkeypatch, body):
    """Makes each share of a sweep run `body(worker, evaluate, args)` in
    place of `_evaluate(*args)`, the worker the argument after the sweep's
    seven (share 0 that of the sweeping process, called before any hand-off);
    forked children inherit the patch."""
    evaluate = verify._evaluate
    monkeypatch.setattr(verify, "_evaluate", lambda *args: body(args[7], evaluate, args))


@pytest.fixture
def deadline():
    """Fails a test still running after a minute, where a sweep waiting on
    a child that will never send would otherwise hang the suite."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("hand_off_early")
class TestChildProcesses:
    """Parallel sweeps through real child processes."""

    def test_child_shares_match_serial_for_every_claim(self, monkeypatch):
        # the deal of the stand-in test above, through two children that
        # inherit the blocks: of single ordinals; of 5, which split the
        # runs of an outer value between processes; and of the default
        # size, which deals the n=2 spaces to share 0 alone
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for block in (1, 5, verify.SHARE_BLOCK):
            monkeypatch.setattr(verify, "SHARE_BLOCK", block)
            for theorem in TheoremId:
                for n, mode, samples in ((2, "exhaustive", None), (3, "random", 200)):
                    kwargs = dict(samples=samples, seed=5, max_counterexamples=4)
                    serial = sweep(theorem, n, mode, **kwargs).to_payload()
                    parallel = sweep(theorem, n, mode, jobs=3, **kwargs).to_payload()
                    assert parallel == serial, (block, theorem, mode)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (InstanceError("flows.x", "bad"), 2, "hullflow: error: flows.x: bad\n"),
            (ZeroDivisionError("boom"), 3, "hullflow: internal error: ZeroDivisionError: boom\n"),
        ],
        ids=["library", "bug"],
    )
    def test_child_error_raised_by_the_sweep(
        self, monkeypatch, capsys, deadline, error, code, line
    ):
        # the exception a child's share raises crosses the pipe with its
        # type, so the CLI tells a library error (exit 2) from a bug (3)
        def body(worker, evaluate, args):
            if worker == 1:
                raise error
            return evaluate(*args)

        share_by_worker(monkeypatch, body)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(type(error)) as caught:
            sweep(TheoremId.L3_1, 3, "exhaustive", jobs=2)
        assert str(caught.value) == str(error)
        assert getattr(caught.value, "path", None) == getattr(error, "path", None)
        assert multiprocessing.active_children() == []
        assert cli.main(["sweep", "L3_1", "--n", "3", "--jobs", "2"]) == code
        assert capsys.readouterr() == ("", line)
        assert multiprocessing.active_children() == []

    def test_child_exit_without_its_share_is_named(self, monkeypatch, capsys, deadline):
        # a child that dies before sending ends its pipe, so the sweeping
        # process reads the end rather than waiting on it
        def body(worker, evaluate, args):
            if worker == 2:
                os._exit(7)
            return evaluate(*args)

        share_by_worker(monkeypatch, body)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        message = "sweep worker 2 exited with code 7 without sending its share"
        with pytest.raises(RuntimeError, match=message):
            sweep(TheoremId.L3_1, 3, "exhaustive", jobs=3)
        assert multiprocessing.active_children() == []
        assert cli.main(["sweep", "L3_1", "--n", "3", "--jobs", "3"]) == 3
        assert capsys.readouterr() == ("", f"hullflow: internal error: RuntimeError: {message}\n")
        assert multiprocessing.active_children() == []

    def test_share_zero_error_stops_the_children(self, monkeypatch, deadline):
        # the children would check their shares for two minutes: they are
        # terminated and joined before the error of the sweeping process,
        # raised by its first block after the hand-off, leaves
        started = []

        class Process(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        def body(worker, evaluate, args):
            if worker == 0:
                return evaluate(*args)
            time.sleep(120)

        check = Claim.check

        def failing(claim, *args):
            if started:
                raise ValueError("share 0 failed")
            return check(claim, *args)

        share_by_worker(monkeypatch, body)
        monkeypatch.setattr(Claim, "check", failing)
        monkeypatch.setattr(multiprocessing, "Process", Process)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        with pytest.raises(ValueError, match="share 0 failed"):
            sweep(TheoremId.L3_1, 3, "exhaustive", jobs=3)
        assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
        assert multiprocessing.active_children() == []


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


def explication_oracle(n, members, image, convention):
    """S3_8's (status, note) on the system `members` and the point map
    `image`: hull commutation from each subset's closure, scanned, and its
    image, taken point by point; the two-sided memberships by pair scans."""
    full = (1 << n) - 1
    cl = oracles.closure_table(n, members, convention)
    outcome = (
        all(oracles.image(image, cl[z]) == cl[oracles.image(image, z)] for z in range(1 << n)),
        all(oracles.memberships(image, members)),
        all(oracles.memberships(image, [full ^ m for m in members])),
    )
    if len(set(outcome)) == 1:
        return "holds", ""
    return "fails", "commutative={} two-sided(system)={} two-sided(complement)={}".format(
        *outcome
    )


def composed_failures(run, n):
    """The positions of the tables of 2^n cells in `run` that differ from
    themselves composed with themselves, cell by cell."""
    size = 1 << n
    tables = [run[i : i + size] for i in range(0, len(run), size)]
    return [i for i, cl in enumerate(tables) if [cl[c] for c in cl] != list(cl)]


def random_idempotent(rnd, n):
    """An arbitrary idempotent table of 2^n cells, as bytes: each cell maps
    to one of a random set of cells that map to themselves."""
    size = 1 << n
    fixed = rnd.sample(range(size), rnd.randint(1, size))
    return bytes(z if z in fixed else rnd.choice(fixed) for z in range(size))


def random_not_idempotent(rnd, n):
    """An arbitrary table of 2^n cells, as bytes, that is not idempotent."""
    while True:
        cl = bytes(rnd.randrange(1 << n) for _ in range(1 << n))
        if composed_failures(cl, n):
            return cl


class TestBlockBodies:
    # the IDEM_ydwed and S3_8 block bodies against the routes they
    # replaced: composition cell by cell, the per-instance verdict and the
    # brute-force oracles

    @pytest.mark.parametrize("conv, fails", [(FULL, 0), (NONEMPTY, 470)], ids=["full", "nonempty"])
    def test_idempotence_by_run_matches_composition(self, conv, fails):
        # every covering family up to n=4, as one run and as the runs of
        # the share blocks; the last chunk of most of them is short
        for n in (1, 2, 3, 4):
            families = verify._covering_families(n)
            run = setsys.closure_tables_of(n, families, conv)
            expected = composed_failures(run, n)
            assert verify._not_idempotent(run, n) == expected, n
            block = verify.SHARE_BLOCK
            by_blocks = [
                start + i
                for start in range(0, len(families), block)
                for i in verify._not_idempotent(
                    setsys.closure_tables_of(n, families[start : start + block], conv), n
                )
            ]
            assert by_blocks == expected, n
        assert len(expected) == fails

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("n", [5, 6])
    def test_idempotence_above_four_points_matches_the_oracle(self, n, conv):
        # above 4 points the body takes each draw's table as a list; the
        # oracle takes each closure by its own scan and composes the table
        # cell by cell.  Every one of these draws holds, so the sweeps
        # cover the holding route only
        claim, samples = CLAIMS[TheoremId.IDEM_ydwed], 200
        draws = [claim.kind.draw(n, random.Random(f"1:{o}")) for o in range(samples)]
        held = sum(
            oracles.idempotent(n, [m for m in range(1 << n) if family >> m & 1], conv.value)
            for family, in draws
        )
        rep = sweep(TheoremId.IDEM_ydwed, n, "random", samples=samples, seed=1, conv=conv)
        assert (rep.hold_count, rep.fail_count) == (held, samples - held) == (samples, 0)

    def test_idempotence_fails_on_five_points_only_when_nonempty(self):
        # the members {4} and the ground: under "full" the empty complement
        # of the ground keeps cl(0) = 0, under "nonempty" cl(0) is {0,..,3}
        # while cl({4}) = 0, so cl(cl({4})) != cl({4})
        doc = {"ground": 5, "systems": {"A": [[4], [0, 1, 2, 3, 4]]}}
        assert oracles.idempotent(5, [16, 31], "full")
        assert not oracles.idempotent(5, [16, 31], "nonempty")
        assert check_theorem(TheoremId.IDEM_ydwed, doc, FULL).status == "holds"
        verdict = check_theorem(TheoremId.IDEM_ydwed, doc, NONEMPTY)
        assert (verdict.status, verdict.note) == ("fails", "z=0x10: cl(z)=0x0 but cl(cl(z))=0xf")
        witness = verdict.witness
        assert witness["convention"] == "nonempty"
        replayed = check_theorem(TheoremId.IDEM_ydwed, witness, NONEMPTY)
        assert (replayed.status, replayed.note) == (verdict.status, verdict.note)

    def test_one_failing_table_at_each_position(self):
        # arbitrary idempotent byte tables, two chunks and three tables
        # long, with one failing table at each position in turn, then with
        # failing tables at random positions
        rnd = random.Random(22)
        for n in (1, 2, 3, 4):
            count = 2 * (256 >> n) + 3
            tables = [random_idempotent(rnd, n) for _ in range(count)]
            assert verify._not_idempotent(b"".join(tables), n) == []
            for position in range(count):
                run = tables[:position] + [random_not_idempotent(rnd, n)] + tables[position + 1 :]
                assert verify._not_idempotent(b"".join(run), n) == [position], (n, position)
            for _ in range(20):
                positions = sorted(rnd.sample(range(count), rnd.randint(2, 9)))
                run = list(tables)
                for position in positions:
                    run[position] = random_not_idempotent(rnd, n)
                assert verify._not_idempotent(b"".join(run), n) == positions, n

    def test_short_last_chunk(self):
        # runs of 1 to one chunk and two tables, of arbitrary tables, most
        # of them not idempotent: a padded chunk flags none of its padding
        rnd = random.Random(23)
        for n in (1, 2, 3, 4):
            for count in range(1, (256 >> n) + 3):
                run = b"".join(
                    random_idempotent(rnd, n) if rnd.random() < 0.5
                    else bytes(rnd.randrange(1 << n) for _ in range(1 << n))
                    for _ in range(count)
                )
                assert verify._not_idempotent(run, n) == composed_failures(run, n), (n, count)

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.S3_8_all, TheoremId.S3_8_bij])
    def test_explication_block_matches_each_instance(self, theorem, conv):
        # every instance up to n=3, in the share blocks of a sweep (each
        # holding runs of several systems) and shuffled as runs of one,
        # against the verdict of each instance alone and the oracle
        claim = CLAIMS[theorem]
        rnd = random.Random(24)
        statuses = set()
        for n in (1, 2, 3):
            ground = GroundSet(n)
            for _, runs in verify._exhaustive_instances(theorem, n, 0, 1):
                block = flatten(runs)
                alone = [
                    claim.check(ground, verify._one_run(values), conv, {})[0] for values in block
                ]
                expected = [(v.status, v.note) for v in alone]
                assert expected == [
                    explication_oracle(n, setsys.family_members(family), f.image, conv.value)
                    for family, f in block
                ], n
                order = rnd.sample(range(len(block)), len(block))
                shuffled = [run for i in order for run in verify._one_run(block[i])]
                for values in (runs, shuffled):
                    verdicts = claim.check(ground, values, conv, {})
                    if values is shuffled:
                        verdicts = [verdicts[order.index(i)] for i in range(len(block))]
                    assert [(v.status, v.note) for v in verdicts] == expected, n
                statuses.update(status for status, _ in expected)
        assert statuses == {"holds", "fails"}

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.S3_8_all, TheoremId.S3_8_bij])
    def test_explication_block_on_random_draws(self, theorem, conv):
        # drawn systems and maps on 5 to 7 points, where the tables are
        # tuples, two maps to each system, in one block of runs of two
        claim = CLAIMS[theorem]
        for n in (5, 6, 7):
            rnd = random.Random(f"{theorem.value}:{n}")
            draws = [claim.kind.draw(n, rnd) for _ in range(12)]
            runs = [((draws[i][0],), [draws[i][1], draws[i + 1][1]]) for i in range(0, 12, 2)]
            block = flatten(runs)
            ground = GroundSet(n)
            verdicts = claim.check(ground, runs, conv, {})
            alone = [
                claim.check(ground, verify._one_run(values), conv, {})[0] for values in block
            ]
            expected = [
                explication_oracle(n, setsys.family_members(family), f.image, conv.value)
                for family, f in block
            ]
            assert [(v.status, v.note) for v in verdicts] == expected, n
            assert [(v.status, v.note) for v in alone] == expected, n
