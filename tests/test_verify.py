"""Sweep engine: enumeration, checkers, determinism, witness replay."""

import dataclasses
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
        # a run slices its inner factor where it is a sequence (families,
        # subsets, flows, functions) and indexes it where it computes its
        # values (systems); every run of the whole space, and runs that
        # start before, at and after a wrap of the inner factor and end
        # past one or more wraps
        claim = CLAIMS[theorem]
        rnd = random.Random(theorem.value)
        for n in range(1, min(3, claim.max_exhaustive_n) + 1):
            space = claim.space(n)
            indexed = [space[o] for o in range(len(space))]
            inner = len(space.factors[-1])
            assert space.run(0, len(space)) == indexed, n
            starts = {0, 1, inner - 1, inner, inner + 1, len(space) - inner - 1}
            starts |= {rnd.randrange(len(space)) for _ in range(8)}
            for start in sorted(o for o in starts if 0 <= o < len(space)):
                for length in (1, 2, inner, inner + 1, 2 * inner + 3, verify.SHARE_BLOCK):
                    stop = min(start + length, len(space))
                    assert space.run(start, stop) == indexed[start:stop], (n, start, stop)

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
    # a sweep hands the claim a block of the factor values its space
    # indexes; check_theorem unpacks the same values from an instance and
    # hands them over as a block of one
    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", list(TheoremId), ids=lambda t: t.value)
    def test_sweep_verdicts_match_check_theorem(self, theorem, conv):
        claim = CLAIMS[theorem]
        for n in (1, 2):
            ground, space = GroundSet(n), claim.space(n)
            counts = {"holds": 0, "fails": 0, "skipped": 0}
            witnesses = []
            checked = [
                (ordinal, verdict)
                for block, values in verify._exhaustive_instances(theorem, n, 0, 1)
                for ordinal, verdict in zip(block, claim.check(ground, values, conv))
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

    def test_idempotence_by_translation_matches_composition(self):
        # up to 4 points a closure table is bytes, composed with itself by
        # one translation as a run of one table; the list route composes it
        # cell by cell: every covering family up to n=4, seeded families at
        # n=5 and 6, and arbitrary byte tables, most of them not idempotent
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
        assert all(isinstance(cl, list) for _, cl in tables[-400:])
        tables += [
            (n, bytes(rnd.randrange(1 << n) for _ in range(1 << n)))
            for n in (1, 2, 3, 4)
            for _ in range(500)
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
        # where its commutation premise fails; room_report takes the body of
        # free_attractors
        tables, families = count_closure_tables(monkeypatch), []
        free_attractors = attract._free_attractors
        monkeypatch.setattr(
            attract, "_free_attractors", lambda *a: families.append(a) or free_attractors(*a)
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
            # the hull of B is one cell, taken from the complements
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
    def test_idem_one_joined_table_call_per_share_block(self, monkeypatch, tmp_path, jobs):
        # the IDEM_ydwed body takes each share block's tables from one
        # closure_tables_of call and builds no table of one family: 1010
        # calls for 64,594 families, summed over the workers, which append
        # to one file
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
        assert log.read_text().splitlines() == ["closure_tables_of"] * 1010

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
        # each system keeps its table in its context, whatever the order
        # of the factors: at most 218 covering systems at n=3, where one
        # table per instance makes `instances`
        tables = count_closure_tables(monkeypatch)
        rep = sweep(theorem, 3, "exhaustive", conv=conv)
        assert rep.instance_count == instances
        assert 0 < len(tables) <= 218

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.B3_2, TheoremId.S3_3])
    def test_commutation_premise_once_per_system_and_permutation(
        self, monkeypatch, theorem, conv
    ):
        # the premise is decided on each generator and kept in the system's
        # context by its image, as K3_9's first statement: at most 218
        # systems x 6 permutations, where deciding it per instance makes
        # 6272 tests; and it is decided alone, without the four
        # memberships of K3_9's row
        commutations, memberships = [], []
        commutes, membership = kernels.commutes_with_closure, cantor._membership
        monkeypatch.setattr(
            kernels, "commutes_with_closure",
            lambda *a: commutations.append(a) or commutes(*a),
        )
        monkeypatch.setattr(
            cantor, "_membership", lambda *a: memberships.append(a) or membership(*a)
        )
        rep = sweep(theorem, 3, "exhaustive", conv=conv)
        assert rep.instance_count == 4578
        assert 0 < len(commutations) <= 218 * 6
        assert memberships == []

    def test_covar_untransported_family_once_per_cycle_and_system(self, monkeypatch):
        # one transported family per instance, and the untransported one
        # kept in the system's context by the cycle's orbit blocks: 218
        # systems x 5 orbit partitions of the 6 cycles at n=3, where
        # computing it per instance makes 15,696 calls and per (cycle,
        # system) 9156
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
        # and the generator's row of statements is kept in the system's
        # context: at most 218 systems x 6 generators x 4 memberships, where
        # deciding every instance afresh makes 25,872 membership calls and
        # 6272 commutation tests
        memberships, commutations = [], []
        membership, commutes = cantor._membership, kernels.commutes_with_closure
        monkeypatch.setattr(
            cantor, "_membership", lambda *a: memberships.append(a) or membership(*a)
        )
        monkeypatch.setattr(
            kernels, "commutes_with_closure",
            lambda *a: commutations.append(a) or commutes(*a),
        )
        for conv in (FULL, NONEMPTY):
            del memberships[:], commutations[:]
            rep = sweep(TheoremId.K3_9, 3, "exhaustive", conv=conv)
            assert rep.instance_count == 218 * 21
            assert 0 < len(memberships) <= 218 * 6 * 4
            assert 0 < len(commutations) <= 218 * 6

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
            # both memberships from the system's context compare none
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
            # 5 orbit partitions of the 21 generator sets x 218 systems
            (TheoremId.B3_4, 3, 4578, 218 * 5),
        ],
    )
    def test_body_once_per_orbit_block_key(self, monkeypatch, theorem, n, instances, keys, conv):
        # the block body decides each (orbit partition, chi), (orbit
        # partition, covering) or (system, orbit partition) once in the
        # sweep's memo, whatever share block asks for it: every one of them
        # occurs in the space, so as many decisions as keys are one each
        decided = count_decisions(monkeypatch, theorem)
        rep = sweep(theorem, n, "exhaustive", conv=conv)
        assert rep.instance_count == instances
        assert len(decided) == keys

    def test_random_sweep_keeps_no_verdicts(self, monkeypatch):
        # a random sweep keeps no verdicts, which would keep every drawn
        # system alive: its block body gets no memo and decides every draw,
        # even on two points, where the orbit partitions repeat
        decided = count_decisions(monkeypatch, TheoremId.L1_3)
        memos = []
        claim = CLAIMS[TheoremId.L1_3]
        body = claim.checker
        monkeypatch.setitem(
            CLAIMS, TheoremId.L1_3,
            dataclasses.replace(claim, checker=lambda *a: memos.append(a[3]) or body(*a)),
        )
        rep = sweep(TheoremId.L1_3, 2, "random", samples=50, seed=3)
        assert rep.instance_count == len(decided) == 50
        assert memos == [None] * 50

    def test_random_sweep_keeps_one_draw_alive(self):
        # a draw on 12 points holds about 2^11 members, some 75 KB; drawing
        # a share block of them before checking any keeps about 5 MB
        tracemalloc.start()
        try:
            rep = sweep(TheoremId.L3_1, 12, "random", samples=verify.SHARE_BLOCK, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instance_count == verify.SHARE_BLOCK
        assert peak < 1 << 20

    def test_random_explication_sweep_keeps_one_draw_alive(self):
        # each draw reaches the S3_8 block body alone, and on 10 points its
        # tables are lists, which the translation route never copies
        tracemalloc.start()
        try:
            rep = sweep(TheoremId.S3_8_all, 10, "random", samples=verify.SHARE_BLOCK, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.instance_count == verify.SHARE_BLOCK
        assert peak < 1 << 20

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
        # the explication reads its closure table and complement system
        # from the system's context: 218 systems x 27 functions, where
        # building them per instance makes 5886 of each
        tables, complements = count_closure_tables(monkeypatch), []
        complement_system = setsys.complement_system
        monkeypatch.setattr(
            setsys, "complement_system",
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
        # the complement-free family is read from the system's context: 218
        # systems x 27 functions, where building it per instance makes 5886
        families = []
        un_ov = setsys.un_ov

        def counted(*a):
            families.append(a)
            return un_ov(*a)

        monkeypatch.setattr(setsys, "un_ov", counted)
        rep = sweep(TheoremId.B3_7, 3, "exhaustive")
        assert rep.instance_count == 218 * 27
        assert 0 < len(families) <= 218

    def test_b3_7_one_fibration_per_system(self, monkeypatch):
        # the fibration classes are read from the system's context too, and
        # built from its closure table: one table per system
        fibrations, tables = [], count_closure_tables(monkeypatch)
        product_fibration = setsys.product_fibration
        monkeypatch.setattr(
            setsys, "product_fibration",
            lambda *a: fibrations.append(a) or product_fibration(*a),
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
#: of verdicts per orbit partition, B3_4 one per system and orbit
#: partition, and K3_9 reads a system's context once per run.
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
        return (*oracles.chain_verdict(n, cycle.generator.image, covering.masks, conv.value), None)
    system, flow = values
    verdict = oracles.k3_9_verdict if theorem is TheoremId.K3_9 else oracles.b3_4_verdict
    return (*verdict(n, system.masks, [g.image for g in flow.gens], conv.value), None)


class TestOrbitBlockKeys:
    # the group claims' block bodies keep their rows of verdicts by orbit
    # blocks, and read a system once per run of tuples that share it: on
    # every cut of a list of tuples into blocks, in sweep order and
    # shuffled, with a sweep's memo and without one, their verdicts must
    # be each tuple's on a block of one and the oracle's

    @staticmethod
    def check_blocks(theorem, n, conv, tuples, seed):
        """Check the claim's block body on `tuples` cut into the sweep's
        share blocks and into short blocks of 2 to 9 tuples, many of which
        hold a change of flow or system, in the given order and shuffled;
        returns the verdicts' statuses and how many blocks held a change
        of the outer factor's value."""
        claim, ground = CLAIMS[theorem], GroundSet(n)
        expected = [group_oracle(theorem, n, values, conv) for values in tuples]

        def seen(verdicts):
            return [(v.status, v.note, v.systems) for v in verdicts]

        assert seen(claim.check(ground, [values], conv)[0] for values in tuples) == expected
        rnd = random.Random(seed)
        order = rnd.sample(range(len(tuples)), len(tuples))
        crossings = 0
        for positions in (range(len(tuples)), order):
            values = [tuples[i] for i in positions]
            share = list(range(0, len(values), verify.SHARE_BLOCK)) + [len(values)]
            short = [0]
            while short[-1] < len(values):
                short.append(min(short[-1] + rnd.randint(2, 9), len(values)))
            for cuts in (share, short):
                blocks = [values[a:b] for a, b in zip(cuts, cuts[1:])]
                crossings += sum(len({id(one[0]) for one in block}) > 1 for block in blocks)
                for memo in ({}, None):
                    verdicts = [
                        v for block in blocks for v in claim.check(ground, block, conv, memo)
                    ]
                    assert seen(verdicts) == [expected[i] for i in positions], (cuts, memo)
        return {status for status, _, _ in expected}, crossings

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", GROUP_BLOCKS, ids=lambda t: t.value)
    def test_every_ordinal_up_to_three_points(self, theorem, conv):
        statuses, crossings = set(), 0
        for n in (1, 2, 3):
            space = CLAIMS[theorem].space(n)
            got, crossed = self.check_blocks(theorem, n, conv, list(space), f"{theorem.value}:{n}")
            statuses |= got
            crossings += crossed
        assert statuses >= {"holds", "fails"}
        assert crossings > 0

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    def test_l1_3_every_ordinal_at_four_points(self, conv):
        space = CLAIMS[TheoremId.L1_3].space(4)
        statuses, crossings = self.check_blocks(TheoremId.L1_3, 4, conv, list(space), "L1_3:4")
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
        [pos] = [i for i, f in enumerate(claim.kind.factors) if f.kept]
        picked = random.Random(f"{theorem.value}:{conv.value}").sample(
            range(len(factors[pos])), systems
        )
        factors[pos] = [factors[pos][i] for i in sorted(picked)]
        tuples = list(itertools.product(*factors))
        statuses, crossings = self.check_blocks(theorem, 4, conv, tuples, f"{theorem.value}:4")
        assert "holds" in statuses
        assert crossings > 0


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
    TheoremId.B3_4: "_b3_4_verdict",
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


class TestWorkerShares:
    @pytest.mark.parametrize(
        "cpus, jobs, workers",
        [(2, 5000, 2), (3, 5000, 3), (8, 3, 3), (None, 5000, None), (1, 4, None)],
    )
    def test_pool_bounded_by_cpu_count(self, monkeypatch, recording_process, cpus, jobs, workers):
        # `workers` shares: the sweeping process checks share 0 and starts
        # one child for each other share; a serial sweep starts none
        kwargs = dict(samples=300, max_counterexamples=3)
        serial = sweep(TheoremId.S3_8_all, 3, "random", **kwargs)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = sweep(TheoremId.S3_8_all, 3, "random", jobs=jobs, **kwargs)
        shares = [args[-2:] for args in recording_process.started]
        assert shares == [(w, workers) for w in range(1, workers or 1)]
        assert rep.to_payload() == serial.to_payload()

    def test_parent_builds_the_cached_factors_before_the_pool(self, monkeypatch):
        # forked children inherit the covering families the parent built,
        # where each would otherwise build them again on every sweep
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

    def test_parent_builds_no_factors_it_does_not_keep(self, monkeypatch):
        # a process keeps no maps or flows, so building a space's generator
        # sets, cycles, self-maps or relabelings in the parent before its
        # child starts would only be done again by the child; every one of
        # them is built through these two constructors (a permutation is a
        # self-map)
        built = []

        class Process(RecordingProcess):
            def start(self):
                built.append("child")
                super().start()

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
            sweep(theorem, 3, "exhaustive", jobs=2)
            assert built[0] == "child", theorem
            # the shares built the maps and flows through the counted route
            assert len(built) > 1, theorem

    @pytest.mark.parametrize("theorem, n", [(TheoremId.L1_3, 3), (TheoremId.IDEM_ydwed, 3)])
    def test_worker_builds_only_its_share(self, monkeypatch, theorem, n):
        # the worker's walk yields the factor tuples of its own ordinals
        # only, each the one its ordinal indexes, and keeping no witness
        # (cap 0) builds no Instance
        walked, built = [], []
        walk, init = verify._exhaustive_instances, Instance.__init__

        def recording(*args):
            for block, values in walk(*args):
                assert len(block) == len(values)
                walked.extend(zip(block, values))
                yield block, values

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
                pairs = [pair for b, values in blocks for pair in zip(b, values)]
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
    place of `_evaluate(*args)`; forked children inherit the patch."""
    evaluate = verify._evaluate
    monkeypatch.setattr(verify, "_evaluate", lambda *args: body(args[-2], evaluate, args))


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


class TestChildProcesses:
    """Parallel sweeps through real child processes."""

    def test_child_shares_match_serial_for_every_claim(self, monkeypatch):
        # the deal of the stand-in test above, through two children that
        # inherit the single-ordinal blocks
        monkeypatch.setattr(verify, "SHARE_BLOCK", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for theorem in TheoremId:
            for n, mode, samples in ((2, "exhaustive", None), (3, "random", 200)):
                kwargs = dict(samples=samples, seed=5, max_counterexamples=4)
                serial = sweep(theorem, n, mode, **kwargs).to_payload()
                parallel = sweep(theorem, n, mode, jobs=3, **kwargs).to_payload()
                assert parallel == serial, (theorem, mode)
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
        # terminated and joined before the sweeping process's error leaves
        started = []

        class Process(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        def body(worker, evaluate, args):
            if worker == 0:
                raise ValueError("share 0 failed")
            time.sleep(120)

        share_by_worker(monkeypatch, body)
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
        # holding runs of several systems) and shuffled, against the
        # verdict of each instance alone and the oracle
        claim = CLAIMS[theorem]
        rnd = random.Random(24)
        statuses = set()
        for n in (1, 2, 3):
            ground = GroundSet(n)
            for _, block in verify._exhaustive_instances(theorem, n, 0, 1):
                alone = [claim.check(ground, [values], conv)[0] for values in block]
                expected = [(v.status, v.note) for v in alone]
                assert expected == [
                    explication_oracle(n, sys.masks, f.image, conv.value) for sys, f in block
                ], n
                order = rnd.sample(range(len(block)), len(block))
                for values in (block, [block[i] for i in order]):
                    verdicts = claim.check(ground, values, conv)
                    if values is not block:
                        verdicts = [verdicts[order.index(i)] for i in range(len(block))]
                    assert [(v.status, v.note) for v in verdicts] == expected, n
                statuses.update(status for status, _ in expected)
        assert statuses == {"holds", "fails"}

    @pytest.mark.parametrize("conv", [FULL, NONEMPTY], ids=lambda c: c.value)
    @pytest.mark.parametrize("theorem", [TheoremId.S3_8_all, TheoremId.S3_8_bij])
    def test_explication_block_on_random_draws(self, theorem, conv):
        # drawn systems and maps on 5 to 7 points, where the tables are
        # lists, two maps to each system, in one block
        claim = CLAIMS[theorem]
        for n in (5, 6, 7):
            rnd = random.Random(f"{theorem.value}:{n}")
            draws = [claim.kind.draw(n, rnd) for _ in range(12)]
            block = [(draws[i // 2][0], f) for i, (_, f) in enumerate(draws)]
            ground = GroundSet(n)
            verdicts = claim.check(ground, block, conv)
            alone = [claim.check(ground, [values], conv)[0] for values in block]
            expected = [explication_oracle(n, sys.masks, f.image, conv.value) for sys, f in block]
            assert [(v.status, v.note) for v in verdicts] == expected, n
            assert [(v.status, v.note) for v in alone] == expected, n
