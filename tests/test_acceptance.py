"""Acceptance gate: the fifteen registered criteria, one test per clause.

Each clause prints its own pass/fail line.  Six clauses assert expectations
that the harness has falsified with concrete finite counterexamples
(criteria 3, 6, 7, the random-covering half of 9, 12, 13, and the n=3 half
of the bijection clause of 14); those tests fail honestly, carrying the
mined witness in the assertion message.  See the README findings table.

Run with `pytest tests/test_acceptance.py -v -s` for the full listing.
"""

import itertools
import json
import time

import oracles
from hullflow.attract import free_attractors
from hullflow.cli import main as cli_main
from hullflow.dynsys import Autobolism, DiscreteFlow, orbit_partition
from hullflow.setsys import ClosureConvention, GroundSet, SetSystem
from hullflow.verify import (
    TheoremId,
    enum_topologies,
    sweep,
)

FULL = ClosureConvention.FULL
NONEMPTY = ClosureConvention.NONEMPTY


def _line(num: str, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:<4} {status}  {description}{suffix}")


def _criterion(num: str, description: str, ok: bool, detail: str = "") -> None:
    _line(num, ok, description, detail)
    assert ok, f"criterion {num} ({description}): {detail}"


def _first_witness(report) -> str:
    if not report.counterexamples:
        return ""
    c = report.counterexamples[0]
    return json.dumps(c["instance"], sort_keys=True) + " | " + c["note"]


def test_c01_partition_basis_of_self_dual_topologies():
    start = time.perf_counter()
    for n in (3, 4):
        enumerated = sum(1 for _ in enum_topologies(n))
        oracle = oracles.count_preorders(n)
        _criterion(
            "1",
            f"labeled topology count on {n} points matches the relation oracle",
            enumerated == oracle,
            f"enumerated={enumerated} oracle={oracle}",
        )
    assert sum(1 for _ in enum_topologies(3)) == 29
    assert sum(1 for _ in enum_topologies(4)) == 355
    for n in (3, 4):
        report = sweep(TheoremId.S1_1, n, "exhaustive")
        _criterion(
            "1",
            f"self-dual iff partition basis, all topologies on {n} points",
            report.fail_count == 0,
            f"fails={report.fail_count} {_first_witness(report)}",
        )
    elapsed = time.perf_counter() - start
    _criterion("1", "runs within 30 s", elapsed < 30, f"{elapsed:.1f}s")


def test_c02_self_dual_t0_only_discrete():
    for n in (3, 4):
        report = sweep(TheoremId.K1_2, n, "exhaustive")
        _criterion(
            "2",
            f"among self-dual topologies on {n} points, T0 iff discrete",
            report.fail_count == 0,
            f"fails={report.fail_count}",
        )


def test_c03_indifferent_coherence_biconditional():
    start = time.perf_counter()
    report = sweep(TheoremId.L1_3, 4, "exhaustive")
    elapsed = time.perf_counter() - start
    _criterion("3", "runs within 120 s", elapsed < 120, f"{elapsed:.1f}s")
    _criterion(
        "3",
        "orbit-block biconditional over ALL nonempty chi, generator pairs of S_4",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count}; literal statement is "
        f"false for proper nonempty subsets of an orbit; first witness: "
        f"{_first_witness(report)}",
    )


def test_c03_companion_sound_restriction():
    # the sound form the proof actually supports: coherence is equivalent to
    # being contained in a single orbit; on invariant sets it reduces to
    # being an orbit block
    mismatches = 0
    ground = GroundSet(4)
    perms = [Autobolism(ground, p) for p in itertools.permutations(range(4))]
    gensets = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
    for gens in gensets:
        tables = oracles.mask_tables(oracles.group(gens))
        blocks = orbit_partition(DiscreteFlow.of_group(list(gens))).masks
        for chi in range(1, 16):
            coherent = oracles.coherent_block(tables, chi, False)
            inside_one = any(chi & ~b == 0 for b in blocks)
            if coherent != inside_one:
                mismatches += 1
    _criterion(
        "3b",
        "coherence is equivalent to containment in one orbit (sound form)",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_c04_hull_idempotence():
    for n in (2, 3, 4):
        report = sweep(TheoremId.IDEM_ydwed, n, "exhaustive", conv=FULL)
        _criterion(
            "4",
            f"hull idempotent on covering systems of {n} points (full convention)",
            report.fail_count == 0,
            f"fails={report.fail_count}",
        )
    dirty = sweep(TheoremId.IDEM_ydwed, 2, "exhaustive", conv=NONEMPTY)
    witnessed = any(
        c["instance"]["systems"]["A"] == [[0], [0, 1]] for c in dirty.counterexamples
    )
    _criterion(
        "4",
        "nonempty convention fails with the fixed two-point witness",
        dirty.fail_count >= 1 and witnessed,
        f"fails={dirty.fail_count} witness_found={witnessed}",
    )


def test_c05_hull_trace_lemma_randomized():
    for conv in (FULL, NONEMPTY):
        report = sweep(TheoremId.L3_1, 6, "random", samples=10000, seed=0, conv=conv)
        _criterion(
            "5",
            f"hull-trace lemma, 10^4 random instances at n=6 ({conv.value})",
            report.fail_count == 0,
            f"fails={report.fail_count} {_first_witness(report)}",
        )


def test_c06_commutation_gives_attractor_partition():
    start = time.perf_counter()
    report = sweep(TheoremId.S3_3, 3, "exhaustive")
    elapsed = time.perf_counter() - start
    _criterion("6", "runs within 5 min", elapsed < 300, f"{elapsed:.1f}s")
    _criterion(
        "6",
        "commuting flows: rooms partition the ground and are attractors "
        "(all covering systems x generator sets of S_3)",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(hungry hulls: orbit closures may vanish or nest even under "
        f"commutation); first witness: {_first_witness(report)}",
    )


def test_c07_room_invariance_matches_attractors():
    report = sweep(TheoremId.B3_4, 3, "exhaustive")
    _criterion(
        "7",
        "room invariance iff rooms are attractors (same instance space)",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(closed traces can isolate pieces of distinct orbits inside an "
        f"invariant room); first witness: {_first_witness(report)}",
    )


def test_c08_powerset_attractors_are_orbit_blocks():
    ground = GroundSet(4)
    bad = []
    for image in itertools.permutations(range(4)):
        flow = DiscreteFlow.cyclic(Autobolism(ground, image))
        if free_attractors(flow, SetSystem.powerset(ground)) != (orbit_partition(flow),):
            bad.append(image)
    _criterion(
        "8",
        "free attractors over the power set equal the orbit partition, all of S_4",
        not bad,
        f"bad={bad}",
    )


def test_c09_variant_coincidence_on_powerset():
    for n in (2, 3, 4):
        report = sweep(TheoremId.B2_3d, n, "exhaustive")
        _criterion(
            "9",
            f"conventional = mono+ = mono- (and weak on the power set), n={n}",
            report.fail_count == 0,
            f"fails={report.fail_count}",
        )


def test_c09_inclusion_chain_on_random_coverings():
    report = sweep(TheoremId.CHAIN_karrenk, 3, "random", samples=1000, seed=0)
    _criterion(
        "9",
        "weak >= conventional >= monotone on 10^3 random coverings",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(an orbit without a closed superset has an empty pre-room, so the "
        f"weak criterion loses attractors the conventional one keeps); "
        f"first witness: {_first_witness(report)}",
    )


def test_c10_attractor_covariance():
    report = sweep(TheoremId.COVAR, 4, "random", samples=1000, seed=0)
    _criterion(
        "10",
        "free attractors transport along relabelings, 10^3 random triples at n=4",
        report.fail_count == 0,
        f"fails={report.fail_count}",
    )


def test_c11_bijection_membership_coincidence():
    report = sweep(TheoremId.B3_10, 3, "exhaustive")
    _criterion(
        "11",
        "plus and minus memberships coincide for bijections, all covering "
        "systems on 3 points",
        report.fail_count == 0,
        f"fails={report.fail_count}",
    )


def test_c12_fibration_representation():
    report = sweep(TheoremId.B3_6, 3, "exhaustive")
    _criterion(
        "12",
        "closed-set representation reproduces the closure fibration (n=3)",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(the representation misses class members that are not unions of a "
        f"complement-free trace set with the core); first witness: "
        f"{_first_witness(report)}",
    )


def test_c12_fibration_integrity_equivalence():
    report = sweep(TheoremId.B3_7, 3, "exhaustive")
    _criterion(
        "12",
        "fibration integrity iff complement-freeness preserved, all 27 self-maps",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(non-bijective maps can keep complement-freeness while collapsing "
        f"classes); first witness: {_first_witness(report)}",
    )


def test_c13_phase_flow_continuity_chain():
    report = sweep(TheoremId.K3_9, 3, "exhaustive")
    emitted = len(report.counterexamples) > 0 or report.fail_count == 0
    _criterion(
        "13",
        "counterexample artifacts are emitted for every chain failure",
        emitted,
        f"artifacts={len(report.counterexamples)}",
    )
    _criterion(
        "13",
        "phase-flow continuity chain holds (all covering systems x subgroups "
        "of S_3)",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(system-side and complement-side memberships come apart); "
        f"first witness: {_first_witness(report)}",
    )


def test_c14_explication_all_maps_documents_the_open_question(capsys):
    found = False
    for n in (2, 3):
        report = sweep(TheoremId.S3_8_all, n, "exhaustive", max_counterexamples=64)
        assert report.fail_count >= 1
        assert report.to_payload()["note"].startswith("documented open question")
        if n == 2:
            found = any(
                c["instance"]["systems"]["A"] == [[0], [0, 1]]
                and c["instance"]["functions"]["f"] == [0, 0]
                for c in report.counterexamples
            )
    _criterion(
        "14",
        "all-map sweep lists the fixed constant-map disagreement and labels it",
        found,
        "",
    )
    with capsys.disabled():
        pass
    code = cli_main(["sweep", "S3_8_all", "--n", "2", "--exhaustive"])
    capsys.readouterr()
    _criterion(
        "14",
        "documented disagreements keep exit code 0",
        code == 0,
        f"exit={code}",
    )


def test_c14_explication_bijection_sweep():
    clean2 = sweep(TheoremId.S3_8_bij, 2, "exhaustive")
    _criterion(
        "14",
        "bijection explication clean at n=2",
        clean2.fail_count == 0,
        f"fails={clean2.fail_count}",
    )
    report = sweep(TheoremId.S3_8_bij, 3, "exhaustive")
    _criterion(
        "14",
        "bijection explication clean at n=3",
        report.fail_count == 0,
        f"fails={report.fail_count}/{report.instance_count} "
        f"(bijections can satisfy both memberships without commuting with "
        f"the hull); first witness: {_first_witness(report)}",
    )


def test_c15_sweep_determinism():
    for theorem, n, mode, kwargs in (
        (TheoremId.L3_1, 4, "random", {"samples": 500, "seed": 11}),
        (TheoremId.S3_3, 2, "exhaustive", {}),
        (TheoremId.CHAIN_karrenk, 3, "random", {"samples": 200, "seed": 5}),
    ):
        a = sweep(theorem, n, mode, **kwargs)
        b = sweep(theorem, n, mode, **kwargs)
        blob_a = json.dumps(a.to_payload(), sort_keys=True).encode()
        blob_b = json.dumps(b.to_payload(), sort_keys=True).encode()
        _criterion(
            "15",
            f"byte-identical reruns: {theorem.value} {mode}",
            blob_a == blob_b,
            "",
        )
