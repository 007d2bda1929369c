"""CLI surface: parsing, dispatch, serialization, exit codes."""

import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullflow import cli
from hullflow.cli import main
from hullflow.instances import Instance, InstanceError
from hullflow.verify import TheoremId

T_E2 = {
    "ground": 3,
    "convention": "full",
    "systems": {
        "T": [[], [0], [1, 2], [0, 1, 2]],
        "blocks": [[0, 1], [2], [0, 1, 2]],
    },
    "permutations": {"s": [1, 0, 2]},
    "functions": {"c0": [0, 0, 0]},
    "flows": {"phi": {"cyclic": "s"}, "grp": {"group": ["s"]}},
}


#: Coverings on which the coherence variants disagree, under the identity
#: and a transposition.
VARIANTS_DOC = {
    "ground": 3,
    "systems": {"W": [[0, 1], [0, 2]], "V": [[], [0, 1], [0, 2]]},
    "permutations": {"e": [0, 1, 2], "s": [1, 0, 2]},
    "flows": {"id": {"cyclic": "e"}, "phi": {"cyclic": "s"}, "grp": {"group": ["s", "e"]}},
}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(T_E2))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_round_trip(self):
        inst = Instance.from_dict(T_E2)
        assert Instance.from_dict(inst.to_dict()).to_dict() == inst.to_dict()

    def test_parse_instance_text(self):
        from hullflow.cli import parse_instance

        inst = parse_instance(json.dumps(T_E2))
        assert inst.ground.size == 3
        with pytest.raises(InstanceError, match="invalid JSON"):
            parse_instance("{nope")

    def test_duplicate_subset_rejected(self):
        doc = {"ground": 2, "systems": {"A": [[0], [0]]}}
        with pytest.raises(InstanceError, match="duplicate"):
            Instance.from_dict(doc)

    def test_duplicate_names_rejected(self):
        doc = {
            "ground": 2,
            "systems": {"x": [[0]]},
            "permutations": {"x": [1, 0]},
        }
        with pytest.raises(InstanceError, match="unique"):
            Instance.from_dict(doc)

    def test_bad_index_located(self):
        doc = {"ground": 2, "systems": {"A": [[0], [5]]}}
        with pytest.raises(InstanceError, match=r"systems.A\[1\]"):
            Instance.from_dict(doc)

    def test_flow_names_must_be_strings(self):
        for spec in ({"cyclic": ["p"]}, {"group": [["p"]]}, {"cyclic": 0}):
            doc = {"ground": 2, "permutations": {"p": [1, 0]}, "flows": {"f": spec}}
            with pytest.raises(InstanceError, match="flows.f") as exc:
                Instance.from_dict(doc)
            assert exc.value.path == "flows.f"

    def test_permutation_in_one_line_notation(self):
        inst = Instance.from_dict({"ground": 3, "permutations": {"s": [1, 0, 2]}})
        assert inst.permutations["s"].image == (1, 0, 2)


class TestCommands:
    def test_classify(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "classify", "T", "-i", instance_file)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["is_self_dual"] is True
        assert report["result"]["is_t0"] is False
        assert report["convention"] == "full"
        # every flag, and no other key, in the report's sorted key order
        assert list(report["result"]) == [
            "covers_ground", "is_complete", "is_partition", "is_quasitopology",
            "is_self_dual", "is_t0", "is_topology",
        ]

    def test_attractors_powerset(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "attractors", "--flow", "phi", "--covering", "powerset",
            "-i", instance_file,
        )
        assert code == 0
        assert json.loads(out)["result"] == [[0, 1], [2]]

    @pytest.mark.parametrize(
        "flow, covering, variant, expected",
        [
            ("id", "W", "conventional", [[0], [1], [0, 1], [2], [0, 2], [0, 1, 2]]),
            ("id", "W", "weak", [[1], [2]]),
            ("id", "W", "mono+", [[0], [1], [0, 1], [2], [0, 2], [0, 1, 2]]),
            ("id", "W", "mono-", [[0], [1], [0, 1], [2], [0, 2], [0, 1, 2]]),
            ("id", "V", "weak", [[0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 2]]),
            ("phi", "W", "conventional", [[0, 1], [2], [0, 1, 2]]),
            ("phi", "W", "weak", [[2]]),
            ("phi", "W", "mono+", [[0, 1], [2], [0, 1, 2]]),
            ("phi", "W", "mono-", [[0, 1], [2], [0, 1, 2]]),
        ],
    )
    def test_attractors_by_variant(self, capsys, tmp_path, flow, covering, variant, expected):
        # the weak family can lose attractors of the others (W) or gain
        # some (V); the monotone ones equal the conventional on cyclic flows
        path = tmp_path / "variants.json"
        path.write_text(json.dumps(VARIANTS_DOC))
        code, out, _ = run_cli(
            capsys, "attractors", "--flow", flow, "--covering", covering,
            "--variant", variant, "-i", str(path),
        )
        assert code == 0
        assert json.loads(out)["result"] == expected

    @pytest.mark.parametrize("variant", ["mono+", "mono-"])
    def test_monotone_attractors_of_a_group_flow_exit_two(self, capsys, tmp_path, variant):
        path = tmp_path / "variants.json"
        path.write_text(json.dumps(VARIANTS_DOC))
        code, out, err = run_cli(
            capsys, "attractors", "--flow", "grp", "--covering", "W",
            "--variant", variant, "-i", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "cyclic flow" in err

    def test_closure_subset(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "closure", "T", "--subset", "1", "-i", instance_file
        )
        assert json.loads(out)["result"] == [1, 2]

    def test_hull_interior(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "hull", "T", "--kind", "000", "--subset", "0,1", "-i", instance_file
        )
        assert json.loads(out)["result"] == [0]

    def test_elementarize(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "elementarize", "T", "-i", instance_file)
        assert json.loads(out)["result"] == [[], [0], [1, 2]]

    def test_orbits_and_invariant_topology(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "orbits", "--flow", "phi", "-i", instance_file)
        assert json.loads(out)["result"] == [[0, 1], [2]]
        code, out, _ = run_cli(
            capsys, "invariant-topology", "--flow", "grp", "-i", instance_file
        )
        assert json.loads(out)["result"] == [[], [0, 1], [2], [0, 1, 2]]

    def test_rooms(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "rooms", "--flow", "phi", "--system", "blocks", "-i", instance_file
        )
        result = json.loads(out)["result"]
        assert result["partition"] is True
        assert result["rooms"] == [[0, 1], [2]]

    def test_cantor_check(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "cantor-check", "--function", "c0", "--system", "T",
            "-i", instance_file,
        )
        result = json.loads(out)["result"]
        assert set(result) == {"commutative", "plus", "minus", "trivially_commutative"}

    def test_explication(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "explication", "--function", "c0", "--system", "T",
            "-i", instance_file,
        )
        assert "agree" in json.loads(out)["result"]

    def test_topo_attractors(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "topo-attractors", "--topologies", "T", "-i", instance_file
        )
        assert code == 0
        assert len(json.loads(out)["result"]) == 7  # literal reading: 2^Z minus empty

    def test_verify_subcommand(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "verify", "S1_1", "-i", instance_file)
        assert code == 0
        assert json.loads(out)["result"]["status"] == "holds"

    def test_verify_empty_chi_without_flows(self, capsys, tmp_path):
        path = tmp_path / "chi.json"
        path.write_text(json.dumps({"ground": 3, "systems": {"chi": [[]]}}))
        code, out, _ = run_cli(capsys, "verify", "L1_3", "-i", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {
            "note": "empty chi", "status": "skipped", "witness": None
        }

    def test_convention_flag_recorded(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "--convention", "nonempty", "classify", "T", "-i", instance_file
        )
        assert json.loads(out)["convention"] == "nonempty"

    def test_unknown_name_is_usage_error(self, capsys, instance_file):
        code, _, err = run_cli(capsys, "classify", "nope", "-i", instance_file)
        assert code == 2
        assert "unknown system" in err

    def test_missing_instance_file_exit_two(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.json")
        code, out, err = run_cli(capsys, "classify", "T", "-i", missing)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "absent.json" in err

    def test_unhashable_flow_name_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"ground": 2, "permutations": {"p": [1, 0]}, "flows": {"f": {"cyclic": ["p"]}}}
        ))
        code, _, err = run_cli(capsys, "orbits", "--flow", "f", "-i", str(path))
        assert code == 2
        assert err.count("\n") == 1 and "flows.f" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"ground": 2.9}, "ground"),
            ({"ground": True}, "ground"),
            ({"ground": "2"}, "ground"),
            ({"ground": 2, "systems": {"A": [[1.7], [True]]}}, "systems.A[0][0]"),
            ({"ground": 2, "systems": {"A": [[0], [True]]}}, "systems.A[1][0]"),
            ({"ground": 2, "systems": "x"}, "systems"),
            ({"ground": 2, "permutations": [[1, 0]]}, "permutations"),
            ({"ground": 2, "permutations": {"p": [1.0, 0]}}, "permutations.p[0]"),
            ({"ground": 2, "permutations": {"p": "10"}}, "permutations.p"),
            ({"ground": 2, "functions": {"f": [0, False]}}, "functions.f[1]"),
            ({"ground": 2, "functions": 3}, "functions"),
            ({"ground": 2, "flows": []}, "flows"),
        ],
    )
    def test_malformed_wire_input_exit_two(self, capsys, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "A", "-i", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"error: {field}: " in err

    @pytest.mark.parametrize(
        "doc, line",
        [
            (
                {"ground": 3, "permutations": {"p": [0, 0, 1]}},
                "permutations.p: not a permutation of 0..2: (0, 0, 1)",
            ),
            (
                {"ground": 3, "permutations": {"p": [0, 1, 5]}},
                "permutations.p: not a permutation of 0..2: (0, 1, 5)",
            ),
            (
                {"ground": 3, "functions": {"f": [0, 3, 1]}},
                "functions.f: not a self-map of 0..2: (0, 3, 1)",
            ),
        ],
    )
    def test_invalid_map_error_line(self, capsys, tmp_path, doc, line):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "classify", "A", "-i", str(path))
        assert (code, out, err) == (2, "", f"hullflow: error: {line}\n")

    @pytest.mark.parametrize(
        "theorem, doc, field",
        [
            ("K3_9", {"ground": 2, "systems": {"A": [[0], [1]]}}, "permutations"),
            ("B3_2", {"ground": 2, "systems": {"A": [[0], [1]]}}, "flows"),
            ("L1_3", {"ground": 2}, "systems.chi"),
            ("B3_7", {"ground": 2, "systems": {"A": [[0], [1]]}}, "functions"),
        ],
    )
    def test_verify_names_the_missing_field(self, capsys, tmp_path, theorem, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", theorem, "-i", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"error: {field}: missing" in err

    def test_orbits_of_a_group_beyond_the_cap(self, capsys, tmp_path):
        # S_12 from a 12-cycle and a transposition: orbits need only the
        # generators, so the group-order cap does not apply
        path = tmp_path / "s12.json"
        path.write_text(json.dumps({
            "ground": 12,
            "permutations": {"c": list(range(1, 12)) + [0], "t": [1, 0] + list(range(2, 12))},
            "flows": {"s12": {"group": ["c", "t"]}},
        }))
        code, out, _ = run_cli(capsys, "orbits", "--flow", "s12", "-i", str(path))
        assert code == 0
        assert json.loads(out)["result"] == [list(range(12))]

    @pytest.mark.parametrize(
        "theorem, doc",
        [
            (
                "B3_10",
                {
                    "ground": 40,
                    "systems": {"A": [[0, 1], [1, 2], list(range(40))]},
                    "functions": {"f": list(range(1, 40)) + [0]},
                },
            ),
            (
                "COVAR",
                {
                    "ground": 40,
                    "systems": {"A": [list(range(20)), list(range(20, 40)), list(range(40))]},
                    "permutations": {"c": list(range(1, 40)) + [0], "f": list(range(39, -1, -1))},
                    "flows": {"phi": {"cyclic": "c"}},
                },
            ),
        ],
    )
    def test_verify_beyond_the_enumeration_cap(self, capsys, tmp_path, theorem, doc):
        # mapping a few members through a self-map needs no 2^n table
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", theorem, "-i", str(path))
        assert code == 0
        assert json.loads(out)["result"] == {"note": "", "status": "holds", "witness": None}

    @pytest.mark.parametrize("n", [21, 40, 64])
    @pytest.mark.parametrize(
        "theorem, covering, skipped",
        [
            # a system that does not cover the ground is skipped before any
            # 2^n work; one that covers it needs the closure table
            ("IDEM_ydwed", False, True),
            ("IDEM_ydwed", True, False),
            # the fibration needs the closure table either way
            ("B3_6", False, False),
            ("B3_6", True, False),
        ],
    )
    def test_verify_systems_beyond_the_enumeration_cap(
        self, capsys, tmp_path, theorem, covering, skipped, n
    ):
        members = [[x] for x in range(n)] if covering else [[0, 1]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"ground": n, "systems": {"A": members}}))
        code, out, err = run_cli(capsys, "verify", theorem, "-i", str(path))
        if skipped:
            assert (code, err) == (0, "")
            assert json.loads(out)["result"] == {
                "note": "system does not cover the ground", "status": "skipped", "witness": None,
            }
        else:
            assert (code, out) == (2, "")
            assert err == f"hullflow: error: ground size {n} exceeds enumeration cap 20\n"

    @pytest.mark.parametrize("n", [21, 64])
    def test_verify_l3_1_beyond_the_enumeration_cap(self, capsys, tmp_path, n):
        # L3_1 reads its system as a family bitmask of 2^n bits, which is
        # not built above the cap, covering or not
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"ground": n, "systems": {"A": [[0, 1]], "B": [[0]]}}))
        code, out, err = run_cli(capsys, "verify", "L3_1", "-i", str(path))
        assert (code, out) == (2, "")
        assert err == f"hullflow: error: ground size {n} exceeds enumeration cap 20\n"

    @pytest.mark.parametrize("n", [40, 64])
    @pytest.mark.parametrize("theorem", ["S3_8_all", "S3_8_bij", "K3_9", "B3_2"])
    def test_verify_maps_beyond_the_enumeration_cap(self, capsys, tmp_path, theorem, n):
        # hull commutation reads a map's table of every subset's image,
        # whose 2^n cells are not built above the cap
        rotation = list(range(1, n)) + [0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "ground": n,
            "systems": {"A": [[x] for x in range(n)]},
            "permutations": {"c": rotation},
            "flows": {"phi": {"cyclic": "c"}},
            "functions": {"f": rotation},
        }))
        code, out, err = run_cli(capsys, "verify", theorem, "-i", str(path))
        assert (code, out) == (2, "")
        assert err == f"hullflow: error: ground size {n} exceeds enumeration cap 20\n"

    def test_invariant_topology_of_the_identity(self, capsys, tmp_path):
        # unions of orbit blocks are listed one step per set, up to the
        # 2^20 cap on invariant sets
        def identity_doc(n):
            path = tmp_path / f"id{n}.json"
            path.write_text(json.dumps({
                "ground": n, "permutations": {"e": list(range(n))},
                "flows": {"id": {"cyclic": "e"}},
            }))
            return str(path)

        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "invariant-topology", "--flow", "id", "-i", identity_doc(13)
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert len(json.loads(out)["result"]) == 1 << 13
        code, out, err = run_cli(
            capsys, "invariant-topology", "--flow", "id", "-i", identity_doc(21)
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "exceed cap" in err

    def test_text_format(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "--format", "text", "classify", "T", "-i", instance_file
        )
        assert code == 0
        assert "is_self_dual: True" in out

    def test_text_format_marks_each_object_in_a_list(self, capsys):
        # each counterexample starts with "- ", so two read as two records
        code, out, _ = run_cli(
            capsys, "--format", "text", "sweep", "S3_3", "--n", "2", "--exhaustive",
            "--max-counterexamples", "2",
        )
        assert code == 1
        lines = out.splitlines()
        start = lines.index("counterexamples:")
        items = [i for i, line in enumerate(lines) if line.startswith("  - ")]
        assert [lines[i] for i in items] == ["  - instance:"] * 2
        assert items[0] == start + 1
        assert lines[items[1] - 1] == "    ordinal: 1"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "abdf9e195092080f1e20d262eba188154a973c85932e281507403daf804b15d8"
        )

    def test_text_format_names_the_sweep_convention_once(self, capsys):
        # the header names it; the payload's own key is not repeated, and
        # the JSON form keeps both
        args = ("sweep", "IDEM_ydwed", "--n", "2", "--exhaustive")
        code, out, _ = run_cli(capsys, "--convention", "nonempty", "--format", "text", *args)
        assert code == 0
        assert [line for line in out.splitlines() if not line.startswith(" ")].count(
            "convention: nonempty"
        ) == 1
        code, out, _ = run_cli(capsys, "--convention", "nonempty", *args)
        report = json.loads(out)
        assert report["convention"] == report["result"]["convention"] == "nonempty"


#: One document every pinned command reads: `chi` makes `verify L1_3` fail
#: (a proper part of the orbit {0,1} is coherent), and the variants
#: disagree on the covering `W`.
PINNED_DOC = {
    "ground": 3,
    "convention": "full",
    "systems": {
        "T": [[], [0], [1, 2], [0, 1, 2]],
        "blocks": [[0, 1], [2], [0, 1, 2]],
        "W": [[0, 1], [0, 2]],
        "chi": [[0]],
    },
    "permutations": {"s": [1, 0, 2]},
    "functions": {"c0": [0, 0, 0]},
    "flows": {"phi": {"cyclic": "s"}, "grp": {"group": ["s"]}},
}

#: (CLI arguments before `-i FILE`, exit code, sha256 of stdout).  A
#: deliberate change of output must update this table and record the old
#: and new hashes in CHANGES.md.
PINNED_COMMANDS = [
    ("classify T", 0,
     "c179e747aa71e9d23c38dabde8b35b554971fb449170165259f5b76939cfd095"),
    ("closure T --subset 1", 0,
     "6d0232f6e96a3f31f5c4a6be53d9b1a531957fdb11bbddd890d54022fb877119"),
    ("closure T --family", 0,
     "2c9c9e2f5695c682f432e32f797289356bbfd56f9c3fcd67b344b7792dc6e848"),
    ("closure T", 0,
     "2c9c9e2f5695c682f432e32f797289356bbfd56f9c3fcd67b344b7792dc6e848"),
    ("hull T --kind 000 --subset 0,1", 0,
     "d76dbcb81cc2883a0dedac53205966e9d1b2f08c5bf8c5b7345797a267bf8de7"),
    ("hull T --kind 111 --subset 1", 0,
     "35d1d11ae61e55e70784865f8715758004b4fa65ad275b7f0374d7b80c4824ca"),
    ("elementarize T", 0,
     "78efa60421e6ad859575f83c56163853d09f37ed03b1051b39e8737bca6b5c91"),
    ("orbits --flow grp", 0,
     "3cc55ab220ef68618dccaeb3068e75cb6910be9e020820bbe5c0a484e4e0b39e"),
    ("invariant-topology --flow grp", 0,
     "8d8d976dd23b8db5b609316a77ba15a138aff43bc79880004ea686ca49b92bde"),
    ("invariant-topology --flow grp --basis-only", 0,
     "40cf73583d19672b0c2ae7a2b1ead19e66b1c2951a2ae0b16e655b38494be934"),
    ("attractors --flow phi --covering W --variant conventional", 0,
     "f31fbe4fb140dee11aef3dc3ae19b33451f68781031b69f24ab65e7120478802"),
    ("attractors --flow phi --covering W --variant weak", 0,
     "c1a6b6b4a4886a5fd4ca32dd3b562e7cedf277b48efca51377f911533df7ad0e"),
    ("attractors --flow phi --covering W --variant mono+", 0,
     "f31fbe4fb140dee11aef3dc3ae19b33451f68781031b69f24ab65e7120478802"),
    ("attractors --flow phi --covering W --variant mono-", 0,
     "f31fbe4fb140dee11aef3dc3ae19b33451f68781031b69f24ab65e7120478802"),
    ("topo-attractors --topologies T", 0,
     "710508ae3aca0eabbe8c46721028b9729d25b662f2bab42598c2071d7d00007c"),
    ("rooms --flow phi --system blocks", 0,
     "22ec1d647ad649b48b2b8e85e0aeea65a27051fc68ffd0e8a2fa2c3e77bd9b7c"),
    ("cantor-check --function c0 --system T", 0,
     "e729228dcca5439e378480e922ddf1ad6ecbaa1f4b0a8b3e338ea49b028e00da"),
    ("explication --function c0 --system T", 0,
     "ecf49c7be52fbf006d2533df4a4b7b820ecacea26efc2d6ef05a670ab2810933"),
    ("verify L1_3", 0,
     "f2b8086b8bbf3be3fcf6e24fbeac08f124e5c183e51f2ee4d1e01ef4b835fd80"),
    ("--format text classify T", 0,
     "b1b3c05101ebde0542457649ce4d7b9dc48d1af3ce868a3ff7ca3ca9fa7b4fdc"),
    # a list of lists: one marked line per member
    ("--format text closure T --family", 0,
     "dbc310edaba8a21fe4a8a275810f1aaa054cd535a810b8f5d415ba6de697e6f2"),
]


class TestPinnedCommands:
    @pytest.fixture
    def pinned_file(self, tmp_path):
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(PINNED_DOC))
        return str(path)

    @pytest.mark.parametrize(
        "args, code, sha256", PINNED_COMMANDS, ids=[row[0] for row in PINNED_COMMANDS]
    )
    def test_output_hash(self, capsys, pinned_file, args, code, sha256):
        assert main([*args.split(), "-i", pinned_file]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize("convention", ["full", "nonempty"])
    @pytest.mark.parametrize("name", sorted(PINNED_DOC["systems"]))
    def test_closed_family_from_the_definition(self, capsys, pinned_file, convention, name):
        # the closure of z intersects the complement members containing z
        # (none when no member does); under `nonempty` the empty complement
        # member is left out
        n = PINNED_DOC["ground"]
        full = (1 << n) - 1
        members = [sum(1 << x for x in row) for row in PINNED_DOC["systems"][name]]
        compl = [full ^ m for m in members if convention == "full" or m != full]
        closed = set()
        for z in range(1 << n):
            above = [c for c in compl if c & z == z]
            closed.add(functools.reduce(operator.and_, above) if above else 0)
        code, out, _ = run_cli(
            capsys, "--convention", convention, "closure", name, "--family", "-i", pinned_file
        )
        assert code == 0
        got = [sum(1 << x for x in row) for row in json.loads(out)["result"]]
        assert got == sorted(closed)


#: A one-point document on which `B3_2` fails, with sections no claim
#: reads: its witness keeps the system checked, adds the partition `P`, and
#: takes the convention the claim was checked under.
ONE_POINT_DOC = {
    "ground": 1,
    "convention": "nonempty",
    "systems": {"A": [[0]], "T": [[], [0]], "X": [[]]},
    "permutations": {"g0": [0]},
    "functions": {"h": [0]},
    "flows": {"phi": {"cyclic": "g0"}},
}


def _verify_cases():
    """(label, global CLI flags, document) of every pinned `verify` run:
    FUZZ_DOC whole and under the other convention, then with each section,
    each pair of sections and each named object deleted in turn; COVAR's document, on which a
    non-covering system is skipped before its missing relabeling is looked
    for; and ONE_POINT_DOC under both conventions."""
    yield "whole", [], FUZZ_DOC
    yield "nonempty", ["--convention", "nonempty"], FUZZ_DOC
    for key in FUZZ_DOC:
        doc = copy.deepcopy(FUZZ_DOC)
        del doc[key]
        yield f"-{key}", [], doc
    sections = ("systems", "permutations", "functions", "flows")
    # two sections at once, so the order in which a claim reads them shows
    for first, second in itertools.combinations(sections, 2):
        doc = copy.deepcopy(FUZZ_DOC)
        del doc[first], doc[second]
        yield f"-{first}-{second}", [], doc
    for section in sections:
        for name in FUZZ_DOC[section]:
            doc = copy.deepcopy(FUZZ_DOC)
            del doc[section][name]
            yield f"-{section}.{name}", [], doc
    yield "covar-no-f", [], {
        "ground": 3,
        "systems": {"A": [[0]]},
        "permutations": {"g0": [1, 0, 2]},
        "flows": {"phi": {"cyclic": "g0"}},
    }
    yield "one-point", [], ONE_POINT_DOC
    yield "one-point-full", ["--convention", "full"], ONE_POINT_DOC


def _verify_outputs(tmp_path, theorem):
    """The exit code of `verify theorem` on every case, and the sha256 of
    every case's label, exit code, stdout and stderr."""
    codes, runs = [], []
    for i, (label, flags, doc) in enumerate(_verify_cases()):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*flags, "verify", theorem, "-i", str(path)])
        codes.append(str(code))
        runs.append([label, code, out.getvalue(), err.getvalue()])
    digest = hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()
    return "".join(codes), digest


#: (claim, exit code of each `_verify_cases` case, sha256 from
#: `_verify_outputs`).  A deliberate change of output must update this table
#: and record the old and new hashes in CHANGES.md.
PINNED_VERIFY = [
    ("S1_1", "002022002222000020022000200",
     "0a4ac315a8790fd7d04bc769bf9fb2404fc452272138b447b50b99fe6e55a474"),
    ("K1_2", "002022002222000020022000200",
     "0a4ac315a8790fd7d04bc769bf9fb2404fc452272138b447b50b99fe6e55a474"),
    ("L1_3", "002022022222220000222000222",
     "3dde18e80b444dc1e497a136130fd832f6b0a8198ee971caeaae1e1ae1d7375d"),
    ("S2_2", "002022022222220020022000200",
     "e7d2cd9d64bb3c174615475748e59d2c2d9afb796a3bf60f63d300d4b5cf4d7b"),
    ("B2_3d", "002022022222220002022000222",
     "3e3c72788a80928761d67bd0c87de9d9cfee385890d0d345b368e6e9a63fcb6c"),
    ("L3_1", "002022002222002200022000222",
     "88ee14935960c37feaea14fcd94f2ad48293ef49d80964a31a78546813f08530"),
    ("B3_2", "002022022222222000022000000",
     "9cec2ca157bca491cff03f453705105db18e803f849d1f6d07b3031cc153e482"),
    ("S3_3", "002022022222222000022000000",
     "c11cf1a4f5fee18b3c7ef3d8437e7660cf7cc138dfc93a0b61c6c3e4f1c8ced7"),
    ("B3_4", "002022022222222000022000000",
     "7d3b4a985d8e195fab935f33bebe718b3d53c9ff3b663c6e8553a1dcc5d84a3f"),
    ("B3_6", "002022002222002000022000000",
     "aaf887345353cd0bbf66dacc81d23fbcfc52bdffba43478ec95a5ef0476bf2cb"),
    ("B3_7", "002022202222022000022200200",
     "9cc3c0bb40080fe7df292a0ed9cb5f349938b87f0165fb31146f821aeac83568"),
    ("S3_8_bij", "002022202222022000022200200",
     "f93d66a2796182af399a7c3655a3da8e72a282e9064456f73d52cea597720df9"),
    ("S3_8_all", "002022202222022000022200200",
     "3ff8e948a74caa54ac9e3df2231a9fae4a75d09fb5f4c115317ccd78628528d0"),
    ("K3_9", "002022002222202000022000000",
     "edc5536eec2bf1820a993a780066a300b90fcf0d9926962fed8373c7f3f7b83b"),
    ("B3_10", "002022202222022000022200200",
     "f93d66a2796182af399a7c3655a3da8e72a282e9064456f73d52cea597720df9"),
    ("COVAR", "002022022222222000022000022",
     "ee8636557e9159ec9e76147ad35bb79d73e286b69888a5686f12e9ffd5dcb8f1"),
    ("CHAIN_karrenk", "002022022222220002022000222",
     "3e3c72788a80928761d67bd0c87de9d9cfee385890d0d345b368e6e9a63fcb6c"),
    ("IDEM_ydwed", "002022002222002000022000000",
     "c68690e2517969f45d92776058db21beb2fb426fa8190baa4488b2157958781f"),
]


class TestPinnedVerify:
    def test_every_claim_pinned(self):
        assert [row[0] for row in PINNED_VERIFY] == [t.value for t in TheoremId]

    @pytest.mark.parametrize(
        "theorem, codes, sha256", PINNED_VERIFY, ids=[row[0] for row in PINNED_VERIFY]
    )
    def test_outputs(self, tmp_path, theorem, codes, sha256):
        assert _verify_outputs(tmp_path, theorem) == (codes, sha256)


#: A `full` document on which `IDEM_ydwed` fails under `nonempty` alone:
#: the hull of {1} is empty there, and the hull of the empty set is {1}.
IDEM_FULL_DOC = {"ground": 2, "convention": "full", "systems": {"A": [[0], [0, 1]]}}


class TestWitnessReplay:
    @pytest.mark.parametrize("theorem", [t.value for t in TheoremId])
    def test_convention_override_witness_replays(self, tmp_path, theorem):
        # a witness carries the convention it was checked under, so plain
        # `verify` on it fails again
        replayed = 0
        docs = [FUZZ_DOC] + ([IDEM_FULL_DOC] if theorem == "IDEM_ydwed" else [])
        for i, doc in enumerate(docs):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--convention", "nonempty", "verify", theorem, "-i", str(path)]) == 0
            result = json.loads(out.getvalue())["result"]
            if result["status"] != "fails":
                continue
            assert result["witness"]["convention"] == "nonempty"
            path.write_text(json.dumps(result["witness"]))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["verify", theorem, "-i", str(path)]) == 0
            assert json.loads(out.getvalue())["result"]["status"] == "fails"
            replayed += 1
        assert replayed == {"B3_6": 1, "B3_7": 1, "IDEM_ydwed": 1}.get(theorem, 0)


class TestSweepCommand:
    def test_sweep_finds_disagreements_exit_zero(self, capsys):
        # disagreement mining on an unproved claim keeps exit code 0
        code, out, _ = run_cli(
            capsys, "sweep", "S3_8_all", "--n", "2", "--exhaustive"
        )
        assert code == 0
        report = json.loads(out)["result"]
        assert report["fail_count"] >= 1
        assert report["counterexamples"]

    def test_sweep_clean_claim(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "B3_10", "--n", "2", "--exhaustive")
        assert code == 0
        assert json.loads(out)["result"]["fail_count"] == 0

    def test_failing_registered_clean_claim_exits_one(self, capsys):
        # a claim registered as failure-free that nevertheless fails makes
        # the sweep exit nonzero
        code, out, _ = run_cli(capsys, "sweep", "S3_3", "--n", "2", "--exhaustive")
        assert code == 1
        assert json.loads(out)["result"]["fail_count"] >= 1

    def test_identical_runs_identical_bytes(self, capsys):
        _, out1, _ = run_cli(
            capsys, "sweep", "L3_1", "--n", "3", "--samples", "50", "--seed", "7"
        )
        _, out2, _ = run_cli(
            capsys, "sweep", "L3_1", "--n", "3", "--samples", "50", "--seed", "7"
        )
        assert out1 == out2

    def test_seed_recorded(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "L3_1", "--n", "2", "--samples", "10", "--seed", "3"
        )
        report = json.loads(out)["result"]
        assert report["seed"] == 3
        assert report["samples"] == 10

    @pytest.mark.parametrize("theorem", ["L1_3", "S2_2", "B3_2", "S3_3", "B3_4", "K3_9"])
    def test_generator_set_claims_sweep_one_point_at_random(self, capsys, theorem):
        # a 1-point ground has one permutation, so every draw takes it alone
        code, out, err = run_cli(capsys, "sweep", theorem, "--n", "1", "--samples", "3")
        report = json.loads(out)["result"]
        assert err == ""
        assert report["instance_count"] == 3
        # exit 1 only where a claim registered clean fails: B3_2 does, on
        # A={{0}}, whose hull of the ground is empty
        assert code == (1 if theorem == "B3_2" else 0)
        assert (report["fail_count"] > 0) == (theorem == "B3_2")

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["IDEM_ydwed", "--n", "2", "--samples", "-5"], "samples"),
            (["IDEM_ydwed", "--n", "2", "--jobs", "0"], "jobs"),
            (["IDEM_ydwed", "--n", "2", "--jobs", "-4"], "jobs"),
            (["IDEM_ydwed", "--n", "2", "--max-counterexamples", "-1"], "max_counterexamples"),
            # these samplers draw a generator set before they build a ground
            (["B3_2", "--n", "-1", "--samples", "5", "--seed", "3"], "n"),
            (["S3_3", "--n", "-1", "--samples", "5", "--seed", "3"], "n"),
            (["B3_4", "--n", "-1", "--samples", "5", "--seed", "3"], "n"),
            (["K3_9", "--n", "-1", "--samples", "5", "--seed", "3"], "n"),
            (["L3_1", "--n", "0", "--exhaustive"], "n"),
        ],
    )
    def test_nonsense_sweep_arguments_exit_two(self, capsys, flags, name):
        code, out, err = run_cli(capsys, "sweep", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and f"error: {name} must be at least" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "NOPE", "--n", "2"], "argument theorem: invalid choice: 'NOPE'"),
            (["sweep", "L3_1", "--n", "two"], "argument --n: invalid int value: 'two'\n"),
            (["sweep", "L3_1"], "the following arguments are required: --n\n"),
            ([], "the following arguments are required: command\n"),
            (["nope"], "argument command: invalid choice: 'nope' (choose from 'closure', "
             "'hull', 'elementarize', 'classify', 'invariant-topology', 'orbits', "
             "'attractors', 'topo-attractors', 'rooms', 'cantor-check', 'explication', "
             "'verify', 'sweep')\n"),
            (["--convention"], "argument --convention: expected one argument\n"),
            (["--format", "xml", "sweep", "L1_3", "--n", "2"],
             "argument --format: invalid choice: 'xml' (choose from 'json', 'text')\n"),
            (["sweep", "L1_3", "--n", "2", "--format", "text"],
             "unrecognized arguments: --format text\n"),
            (["--bogus", "sweep", "L1_3", "--n", "2", "-y"],
             "unrecognized arguments: --bogus -y\n"),
            (["closure", "T", "--subset", "-1", "-i", "-"],
             "index -1 outside ground of size 3\n"),
            (["hull", "T", "--kind", "111", "--subset", "-2", "-i", "-"],
             "index -2 outside ground of size 3\n"),
            (["closure", "T", "--subset", "5", "-i", "-"],
             "index 5 outside ground of size 3\n"),
        ],
        ids=["unknown-claim", "n-not-an-int", "n-missing", "no-command", "unknown-command",
             "convention-without-value", "unknown-format", "format-after-command",
             "unknown-flags-both-sides", "subset-index-negative", "hull-subset-index-negative",
             "subset-index-past-ground"],
    )
    def test_parse_errors_exit_two_in_one_line(self, capsys, monkeypatch, argv, message):
        # argparse's own errors are reported like every other usage error,
        # without its usage block; top-level options go before the command.
        # A message ending in a newline is the whole line.  An instance
        # read from stdin is T_E2, on 3 points.
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(T_E2)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"hullflow: error: {message}")

    def test_exhaustive_sweep_takes_no_samples(self, capsys):
        # exhaustive mode draws no samples, so a sample count beside it is
        # a usage error rather than dropped
        code, out, err = run_cli(
            capsys, "sweep", "IDEM_ydwed", "--n", "2", "--exhaustive", "--samples", "5"
        )
        assert (code, out) == (2, "")
        assert err == "hullflow: error: --exhaustive and --samples are mutually exclusive\n"

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        # a bug, unlike bad input, exits 3 with one line and no traceback,
        # so exit 1 keeps meaning only that a clean claim failed
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("hullflow.cli.sweep", broken)
        code, out, err = run_cli(capsys, "sweep", "L3_1", "--n", "2")
        assert code == 3
        assert out == ""
        assert err == "hullflow: internal error: RuntimeError: boom\n"

    def test_usage_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "B3_7", "--n", "4", "--exhaustive")
        assert code == 2
        assert "capped" in err


class TestCommandTable:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_command_has_help(self, capsys, command):
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hullflow {command} ")

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for command, (help_line, _) in cli.COMMANDS.items():
            assert any(line.split() == [command, *help_line.split()] for line in lines), command

    def test_one_call_builds_only_the_parsers_it_uses(self, monkeypatch):
        # the top-level parser and the named command's, built afresh on
        # every call: none is built for the other commands, none is kept
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(2):
            built.clear()
            main(["sweep", "L1_3", "--n", "2"])
            assert built == ["hullflow", "hullflow sweep"]


#: A document in which every claim and command finds the names it reads.
FUZZ_DOC = {
    "ground": 3,
    "convention": "full",
    "systems": {
        "A": [[0], [0, 1], [2]],
        "B": [[1]],
        "T": [[], [0], [1, 2], [0, 1, 2]],
        "Z": [[0, 1], [2], [0, 1, 2]],
        "chi": [[0, 1]],
    },
    "permutations": {"g0": [1, 0, 2], "f": [0, 2, 1]},
    "functions": {"h": [0, 0, 1]},
    "flows": {"phi": {"cyclic": "g0"}, "grp": {"group": ["g0", "f"]}},
}

FUZZ_COMMANDS = [["verify", t.value] for t in TheoremId] + [
    ["classify", "A"],
    ["closure", "A", "--subset", "0"],
    ["hull", "A", "--kind", "101", "--subset", "0,1"],
    ["orbits", "--flow", "grp"],
    ["invariant-topology", "--flow", "phi"],
    ["attractors", "--flow", "phi", "--covering", "Z", "--variant", "weak"],
    ["rooms", "--flow", "grp", "--system", "A"],
    ["cantor-check", "--function", "h", "--system", "A"],
    ["explication", "--function", "h", "--system", "A"],
]


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root's included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_FUZZ_PATHS = list(_paths(FUZZ_DOC))

#: Replacement values: wrong JSON types, out-of-range indices, and names
#: that dangle or point into the wrong section.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["g0", "f", "h", "A", "phi", "nope", ""]),
    st.lists(st.integers(-1, 4), max_size=4),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.dictionaries(
        st.sampled_from(["cyclic", "group", "x"]), st.sampled_from(["g0", "f", "h"])
    ),
)


@st.composite
def damaged_documents(draw):
    doc = copy.deepcopy(FUZZ_DOC)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_FUZZ_PATHS))
        delete = draw(st.booleans())
        value = draw(_JUNK)
        if not path:
            doc = value
            continue
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier damage removed this path
        if isinstance(parent, str):
            continue  # an earlier damage put a string in its place
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


@given(damaged_documents())
@settings(max_examples=40, deadline=None)
def test_damaged_documents_exit_zero_or_two(tmp_path_factory, doc):
    # every command either reads the document or rejects it in one line;
    # no damage reaches an internal error
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    for argv in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "-i", str(path)])
        assert code in (0, 2), (argv, doc, err.getvalue())
        assert err.getvalue().count("\n") == (code == 2), (argv, doc, err.getvalue())


#: Words an argv is drawn from: every command and `NOPE`, every claim, every
#: flag a parser knows and one none does, small and non-numeric values, and
#: an instance file that does not exist.
ARGV_WORDS = sorted(
    {*cli.COMMANDS, "NOPE", *(t.value for t in TheoremId), "--convention", "--format",
     "-h", "--help", "--bogus", "-1", "0", "1", "2", "two", "--", "full", "text",
     "no-such-instance.json"}
    | {flag for _, specs in cli.COMMANDS.values() for flags, _ in specs
       for flag in flags if flag.startswith("-")}
)


@given(st.lists(st.sampled_from(ARGV_WORDS), max_size=8))
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_zero_one_or_two(argv):
    # values stop at 2, so no drawn sweep is larger than n=2 with 2 samples
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and {"-h", "--help"} & set(argv), argv
            return
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert err.getvalue().count("\n") == (code == 2), (argv, err.getvalue())
