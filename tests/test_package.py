"""Packaging: the library runs on the standard library alone."""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import hullflow
from hullflow.attract import RoomReport, VariantUnsupportedError
from hullflow.cantor import ExplicationRecord, PhaseChainRecord
from hullflow.cli import UsageError
from hullflow.dynsys import Autobolism, DiscreteFlow, EndoFunction
from hullflow.instances import Instance, InstanceError
from hullflow.setsys import (
    CapExceededError,
    ClosureConvention,
    Frozen,
    GroundMismatchError,
    GroundSet,
    HullKind,
    Record,
    SetSystem,
    Subset,
    SystemFlags,
)
from hullflow.verify import Claim, SizeLimitError, SweepReport, TheoremId, Verdict

FULL, NONEMPTY = ClosureConvention.FULL, ClosureConvention.NONEMPTY

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hullflow"


def library_classes():
    """Every class the library's modules define."""
    for info in pkgutil.iter_modules(hullflow.__path__):
        module = importlib.import_module(f"hullflow.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_absolute_imports_are_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside, outside


def test_no_public_cached_property():
    # sweepbench's per-layer tracer replaces the public non-data
    # descriptors of the library's classes with plain functions, so a
    # public cached property would read as a method under tracing
    public = [
        f"{cls.__module__}.{cls.__name__}.{name}"
        for cls in library_classes()
        for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property) and not name.startswith("_")
    ]
    assert not public, public


#: One instance of each exception class the library defines.
ERRORS = [
    InstanceError("flows.x", "bad"),
    UsageError("unknown system 'A'"),
    CapExceededError("ground size 21 exceeds enumeration cap 20"),
    GroundMismatchError("ground 3 != 4"),
    VariantUnsupportedError("monotone coherence needs a cyclic flow"),
    SizeLimitError("B3_7: exhaustive mode capped at n=3, got 4"),
]


def test_every_library_error_listed():
    defined = {cls for cls in library_classes() if issubclass(cls, BaseException)}
    assert defined == {type(error) for error in ERRORS}


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_library_errors_survive_pickling(error):
    # a parallel sweep's child sends the error its share raises back
    # pickled, and the sweep raises it again
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert vars(again) == vars(error)


def test_launch_imports_neither_dataclasses_nor_inspect():
    # a launch pays for every module `hullflow.cli` imports: the records
    # write their methods out, so no launch generates them
    code = "import sys, hullflow.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
    imports = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not imports, imports


G3 = GroundSet(3)
CYCLE = Autobolism(G3, (1, 2, 0))
SWEPT = (TheoremId.L1_3, 1, "exhaustive", FULL, None, None, 1, 1, 0, 0, ())

#: One record of each class the library defines: how to build it, how to
#: build one that differs in one compared field, its repr, and its hash:
#: an int where every field hashes alike in every process, else the tuple
#: of its compared fields, whose hash it shares, or None when unhashable.
RECORDS = [
    (lambda: GroundSet(3), lambda: GroundSet(4), "GroundSet(size=3)", -5029647727744300836),
    (lambda: Subset(G3, 5), lambda: Subset(G3, 4), "{0,2}", 3953427264952944402),
    (
        lambda: SetSystem(G3, (3, 1, 4)), lambda: SetSystem(G3, (3, 1)),
        "[{0} {0,1} {2}]", -8843815195474698652,
    ),
    (lambda: HullKind(1, 0, 1), lambda: HullKind(1, 1, 1), "HullKind(j=1, k=0, l=1)",
     2946073206561277986),
    (
        lambda: SystemFlags(True, False, False, False, False, False, True),
        lambda: SystemFlags(True, False, False, False, False, False, False),
        "SystemFlags(covers_ground=True, is_topology=False, is_self_dual=False, "
        "is_complete=False, is_quasitopology=False, is_partition=False, is_t0=True)",
        5504965734805885606,
    ),
    (
        lambda: EndoFunction(G3, (0, 0, 2)), lambda: EndoFunction(G3, (0, 0, 1)),
        "EndoFunction(ground=GroundSet(size=3), image=(0, 0, 2))", -5232255492273343587,
    ),
    (
        lambda: Autobolism(G3, (1, 2, 0)), lambda: Autobolism(G3, (2, 0, 1)),
        "Autobolism(ground=GroundSet(size=3), image=(1, 2, 0))", 7005840330365222935,
    ),
    (
        lambda: DiscreteFlow.cyclic(CYCLE), lambda: DiscreteFlow.of_group([CYCLE]),
        "DiscreteFlow(ground=GroundSet(size=3), gens=(Autobolism(ground=GroundSet(size=3), "
        "image=(1, 2, 0)),), is_cyclic=True)",
        3554459975836345211,
    ),
    (
        lambda: RoomReport(SetSystem(G3, (0,)), False, True, False),
        lambda: RoomReport(SetSystem(G3, (0,)), False, True, True),
        "RoomReport(rooms=[{}], partition=False, invariant=True, attractors=False)",
        -2155112639249648794,
    ),
    (
        lambda: ExplicationRecord(True, False, True), lambda: ExplicationRecord(True, True, True),
        "ExplicationRecord(lhs=True, rhs_system=False, rhs_complement=True)",
        2946073206561277986,
    ),
    (
        lambda: PhaseChainRecord.of_bits(0b10110), lambda: PhaseChainRecord.of_bits(0b10111),
        "PhaseChainRecord(commutes=False, plus_system=True, minus_system=True, "
        "plus_complement=False, minus_complement=True)",
        3985327654158584019,
    ),
    (
        lambda: Instance(GroundSet(2), systems={"A": SetSystem(GroundSet(2), (1,))}),
        lambda: Instance(GroundSet(2), systems={"A": SetSystem(GroundSet(2), (2,))}),
        "Instance(ground=GroundSet(size=2), convention=<ClosureConvention.FULL: 'full'>, "
        "systems={'A': [{0}]}, permutations={}, functions={}, flows={})",
        None,
    ),
    (
        lambda: Verdict("fails", None, "x"), lambda: Verdict("fails", None, "y"),
        "Verdict(status='fails', instance=None, note='x', systems=None)",
        ("fails", None, "x"),
    ),
    (
        lambda: Claim(len, None, 4, 10), lambda: Claim(len, None, 4, 10, clean=True),
        "Claim(checker=<built-in function len>, kind=None, max_exhaustive_n=4, "
        "default_samples=10, clean=False, note='', read=None)",
        (len, None, 4, 10, False, "", None),
    ),
    (
        lambda: SweepReport(*SWEPT, 0.5), lambda: SweepReport(*SWEPT[:-1], ({},), 0.5),
        "SweepReport(theorem=<TheoremId.L1_3: 'L1_3'>, n=1, mode='exhaustive', "
        "convention=<ClosureConvention.FULL: 'full'>, seed=None, samples=None, "
        "instance_count=1, hold_count=1, fail_count=0, skip_count=0, counterexamples=(), "
        "elapsed=0.5)",
        SWEPT,
    ),
]


def test_every_record_class_pinned():
    pinned = {type(make()) for make, *_ in RECORDS}
    assert {cls for cls in library_classes() if issubclass(cls, Record)} == pinned | {
        Record, Frozen
    }


@pytest.mark.parametrize(
    "make, other, text, hashed", RECORDS, ids=[text.split("(")[0] for _, _, text, _ in RECORDS]
)
def test_record_repr_equality_and_hash(make, other, text, hashed):
    record = make()
    assert repr(record) == text
    assert record == make() and not record != make()
    assert record != other() and not record == other()
    assert record != tuple(getattr(record, name) for name in type(record)._fields)
    if hashed is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == (hashed if isinstance(hashed, int) else hash(hashed))
    if type(record) is not Claim:  # its checker may be a closure
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "make", [make for make, *_ in RECORDS if not isinstance(make(), Instance)],
    ids=lambda make: type(make()).__name__,
)
def test_frozen_records_refuse_assignment(make):
    # records are shared (one holding verdict serves every instance) and
    # used as keys
    record = make()
    name = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == repr(make())


def test_instances_are_mutable():
    inst = Instance(G3)
    inst.convention = NONEMPTY
    assert inst == Instance(G3, NONEMPTY) and inst.systems == {}
    assert Instance(G3).systems is not Instance(G3).systems


def test_comparison_leaves_out_witness_systems_and_elapsed_time():
    named = Verdict("fails", None, "x", {"A": SetSystem(G3, (1,))})
    bare = Verdict("fails", None, "x")
    assert named == bare and hash(named) == hash(bare)
    assert SweepReport(*SWEPT, 0.5) == SweepReport(*SWEPT, 2.0)


def test_records_of_two_classes_never_equal():
    assert Autobolism(G3, (1, 2, 0)) != EndoFunction(G3, (1, 2, 0))
    assert EndoFunction(G3, (1, 2, 0)) != Autobolism(G3, (1, 2, 0))
