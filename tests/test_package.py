"""Packaging: the library runs on the standard library alone."""

import ast
import functools
import importlib
import inspect
import pathlib
import pickle
import pkgutil
import sys

import pytest

import hullflow
from hullflow.attract import VariantUnsupportedError
from hullflow.cli import UsageError
from hullflow.instances import InstanceError
from hullflow.setsys import CapExceededError, GroundMismatchError
from hullflow.verify import SizeLimitError

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
