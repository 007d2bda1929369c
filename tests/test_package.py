"""Packaging: the library runs on the standard library alone."""

import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil
import sys

import hullflow

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hullflow"


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
    public = []
    for info in pkgutil.iter_modules(hullflow.__path__):
        module = importlib.import_module(f"hullflow.{info.name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            public += [
                f"{module.__name__}.{cls.__name__}.{name}"
                for name, attr in vars(cls).items()
                if isinstance(attr, functools.cached_property) and not name.startswith("_")
            ]
    assert not public, public
