"""Per-layer tracing of hullflow, installed from outside the package.

A layer is a module of `src/hullflow/`; the private kernel twins
(`_kernels_py`, `_kernels`) belong to the `kernels` layer.  The tracer wraps
every public function of every layer module, the public methods,
classmethods and constructors of the classes those modules define, and the
few private names the per-layer metrics need.  It then replaces each
wrapped object wherever a layer module holds it, so names imported
directly (`from .dynsys import generate_group` in `verify` and `cantor`)
are traced too.  Functions are found by name: one that a later version
deletes simply reports zero calls.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains; a layer's self time is the sum
over its spans, so the layers' self times partition the traced time.  A
function's busy seconds are the durations of its outermost calls, child
spans included.  Spans of generator functions time each step of the
iteration.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

#: Private names the per-layer metrics read (absent names are skipped).
GENERATORS = ("_exhaustive_instances", "_random_instance")
CHECKERS = "_CHECKERS"
CHECK_KEY = "verify.check"

def layer_of(module_name: str, public: list[str]) -> str:
    """Layer of a module: its own name, or for a private module the public
    module whose name it extends (`_kernels_py` -> `kernels`)."""
    name = module_name.rsplit(".", 1)[-1]
    if not name.startswith("_"):
        return name
    bare = name.lstrip("_")
    owners = [p for p in public if bare.startswith(p)]
    return max(owners, key=len) if owners else bare


class Tracer:
    def __init__(self) -> None:
        self.installed = False
        self._undo: list[tuple[Any, str, Any, bool]] = []
        # Wrappers bind these containers, so they are only ever zeroed in
        # place (see clear_counters), never replaced.
        self.stack: list[float] = []
        self.layer_self: dict[str, list[float]] = defaultdict(lambda: [0.0])
        # key -> [calls, busy seconds, open depth]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.pool_wait = 0.0

    # ------------------------------------------------------------------
    # installation

    def install(self, package) -> None:
        modules = []
        for info in pkgutil.iter_modules(package.__path__):
            try:
                modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
            except ImportError:  # an optional compiled twin that is not built
                continue
        public = [m.__name__.rsplit(".", 1)[-1] for m in modules]
        public = [p for p in public if not p.startswith("_")]

        replacements: dict[int, Any] = {}
        for mod in modules:
            layer = layer_of(mod.__name__, public)
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                # Routines include memoized functions (functools.lru_cache).
                if inspect.isroutine(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if not name.startswith("_") or (short == "verify" and name in GENERATORS):
                        replacements[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
            checkers = getattr(mod, CHECKERS, None) if short == "verify" else None
            if isinstance(checkers, dict):
                for key, fn in list(checkers.items()):
                    if callable(fn):
                        self._patch(checkers, key, self._wrap(fn, layer, CHECK_KEY), item=True)

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, name, original, item in reversed(self._undo):
            if item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()
        self.installed = False

    def _patch(self, owner: Any, name: str, new: Any, item: bool = False) -> None:
        old = owner[name] if item else getattr(owner, name)
        self._undo.append((owner, name, old, item))
        if item:
            owner[name] = new
        else:
            setattr(owner, name, new)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            key = f"{layer}.{name}"
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self._wrap(raw.__func__, layer, key)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(raw.__func__, layer, key)))
            elif inspect.isroutine(raw):
                self._patch(cls, name, self._wrap(raw, layer, key))

    # ------------------------------------------------------------------
    # spans

    def _hook(self, key: str, fn: Callable) -> Optional[Callable]:
        if key == "dynsys.generate_group":
            def count_elements(args, kwargs, result, self_s):
                try:
                    self.counts["dynsys.group_elements"] += len(result)
                except TypeError:
                    pass
            return count_elements
        if key == "verify.sweep":
            sig = inspect.signature(fn)

            def pool_wait(args, kwargs, result, self_s):
                # The parent's own time inside a parallel sweep, outside
                # every traced call it makes, is spent waiting on the pool.
                jobs = sig.bind(*args, **kwargs).arguments.get("jobs", 1)
                if isinstance(jobs, int) and jobs > 1:
                    self.pool_wait += self_s
            return pool_wait
        return None

    def _wrap(self, fn: Callable, layer: str, key: str) -> Callable:
        stack = self.stack
        cell = self.layer_self[layer]
        stat = self.stats[key]
        hook = self._hook(key, fn)

        def close(t0: float) -> float:
            dt = perf_counter() - t0
            own = dt - stack.pop()
            cell[0] += own
            if stack:
                stack[-1] += dt
            stat[2] -= 1
            if not stat[2]:
                stat[1] += dt
            return own

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    stat[2] += 1
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                stack.append(0.0)
                stat[2] += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    own = close(t0)
                if hook is not None:
                    hook(args, kwargs, result, own)
                return result

        wrapper.__wrapped__ = fn
        # Keep the names pickle looks functions up by, and whatever else
        # callers may read off the function (cache_info of a memoized one).
        for attr in {"__module__", "__name__", "__qualname__", "__doc__"} | (
            set(dir(fn)) - set(dir(wrapper))
        ):
            try:
                setattr(wrapper, attr, getattr(fn, attr))
            except (AttributeError, TypeError):
                pass
        return wrapper

    # ------------------------------------------------------------------
    # results

    def snapshot(self) -> dict[str, Any]:
        return {
            "layer_self": {k: v[0] for k, v in self.layer_self.items()},
            "fn": {k: [v[0], v[1]] for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "pool_wait": self.pool_wait,
        }

    def clear_counters(self) -> None:
        """Zero every accumulator in place, keeping the wrappers bound."""
        self.stack.clear()
        for cell in self.layer_self.values():
            cell[0] = 0.0
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0
        self.counts.clear()
        self.pool_wait = 0.0


def merge(snaps: list[dict[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {"layer_self": {}, "fn": {}, "counts": {}, "pool_wait": 0.0}
    for snap in snaps:
        for k, v in snap["layer_self"].items():
            out["layer_self"][k] = out["layer_self"].get(k, 0.0) + v
        for k, (calls, secs) in snap["fn"].items():
            c0, s0 = out["fn"].get(k, (0, 0.0))
            out["fn"][k] = (c0 + calls, s0 + secs)
        for k, v in snap["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["pool_wait"] += snap["pool_wait"]
    return out


#: name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER: dict[str, tuple[str, str]] = {
    "verify.instances": ("count", "higher"),
    "verify.generate_s": ("s", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.pool_wait_s": ("s", "lower"),
    "instances.to_dict.calls": ("count", "lower"),
    "instances.to_dict_s": ("s", "lower"),
    "dynsys.self_s": ("s", "lower"),
    "dynsys.generate_group.calls": ("count", "lower"),
    "dynsys.generate_group_s": ("s", "lower"),
    "dynsys.group_elements": ("count", "lower"),
    "dynsys.orbit_partition.calls": ("count", "lower"),
    "attract.self_s": ("s", "lower"),
    "attract.coherence_variant.calls": ("count", "lower"),
    "attract.free_attractors.calls": ("count", "lower"),
    "attract.pre_rooms.calls": ("count", "lower"),
    "cantor.self_s": ("s", "lower"),
    "cantor.cantor_membership.calls": ("count", "lower"),
    "cantor.phase_chain_check_s": ("s", "lower"),
    "setsys.self_s": ("s", "lower"),
    "setsys.closure_map.calls": ("count", "lower"),
    "setsys.closure_map_s": ("s", "lower"),
    "setsys.classify.calls": ("count", "lower"),
    "kernels.self_s": ("s", "lower"),
    "kernels.closure_table.calls": ("count", "lower"),
    "kernels.closure_table_s": ("s", "lower"),
    "kernels.coherent_block.calls": ("count", "lower"),
    "kernels.trace_coherent.calls": ("count", "lower"),
    "kernels.perm_table.calls": ("count", "lower"),
    "kernels.commutes_with_closure.calls": ("count", "lower"),
    "cli.emit_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(snap: dict[str, Any], instances: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one merged round snapshot."""
    fn, layer_self = snap["fn"], snap["layer_self"]
    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name == "verify.instances":
            value: float = instances
        elif name == "verify.generate_s":
            value = sum(fn.get(f"verify.{g}", (0, 0.0))[1] for g in GENERATORS)
        elif name == "verify.check_s":
            value = fn.get(CHECK_KEY, (0, 0.0))[1]
        elif name == "verify.pool_wait_s":
            value = snap["pool_wait"]
        elif name == "trace.overhead_s":
            value = overhead_s
        elif name == "dynsys.group_elements":
            value = snap["counts"].get(name, 0)
        elif name.endswith(".self_s"):
            value = layer_self.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = fn.get(name[: -len(".calls")], (0, 0.0))[0]
        else:  # "<layer>.<function>_s"
            value = fn.get(name[: -len("_s")], (0, 0.0))[1]
        out[name] = value
    return out
