"""Command-line interface: parse a named-object instance, dispatch one
operation, serialize the report.

`COMMANDS` maps each command to its help line and arguments. A call
parses in two stages: a top-level parser reads `--convention`, `--format`
and the command's name, then a parser of that command's arguments alone
reads the rest. Nothing is built at import or kept between calls, so a
call pays for two parsers, not one per command. Top-level `--help` lists
the commands after its options.

Exit codes:

- 0: success, including sweeps that find counterexamples to claims not
  registered as failure-free;
- 1: a sweep of a claim registered as failure-free reports failures;
- 2: usage, parse or size-limit errors, reported in one line;
- 3: an internal error, that is a bug, reported in one line without a
  traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, NoReturn, Optional

from . import __version__
from .attract import (
    CoherenceVariant,
    free_attractors,
    pre_rooms,
    topological_attractors,
)
from .cantor import (
    cantor_membership,
    explication_check,
    is_commutative_cantor,
    is_trivially_commutative,
)
from .dynsys import invariant_topology, orbit_partition
from .instances import Instance, InstanceError, mask_indices, parse_convention
from .setsys import (
    CapExceededError,
    ClosureConvention,
    GroundMismatchError,
    HullKind,
    SetSystem,
    Subset,
    classify,
    closed_family,
    closure,
    elementarize,
    hull,
)
from .verify import (
    PROVED_CLEAN,
    SizeLimitError,
    TheoremId,
    check_theorem,
    sweep,
)

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as a UsageError, which `main` reports in one
    line, where argparse would print its usage block and exit."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _masks_payload(system: SetSystem) -> list[list[int]]:
    return [mask_indices(system.ground, m) for m in system.masks]


def _subset_payload(subset: Subset) -> list[int]:
    return list(subset.indices())


def _parse_indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"bad index list {text!r}; expected comma-separated integers")


def parse_instance(source: str) -> Instance:
    """Parse and validate an instance from its JSON text form."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise InstanceError("$", f"invalid JSON: {exc}") from None
    return Instance.from_dict(doc)


def _load_instance(path: Optional[str]) -> Instance:
    if path is None:
        raise UsageError("this command needs --instance FILE")
    if path == "-":
        return parse_instance(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read instance {path!r}: {exc.strerror or exc}") from None
    return parse_instance(raw)


def _named_system(inst: Instance, name: str) -> SetSystem:
    if name == "powerset":
        return SetSystem.powerset(inst.ground)
    try:
        return inst.systems[name]
    except KeyError:
        raise UsageError(f"unknown system {name!r}") from None


def _named_flow(inst: Instance, name: str):
    try:
        return inst.flows[name]
    except KeyError:
        raise UsageError(f"unknown flow {name!r}") from None


def emit(report: dict[str, Any], fmt: str) -> str:
    """Serialize a report: canonical JSON (stable key order) or a readable
    text rendering."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [f"command: {report['command']}", f"convention: {report['convention']}"]
    result = report["result"]
    if isinstance(result, dict) and result.get("convention") == report["convention"]:
        # a sweep's payload repeats the convention the header names
        result = {k: v for k, v in result.items() if k != "convention"}
    lines.extend(_text_lines(result, indent=""))
    return "\n".join(lines) + "\n"


def _text_lines(value: Any, indent: str) -> list[str]:
    if isinstance(value, dict):
        out = []
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                out.append(f"{indent}{key}:")
                out.extend(_text_lines(sub, indent + "  "))
            else:
                out.append(f"{indent}{key}: {sub}")
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return [f"{indent}- {value}"]
        out = []
        for v in value:
            # a list item's lines start with "- ", so an object's first
            # key marks where it begins
            lines = _text_lines(v, indent + "  ")
            if isinstance(v, dict) and lines:
                lines[0] = f"{indent}- {lines[0][len(indent) + 2:]}"
            out.extend(lines)
        return out
    return [f"{indent}{value}"]


def _report(args: argparse.Namespace, conv: ClosureConvention, result: Any) -> dict[str, Any]:
    return {
        "version": __version__,
        "command": args.command,
        "convention": conv.value,
        "result": result,
    }


#: One argument: the name or flags `add_argument` takes, and its keywords.
_Spec = tuple[tuple[str, ...], dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> _Spec:
    return flags, kwargs


_INSTANCE = _arg("--instance", "-i", help="instance JSON file ('-' for stdin)")
_SYSTEM = _arg("system")
_FLOW = _arg("--flow", required=True)
_THEOREM = _arg("theorem", choices=sorted(t.value for t in TheoremId))
_MAP_ARGS = (_INSTANCE, _arg("--function", required=True), _arg("--system", required=True))

#: Each command's help line and the arguments its parser takes, in the
#: order top-level `--help` lists them.
COMMANDS: dict[str, tuple[str, tuple[_Spec, ...]]] = {
    "closure": ("hull of a subset, or the closed family", (
        _INSTANCE, _SYSTEM, _arg("--subset", help="comma-separated indices"),
        _arg("--family", action="store_true", help="emit the closed family"))),
    "hull": ("one of the eight hull constructions", (
        _INSTANCE, _SYSTEM, _arg("--kind", required=True, help="three binary flags, e.g. 111"),
        _arg("--subset", required=True))),
    "elementarize": ("selection-intersection blocks", (_INSTANCE, _SYSTEM)),
    "classify": ("structural flags of a system", (_INSTANCE, _SYSTEM)),
    "invariant-topology": ("invariant topology of a flow", (
        _INSTANCE, _FLOW, _arg("--basis-only", action="store_true"))),
    "orbits": ("orbit partition of a flow", (_INSTANCE, _FLOW)),
    "attractors": ("free attractors of a flow", (
        _INSTANCE, _FLOW, _arg("--covering", required=True, help="system name or 'powerset'"),
        _arg("--variant", choices=sorted(v.value for v in CoherenceVariant),
             default="conventional"))),
    "topo-attractors": ("attractors of a set of topologies", (
        _INSTANCE, _arg("--topologies", required=True, help="comma-separated system names"),
        _arg("--coherence", default="powerset"), _arg("--cadence", default="powerset"))),
    "rooms": ("orbit closures and their partition verdict", (
        _INSTANCE, _FLOW, _arg("--system", required=True))),
    "cantor-check": ("continuity memberships of a self-map", _MAP_ARGS),
    "explication": ("commutative continuity vs the two-sided memberships", _MAP_ARGS),
    "verify": ("evaluate one registered claim on an instance", (_INSTANCE, _THEOREM)),
    "sweep": ("sweep a claim over its instance space", (
        _THEOREM, _arg("--n", type=int, required=True), _arg("--exhaustive", action="store_true"),
        _arg("--samples", type=int), _arg("--seed", type=int, default=0),
        _arg("--max-counterexamples", type=int, default=32), _arg("--jobs", type=int, default=1))),
}


def parse_argv(argv: Optional[list[str]]) -> argparse.Namespace:
    """Parse in two stages: the top-level options and the command's name,
    then the rest with a parser of that command's arguments alone."""
    top = _Parser(
        prog="hullflow",
        description="Set-system hulls, invariant topologies, attractors of permutation\n"
        "flows, and a claim-sweeping harness.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<20}{line}" for name, (line, _) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--convention", choices=("full", "nonempty"), default=None,
                     help="closure convention (overrides the instance file)")
    top.add_argument("--format", choices=("json", "text"), default="json")
    # PARSER takes the name and every argument after it, as a subparser would
    top.add_argument("command", nargs=argparse.PARSER, choices=COMMANDS,
                     metavar="command", help="one of the commands below")
    args, extras = top.parse_known_args(argv)
    args.command, *rest = args.command
    sub = _Parser(prog=f"hullflow {args.command}")
    for flags, kwargs in COMMANDS[args.command][1]:
        sub.add_argument(*flags, **kwargs)
    extras += sub.parse_known_args(rest, args)[1]
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    """Dispatch one parsed invocation; returns (report, exit_code)."""
    conv_override = (
        parse_convention(args.convention) if args.convention else None
    )

    if args.command == "sweep":
        conv = conv_override or ClosureConvention.FULL
        theorem = TheoremId(args.theorem)
        if args.exhaustive and args.samples is not None:
            raise UsageError("--exhaustive and --samples are mutually exclusive")
        mode = "exhaustive" if args.samples is None else "random"
        report = sweep(
            theorem,
            args.n,
            mode,
            samples=args.samples,
            seed=args.seed,
            conv=conv,
            max_counterexamples=args.max_counterexamples,
            jobs=args.jobs,
        )
        code = 1 if theorem in PROVED_CLEAN and report.fail_count else 0
        return _report(args, conv, report.to_payload()), code

    inst = _load_instance(args.instance)
    conv = conv_override or inst.convention

    if args.command == "verify":
        verdict = check_theorem(TheoremId(args.theorem), inst, conv)
        result = {
            "status": verdict.status,
            "note": verdict.note,
            "witness": verdict.witness,
        }
        return _report(args, conv, result), 0

    if args.command == "closure":
        system = _named_system(inst, args.system)
        if args.family or args.subset is None:
            result: Any = _masks_payload(closed_family(system, conv))
        else:
            q = Subset.of(inst.ground, _parse_indices(args.subset))
            result = _subset_payload(closure(system, q, conv))
        return _report(args, conv, result), 0

    if args.command == "hull":
        system = _named_system(inst, args.system)
        flags = args.kind
        if len(flags) != 3 or any(c not in "01" for c in flags):
            raise UsageError(f"--kind must be three binary digits, got {flags!r}")
        kind = HullKind(int(flags[0]), int(flags[1]), int(flags[2]))
        q = Subset.of(inst.ground, _parse_indices(args.subset))
        return _report(args, conv, _subset_payload(hull(system, kind, q, conv))), 0

    if args.command == "elementarize":
        system = _named_system(inst, args.system)
        return _report(args, conv, _masks_payload(elementarize(system))), 0

    if args.command == "classify":
        system = _named_system(inst, args.system)
        flags = classify(system, conv)
        return _report(args, conv, dict(zip(flags._fields, flags._values()))), 0

    if args.command == "invariant-topology":
        flow = _named_flow(inst, args.flow)
        if args.basis_only:
            system = orbit_partition(flow)
        else:
            system = invariant_topology(flow.generators())
        return _report(args, conv, _masks_payload(system)), 0

    if args.command == "orbits":
        flow = _named_flow(inst, args.flow)
        return _report(args, conv, _masks_payload(orbit_partition(flow))), 0

    if args.command == "attractors":
        flow = _named_flow(inst, args.flow)
        covering = _named_system(inst, args.covering)
        [family] = free_attractors(flow, covering, conv, (CoherenceVariant(args.variant),))
        return _report(args, conv, _masks_payload(family)), 0

    if args.command == "topo-attractors":
        names = [s.strip() for s in args.topologies.split(",") if s.strip()]
        topologies = [_named_system(inst, name) for name in names]
        coherence = _named_system(inst, args.coherence)
        cadence = _named_system(inst, args.cadence)
        result = _masks_payload(topological_attractors(topologies, coherence, cadence))
        return _report(args, conv, result), 0

    if args.command == "rooms":
        flow = _named_flow(inst, args.flow)
        system = _named_system(inst, args.system)
        rooms, verdict = pre_rooms(flow, system, conv)
        result = {"rooms": _masks_payload(rooms), "partition": verdict}
        return _report(args, conv, result), 0

    if args.command == "cantor-check":
        f = inst.functions.get(args.function)
        if f is None:
            raise UsageError(f"unknown function {args.function!r}")
        system = _named_system(inst, args.system)
        result = {
            "commutative": is_commutative_cantor(f, system, conv),
            "plus": cantor_membership(f, system, True),
            "minus": cantor_membership(f, system, False),
            "trivially_commutative": is_trivially_commutative(system),
        }
        return _report(args, conv, result), 0

    if args.command == "explication":
        f = inst.functions.get(args.function)
        if f is None:
            raise UsageError(f"unknown function {args.function!r}")
        system = _named_system(inst, args.system)
        rec = explication_check(f, system, conv)
        result = {
            "commutative": rec.lhs,
            "two_sided_system": rec.rhs_system,
            "two_sided_complement": rec.rhs_complement,
            "agree": rec.agree,
        }
        return _report(args, conv, result), 0

    raise UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = parse_argv(argv)
        report, code = run(args)
    except (UsageError, InstanceError, SizeLimitError, CapExceededError,
            GroundMismatchError, ValueError) as exc:
        print(f"hullflow: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"hullflow: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(emit(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
