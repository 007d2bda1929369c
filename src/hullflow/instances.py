"""Named-object instances and their JSON wire form.

An instance bundles a ground size, a closure convention, and named
systems / permutations / functions / flows.  Subsets travel as sorted
index arrays, permutations and functions in one-line notation, flows as
references to named permutations.  Parsing validates every invariant and
reports the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .dynsys import Autobolism, DiscreteFlow, EndoFunction
from .setsys import ClosureConvention, GroundSet, SetSystem

class InstanceError(ValueError):
    """Malformed instance text: carries the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path

    def __reduce__(self):
        # pickled, as a parallel sweep's child sends it, by the two
        # arguments it was made with: `args` holds only the joined text
        return type(self), (self.path, str(self)[len(self.path) + 2 :])


def parse_convention(name: str, path: str = "convention") -> ClosureConvention:
    try:
        return ClosureConvention(name)
    except ValueError:
        raise InstanceError(path, f"unknown convention {name!r} (full|nonempty)") from None


@dataclass
class Instance:
    ground: GroundSet
    convention: ClosureConvention = ClosureConvention.FULL
    systems: dict[str, SetSystem] = field(default_factory=dict)
    permutations: dict[str, Autobolism] = field(default_factory=dict)
    functions: dict[str, EndoFunction] = field(default_factory=dict)
    flows: dict[str, DiscreteFlow] = field(default_factory=dict)

    def names(self) -> list[str]:
        out: list[str] = []
        for section in (self.systems, self.permutations, self.functions, self.flows):
            out.extend(section)
        return out

    def to_dict(self) -> dict[str, Any]:
        """Canonical wire form; the inverse of from_dict."""
        doc: dict[str, Any] = {
            "ground": self.ground.size,
            "convention": self.convention.value,
        }
        if self.systems:
            doc["systems"] = {
                name: [mask_indices(self.ground, m) for m in sys.masks]
                for name, sys in self.systems.items()
            }
        if self.permutations:
            doc["permutations"] = {
                name: list(p.image) for name, p in self.permutations.items()
            }
        if self.functions:
            doc["functions"] = {
                name: list(f.image) for name, f in self.functions.items()
            }
        if self.flows:
            flows: dict[str, Any] = {}
            for name, fl in self.flows.items():
                gens = fl.generators()
                gen_names = [self._perm_name(g) for g in gens]
                if fl.is_cyclic:
                    flows[name] = {"cyclic": gen_names[0]}
                else:
                    flows[name] = {"group": gen_names}
            doc["flows"] = flows
        return doc

    def _perm_name(self, perm: Autobolism) -> str:
        for name, p in self.permutations.items():
            if p == perm:
                return name
        raise InstanceError("flows", f"flow generator {perm.image} has no name")

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Instance":
        if not isinstance(doc, Mapping):
            raise InstanceError("$", "instance must be a JSON object")
        if "ground" not in doc:
            raise InstanceError("ground", "missing")
        size = _wire_int(doc["ground"], "ground")
        try:
            ground = GroundSet(size)
        except ValueError as exc:
            raise InstanceError("ground", str(exc)) from None

        conv = parse_convention(str(doc.get("convention", "full")))
        inst = cls(ground, conv)

        for name, rows in _section(doc, "systems").items():
            path = f"systems.{name}"
            if not isinstance(rows, list):
                raise InstanceError(path, "must be a list of subsets")
            masks = []
            for i, row in enumerate(rows):
                masks.append(_parse_subset(ground, row, f"{path}[{i}]"))
            if len(set(masks)) != len(masks):
                raise InstanceError(path, "duplicate subset in system")
            inst.systems[name] = SetSystem(ground, tuple(masks))

        for name, img in _section(doc, "permutations").items():
            path = f"permutations.{name}"
            image = _parse_image(img, path)
            try:
                inst.permutations[name] = Autobolism.of(ground, image)
            except ValueError as exc:
                raise InstanceError(path, str(exc)) from None

        for name, img in _section(doc, "functions").items():
            path = f"functions.{name}"
            image = _parse_image(img, path)
            try:
                inst.functions[name] = EndoFunction.of(ground, image)
            except ValueError as exc:
                raise InstanceError(path, str(exc)) from None

        for name, spec in _section(doc, "flows").items():
            path = f"flows.{name}"
            if not isinstance(spec, Mapping) or len(spec) != 1:
                raise InstanceError(path, 'must be {"cyclic": name} or {"group": [names]}')
            if "cyclic" in spec:
                inst.flows[name] = DiscreteFlow.cyclic(
                    _named_permutation(inst, spec["cyclic"], path)
                )
            elif "group" in spec:
                pnames = spec["group"]
                if not isinstance(pnames, list) or not pnames:
                    raise InstanceError(path, "group flow needs a nonempty generator list")
                gens = [_named_permutation(inst, pname, path) for pname in pnames]
                inst.flows[name] = DiscreteFlow.of_group(gens)
            else:
                raise InstanceError(path, 'must be {"cyclic": name} or {"group": [names]}')

        names = inst.names()
        if len(set(names)) != len(names):
            raise InstanceError("$", "object names must be unique across sections")
        return inst


def _named_permutation(inst: Instance, pname: Any, path: str) -> Autobolism:
    if not isinstance(pname, str):
        raise InstanceError(path, f"permutation names must be strings, got {pname!r}")
    try:
        return inst.permutations[pname]
    except KeyError:
        raise InstanceError(path, f"unknown permutation {pname!r}") from None


def mask_indices(ground: GroundSet, mask: int) -> list[int]:
    """The elements of a subset mask, ascending: its wire form."""
    return [i for i in range(ground.size) if mask >> i & 1]


def _wire_int(value: Any, path: str) -> int:
    """A JSON integer, taken exactly: floats, strings and booleans (which
    Python counts as ints) are rejected rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceError(path, f"must be an integer, got {value!r}")
    return value


def _section(doc: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    section = doc.get(name, {})
    if not isinstance(section, Mapping):
        raise InstanceError(name, "must be an object")
    return section


def _parse_image(img: Any, path: str) -> list[int]:
    """A map in one-line notation; range and bijectivity are checked by
    the constructor it is passed to."""
    if not isinstance(img, list):
        raise InstanceError(path, "must be an array of point images")
    return [_wire_int(v, f"{path}[{i}]") for i, v in enumerate(img)]


def _parse_subset(ground: GroundSet, row: Any, path: str) -> int:
    if not isinstance(row, list):
        raise InstanceError(path, "subset must be an index array")
    mask = 0
    for i, v in enumerate(row):
        idx = _wire_int(v, f"{path}[{i}]")
        if not 0 <= idx < ground.size:
            raise InstanceError(path, f"index {idx} outside ground of size {ground.size}")
        mask |= 1 << idx
    return mask
