"""Theorem checkers and the instance-space sweep engine.

Every registered claim has one checker body, which takes a block of runs
of the claim's factor values (family bitmasks, member masks or systems,
generator sets, subset masks, self-maps; see Claim) and returns a Verdict
for each, in order: holds, fails, or skipped when the values are outside
the claim's domain (for example, an attractor side that is ill-formed
because the closed family does not cover the ground).  Sweeps pass the
body the runs their instance space indexes or the values their sampler
draws, and build an Instance only for a failing verdict whose witness
they keep; `check_theorem` unpacks an Instance into the same values, a
run of one.
Every failing verdict handed out carries a replayable witness.  Sweeps
aggregate verdicts and are byte-reproducible for fixed parameters and seed.

Several registered claims are falsified by small instances; the sweep
engine reports such counterexamples rather than suppressing them.  See the
README for the catalogue of known findings.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import time
from array import array
from collections.abc import Iterable, Sequence
from enum import Enum
from functools import partial
from operator import attrgetter, getitem, is_
from typing import Any, Callable, Iterator, NamedTuple, Optional

from . import cantor, kernels
from .attract import (
    CoherenceVariant,
    _free_attractors,
    free_attractors,
    room_report,
    saturation_coherent,
    transport,
)
from .cantor import ALL_STATEMENTS, ExplicationRecord, PhaseChainRecord
from .dynsys import Autobolism, DiscreteFlow, EndoFunction, invariant_sets, orbit_partition
from .instances import Instance, InstanceError
from .setsys import (
    DEFAULT_ENUM_CAP,
    ClosureConvention,
    Frozen,
    GroundSet,
    MeetingFamilies,
    SetSystem,
    _set,
    classify,
    closure_map,
    closure_map_of,
    closure_of,
    closure_tables_of,
    elementarize,
    family_members,
    family_of,
    fibration_classes,
    is_basis_of,
    is_partition,
)


class SizeLimitError(ValueError):
    """The requested ground size exceeds the per-theorem exhaustive limit,
    or the random-mode limit shared by every claim."""


class TheoremId(Enum):
    S1_1 = "S1_1"                    # self-dual topologies have partition bases
    K1_2 = "K1_2"                    # self-dual and T0 only for the power set
    L1_3 = "L1_3"                    # orbit blocks <-> indifferent coherence
    S2_2 = "S2_2"                    # continuous flows: closures of invariant partitions
    B2_3d = "B2_3d"                  # coincidence of coherence variants (discrete analog)
    L3_1 = "L3_1"                    # trace of a hull is met by the hulled set
    B3_2 = "B3_2"                    # commuting flows preserve invariant partitions under closure
    S3_3 = "S3_3"                    # commutation makes rooms an attractor partition
    B3_4 = "B3_4"                    # room invariance <-> rooms are attractors
    B3_6 = "B3_6"                    # closed-set representation of the closure fibration
    B3_7 = "B3_7"                    # fibration integrity <-> complement-freeness preserved
    S3_8_bij = "S3_8_bij"            # explication of commutative continuity, bijections
    S3_8_all = "S3_8_all"            # explication of commutative continuity, all self-maps
    K3_9 = "K3_9"                    # phase-flow continuity chain
    B3_10 = "B3_10"                  # plus/minus continuity coincide for bijections
    COVAR = "COVAR"                  # attractors are covariant under relabeling
    CHAIN_karrenk = "CHAIN_karrenk"  # weak >= conventional >= monotone attractors
    IDEM_ydwed = "IDEM_ydwed"        # idempotence of the hull operator


class Verdict(Frozen):
    """A claim's verdict on one instance.  A checker body returns a failing
    verdict without its instance; `check_theorem` and the sweep attach the
    witness (`_witnessed`), so every failing verdict they hand out has
    one.

    `status` is "holds", "fails" or "skipped", and `instance` the failing
    instance.  `systems` are the witness's systems, where a failing body
    names them: the witness then holds these systems, the checked
    instance's permutations and flows, and the convention checked under.
    They are left out of comparison."""

    __slots__ = _fields = ("status", "instance", "note", "systems")

    def __init__(
        self,
        status: str,
        instance: Optional[Instance] = None,
        note: str = "",
        systems: Optional[dict[str, SetSystem]] = None,
    ) -> None:
        if status not in ("holds", "fails", "skipped"):
            raise ValueError(f"bad status {status!r}")
        _set(self, "status", status)
        _set(self, "instance", instance)
        _set(self, "note", note)
        _set(self, "systems", systems)

    def _key(self) -> tuple:
        return self.status, self.instance, self.note

    @property
    def witness(self) -> Optional[dict[str, Any]]:
        """The failing instance as a replayable document, serialized on
        read, so a sweep pays only for the witnesses it keeps."""
        return None if self.instance is None else self.instance.to_dict()


# Verdicts are frozen, so one serves every holding or skipped instance
# with the same note, one every failing instance of K3_9 with the same
# statements (`_chain_fails`), and one every instance of S3_8 with the same
# statements (`_explication_verdict`).

@functools.cache
def _holds(note: str = "") -> Verdict:
    return Verdict("holds", note=note)


_HOLDS = _holds("")


@functools.cache
def _skip(note: str) -> Verdict:
    return Verdict("skipped", note=note)


def _fails(note: str, systems: Optional[dict[str, SetSystem]] = None) -> Verdict:
    return Verdict("fails", note=note, systems=systems)


def _witnessed(verdict: Verdict, inst: Instance, conv: ClosureConvention) -> Verdict:
    """A body's failing verdict with its witness, under `conv`, the
    convention checked: the instance checked, or, where the body named the
    witness's systems, an instance of those with the checked instance's
    permutations and flows."""
    if verdict.systems is not None:
        inst = Instance(
            inst.ground, conv, systems=verdict.systems,
            permutations=dict(inst.permutations), flows=dict(inst.flows),
        )
    elif inst.convention is not conv:
        inst = Instance(
            inst.ground, conv, inst.systems, inst.permutations, inst.functions, inst.flows
        )
    return Verdict("fails", inst, verdict.note)


# --------------------------------------------------------------------------
# enumeration of instance spaces: indexed sequences of the factors they
# are products of

class _Product(Sequence):
    """The tuples of a mixed-radix product, one entry from each factor, in
    the order of itertools.product: the last factor varies fastest.  Item
    `ordinal` is built on indexing from the ordinal's digits (Knuth, TAOCP
    4A, 7.2.1.1), so a caller builds only the tuples it visits; `run`
    builds a run of consecutive items from the digits of its first."""

    def __init__(self, *factors: Sequence) -> None:
        self.factors = factors
        self.size = math.prod(len(f) for f in factors)

    def __len__(self) -> int:
        return self.size

    def _digits(self, ordinal: int) -> list[int]:
        """The digits of `ordinal`, one per factor, the last factor's
        last: its unranking."""
        if not 0 <= ordinal < self.size:
            raise IndexError(ordinal)
        out = []
        for factor in reversed(self.factors):
            ordinal, digit = divmod(ordinal, len(factor))
            out.append(digit)
        out.reverse()
        return out

    def __getitem__(self, ordinal: int) -> tuple:
        return tuple(map(getitem, self.factors, self._digits(ordinal)))

    def run(self, start: int, stop: int) -> list[tuple[tuple, Sequence]]:
        """Items `start` to `stop` - 1, in order, for 0 <= start < stop <=
        len(self), as runs `(outer, inner)`: `outer` the tuple of the
        other factors' values and `inner` the stretch of the last factor's
        values under them, sliced where the factor is a sliceable sequence
        and listed one index at a time where it computes them (_Mapped,
        _Permutations).  `start` is unranked once, and each next run steps
        the factors before the last, carrying where they wrap."""
        digits = self._digits(start)
        *outer, inner = self.factors
        sliced = isinstance(inner, (array, list, tuple, range))
        values = list(map(getitem, outer, digits))
        first, left = digits[-1], stop - start
        out: list[tuple[tuple, Sequence]] = []
        while True:
            last = min(len(inner), first + left)
            stretch = inner[first:last] if sliced else [inner[i] for i in range(first, last)]
            out.append((tuple(values), stretch))
            left -= last - first
            if not left:
                return out
            first, i = 0, len(outer) - 1
            while digits[i] + 1 == len(outer[i]):
                digits[i] = 0
                values[i] = outer[i][0]
                i -= 1
            digits[i] += 1
            values[i] = outer[i][digits[i]]


class _Mapped(Sequence):
    """`fn` of each entry of `seq`, computed on indexing."""

    def __init__(self, fn: Callable[[Any], Any], seq: Sequence) -> None:
        self.fn = fn
        self.seq = seq

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, i: int) -> Any:
        return self.fn(self.seq[i])


class _Permutations(Sequence):
    """The permutations of range(n) in the lexicographic order of
    itertools.permutations, each built on indexing by factorial-base
    unranking, so random.sample draws from all n! of them without listing
    them."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.size = math.factorial(n)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rank: int) -> tuple[int, ...]:
        if not 0 <= rank < self.size:
            raise IndexError(rank)
        rest = list(range(self.n))
        out = []
        for k in range(self.n - 1, -1, -1):
            digit, rank = divmod(rank, math.factorial(k))
            out.append(rest.pop(digit))
        return tuple(out)


def _maps(n: int, bijective_only: bool = False) -> Sequence[tuple[int, ...]]:
    """The self-maps (or bijections) of range(n) as image tuples, in
    lexicographic order."""
    return _Permutations(n) if bijective_only else _Product(*[range(n)] * n)


@functools.cache
def _covering_families(n: int) -> array:
    """The covering families of an n-set (n <= 4) as family bitmasks, bit m
    set when subset m is a member, ascending.  Built on first use for each
    n and kept as one compact array of 16-bit ints: 64594 of them at n=4."""
    if n > 4:
        raise SizeLimitError(f"exhaustive system enumeration capped at n=4, got {n}")
    # a family covers point x when its bitmask meets that of the subsets
    # holding x
    families: Iterable[int] = range(1 << (1 << n))
    for holders in kernels.holding_families(n):
        families = filter(holders.__and__, families)
    return array("H", families)


def enum_topologies(n: int) -> Iterator[SetSystem]:
    """All labeled topologies: families containing the empty set and the
    ground, closed under pairwise union and intersection."""
    ground = GroundSet(n)
    full = ground.full_mask
    inner = range(1, full)
    for sub_bits in range(1 << (full - 1)):
        masks = [0] + [m for m in inner if sub_bits >> (m - 1) & 1] + [full]
        uc, ic = kernels.pairwise_closed(masks)
        if uc and ic:
            yield SetSystem(ground, tuple(masks))


@functools.cache
def _topology_list(n: int) -> tuple[SetSystem, ...]:
    """enum_topologies(n), listed on first use for each n."""
    return tuple(enum_topologies(n))


def _autobolisms(ground: GroundSet) -> list[Autobolism]:
    """Every permutation of the ground, lexicographic, one object each."""
    return [Autobolism(ground, p) for p in _Permutations(ground.size)]


def _gensets(n: int) -> list[DiscreteFlow]:
    """The group flows of the generator sets of size one or two,
    lexicographic.  A space builds each of them once, from one Autobolism
    per permutation, so the instances that share a generator set share its
    flow and the orbit blocks the flow caches, and the generator sets that
    share a permutation share its mask-image table."""
    perms = _autobolisms(GroundSet(n))
    gensets = [(p,) for p in perms] + list(itertools.combinations(perms, 2))
    return [DiscreteFlow.of_group(gens) for gens in gensets]


def _cycles(n: int) -> list[DiscreteFlow]:
    """The cyclic flow of each permutation, lexicographic."""
    return [DiscreteFlow.cyclic(p) for p in _autobolisms(GroundSet(n))]


def _functions(n: int, bijective: bool = False) -> list[EndoFunction]:
    """The self-maps (or bijections) of range(n), lexicographic."""
    ground = GroundSet(n)
    return [EndoFunction(ground, image) for image in _maps(n, bijective)]


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]


# --------------------------------------------------------------------------
# checker bodies: `_check_x(ground, conv, *values, memo) -> Verdict` on one
# tuple of values, in the order of the factors of the claim's space,
# registered through `_each`, or `_check_x(ground, conv, runs, memo) ->
# list[Verdict]` on a block of runs of them (see Claim)

def _on_systems(
    read: Callable[[int, Any, ClosureConvention], Any], run: Callable[..., list[Verdict]]
) -> Callable[..., list[Verdict]]:
    """The block body of a claim whose outer factor is a system (a family
    bitmask or members): `run(ground, system, read(n, system, conv),
    inner, memo)` gives a run's verdicts.  A system read as None (_COVER)
    is skipped.  A share block may cut a system's run, which goes on in
    the next block, so the memo keeps the last system's reading under
    "last": one reading per system."""

    def checker(
        ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
    ) -> list[Verdict]:
        n, out = ground.size, []
        for (system,), inner in runs:
            if system is None:
                out += [_skip("system does not cover the ground")] * len(inner)
                continue
            last = memo.get("last")
            if last is None or last[0] != system:
                last = memo["last"] = system, read(n, system, conv)
            out += run(ground, system, last[1], inner, memo)
        return out

    return checker


def _check_s1_1(
    ground: GroundSet, conv: ClosureConvention, t: SetSystem, memo: dict
) -> Verdict:
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    blocks = elementarize(t).without_empty()
    part = is_partition(blocks.masks, ground.full_mask)
    basis = is_basis_of(blocks, t)
    if flags.is_self_dual == (part and basis):
        return _HOLDS
    return _fails(f"self_dual={flags.is_self_dual} partition={part} basis={basis}")


def _check_k1_2(
    ground: GroundSet, conv: ClosureConvention, t: SetSystem, memo: dict
) -> Verdict:
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    if not flags.is_self_dual:
        return _skip("not self-dual")
    discrete = len(t.masks) == 1 << ground.size
    if flags.is_t0 == discrete:
        return _HOLDS
    return _fails(f"t0={flags.is_t0} discrete={discrete}")


def _l1_3_verdict(ground: GroundSet, blocks: tuple[int, ...], chi: int) -> Verdict:
    """L1_3's verdict on a nonempty chi under a flow with these orbit
    blocks, which are all of the flow it reads.  Coherence is decided over
    the points of chi: over them, and over all nonempty subsets of chi
    alike, it holds exactly when chi lies inside one orbit block
    (tests/oracles.py decides it both ways)."""
    coherent = saturation_coherent(blocks, [1 << x for x in range(ground.size) if chi >> x & 1])
    is_block = chi in blocks
    if coherent == is_block:
        return _HOLDS
    return _fails(f"coherent={coherent} orbit_block={is_block}")


def _check_l1_3(
    ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
) -> list[Verdict]:
    """L1_3's verdict on each (flow, chi) of a block of runs, in order.
    Each orbit partition has a row of verdicts by chi, kept in the memo by
    the orbit blocks: it holds the empty chi's skip at first, and each chi
    asked is decided into it once, so a draw on many points decides only
    its own chi.  A document's empty chi comes with no flow (None), whose
    row is asked for that chi alone."""
    out = []
    for (flow,), chis in runs:
        blocks = None if flow is None else flow.orbit_blocks()
        row = memo.get(blocks)
        if row is None:
            row = memo[blocks] = {0: _skip("empty chi")}
        for chi in chis:
            verdict = row.get(chi)
            if verdict is None:
                verdict = row[chi] = _l1_3_verdict(ground, blocks, chi)
            out.append(verdict)
    return out


@functools.cache
def _positions(n: int) -> int:
    """The int whose byte j, in a 256-byte chunk of tables on n <= 4
    points, is the position j >> n << n of the first cell of the table
    that holds byte j; built on first use for each n."""
    return int.from_bytes(bytes(j >> n << n for j in range(256)), "little")


def _not_idempotent(run: Sequence[int], n: int) -> list[int]:
    """The positions, ascending, of the tables in `run` that composed with
    themselves are not themselves: the tables are maps of the subset masks
    of n points (such as closure tables), 2^n cells each.

    A run of bytes (n <= 4, such as closure_tables_of's join) is cut into
    256-byte chunks of 256 >> n tables, the last one padded with zero
    tables, which are idempotent.  Every cell is below 2^n, so OR-ing
    each table's position into its cells points each cell into its own
    table, and one translation of the pointed chunk through the chunk
    composes every table in it with itself (Lamport, "Multiple byte
    processing with full-word instructions", CACM 1975).  Only a chunk
    that differs from its composition is compared table by table.  A tuple
    (above 4 points) holds one table, compared cell by cell with its
    composition."""
    if not isinstance(run, bytes):
        return [] if [run[c] for c in run] == list(run) else [0]
    positions, out = _positions(n), []
    for start in range(0, len(run), 256):
        chunk = run[start : start + 256].ljust(256, b"\0")
        composed = (int.from_bytes(chunk, "little") | positions).to_bytes(256, "little")
        composed = composed.translate(chunk)
        if composed != chunk:
            size = 1 << n
            out += [
                (start + i) >> n
                for i in range(0, 256, size)
                if composed[i : i + size] != chunk[i : i + size]
            ]
    return out


def _idem_fails(cl: Sequence[int]) -> Verdict:
    z = next(z for z, c in enumerate(cl) if cl[c] != c)
    return _fails(f"z={z:#x}: cl(z)={cl[z]:#x} but cl(cl(z))={cl[cl[z]]:#x}")


def _check_idem(
    ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
) -> list[Verdict]:
    """IDEM_ydwed's verdict on each family of a block of runs, in order:
    whether the family's closure table composed with itself is itself.  On
    up to 4 points a run's tables (a share block's: one slice of the
    covering families) come from one closure_tables_of call and go to
    _not_idempotent as one run of bytes.  Above 4 points, where only random
    mode goes, and for a document's system that does not cover the ground
    (None, as every family a sweep draws covers it), the run is one draw
    or one document."""
    n, out = ground.size, []
    for _, families in runs:
        if n > 4 or families[0] is None:
            [family] = families
            if family is None:
                out.append(_skip("system does not cover the ground"))
                continue
            tables = closure_map_of(n, family, conv)
        else:
            tables = closure_tables_of(n, families, conv)
        verdicts = [_HOLDS] * len(families)
        for i in _not_idempotent(tables, n):
            verdicts[i] = _idem_fails(tables[i << n : (i + 1) << n])
        out += verdicts
    return out


def _check_l3_1(
    ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
) -> list[Verdict]:
    """L3_1's verdict on each (family bitmask, B) of a block of runs, in
    order: whether every member that meets the hull of B meets it inside
    B.  The failing members, those meeting the hull and missing its trace
    on B, are one family bitmask, whose lowest bit is the least of them.
    The memo keeps the family of the subsets meeting each subset asked."""
    meets = memo.get("meets")
    if meets is None:
        meets = memo["meets"] = MeetingFamilies(ground.size)
    out = []
    for (family,), bs in runs:
        for b in bs:
            hullb = closure_of(meets, family, b, conv)
            failing = family & meets[hullb] & ~meets[hullb & b]
            if failing:
                m = (failing & -failing).bit_length() - 1
                out.append(_fails(f"member {m:#x} traces to {m & hullb:#x}, disjoint from B"))
            else:
                out.append(_HOLDS)
    return out


def _continuous(flow: DiscreteFlow, t: SetSystem) -> bool:
    members = set(t.masks)
    return all(
        {g.apply_mask(m) for m in t.masks} == members for g in flow.generators()
    )


def _invariant_partitions(flow: DiscreteFlow) -> Iterator[list[int]]:
    blocks = list(orbit_partition(flow).masks)
    for grouping in _set_partitions(blocks):
        part = []
        for grp in grouping:
            acc = 0
            for b in grp:
                acc |= b
            part.append(acc)
        yield sorted(part)


def _closed_partitions(
    ground: GroundSet, name: str, members: Sequence[int], flow: DiscreteFlow,
    cl: Sequence[int],
) -> Verdict:
    """Holds when the closure under the system of `members`, whose table
    is `cl`, of every invariant partition of the flow is again an
    invariant partition; the failing witness keeps the system under
    `name` and adds the partition as `P`."""
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not is_partition(closed, ground.full_mask) or not all(
            c in invariant for c in closed
        ):
            return _fails(
                f"closures {closed} are not an invariant partition",
                systems={name: SetSystem(ground, tuple(members)),
                         "P": SetSystem(ground, tuple(part))},
            )
    return _HOLDS


def _check_s2_2(
    ground: GroundSet, conv: ClosureConvention, t: SetSystem, flow: DiscreteFlow,
    memo: dict,
) -> Verdict:
    """S2_2 on a topology and a flow.  Whether `t` is a topology and its
    closure table are read once per topology, kept in the memo by its
    masks."""
    if t.masks not in memo:
        memo[t.masks] = classify(t, conv).is_topology, closure_map(t, conv)
    is_topology, cl = memo[t.masks]
    if not is_topology:
        return _skip("not a topology")
    if not _continuous(flow, t):
        return _holds("flow not continuous; premise not met")
    return _closed_partitions(ground, "T", t.masks, flow, cl)


def _premised(
    ground: GroundSet, family: int, cl: Sequence[int], flows: Sequence[DiscreteFlow],
    memo: dict, rooms: bool,
) -> list[Verdict]:
    """The verdicts of B3_2 (or of S3_3, with `rooms`) on a run of flows
    under a system whose closure table is `cl`.  Commuting with the hull,
    their premise, is closed under composition, so it is decided on the
    generators by the table's hull row (cantor._hull_row)."""
    commutes, out = cantor._hull_row(cl, memo).of, []
    for flow in flows:
        if not all(map(commutes, flow.generators())):
            out.append(_holds("flow does not commute with the hull; premise not met"))
        elif rooms:
            out.append(_room_verdict(flow, cl, False))
        else:
            out.append(_closed_partitions(ground, "A", family_members(family), flow, cl))
    return out


def _room_verdict(flow: DiscreteFlow, table: Sequence[int], b3_4: bool) -> Verdict:
    """The verdict of S3_3 (the rooms partition the ground and are
    attractors) or of B3_4 (the rooms are invariant exactly when they are
    attractors) under the closure table `table` and the flow, whose room
    report reads the flow only through its orbit blocks."""
    report = room_report(flow, table)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if b3_4:
        holds, named = report.invariant == report.attractors, f"invariant={report.invariant}"
    else:
        holds = report.partition and report.attractors
        named = f"partition={report.partition}"
    if holds:
        return _HOLDS
    return _fails(f"rooms={report.rooms!r} {named} attractors={report.attractors}")


def _b3_4_run(
    ground: GroundSet, family: int, table: Sequence[int], flows: Sequence[DiscreteFlow],
    memo: dict,
) -> list[Verdict]:
    """B3_4's verdicts on a run of flows under the closure table `table`,
    all its verdict reads of the system: a row of them, one per orbit
    partition, is kept in the memo by the table."""
    row = memo.setdefault(table, {})
    out = []
    for flow in flows:
        blocks = flow.orbit_blocks()
        verdict = row.get(blocks)
        if verdict is None:
            verdict = row[blocks] = _room_verdict(flow, table, True)
        out.append(verdict)
    return out


def _check_b2_3d(
    ground: GroundSet, conv: ClosureConvention, flow: DiscreteFlow, covering: SetSystem,
    memo: dict,
) -> Verdict:
    if not flow.is_cyclic:
        return _skip("monotone variants need a cyclic flow")
    if not covering.covers_ground():
        return _skip("system does not cover the ground")
    variants = [CoherenceVariant.CONVENTIONAL, CoherenceVariant.MONO_PLUS,
                CoherenceVariant.MONO_MINUS]
    if len(covering.masks) == 1 << ground.size:
        variants.append(CoherenceVariant.WEAK)  # the power-set clause
    conventional, plus, minus, *powerset = free_attractors(flow, covering, conv, variants)
    if not (conventional == plus == minus):
        return _fails(f"conventional={conventional!r} mono+={plus!r} mono-={minus!r}")
    if powerset:
        [weak] = powerset
        blocks = orbit_partition(flow)
        if not (weak == conventional == blocks):
            return _fails(
                f"over the power set: weak={weak!r} conventional={conventional!r} "
                f"orbits={blocks!r}"
            )
    return _HOLDS


#: The variants CHAIN_karrenk compares, in the order of its note.
_CHAIN_VARIANTS = (
    CoherenceVariant.WEAK, CoherenceVariant.CONVENTIONAL,
    CoherenceVariant.MONO_PLUS, CoherenceVariant.MONO_MINUS,
)


def _chain_verdict(
    flow: DiscreteFlow, members: Sequence[int], table: Sequence[int], families: dict
) -> Verdict:
    """CHAIN_karrenk's verdict on a cyclic flow and the covering of
    `members`, whose closure table is `table`; `families` is the memo's
    store of conventional families by block-incidence family
    (attract._free_attractors)."""
    weak, conventional, plus, minus = _free_attractors(
        flow, members, table, _CHAIN_VARIANTS, families
    )
    # one set of the conventional family, which the monotone ones are
    # compared against; a family's masks are ascending and distinct
    strong = set(conventional)
    if strong.issubset(weak) and strong.issuperset(plus) and strong.issuperset(minus):
        return _HOLDS
    return _fails(
        f"weak={list(weak)} conventional={list(conventional)} "
        f"mono+={list(plus)} mono-={list(minus)}"
    )


def _check_chain(
    ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
) -> list[Verdict]:
    """CHAIN_karrenk's verdict on each (cycle, covering) of a block of
    runs, in order (the covering, a family bitmask or None (_COVER), is the
    inner factor).  The verdict reads the flow only through its orbit
    blocks (and whether it is cyclic), so each orbit partition has a row
    of verdicts by covering, kept in the memo by the orbit blocks.  The
    memo also keeps the conventional families by block-incidence family,
    and each covering's closure table."""
    n, out = ground.size, []
    families = memo.setdefault("families", {})
    tables = memo.setdefault("tables", {})
    for (flow,), coverings in runs:
        if not flow.is_cyclic:
            out += [_skip("monotone variants need a cyclic flow")] * len(coverings)
            continue
        row = memo.setdefault(flow.orbit_blocks(), {})
        for family in coverings:
            if family is None:
                out.append(_skip("system does not cover the ground"))
                continue
            verdict = row.get(family)
            if verdict is None:
                table = tables.get(family)
                if table is None:
                    table = tables[family] = closure_map_of(n, family, conv)
                verdict = row[family] = _chain_verdict(
                    flow, family_members(family), table, families
                )
            out.append(verdict)
    return out


def _check_b3_6(
    ground: GroundSet, conv: ClosureConvention, family: int, memo: dict
) -> Verdict:
    """B3_6 on the system whose family bitmask is `family`, read off its
    closure table with no SetSystem built: the complement-free subsets
    (cantor._free_family) are those outside the up-closure of the nonempty
    complements, and the claim holds when the families {(q & key) | core :
    q complement-free}, one per fibration class, are the classes.  Each is
    compared shifted (setsys.shifted) by its least member, its core (q = 0
    is always free), so member (q & key) | core is bit q & key & ~core."""
    n = ground.size
    classes, cores = fibration_classes(closure_map_of(n, family, conv))
    free = family_members(cantor._free_family(n, family))
    represented = set()
    for key, core in cores.items():
        rest, trace = key & ~core, 0
        for q in free:
            trace |= 1 << (q & rest)
        represented.add((core, trace))
    if represented == set(classes.values()):
        return _HOLDS
    return _fails("closed-set representation does not reproduce the fibration")


def _fibration(n: int, family: int, conv: ClosureConvention) -> tuple:
    """B3_7's reading of a system: its fibration classes and free family."""
    return cantor._classes(closure_map_of(n, family, conv)), cantor._free_family(n, family)


def _b3_7_run(
    ground: GroundSet, family: int, parts: tuple, maps: Sequence[EndoFunction],
    memo: dict,
) -> list[Verdict]:
    """B3_7's verdicts on a run of maps: fibration integrity against the
    preservation of the complement-free family."""
    classes, free = parts
    out = []
    for f in maps:
        table = f.mask_table()
        integ, pres = cantor._integrity(table, classes), cantor._preserves(table, free)
        out.append(_HOLDS if integ == pres else _fails(
            f"integrity={integ} preserves_unfamily={pres}"
        ))
    return out


def _chain_parts(n: int, family: int, conv: ClosureConvention) -> tuple:
    """S3_8's and K3_9's reading of a system: its closure table and sides,
    under which its chain statements' rows are fetched (cantor._chain_rows)."""
    return closure_map_of(n, family, conv), cantor._sides(n, family)


def _s3_8_run(
    ground: GroundSet, family: int, parts: tuple, maps: Sequence[EndoFunction],
    memo: dict, bijective: bool,
) -> list[Verdict]:
    """S3_8's verdicts on a run of maps, keyed by the map's five chain
    statements (_explication_verdict)."""
    rows = cantor._chain_rows(*parts, memo)
    return [
        _skip("not a bijection") if bijective and not f.is_bijective()
        else _explication_verdict(cantor._chain_bits(rows, f))
        for f in maps
    ]


@functools.cache
def _explication_verdict(bits: int) -> Verdict:
    """S3_8's verdict, one per statement bitmask, as its note names the
    explication record read off the bits (hull commutation, then the
    two-sided memberships over the system and over its complement) and
    nothing else: it holds when the three agree."""
    record = ExplicationRecord.of_bits(bits)
    if record.agree:
        return _HOLDS
    return _fails(
        f"commutative={record.lhs} two-sided(system)={record.rhs_system} "
        f"two-sided(complement)={record.rhs_complement}"
    )


def _k3_9_run(
    ground: GroundSet, family: int, parts: tuple, flows: Sequence[DiscreteFlow],
    memo: dict,
) -> list[Verdict]:
    """K3_9's verdicts on a run of flows: the group's statements, decided
    on its generators as in phase_chain_check, hold together or fail
    together.  The generators' statements are ANDed here."""
    rows, out = cantor._chain_rows(*parts, memo), []
    for flow in flows:
        bits = ALL_STATEMENTS
        for g in flow.gens:
            bits &= cantor._chain_bits(rows, g)
        out.append(_HOLDS if bits == 0 or bits == ALL_STATEMENTS else _chain_fails(bits))
    return out


@functools.cache
def _chain_fails(bits: int) -> Verdict:
    """K3_9's failing verdict, one per statement bitmask, as its note names
    the statements and nothing else."""
    return _fails(f"chain statements {PhaseChainRecord.of_bits(bits).statements}")


def _side(n: int, masks: Sequence[int], conv: ClosureConvention) -> Any:
    """B3_10's reading of a system: its side, or None above DEFAULT_ENUM_CAP
    points, where no side of 2^n bits is built."""
    return cantor._Side.of(n, family_of(n, masks)) if n <= DEFAULT_ENUM_CAP else None


def _b3_10_run(
    ground: GroundSet, masks: tuple[int, ...], side: Any, maps: Sequence[EndoFunction],
    memo: dict,
) -> list[Verdict]:
    """B3_10's verdicts on a run of bijections under the system of
    `masks`: its plus and its minus membership, from the side's row
    (cantor._side_row) or, with no side, cantor_membership's pair scan."""
    out = []
    for f in maps:
        if not f.is_bijective():
            out.append(_skip("not a bijection"))
            continue
        if side is None:
            sys = SetSystem(ground, masks)
            plus, minus = (cantor.cantor_membership(f, sys, sign) for sign in (True, False))
        else:
            # bit 0 the plus membership, bit 1 the minus one
            bits = cantor._side_row(side, memo).of(f)
            plus, minus = bits & 1 == 1, bits > 1
        out.append(_HOLDS if plus == minus else _fails(f"plus={plus} minus={minus}"))
    return out


_check_b3_2 = _on_systems(closure_map_of, partial(_premised, rooms=False))
_check_s3_3 = _on_systems(closure_map_of, partial(_premised, rooms=True))
_check_b3_4 = _on_systems(closure_map_of, _b3_4_run)
_check_b3_7 = _on_systems(_fibration, _b3_7_run)
_check_s3_8_bij = _on_systems(_chain_parts, partial(_s3_8_run, bijective=True))
_check_s3_8_all = _on_systems(_chain_parts, partial(_s3_8_run, bijective=False))
_check_k3_9 = _on_systems(_chain_parts, _k3_9_run)
_check_b3_10 = _on_systems(_side, _b3_10_run)


def _check_covar(
    ground: GroundSet, conv: ClosureConvention, cycle: DiscreteFlow,
    masks: Optional[tuple[int, ...]], relabel: Optional[Autobolism], memo: dict,
) -> Verdict:
    """`masks` and `relabel` are None only where `_unpack_covar` read a
    system that does not cover the ground, which is skipped first."""
    if masks is None:
        return _skip("system does not cover the ground")
    # the system and its untransported family, kept in the memo by its
    # members and the orbit blocks, all of the flow free_attractors reads
    key = masks, cycle.orbit_blocks()
    if key not in memo:
        sys = SetSystem(ground, masks)
        memo[key] = sys, *free_attractors(cycle, sys, conv)
    sys, original = memo[key]
    [moved] = free_attractors(*transport(cycle, sys, relabel), conv)
    expected = SetSystem(ground, tuple(relabel.apply_mask(m) for m in original.masks))
    if moved == expected:
        return _HOLDS
    return _fails(f"transported={moved!r} != relabeled originals={expected!r}")


# --------------------------------------------------------------------------
# factors: each kind of factor value is enumerated, drawn from `rnd`, named
# in a witness and read back out of a document in one place

def _get_system(inst: Instance, name: str) -> SetSystem:
    try:
        return inst.systems[name]
    except KeyError:
        raise InstanceError(f"systems.{name}", "missing") from None


def _get_single(inst: Instance, name: str) -> int:
    masks = _get_system(inst, name).masks
    if len(masks) != 1:
        raise InstanceError(f"systems.{name}", "must hold exactly one subset")
    return masks[0]


def _get_flow(inst: Instance) -> DiscreteFlow:
    """The instance's first flow."""
    if not inst.flows:
        raise InstanceError("flows", "missing")
    return next(iter(inst.flows.values()))


def _get_function(inst: Instance) -> EndoFunction:
    if not inst.functions:
        raise InstanceError("functions", "missing")
    return next(iter(inst.functions.values()))


def _get_relabeling(inst: Instance) -> Autobolism:
    try:
        return inst.permutations["f"]
    except KeyError:
        raise InstanceError("permutations.f", "missing relabeling") from None


def _put_flow(inst: Instance, flow: DiscreteFlow) -> None:
    """Name the flow's generators g0, g1, ... and the flow phi."""
    inst.permutations.update((f"g{i}", g) for i, g in enumerate(flow.generators()))
    inst.flows["phi"] = flow


#: A coin byte of _sample_family as a binary digit: "1" (the subset is a
#: member) below 0x80.
_COIN_DIGITS = b"1" * 128 + b"0" * 128


def _sample_family(rnd: random.Random, ground: GroundSet) -> int:
    """A family bitmask holding each subset independently with probability
    1/2, coverage forced by adding the ground when needed: the family that
    `rnd.random() < 0.5` asked once per subset, ascending, would draw, with
    `rnd` left in the same state.  random() reads two 32-bit words of the
    Mersenne Twister (Matsumoto and Nishimura, ACM TOMACS 1998) and is
    below 0.5 exactly when the top bit of the first is clear, and
    getrandbits lays the same words out least significant first; so byte
    3 of each 8-byte pair of words is the coin of one subset, and one
    translation makes the coins the family's binary digits."""
    n = ground.size
    coins = rnd.getrandbits(64 << n).to_bytes(8 << n, "little")[3::8]
    family = int(coins[::-1].translate(_COIN_DIGITS), 2)
    if all(map(family.__and__, kernels.holding_families(n))):
        return family
    return family | 1 << ground.full_mask


def _sample_masks(rnd: random.Random, ground: GroundSet) -> tuple[int, ...]:
    """The member masks of a _sample_family draw, ascending."""
    return family_members(_sample_family(rnd, ground))


def _sample_system(rnd: random.Random, ground: GroundSet) -> SetSystem:
    return SetSystem(ground, _sample_masks(rnd, ground))


def _sample_perm(rnd: random.Random, ground: GroundSet) -> Autobolism:
    image = list(range(ground.size))
    rnd.shuffle(image)
    return Autobolism(ground, tuple(image))


def _sample_genset(rnd: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """One or two distinct permutations; one on a 1-point ground, which has
    no second."""
    k = rnd.choice((1, 2))
    perms = _Permutations(n)
    return tuple(rnd.sample(perms, min(k, len(perms))))


def _sample_topology(rnd: random.Random, ground: GroundSet) -> SetSystem:
    """The union-and-intersection closure of a random family."""
    masks = set(_sample_masks(rnd, ground)) | {0, ground.full_mask}
    changed = True
    while changed:
        changed = False
        for a in list(masks):
            for b in list(masks):
                for c in (a | b, a & b):
                    if c not in masks:
                        masks.add(c)
                        changed = True
    return SetSystem(ground, tuple(masks))


class _Factor(NamedTuple):
    """One kind of factor value: `values(n)`, its values on n points in
    enumeration order; `draw(rnd, ground)`, one value drawn from `rnd`;
    `put(inst, value)`, which names the value in a witness; `read(inst)`,
    which reads it back out of a document; and whether the value is a map
    or a flow acting on the systems, which a document is read for after
    them.  A process keeps the covering families and the topologies."""

    values: Callable[[int], Sequence]
    draw: Callable[[random.Random, GroundSet], Any]
    put: Callable[[Instance, Any], None]
    read: Callable[[Instance], Any]
    acts: bool = False


def _system_factor(
    name: str, values: Callable[[int], Sequence], draw: Callable[..., SetSystem]
) -> _Factor:
    """Set systems, named `name` in a witness."""
    return _Factor(
        values, draw, lambda inst, sys: inst.systems.update({name: sys}),
        partial(_get_system, name=name),
    )


def _subset_factor(name: str, least: int) -> _Factor:
    """The subset masks from `least` up (1: the nonempty ones), named `name`
    in a witness as the system of that one subset."""
    return _Factor(
        lambda n: range(least, 1 << n),
        lambda rnd, ground: rnd.randrange(least, 1 << ground.size),
        lambda inst, b: inst.systems.update({name: SetSystem(inst.ground, (b,))}),
        partial(_get_single, name=name),
    )


def _family_factor(name: str, covering: bool) -> _Factor:
    """Set systems as family bitmasks (bit m set when subset m is a
    member), named `name` in a witness.  Where `covering`, a document's
    system that does not cover the ground reads as None, for its body to
    skip, before its members are folded (which above the cap raises)."""

    def read(inst: Instance) -> Optional[int]:
        sys = _get_system(inst, name)
        skipped = covering and not sys.covers_ground()
        return None if skipped else family_of(inst.ground.size, sys.masks)

    return _Factor(
        _covering_families,
        _sample_family,
        lambda inst, family: inst.systems.update(
            {name: SetSystem(inst.ground, family_members(family))}
        ),
        read,
    )


_TOPOLOGY = _system_factor("T", _topology_list, _sample_topology)
#: A covering system A as its family bitmask, read from any document.
_FAMILY = _family_factor("A", covering=False)
#: The same, read as None from a document whose system does not cover the
#: ground.
_COVER = _family_factor("A", covering=True)
#: A covering system A as its member masks.
_MEMBERS = _Factor(
    lambda n: _Mapped(family_members, _covering_families(n)),
    _sample_masks,
    lambda inst, masks: inst.systems.update(A=SetSystem(inst.ground, masks)),
    lambda inst: _get_system(inst, "A").masks,
)
_SUBSET = _subset_factor("B", 0)
_CHI = _subset_factor("chi", 1)
_GENSET = _Factor(
    _gensets,
    lambda rnd, ground: DiscreteFlow.of_group(
        [Autobolism(ground, p) for p in _sample_genset(rnd, ground.size)]
    ),
    _put_flow, _get_flow, acts=True,
)
_CYCLE = _GENSET._replace(
    values=_cycles, draw=lambda rnd, ground: DiscreteFlow.cyclic(_sample_perm(rnd, ground))
)
#: The covering Z of CHAIN_karrenk.
_COVER_Z = _family_factor("Z", covering=True)
#: The covering Z of B2_3d: exhaustive mode sweeps the power set alone,
#: while random mode draws arbitrary coverings, so the two modes test
#: different claims.
_POWERSET = _system_factor(
    "Z", lambda n: [SetSystem.powerset(GroundSet(n))], _sample_system
)
_SELF_MAP = _Factor(
    _functions,
    lambda rnd, ground: EndoFunction(
        ground, tuple(rnd.randrange(ground.size) for _ in range(ground.size))
    ),
    lambda inst, f: inst.functions.update(f=f), _get_function, acts=True,
)
_BIJECTION = _SELF_MAP._replace(
    values=partial(_functions, bijective=True),
    draw=lambda rnd, ground: EndoFunction(ground, _sample_perm(rnd, ground).image)
)
_RELABELING = _Factor(
    lambda n: _autobolisms(GroundSet(n)), _sample_perm,
    lambda inst, rel: inst.permutations.update(f=rel), _get_relabeling, acts=True,
)


# --------------------------------------------------------------------------
# instance spaces: products of factors

class _Space(NamedTuple):
    """An instance space: the product of its factors, enumerated with the
    last factor innermost.  `order`, where given, lists the factors'
    positions in the order a random draw takes them, which the pinned
    seeded payloads fix."""

    factors: tuple[_Factor, ...]
    order: Optional[tuple[int, ...]] = None

    def build(self, ground: GroundSet, conv: ClosureConvention, *values: Any) -> Instance:
        """The Instance of one tuple of factor values."""
        inst = Instance(ground, conv)
        for factor, value in zip(self.factors, values):
            factor.put(inst, value)
        return inst

    def draw(self, n: int, rnd: random.Random) -> tuple:
        """One tuple of factor values drawn from `rnd`."""
        ground, values = GroundSet(n), [None] * len(self.factors)
        for i in self.order or range(len(self.factors)):
            values[i] = self.factors[i].draw(rnd, ground)
        return tuple(values)

    def unpack(self, inst: Instance) -> tuple:
        """The factor values read out of an instance: its systems first,
        then the maps and flows acting on them, so that a document missing
        both reports the system."""
        values = [None] * len(self.factors)
        for i in sorted(range(len(self.factors)), key=lambda i: self.factors[i].acts):
            values[i] = self.factors[i].read(inst)
        return tuple(values)


_TOPOLOGIES = _Space((_TOPOLOGY,))
_SYSTEMS = _Space((_FAMILY,))
_COVERS = _Space((_COVER,))
_SYSTEMS_SUBSETS = _Space((_FAMILY, _SUBSET))
_GENSETS_SUBSETS = _Space((_GENSET, _CHI), order=(1, 0))
_TOPOLOGIES_GENSETS = _Space((_TOPOLOGY, _GENSET))
_COVERS_GENSETS = _Space((_COVER, _GENSET), order=(1, 0))
_CYCLES_POWERSET = _Space((_CYCLE, _POWERSET))
_CYCLES_COVERS = _Space((_CYCLE, _COVER_Z))
_SYSTEMS_FUNCTIONS = _Space((_FAMILY, _SELF_MAP), order=(1, 0))
_SYSTEMS_BIJECTIONS = _Space((_FAMILY, _BIJECTION), order=(1, 0))
_MEMBERS_BIJECTIONS = _Space((_MEMBERS, _BIJECTION), order=(1, 0))
_RELABELINGS = _Space((_CYCLE, _MEMBERS, _RELABELING), order=(1, 0, 2))


# the claims whose documents are not read factor by factor

def _unpack_l1_3(inst: Instance) -> tuple:
    chi = _CHI.read(inst)
    # an empty chi is skipped before the flow is read
    return (_GENSET.read(inst) if chi else None), chi


def _unpack_k3_9(inst: Instance) -> tuple:
    family = _COVER.read(inst)
    perms = inst.permutations
    if not perms:
        raise InstanceError("permutations", "missing")
    # the chain reads the permutations, in the order of their names, and no
    # flow
    return family, DiscreteFlow.of_group([perms[k] for k in sorted(perms)])


def _unpack_covar(inst: Instance) -> tuple:
    sys, cycle = _get_system(inst, "A"), _CYCLE.read(inst)
    # a system that does not cover the ground is read as None, and skipped
    # before its relabeling is looked for
    if not sys.covers_ground():
        return cycle, None, None
    return cycle, sys.masks, _RELABELING.read(inst)


# --------------------------------------------------------------------------
# the claim registry

class Claim(Frozen):
    """Everything the harness knows about one claim: its checker body
    `(ground, conv, runs, memo) -> verdicts`; the kind of its instance
    space, enumerated up to `max_exhaustive_n` points, and the number of
    random samples drawn by default; whether sweeps are expected to be
    failure-free; the note attached to sweep reports; and, for the few
    claims that do not read an instance factor by factor, their own
    `read(Instance) -> values`.

    The body takes a whole block of runs `(outer, inner)`: `outer` the
    values of every factor but the last, and `inner` a stretch of the
    last factor's values under them (`_Product.run`).  It returns their
    verdicts in order, paying the interpreter's per-call cost once per
    block and its setup for the outer values once per run, with no tuple
    built per instance (Boncz, Zukowski and Nes, "MonetDB/X100", CIDR
    2005; Abadi, Madden and Hachem, "Column-stores vs. row-stores", SIGMOD
    2008).  A claim whose verdict needs nothing from the rest of its run
    registers a body on one tuple, mapped over the runs (`_each`); one
    whose outer factor is a system reads what it needs of each system
    once, from its family bitmask or members (`_on_systems`).  Every body
    call gets a memo, a dict that lives for a worker's share of an
    exhaustive sweep, for a random draw or for a document (`_evaluate`,
    `check_theorem`): a body keeps in it, under keys of its own, what it
    decided or read, so that later blocks read it.  It is the only store
    of Cantor's decisions (cantor._hull_row, cantor._side_row); no system
    object keeps anything."""

    __slots__ = _fields = (
        "checker", "kind", "max_exhaustive_n", "default_samples", "clean", "note", "read",
    )

    def __init__(
        self,
        checker: Callable[..., list[Verdict]],
        kind: _Space,
        max_exhaustive_n: int,
        default_samples: int,
        clean: bool = False,
        note: str = "",
        read: Optional[Callable[[Instance], tuple]] = None,
    ) -> None:
        _set(self, "checker", checker)
        _set(self, "kind", kind)
        _set(self, "max_exhaustive_n", max_exhaustive_n)
        _set(self, "default_samples", default_samples)
        _set(self, "clean", clean)
        _set(self, "note", note)
        _set(self, "read", read)

    def space(self, n: int) -> _Product:
        """The exhaustive space on n points: its items are the tuples of
        factor values, in the order of nested loops over the factors, the
        last one innermost."""
        return _Product(*(factor.values(n) for factor in self.kind.factors))

    def unpack(self, inst: Instance) -> tuple:
        """The body's values read out of an instance."""
        return (self.read or self.kind.unpack)(inst)

    def check(
        self,
        ground: GroundSet,
        runs: Sequence[tuple],
        conv: ClosureConvention,
        memo: dict,
    ) -> list[Verdict]:
        """Evaluate the claim on a block of runs of factor values: their
        verdicts, in order, from the body given the whole block and
        `memo`.  Every sweep (once per exhaustive share block, once
        per random draw) and `check_theorem` (a run of one) calls it, which
        gives per-layer tracing (sweepbench) one name to time all checker
        bodies by."""
        return self.checker(ground, conv, runs, memo)


def _each(body: Callable[..., Verdict]) -> Callable[..., list[Verdict]]:
    """The checker body that maps `body(ground, conv, *outer, v, memo)`,
    the verdict on one tuple of factor values, over each value `v` of
    each run's inner stretch, handing each the memo."""

    def checker(
        ground: GroundSet, conv: ClosureConvention, runs: Sequence[tuple], memo: dict
    ) -> list[Verdict]:
        return [body(ground, conv, *outer, v, memo) for outer, inner in runs for v in inner]

    return checker


def _one_run(values: tuple) -> list[tuple[tuple, tuple]]:
    """The block of one run that holds one tuple of factor values."""
    return [(values[:-1], values[-1:])]


#: Every claim, by id.  Columns: checker body, instance space, exhaustive
#: ceiling on n, default number of random samples.
CLAIMS: dict[TheoremId, Claim] = {
    TheoremId.S1_1: Claim(_each(_check_s1_1), _TOPOLOGIES, 4, 1000, clean=True),
    TheoremId.K1_2: Claim(_each(_check_k1_2), _TOPOLOGIES, 4, 1000, clean=True),
    TheoremId.L1_3: Claim(_check_l1_3, _GENSETS_SUBSETS, 4, 2000, clean=True, read=_unpack_l1_3),
    TheoremId.S2_2: Claim(_each(_check_s2_2), _TOPOLOGIES_GENSETS, 4, 500, clean=True),
    TheoremId.B2_3d: Claim(
        _each(_check_b2_3d), _CYCLES_POWERSET, 4, 1000,
        note="discrete analog of the continuous coincidence statement",
    ),
    TheoremId.L3_1: Claim(_check_l3_1, _SYSTEMS_SUBSETS, 4, 10000, clean=True),
    TheoremId.B3_2: Claim(_check_b3_2, _COVERS_GENSETS, 3, 500, clean=True),
    TheoremId.S3_3: Claim(_check_s3_3, _COVERS_GENSETS, 3, 1000, clean=True),
    TheoremId.B3_4: Claim(_check_b3_4, _COVERS_GENSETS, 4, 1000, clean=True),
    TheoremId.B3_6: Claim(_each(_check_b3_6), _SYSTEMS, 4, 1000, clean=True),
    TheoremId.B3_7: Claim(_check_b3_7, _SYSTEMS_FUNCTIONS, 3, 1000, clean=True),
    TheoremId.S3_8_bij: Claim(_check_s3_8_bij, _SYSTEMS_BIJECTIONS, 4, 1000),
    TheoremId.S3_8_all: Claim(
        _check_s3_8_all, _SYSTEMS_FUNCTIONS, 4, 1000,
        note="documented open question: for non-bijective self-maps the "
        "two-sided memberships and hull commutation can disagree",
    ),
    TheoremId.K3_9: Claim(_check_k3_9, _COVERS_GENSETS, 4, 500, read=_unpack_k3_9),
    TheoremId.B3_10: Claim(_check_b3_10, _MEMBERS_BIJECTIONS, 4, 1000, clean=True),
    TheoremId.COVAR: Claim(_each(_check_covar), _RELABELINGS, 3, 1000, read=_unpack_covar),
    TheoremId.CHAIN_karrenk: Claim(_check_chain, _CYCLES_COVERS, 3, 1000),
    TheoremId.IDEM_ydwed: Claim(_check_idem, _COVERS, 4, 1000),
}

#: Claims whose sweeps are expected to be failure-free; a nonzero failure
#: count on these makes the CLI exit nonzero.
PROVED_CLEAN = frozenset(t for t, claim in CLAIMS.items() if claim.clean)


def check_theorem(
    theorem: TheoremId,
    instance: Instance | dict[str, Any],
    conv: ClosureConvention = ClosureConvention.FULL,
) -> Verdict:
    """Evaluate one registered claim on one instance: the claim's body on
    the values unpacked from it.  A failing verdict's witness is the
    instance given, under `conv`: a copy labelled `conv` where the
    instance's own convention differs."""
    if isinstance(instance, dict):
        instance = Instance.from_dict(instance)
    claim = CLAIMS[theorem]
    [verdict] = claim.check(instance.ground, _one_run(claim.unpack(instance)), conv, {})
    return _witnessed(verdict, instance, conv) if verdict.status == "fails" else verdict


#: A parallel sweep deals the ordinals of the instance stream to its
#: workers in blocks of this many, and `Claim.check` takes an exhaustive
#: block's runs at once; timed against 64, 128 and 512 (CHANGES.md).
SHARE_BLOCK = 256


def _share_blocks(
    size: int, worker: int, jobs: int, first: int = 0, hand_off: Optional[Callable] = None
) -> Iterator[range]:
    """The blocks of ordinals below `size`, `ordinal // SHARE_BLOCK` alike
    in each, from block `first` on, whose number less `first` is `worker`
    modulo `jobs`, ascending.  `hand_off(k, blocks)`, given with share 0 of
    1, is asked once the caller is done with block k - 1, for 0 < k <
    blocks; where it hands blocks k on to w > 1 shares, it returns w, and
    this one goes on as share 0."""
    blocks, k = -(-size // SHARE_BLOCK), first + worker
    while k < blocks:
        yield range(k * SHARE_BLOCK, min((k + 1) * SHARE_BLOCK, size))
        k += jobs
        if hand_off and k < blocks and (shares := hand_off(k, blocks)) > 1:
            jobs, hand_off = shares, None


# Sweeps draw every tuple of factor values through these two names, which
# per-layer tracing (sweepbench) times as instance generation.

def _exhaustive_instances(
    theorem: TheoremId, n: int, *deal: Any
) -> Iterator[tuple[range, list[tuple]]]:
    """One (ordinals, runs) pair per block of `_share_blocks(size, *deal)`
    of the claim's exhaustive space: only the share's factor values are
    taken, each block's as the runs of the space from one unranking."""
    space = CLAIMS[theorem].space(n)
    for block in _share_blocks(len(space), *deal):
        yield block, space.run(block.start, block.stop)


def _random_instance(theorem: TheoremId, n: int, rnd: random.Random) -> tuple:
    """One tuple of factor values drawn from `rnd`."""
    return CLAIMS[theorem].kind.draw(n, rnd)


# --------------------------------------------------------------------------
# sweeping

class SweepReport(Frozen):
    """What a sweep of one claim established, `mode` "exhaustive" or
    "random"; the elapsed time is left out of comparison."""

    __slots__ = _fields = (
        "theorem", "n", "mode", "convention", "seed", "samples", "instance_count",
        "hold_count", "fail_count", "skip_count", "counterexamples", "elapsed",
    )

    def __init__(
        self,
        theorem: TheoremId,
        n: int,
        mode: str,
        convention: ClosureConvention,
        seed: Optional[int],
        samples: Optional[int],
        instance_count: int,
        hold_count: int,
        fail_count: int,
        skip_count: int,
        counterexamples: tuple[dict[str, Any], ...],
        elapsed: float = 0.0,
    ) -> None:
        _set(self, "theorem", theorem)
        _set(self, "n", n)
        _set(self, "mode", mode)
        _set(self, "convention", convention)
        _set(self, "seed", seed)
        _set(self, "samples", samples)
        _set(self, "instance_count", instance_count)
        _set(self, "hold_count", hold_count)
        _set(self, "fail_count", fail_count)
        _set(self, "skip_count", skip_count)
        _set(self, "counterexamples", counterexamples)
        _set(self, "elapsed", elapsed)

    def _key(self) -> tuple:
        return self._values()[:-1]

    def to_payload(self) -> dict[str, Any]:
        """Canonical payload; deliberately excludes the elapsed time so
        identical parameters and seed yield identical bytes."""
        return {
            "theorem": self.theorem.value,
            "n": self.n,
            "mode": self.mode,
            "convention": self.convention.value,
            "seed": self.seed,
            "samples": self.samples,
            "instance_count": self.instance_count,
            "hold_count": self.hold_count,
            "fail_count": self.fail_count,
            "skip_count": self.skip_count,
            "counterexamples": list(self.counterexamples),
            "note": CLAIMS[self.theorem].note,
        }


def _evaluate(
    theorem: TheoremId,
    n: int,
    mode: str,
    seed: Optional[int],
    samples: Optional[int],
    conv: ClosureConvention,
    cap: int,
    *deal: Any,
) -> tuple[int, int, int, int, list[dict[str, Any]]]:
    """Check one worker's share of the claim's instance stream, the ordinals
    of the blocks `_share_blocks(size, *deal)` deals it, and make no other
    tuple of factor values.  The sweeping process of a parallel sweep hands
    off within this call, and keeps one memo throughout.  In exhaustive
    mode the ordinals number the claim's space; in random mode ordinal k
    is drawn from `Random(f"{seed}:{k}")`, for k below `samples`.  Each
    exhaustive block's runs of factor values go to `Claim.check` in one
    call, and each random draw as a run of one, so no more than one drawn
    system is alive at a time; `Claim.check` returns the verdicts in
    order, so the claim's body checks the values themselves.  A tuple of
    factor values is built, and an Instance of it, only for a failing
    verdict whose witness is kept.

    Each body call gets a memo (see Claim).  In exhaustive mode every block
    of the share gets one, a dict local to this call, in which a block
    body keeps what later blocks ask again, such as a row of verdicts per
    orbit partition: it dies with the call, and each share keeps its own.
    In random mode each draw gets a fresh one, as draws on many points
    rarely repeat and a memo kept across them would keep every drawn
    system alive.  Returns the share's counts and its first `cap`
    counterexamples."""
    if mode == "exhaustive":
        share = _exhaustive_instances(theorem, n, *deal)
    else:
        # one draw per call: a draw on n points holds up to 2^n masks, and
        # a share block of them kept at once would hold SHARE_BLOCK times that
        share = (
            (range(o, o + 1), _one_run(_random_instance(theorem, n, random.Random(f"{seed}:{o}"))))
            for block in _share_blocks(samples or 0, *deal)
            for o in block
        )
    claim, memo = CLAIMS[theorem], {}
    ground, status = GroundSet(n), attrgetter("status")
    total = holds = fails = skips = 0
    cexs: list[dict[str, Any]] = []
    for block, runs in share:
        checked = claim.check(ground, runs, conv, memo if mode == "exhaustive" else {})
        total += len(checked)
        # most verdicts are the one shared _HOLDS: a block of nothing else
        # is told by identity, and only another block counted by status
        if all(map(is_, checked, itertools.repeat(_HOLDS))):
            holds += len(checked)
            continue
        statuses = list(map(status, checked))
        skipped, failed = statuses.count("skipped"), statuses.count("fails")
        holds += len(statuses) - skipped - failed
        skips += skipped
        fails += failed
        if not failed or len(cexs) == cap:
            continue
        ordinals, verdicts = iter(block), iter(checked)
        for outer, inner in runs:
            for v, ordinal, verdict in zip(inner, ordinals, verdicts):
                if verdict.status == "fails" and len(cexs) < cap:
                    inst = _witnessed(verdict, claim.kind.build(ground, conv, *outer, v), conv)
                    cexs.append(
                        {"ordinal": ordinal, "instance": inst.witness, "note": verdict.note}
                    )
    return total, holds, fails, skips, cexs


def _send_share(send: Any, *args: Any) -> None:
    """A child's body in a parallel sweep: check its share (`_evaluate`)
    and send `(True, part)` back, or `(False, exception)` where the share
    raises."""
    try:
        reply = (True, _evaluate(*args))
    except Exception as exc:
        reply = (False, exc)
    send.send(reply)
    send.close()


#: What one child process of a parallel sweep costs, in seconds, measured
#: from its start to its join with an empty share (CHANGES.md).
FORK_S = 0.003


def _parallel_parts(task: tuple, workers: int) -> list[tuple]:
    """The parts of a sweep that this process starts alone and hands off to
    w shares after block k - 1, where the sweep has run for FORK_S and the
    rest, at the pace of blocks 1 to k - 1, exceeds w * FORK_S, w the most
    shares, up to `workers` and to the blocks left, for which it does
    (Acar, Charguéraud and Rainey, "Oracle scheduling", OOPSLA 2011; Acar
    et al., "Heartbeat scheduling", PLDI 2018).  Block 0 warms the memo
    and sets no pace.  This process goes on as share 0, and a child
    process checks each other share and sends its part back over a one-way
    pipe.  A child's exception is raised here, and so is a child's exit
    without a part.  Every child is joined before this returns or raises,
    and terminated first when anything raised."""
    children = []
    start = warm = time.perf_counter()

    def hand_off(k: int, blocks: int) -> int:
        nonlocal warm
        now = time.perf_counter()
        if k == 1:
            warm = now
            return 1
        rest = (now - warm) / (k - 1) * (blocks - k)
        shares = next((w for w in range(min(workers, blocks - k), 1, -1) if w * FORK_S < rest), 1)
        if shares == 1 or now - start < FORK_S:
            return 1
        import multiprocessing

        for w in range(1, shares):
            recv, send = multiprocessing.Pipe(duplex=False)
            with send:
                child = multiprocessing.Process(
                    target=_send_share, args=(send, *task, w, shares, k)
                )
                child.start()
            # with this copy of the send end closed, the child holds the
            # only one: recv sees the end of the pipe if the child dies
            # without sending, and children started later inherit none
            children.append((child, recv))
        return shares

    try:
        parts = [_evaluate(*task, 0, 1, 0, hand_off)]
        for w, (child, recv) in enumerate(children, 1):
            try:
                ok, part = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"sweep worker {w} exited with code {child.exitcode} "
                    "without sending its share"
                ) from None
            if not ok:
                raise part
            parts.append(part)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return parts


def sweep(
    theorem: TheoremId,
    n: int,
    mode: str = "exhaustive",
    *,
    samples: Optional[int] = None,
    seed: int = 0,
    conv: ClosureConvention = ClosureConvention.FULL,
    max_counterexamples: int = 32,
    jobs: int = 1,
) -> SweepReport:
    """Run one claim over its instance space.  Exhaustive mode enumerates
    the full space (subject to the per-claim ceiling); random mode draws
    seeded samples on at most `DEFAULT_ENUM_CAP` points.  With `jobs` > 1,
    this process starts alone, and hands the rest to up to that many shares
    (no more than the CPU count) where its pace says the rest outlasts a
    child process for each share but its own (`_parallel_parts`).
    Reports are deterministic for fixed parameters, whatever `jobs` is."""
    claim = CLAIMS[theorem]
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if max_counterexamples < 0:
        raise ValueError(f"max_counterexamples must be at least 0, got {max_counterexamples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    if mode == "exhaustive":
        if n > claim.max_exhaustive_n:
            raise SizeLimitError(
                f"{theorem.value}: exhaustive mode capped at "
                f"n={claim.max_exhaustive_n}, got {n}"
            )
        used_seed: Optional[int] = None
        used_samples: Optional[int] = None
    elif mode == "random":
        if n > DEFAULT_ENUM_CAP:
            raise SizeLimitError(
                f"{theorem.value}: random mode capped at n={DEFAULT_ENUM_CAP}, got {n}"
            )
        used_samples = samples if samples is not None else claim.default_samples
        used_seed = seed
    else:
        raise ValueError(f"mode must be exhaustive or random, got {mode!r}")

    task = (theorem, n, mode, used_seed, used_samples, conv, max_counterexamples)
    workers = min(jobs, os.cpu_count() or 1)
    parts = [_evaluate(*task, 0, 1)] if workers <= 1 else _parallel_parts(task, workers)
    total, holds, fails, skips = (sum(part[i] for part in parts) for i in range(4))
    cexs = sorted((c for part in parts for c in part[4]), key=lambda c: c["ordinal"])

    return SweepReport(
        theorem=theorem,
        n=n,
        mode=mode,
        convention=conv,
        seed=used_seed,
        samples=used_samples,
        instance_count=total,
        hold_count=holds,
        fail_count=fails,
        skip_count=skips,
        counterexamples=tuple(cexs[:max_counterexamples]),
        elapsed=time.perf_counter() - start,
    )
