"""Theorem checkers and the instance-space sweep engine.

Every registered claim has one checker body, which takes a block of tuples
of the claim's factor values (member masks or systems, generator sets,
subset masks, self-maps) and returns a Verdict for each, in order: holds,
fails, or skipped when the values are outside the claim's domain (for
example, an attractor side that is ill-formed because the closed family
does not cover the ground).  Sweeps pass the body the values their
instance space indexes or their sampler draws, and build an Instance from
them only for a failing verdict whose witness they keep; `check_theorem`
unpacks an Instance into the same values, a block of one.  Every failing
verdict handed out carries a replayable witness.  Sweeps aggregate
verdicts and are byte-reproducible for fixed parameters and seed.

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
from dataclasses import dataclass, field, replace
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
from .cantor import (
    ALL_STATEMENTS,
    ExplicationRecord,
    PhaseChainRecord,
    fibration_integrity,
    preserves_unfamily,
)
from .dynsys import Autobolism, DiscreteFlow, EndoFunction, invariant_sets, orbit_partition
from .instances import Instance, InstanceError
from .setsys import (
    DEFAULT_ENUM_CAP,
    ClosureConvention,
    GroundSet,
    SetSystem,
    classify,
    closure_map,
    closure_map_of,
    closure_of,
    closure_tables_of,
    elementarize,
    family_members,
    family_of,
    is_basis_of,
    is_partition,
    product_fibration,
    representation_ok,
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


@dataclass(frozen=True)
class Verdict:
    """A claim's verdict on one instance.  A checker body returns a failing
    verdict without its instance; `check_theorem` and the sweep attach the
    witness (`_witnessed`), so every failing verdict they hand out has
    one."""

    status: str  # "holds" | "fails" | "skipped"
    instance: Optional[Instance] = None  # the failing instance
    note: str = ""
    #: The witness's systems, where a failing body names them: the witness
    #: then holds these systems, the checked instance's permutations and
    #: flows, and the convention checked under.
    systems: Optional[dict[str, SetSystem]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.status not in ("holds", "fails", "skipped"):
            raise ValueError(f"bad status {self.status!r}")

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
        inst = replace(inst, convention=conv)
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

    def run(self, start: int, stop: int) -> list[tuple]:
        """Items `start` to `stop` - 1, in order, for 0 <= start < stop <=
        len(self): `start` is unranked once, and each next item steps the
        last factor, carrying into the factors before it where it wraps.
        The items of each stretch of the last factor are zipped from its
        values, sliced where it is a sliceable sequence and taken one
        index at a time where it computes them (_Mapped, _Permutations),
        and the other factors' fixed values."""
        digits = self._digits(start)
        *outer, inner = self.factors
        sliced = isinstance(inner, (array, list, tuple, range))
        values = list(map(getitem, outer, digits))
        first, left = digits[-1], stop - start
        out: list[tuple] = []
        while True:
            last = min(len(inner), first + left)
            stretch = inner[first:last] if sliced else map(inner.__getitem__, range(first, last))
            out += zip(*map(itertools.repeat, values), stretch)
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
    for x in range(n):
        holders = sum(1 << m for m in range(1 << n) if m >> x & 1)
        families = filter(holders.__and__, families)
    return array("H", families)


def _families(ground: GroundSet) -> Callable[[int], SetSystem]:
    """Family bitmask -> set system on `ground`.  It keeps the last 256
    systems it built: every covering family at n <= 3, so a space whose
    family is its innermost factor builds each system once, and at n=4 the
    family that the next ordinals of a space mostly ask for again."""
    return functools.lru_cache(maxsize=256)(
        lambda family: SetSystem(ground, family_members(family))
    )


def _systems_of(n: int) -> _Mapped:
    """The covering systems on n points, each built when indexed."""
    return _Mapped(_families(GroundSet(n)), _covering_families(n))


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
# checker bodies: `_check_x(ground, conv, *values) -> Verdict` on one tuple
# of values, in the order of the factors of the claim's space, registered
# through `_each`, or `_check_x(ground, conv, block, memo) -> list[Verdict]`
# on a block of them (see Claim)

def _check_s1_1(ground: GroundSet, conv: ClosureConvention, t: SetSystem) -> Verdict:
    flags = classify(t, conv)
    if not flags.is_topology:
        return _skip("not a topology")
    blocks = elementarize(t).without_empty()
    part = is_partition(blocks.masks, ground.full_mask)
    basis = is_basis_of(blocks, t)
    if flags.is_self_dual == (part and basis):
        return _HOLDS
    return _fails(f"self_dual={flags.is_self_dual} partition={part} basis={basis}")


def _check_k1_2(ground: GroundSet, conv: ClosureConvention, t: SetSystem) -> Verdict:
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
    blocks, which are all of the flow it reads."""
    subsets = [a for a in range(1, chi + 1) if a & chi == a]
    coherent = saturation_coherent(blocks, subsets)
    singles = saturation_coherent(blocks, [1 << x for x in range(ground.size) if chi >> x & 1])
    is_block = chi in blocks
    note = "" if coherent == singles else "singleton and full-subset checks disagree"
    if coherent == is_block:
        return _holds(note)
    return _fails(f"coherent={coherent} orbit_block={is_block}" + ("; " + note if note else ""))


def _check_l1_3(
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
) -> list[Verdict]:
    """L1_3's verdict on each (flow, chi) of a block, in order.  The
    orbit blocks are read once for each run of tuples that share a flow
    (chi is the inner factor of the space).  With a sweep's memo, each
    orbit partition's row of verdicts, one per nonempty chi and indexed by
    chi - 1, is decided whole on its first ask and kept by the orbit
    blocks; without one, each chi is decided alone."""
    out = []
    last = None
    for flow, chi in block:
        if not chi:
            out.append(_skip("empty chi"))
            continue
        if flow is not last:
            last, blocks = flow, flow.orbit_blocks()
            row = None if memo is None else memo.get(blocks)
            if row is None and memo is not None:
                row = memo[blocks] = [
                    _l1_3_verdict(ground, blocks, c) for c in range(1, 1 << ground.size)
                ]
        out.append(_l1_3_verdict(ground, blocks, chi) if row is None else row[chi - 1])
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
    that differs from its composition is compared table by table.  A list
    (above 4 points) holds one table, composed cell by cell."""
    if not isinstance(run, bytes):
        return [] if [run[c] for c in run] == run else [0]
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
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
) -> list[Verdict]:
    """IDEM_ydwed's verdict on each family of a block, in order: whether
    the family's closure table composed with itself is itself.  On up to 4
    points the block's tables come from one closure_tables_of call and go
    to _not_idempotent as one run.  Above 4 points, where only random mode
    goes, and for a document's system that does not cover the ground
    (None, as every family a sweep draws covers it), the block is one draw
    or one document."""
    families = [family for family, in block]
    n = ground.size
    if n > 4 or None in families:
        [family] = families
        if family is None:
            return [_skip("system does not cover the ground")]
        tables = closure_map_of(n, family, conv)
    else:
        tables = closure_tables_of(n, families, conv)
    out = [_HOLDS] * len(families)
    for i in _not_idempotent(tables, n):
        out[i] = _idem_fails(tables[i << n : (i + 1) << n])
    return out


def _check_l3_1(
    ground: GroundSet, conv: ClosureConvention, masks: tuple[int, ...], b: int
) -> Verdict:
    hullb = closure_of(ground.size, masks, b, conv)
    for m in masks:
        x = m & hullb
        if x and not (x & b):
            return _fails(f"member {m:#x} traces to {x:#x}, disjoint from B")
    return _HOLDS


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
    ground: GroundSet, name: str, sys: SetSystem, flow: DiscreteFlow, cl: list[int]
) -> Verdict:
    """Holds when the closure under `sys`, whose table is `cl`, of every
    invariant partition of the flow is again an invariant partition; the
    failing witness keeps `sys` under its own name and adds the partition
    as `P`."""
    invariant = set(invariant_sets(flow).masks) | {0}
    for part in _invariant_partitions(flow):
        closed = sorted({cl[p] for p in part})
        if not is_partition(closed, ground.full_mask) or not all(
            c in invariant for c in closed
        ):
            return _fails(
                f"closures {closed} are not an invariant partition",
                systems={name: sys, "P": SetSystem(ground, tuple(part))},
            )
    return _HOLDS


def _check_s2_2(
    ground: GroundSet, conv: ClosureConvention, t: SetSystem, flow: DiscreteFlow
) -> Verdict:
    if not classify(t, conv).is_topology:
        return _skip("not a topology")
    if not _continuous(flow, t):
        return _holds("flow not continuous; premise not met")
    return _closed_partitions(ground, "T", t, flow, closure_map(t, conv))


def _commutes(flow: DiscreteFlow, sys: SetSystem, conv: ClosureConvention) -> bool:
    """Whether the flow commutes with the hull: whether every generator
    does, as commuting is closed under composition.  Each generator's
    verdict is kept in the system's context (is_commutative_cantor's,
    without its comparison of the grounds, which a sweep's factor values
    share)."""
    ctx = sys.context(conv)
    return all(cantor._commutes(ctx, g) for g in flow.generators())


def _check_b3_2(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, flow: DiscreteFlow
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    if not _commutes(flow, sys, conv):
        return _holds("flow does not commute with the hull; premise not met")
    return _closed_partitions(ground, "A", sys, flow, closure_map(sys, conv))


def _check_s3_3(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, flow: DiscreteFlow
) -> Verdict:
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    if not _commutes(flow, sys, conv):
        return _holds("flow does not commute with the hull; premise not met")
    report = room_report(flow, closure_map(sys, conv), conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.partition and report.attractors:
        return _HOLDS
    return _fails(
        f"rooms={report.rooms!r} partition={report.partition} "
        f"attractors={report.attractors}"
    )


def _b3_4_verdict(flow: DiscreteFlow, table: Sequence[int], conv: ClosureConvention) -> Verdict:
    """B3_4's verdict on a covering system, whose closure table is `table`,
    under the flow: the room report reads the flow only through its orbit
    blocks."""
    report = room_report(flow, table, conv)
    if report.attractors is None:
        return _skip("closed family does not cover the ground; attractor side undefined")
    if report.invariant == report.attractors:
        return _HOLDS
    return _fails(
        f"rooms={report.rooms!r} invariant={report.invariant} "
        f"attractors={report.attractors}"
    )


def _check_b3_4(
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
) -> list[Verdict]:
    """B3_4's verdict on each (system, flow) of a block, in order.  Whether
    the system covers the ground and its closure table are read once for
    each run of tuples that share the system (the flow is the inner
    factor), and its row of verdicts, one per orbit partition, is kept by
    its masks in a sweep's memo or, without one, for the run."""
    out = []
    last = None
    for sys, flow in block:
        if sys is not last:
            last, covers = sys, sys.covers_ground()
            if covers:
                table = closure_map(sys, conv)
                row = {} if memo is None else memo.setdefault(sys.masks, {})
        if not covers:
            out.append(_skip("system does not cover the ground"))
            continue
        blocks = flow.orbit_blocks()
        verdict = row.get(blocks)
        if verdict is None:
            verdict = row[blocks] = _b3_4_verdict(flow, table, conv)
        out.append(verdict)
    return out


def _check_b2_3d(
    ground: GroundSet, conv: ClosureConvention, flow: DiscreteFlow, covering: SetSystem
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
    flow: DiscreteFlow, covering: SetSystem, conv: ClosureConvention, families: Optional[dict]
) -> Verdict:
    """CHAIN_karrenk's verdict on a cyclic flow and a covering that covers
    the ground; `families` is the sweep's memo of conventional families by
    block-incidence family (attract._free_attractors)."""
    weak, conventional, plus, minus = _free_attractors(
        flow, covering, conv, _CHAIN_VARIANTS, families
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


#: The key of a sweep's memo under which CHAIN_karrenk keeps its
#: conventional families by block-incidence family; its rows of verdicts
#: are kept by orbit blocks, which are tuples.
_FAMILIES = "families"


def _check_chain(
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
) -> list[Verdict]:
    """CHAIN_karrenk's verdict on each (cycle, covering) of a block, in
    order.  The verdict reads the flow only through its orbit blocks (and
    whether it is cyclic), so each orbit partition has a row of verdicts,
    one per covering, read once for each run of tuples that share a flow
    (the covering is the inner factor): kept by the orbit blocks in a
    sweep's memo or, without one, for the run."""
    out = []
    last = None
    families = None if memo is None else memo.setdefault(_FAMILIES, {})
    for flow, covering in block:
        if flow is not last:
            last = flow
            row = {} if memo is None else memo.setdefault(flow.orbit_blocks(), {})
        if not flow.is_cyclic:
            out.append(_skip("monotone variants need a cyclic flow"))
            continue
        if not covering.covers_ground():
            out.append(_skip("system does not cover the ground"))
            continue
        verdict = row.get(covering.masks)
        if verdict is None:
            verdict = row[covering.masks] = _chain_verdict(flow, covering, conv, families)
        out.append(verdict)
    return out


def _check_b3_6(ground: GroundSet, conv: ClosureConvention, family: int) -> Verdict:
    sys = SetSystem(ground, family_members(family))
    if representation_ok(product_fibration(sys, conv), sys):
        return _HOLDS
    return _fails("closed-set representation does not reproduce the fibration")


def _check_b3_7(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction
) -> Verdict:
    integ = fibration_integrity(f, sys, conv)
    pres = preserves_unfamily(f, sys, conv)
    if integ == pres:
        return _HOLDS
    return _fails(f"integrity={integ} preserves_unfamily={pres}")


def _check_s3_8(
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict],
    bijective: bool,
) -> list[Verdict]:
    """S3_8's verdict on each (system, map) of a block, in order: the map's
    explication record, whose three fields agree when the claim holds.  The
    closure table and both membership sides are read from the system's
    context once for each run of tuples that share the system (the inner
    factor of the space is the map), and the record is built only once per
    verdict: the map's five chain statements (cantor._statements), from
    which its fields are read, are the key of the verdict
    (_explication_verdict)."""
    out = []
    last = None
    for sys, f in block:
        if bijective and not f.is_bijective():
            out.append(_skip("not a bijection"))
            continue
        if sys is not last:
            ctx, last = sys.context(conv), sys
            cl, side, compl_side = ctx._cl, ctx._side, ctx._compl_side
        out.append(_explication_verdict(cantor._statements(f.mask_table(), cl, side, compl_side)))
    return out


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


def _check_k3_9(
    ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
) -> list[Verdict]:
    """K3_9's verdict on each (system, flow) of a block, in order: the
    group's statements, decided on its generators as in phase_chain_check,
    hold together or fail together.  Whether the system covers the ground,
    its context and the context's rows of statements are read once for
    each run of tuples that share the system (the flow is the inner
    factor); each generator's row is decided on its first ask
    (cantor._row), and the rows are ANDed here."""
    out = []
    last = None
    for sys, flow in block:
        if sys is not last:
            last, covers = sys, sys.covers_ground()
            if covers:
                ctx = sys.context(conv)
                rows = ctx._rows
        if not covers:
            out.append(_skip("system does not cover the ground"))
            continue
        bits = ALL_STATEMENTS
        for g in flow.gens:
            row = rows.get(g.image)
            bits &= cantor._row(ctx, g) if row is None else row
        out.append(_HOLDS if bits == 0 or bits == ALL_STATEMENTS else _chain_fails(bits))
    return out


@functools.cache
def _chain_fails(bits: int) -> Verdict:
    """K3_9's failing verdict, one per statement bitmask, as its note names
    the statements and nothing else."""
    return _fails(f"chain statements {PhaseChainRecord.of_bits(bits).statements}")


def _check_b3_10(
    ground: GroundSet, conv: ClosureConvention, sys: SetSystem, f: EndoFunction
) -> Verdict:
    if not f.is_bijective():
        return _skip("not a bijection")
    plus, minus = cantor._system_memberships(f, sys, conv)
    if plus == minus:
        return _HOLDS
    return _fails(f"plus={plus} minus={minus}")


def _check_covar(
    ground: GroundSet, conv: ClosureConvention, cycle: DiscreteFlow, sys: SetSystem,
    relabel: Optional[Autobolism],
) -> Verdict:
    """`relabel` is None only where `_unpack_covar` read a system that does
    not cover the ground, which is skipped first."""
    if not sys.covers_ground():
        return _skip("system does not cover the ground")
    moved_flow, moved_sys = transport(cycle, sys, relabel)
    # the untransported family, kept in the system's context by the orbit
    # blocks, which are all of the flow that free_attractors reads
    originals = sys.context(conv)._attractors
    blocks = cycle.orbit_blocks()
    if blocks not in originals:
        [originals[blocks]] = free_attractors(cycle, sys, conv)
    original = originals[blocks]
    [moved] = free_attractors(moved_flow, moved_sys, conv)
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


def _sample_masks(rnd: random.Random, ground: GroundSet) -> tuple[int, ...]:
    """Each subset independently with probability 1/2, ascending; coverage
    forced by adding the ground when needed."""
    draw = rnd.random
    masks = [m for m in range(1 << ground.size) if draw() < 0.5]
    u = 0
    for m in masks:
        u |= m
    if u != ground.full_mask:
        masks.append(ground.full_mask)
    return tuple(masks)


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
    which reads it back out of a document; whether a process keeps the
    values (the covering families or the topologies), so that a parallel
    sweep builds them before it forks; and whether the value is a map or a
    flow acting on the systems, which a document is read for after them."""

    values: Callable[[int], Sequence]
    draw: Callable[[random.Random, GroundSet], Any]
    put: Callable[[Instance, Any], None]
    read: Callable[[Instance], Any]
    kept: bool = False
    acts: bool = False


def _system_factor(
    name: str, values: Callable[[int], Sequence], draw: Callable[..., SetSystem]
) -> _Factor:
    """Set systems, named `name` in a witness, whose values a process keeps."""
    return _Factor(
        values, draw, lambda inst, sys: inst.systems.update({name: sys}),
        partial(_get_system, name=name), kept=True,
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


_TOPOLOGY = _system_factor("T", _topology_list, _sample_topology)
#: A covering system A.
_SYSTEM = _system_factor("A", _systems_of, _sample_system)
#: A covering system A as its family bitmask: the bodies on it unpack the
#: members only where they need them.
_FAMILY = _Factor(
    _covering_families,
    lambda rnd, ground: family_of(ground.size, _sample_masks(rnd, ground)),
    lambda inst, family: inst.systems.update(A=SetSystem(inst.ground, family_members(family))),
    lambda inst: family_of(inst.ground.size, _get_system(inst, "A").masks),
    kept=True,
)
#: A covering system A as its member masks.
_MEMBERS = _Factor(
    lambda n: _Mapped(family_members, _covering_families(n)),
    _sample_masks,
    lambda inst, masks: inst.systems.update(A=SetSystem(inst.ground, masks)),
    lambda inst: _get_system(inst, "A").masks,
    kept=True,
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
_COVERING = _system_factor("Z", _systems_of, _sample_system)
#: The covering Z of B2_3d: exhaustive mode sweeps the power set alone,
#: while random mode draws arbitrary coverings, so the two modes test
#: different claims.
_POWERSET = _COVERING._replace(values=lambda n: [SetSystem.powerset(GroundSet(n))], kept=False)
_SELF_MAP = _Factor(
    _functions,
    lambda rnd, ground: EndoFunction(
        ground, tuple(rnd.randrange(ground.size) for _ in range(ground.size))
    ),
    lambda inst, f: inst.functions.update(f=f), _get_function, acts=True,
)
_BIJECTION = _SELF_MAP._replace(
    values=partial(_functions, bijective=True),
    draw=lambda rnd, ground: EndoFunction(ground, _sample_perm(rnd, ground).image),
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
_SYSTEMS_SUBSETS = _Space((_MEMBERS, _SUBSET))
_GENSETS_SUBSETS = _Space((_GENSET, _CHI), order=(1, 0))
_TOPOLOGIES_GENSETS = _Space((_TOPOLOGY, _GENSET))
_SYSTEMS_GENSETS = _Space((_SYSTEM, _GENSET), order=(1, 0))
_CYCLES_POWERSET = _Space((_CYCLE, _POWERSET))
_CYCLES_COVERINGS = _Space((_CYCLE, _COVERING))
_SYSTEMS_FUNCTIONS = _Space((_SYSTEM, _SELF_MAP), order=(1, 0))
_SYSTEMS_BIJECTIONS = _Space((_SYSTEM, _BIJECTION), order=(1, 0))
_RELABELINGS = _Space((_CYCLE, _SYSTEM, _RELABELING), order=(1, 0, 2))


# the claims whose documents are not read factor by factor

def _unpack_idem(inst: Instance) -> tuple:
    # a system that does not cover the ground is skipped before its members
    # are folded, which above the enumeration cap raises
    return (_FAMILY.read(inst) if _SYSTEM.read(inst).covers_ground() else None,)


def _unpack_l1_3(inst: Instance) -> tuple:
    chi = _CHI.read(inst)
    # an empty chi is skipped before the flow is read
    return (_GENSET.read(inst) if chi else None), chi


def _unpack_k3_9(inst: Instance) -> tuple:
    sys = _SYSTEM.read(inst)
    perms = inst.permutations
    if not perms:
        raise InstanceError("permutations", "missing")
    # the chain reads the permutations, in the order of their names, and no
    # flow
    return sys, DiscreteFlow.of_group([perms[k] for k in sorted(perms)])


def _unpack_covar(inst: Instance) -> tuple:
    sys, cycle = _SYSTEM.read(inst), _CYCLE.read(inst)
    # a system that does not cover the ground is skipped before its
    # relabeling is looked for
    return cycle, sys, (_RELABELING.read(inst) if sys.covers_ground() else None)


# --------------------------------------------------------------------------
# the claim registry

@dataclass(frozen=True)
class Claim:
    """Everything the harness knows about one claim: its checker body
    `(ground, conv, block, memo) -> verdicts`; the kind of its instance
    space, enumerated up to `max_exhaustive_n` points, and the number of
    random samples drawn by default; whether sweeps are expected to be
    failure-free; the note attached to sweep reports; and, for the few
    claims that do not read an instance factor by factor, their own
    `read(Instance) -> values`.

    The body takes a whole block of tuples of factor values and returns
    their verdicts in order, so it pays the interpreter's per-call cost
    once per block (Boncz, Zukowski and Nes, "MonetDB/X100:
    Hyper-pipelining query execution", CIDR 2005); a claim whose verdict
    needs nothing from the block's other tuples registers a body on one
    tuple, mapped over the block (`_each`).  `memo` is a dict that an
    exhaustive sweep keeps for the whole of one worker's share and hands
    to every block, and None otherwise: a body may keep in it what it
    decided, so that later blocks read it, under keys of its own."""

    checker: Callable[..., list[Verdict]]
    kind: _Space
    max_exhaustive_n: int
    default_samples: int
    clean: bool = False
    note: str = ""
    read: Optional[Callable[[Instance], tuple]] = None

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
        block: Sequence[tuple],
        conv: ClosureConvention,
        memo: Optional[dict] = None,
    ) -> list[Verdict]:
        """Evaluate the claim on a block of tuples of factor values: their
        verdicts, in order.  Every sweep (once per exhaustive share block,
        once per random draw) and `check_theorem` (with a block of one)
        call goes through here, which gives per-layer tracing (sweepbench)
        one name to time all checker bodies by.  The body gets the whole
        block and the sweep's `memo`."""
        return self.checker(ground, conv, block, memo)


def _each(body: Callable[..., Verdict]) -> Callable[..., list[Verdict]]:
    """The checker body that maps `body(ground, conv, *values)`, the
    verdict on one tuple of factor values, over a block of them."""

    def checker(
        ground: GroundSet, conv: ClosureConvention, block: Sequence[tuple], memo: Optional[dict]
    ) -> list[Verdict]:
        return [body(ground, conv, *values) for values in block]

    return checker


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
    TheoremId.L3_1: Claim(_each(_check_l3_1), _SYSTEMS_SUBSETS, 4, 10000, clean=True),
    TheoremId.B3_2: Claim(_each(_check_b3_2), _SYSTEMS_GENSETS, 3, 500, clean=True),
    TheoremId.S3_3: Claim(_each(_check_s3_3), _SYSTEMS_GENSETS, 3, 1000, clean=True),
    TheoremId.B3_4: Claim(_check_b3_4, _SYSTEMS_GENSETS, 3, 1000, clean=True),
    TheoremId.B3_6: Claim(_each(_check_b3_6), _SYSTEMS, 4, 1000, clean=True),
    TheoremId.B3_7: Claim(_each(_check_b3_7), _SYSTEMS_FUNCTIONS, 3, 1000, clean=True),
    TheoremId.S3_8_bij: Claim(partial(_check_s3_8, bijective=True), _SYSTEMS_BIJECTIONS, 3, 1000),
    TheoremId.S3_8_all: Claim(
        partial(_check_s3_8, bijective=False), _SYSTEMS_FUNCTIONS, 3, 1000,
        note="documented open question: for non-bijective self-maps the "
        "two-sided memberships and hull commutation can disagree",
    ),
    TheoremId.K3_9: Claim(_check_k3_9, _SYSTEMS_GENSETS, 3, 500, read=_unpack_k3_9),
    TheoremId.B3_10: Claim(_each(_check_b3_10), _SYSTEMS_BIJECTIONS, 3, 1000, clean=True),
    TheoremId.COVAR: Claim(_each(_check_covar), _RELABELINGS, 3, 1000, read=_unpack_covar),
    TheoremId.CHAIN_karrenk: Claim(_check_chain, _CYCLES_COVERINGS, 3, 1000),
    TheoremId.IDEM_ydwed: Claim(_check_idem, _SYSTEMS, 4, 1000, read=_unpack_idem),
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
    [verdict] = claim.check(instance.ground, [claim.unpack(instance)], conv)
    return _witnessed(verdict, instance, conv) if verdict.status == "fails" else verdict


#: A parallel sweep deals the ordinals of the instance stream to its
#: workers in blocks of this many, and `Claim.check` takes an exhaustive
#: block at once.
SHARE_BLOCK = 64


def _share_blocks(size: int, worker: int, jobs: int) -> Iterator[range]:
    """The blocks of ordinals below `size`, `ordinal // SHARE_BLOCK` alike
    in each, whose number is `worker` modulo `jobs`, ascending."""
    block = SHARE_BLOCK
    for start in range(worker * block, size, jobs * block):
        yield range(start, min(start + block, size))


# Sweeps draw every tuple of factor values through these two names, which
# per-layer tracing (sweepbench) times as instance generation.

def _exhaustive_instances(
    theorem: TheoremId, n: int, worker: int, jobs: int
) -> Iterator[tuple[range, list[tuple]]]:
    """One worker's share of the claim's exhaustive space, one (ordinals,
    factor values) pair per block: only the share's tuples are built, each
    block's as one run of the space, unranked once."""
    space = CLAIMS[theorem].space(n)
    for block in _share_blocks(len(space), worker, jobs):
        yield block, space.run(block.start, block.stop)


def _random_instance(theorem: TheoremId, n: int, rnd: random.Random) -> tuple:
    """One tuple of factor values drawn from `rnd`."""
    return CLAIMS[theorem].kind.draw(n, rnd)


# --------------------------------------------------------------------------
# sweeping

@dataclass(frozen=True)
class SweepReport:
    theorem: TheoremId
    n: int
    mode: str  # "exhaustive" | "random"
    convention: ClosureConvention
    seed: Optional[int]
    samples: Optional[int]
    instance_count: int
    hold_count: int
    fail_count: int
    skip_count: int
    counterexamples: tuple[dict[str, Any], ...]
    elapsed: float = field(compare=False, default=0.0)

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
    worker: int,
    jobs: int,
) -> tuple[int, int, int, int, list[dict[str, Any]]]:
    """Check one worker's share of the claim's instance stream: the ordinals
    whose block `ordinal // SHARE_BLOCK` is `worker` modulo `jobs`, and no
    other tuple of factor values is made.  In exhaustive mode the ordinals
    number the claim's space; in random mode ordinal k is drawn from
    `Random(f"{seed}:{k}")`, for k below `samples`.  Each exhaustive block's
    tuples of factor values go to `Claim.check` in one call, and each random
    draw in a block of one, so no more than one drawn system is alive at a
    time; `Claim.check` returns the verdicts in order, so the claim's body
    checks the values themselves;
    an Instance is built only for a failing verdict whose witness is kept,
    from that instance's own values.

    In exhaustive mode every block of the share gets one memo, a dict local
    to this call (see Claim), in which a block body keeps what later
    blocks ask again, such as a row of verdicts per orbit partition: it
    dies with the call, and each share keeps its own.  Random mode
    keeps none, as its draws on many points rarely repeat and would keep
    every drawn system alive.  Returns the share's counts and its first
    `cap` counterexamples."""
    if mode == "exhaustive":
        share = _exhaustive_instances(theorem, n, worker, jobs)
    else:
        # one draw per call: a draw on n points holds up to 2^n masks, and
        # a share block of them kept at once would hold SHARE_BLOCK times that
        share = (
            (range(o, o + 1), [_random_instance(theorem, n, random.Random(f"{seed}:{o}"))])
            for block in _share_blocks(samples or 0, worker, jobs)
            for o in block
        )
    claim = CLAIMS[theorem]
    memo: Optional[dict] = {} if mode == "exhaustive" else None
    ground, status = GroundSet(n), attrgetter("status")
    total = holds = fails = skips = 0
    cexs: list[dict[str, Any]] = []
    for block, values in share:
        checked = claim.check(ground, values, conv, memo)
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
        for ordinal, one, verdict in zip(block, values, checked):
            if verdict.status == "fails" and len(cexs) < cap:
                inst = claim.kind.build(ground, conv, *one)
                cexs.append(
                    {
                        "ordinal": ordinal,
                        "instance": _witnessed(verdict, inst, conv).witness,
                        "note": verdict.note,
                    }
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


def _parallel_parts(task: tuple, workers: int) -> list[tuple]:
    """The parts of a sweep dealt to `workers` shares: share 0 checked in
    this process, and each other share in a child process of its own,
    which sends its part back over a one-way pipe.  A child's exception
    is raised here, and so is a child's exit without a part.  Every child
    is joined before this returns or raises, and terminated first when
    anything raised."""
    import multiprocessing

    children = []
    try:
        for w in range(1, workers):
            recv, send = multiprocessing.Pipe(duplex=False)
            with send:
                child = multiprocessing.Process(
                    target=_send_share, args=(send, *task, w, workers)
                )
                child.start()
            # with this copy of the send end closed, the child holds the
            # only one: recv sees the end of the pipe if the child dies
            # without sending, and children started later inherit none
            children.append((child, recv))
        parts = [_evaluate(*task, 0, workers)]
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
    the ordinals are dealt to up to that many shares (no more than the
    CPU count): this process checks share 0 itself and starts one child
    process for each other share.
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
    if workers == 1:
        parts = [_evaluate(*task, 0, 1)]
    else:
        if mode == "exhaustive":
            # built here once, before the first child starts, the factor
            # values a process keeps are inherited by the forked children
            # and used by this process's own share
            for factor in claim.kind.factors:
                if factor.kept:
                    factor.values(n)
        parts = _parallel_parts(task, workers)
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
