"""Ground problems over finite universes and embedding-preserving reductions.

A GroundProblem is a combinatorial decision/optimization problem presented
extensionally: a universe of elements, a feasibility oracle over subsets,
integer weights and a threshold, plus an optimization sense.  Its solution
set is the family of feasible sets meeting the threshold:

    MIN          feasible and weight(S) <= threshold
    MAX          feasible and weight(S) >= threshold
    FEASIBILITY  all feasible sets (weights are zero, threshold is zero)

best_by_pattern collapses a problem's ground family, its feasible sets or
its solutions, to patterns over a given mask: for each pattern, the best gain
of any member showing it and the canonical member with that gain, optionally
only for the patterns whose best reaches a floor.  By default a problem's
patterns method enumerates the family; a kind may override it with an oracle
that answers without listing it (the follower as an optimization oracle,
after Briest, Hoefer and Krysta); every kind in problems.py does, and the cap
is checked before it runs.  Satisfiability and vertex cover give one frontier
engine each layer's closed bits and moves, exact when every completion keeps
two parts' canonical order; subset sum meets in the middle.

Reductions between such problems carry an injective embedding of the source
universe into the target universe.  check_reduction certifies that a
reduction artifact has the defining properties: yes-instance equivalence,
equality of the projected solution families, and tightness of the target
threshold (no feasible set strictly better than the threshold).  It lists
the source solutions and reads all three target checks off the target's
patterns over the embedding image that reach the threshold.

Everything here is exact and deterministic.  Within the problem layer a
subset is a bitmask over the universe order, bit i for the i-th element:
the decision oracle takes one, the enumerators yield them and the pattern
oracles answer in them.  Element ids appear where the package meets the
outside: mask_of and ids_of convert at documents, responses, prices,
leader sets and embeddings, and solution_set returns frozensets of ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .rational import require_ints

DEFAULT_CAP = 24


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed its cap.

    size is the quantity counted against the cap, and counted names it with
    its unit, as in "a universe of 30 elements".
    """

    def __init__(self, size: int, cap: int, counted: str):
        super().__init__(f"{counted} exceeds the enumeration cap of {cap}")
        self.size = size
        self.cap = cap
        self.counted = counted

    def staged(self, stage: str) -> CapExceededError:
        """The same error with the stage that hit the cap named in front."""
        return CapExceededError(self.size, self.cap, stage + self.counted)


def require_cap(cap: int) -> None:
    """Raise unless cap, a bound of 2^cap on an enumeration, is an int of at least 0."""
    require_ints((cap,), "the enumeration cap")
    if cap < 0:
        raise ValueError(f"the enumeration cap must be at least 0, got {cap}")


class Sense(Enum):
    MIN = "min"
    MAX = "max"
    FEASIBILITY = "feasibility"

    @property
    def sign(self) -> int:
        """The sign that turns a value into a gain, larger being better: -1 under MIN."""
        return -1 if self is Sense.MIN else 1


class GroundChoice(Enum):
    FEASIBLE = "feasible"
    SOLUTIONS = "solutions"


@dataclass(frozen=True)
class Element:
    id: str
    label: str = ""


@dataclass(frozen=True, eq=False)
class GroundProblem:
    """A combinatorial problem over an explicit finite universe.

    A problem kind is a subclass whose methods read its own fields when
    called.  Each kind defines feasible, the decision oracle.  It takes a
    subset as a bitmask over the universe order, bit i for universe[i], and
    a mask with a bit at or past the universe size is infeasible.  Ids stop
    at mask_of and ids_of.  mask_enumerator yields every feasible set as
    such a mask and must agree with the oracle; by default it scans all
    2^size subsets, and a kind whose walk is smaller declares cost_bits, the
    walk being 2^cost_bits.  patterns answers best_by_pattern with the same
    items as best_by_enumeration, its default.  name is the kind tag
    documents are written under, "custom" unless a kind sets its own.

    A problem is a frozen value, and weights is a read-only copy of the
    mapping given.  Weights and threshold are ints; a float or a bool
    raises TypeError.  Every construction, dataclasses.replace copies too,
    is validated and builds its kind's tables.  A problem lists its feasible
    family once, on first use, and remembers the last answer best_by_pattern
    gave for it; a copy starts with neither.
    """

    name = "custom"
    cost_bits = None
    universe: tuple[Element, ...]
    weights: Mapping[str, int]
    threshold: int
    sense: Sense
    _index: dict[str, int] = field(init=False, repr=False)
    _weight_bits: tuple[int, ...] = field(init=False, repr=False)
    _last_answer: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        weights = MappingProxyType(dict(self.weights))
        object.__setattr__(self, "weights", weights)
        require_ints(weights.values(), "weight")
        require_ints((self.threshold,), "threshold")
        index = {e.id: i for i, e in enumerate(self.universe)}
        if len(index) != len(self.universe):
            raise ValueError("universe element ids must be unique")
        if weights.keys() != index.keys():
            raise ValueError("weights must cover exactly the universe")
        if self.sense is Sense.MIN:
            if self.threshold < 0 or min(weights.values(), default=0) < 0:
                raise ValueError("minimization problems need nonnegative weights and threshold")
        if self.sense is Sense.MAX:
            if min(weights.values(), default=0) < 0:
                raise ValueError("maximization problems are encoded with nonnegative weights")
        if self.sense is Sense.FEASIBILITY:
            if self.threshold != 0 or any(weights.values()):
                raise ValueError("feasibility problems carry zero weights and threshold zero")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_weight_bits", tuple([weights[e.id] for e in self.universe]))

    def mask_enumerator(self) -> Iterable[int]:
        return [m for m in range(1 << self.size) if self.feasible(m)]

    def patterns(self, ground, leader_mask, gains, cap, floor=None):
        return best_by_enumeration(self, ground, leader_mask, gains, cap, floor)

    @property
    def size(self) -> int:
        return len(self.universe)

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for i in ids:
            mask |= 1 << self._index[i]
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        """The ids of a mask's elements."""
        universe = self.universe
        return frozenset([universe[b].id for b in bits(mask)])

    def weight_of_mask(self, mask: int) -> int:
        """One mask's weight by walking its bits; the oracle for mask_sums."""
        weights = self._weight_bits
        return sum([weights[b] for b in bits(mask)])

    def feasible_masks(self, cap: int = DEFAULT_CAP) -> list[int]:
        """All feasible sets as sorted bitmasks, listed once per problem.

        The cap bounds the enumeration effort at 2^cap: a problem with a
        pruned enumerator may declare a smaller cost_bits than its universe
        size (a satisfiability universe of 2n literals is searched over at
        most 2^n assignments), the brute-force subset scan costs the full
        size.  The cap is checked on every call, listed or not.
        """
        self._check_cap(cap)
        return self._family

    @cached_property
    def _family(self) -> list[int]:
        return sorted(self.mask_enumerator())

    def _check_cap(self, cap: int) -> None:
        """Raise CapExceededError if enumerating this problem costs over 2^cap."""
        require_cap(cap)
        if self.cost_bits is None:
            if self.size > cap:
                raise CapExceededError(self.size, cap, f"a universe of {self.size} elements")
        elif self.cost_bits > cap:
            raise CapExceededError(
                self.cost_bits, cap, f"a search over {self.cost_bits} binary choices"
            )

    def solution_masks(self, cap: int = DEFAULT_CAP) -> list[int]:
        """The feasible sets meeting the threshold, weighed afresh into a new list.

        Feasibility problems have nothing to weigh.
        """
        masks = self.feasible_masks(cap)
        if self.sense is Sense.FEASIBILITY:
            return list(masks)
        sign = self.sense.sign
        floor = sign * self.threshold
        return [m for m, w in zip(masks, mask_sums(self._weight_bits, masks))
                if sign * w >= floor]


def bits(mask: int) -> list[int]:
    """The positions of a mask's set bits, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def subset_sums(values: Sequence[int]) -> list[int]:
    """Entry m is the sum of values[i] over the bits i of m, built by doubling."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def mask_sums(values: Sequence[int], masks: Iterable[int]) -> Iterator[int]:
    """The sum of values[i] over the bits i of each mask, lazily and in order.

    One subset_sums table of at most 256 entries per byte of the universe,
    skipped where the byte's values are all zero, so a mask costs one lookup
    per remaining byte.
    """
    chunks = [(shift, values[shift:shift + 8]) for shift in range(0, len(values), 8)]
    tables = [(shift, subset_sums(chunk)) for shift, chunk in chunks if any(chunk)]
    for mask in masks:
        total = 0
        for shift, table in tables:
            total += table[mask >> shift & 255]
        yield total


def _canon_before(a: int, b: int) -> bool:
    """Whether member a strictly precedes member b in canonical order.

    Members compare as the tuples of their sorted element positions, so a
    member precedes its extensions.  At the lowest bit where the masks
    differ, the mask holding it comes first, unless the other mask has no
    higher bit and so is its prefix.
    """
    low = (a ^ b) & -(a ^ b)
    return b > low if a & low else a < low


def _beats(key, member: int, held: tuple | None) -> bool:
    """The one best-member rule: whether (key, member) beats held, a (key, member, ...) or None."""
    return held is None or key > held[0] or (key == held[0] and _canon_before(member, held[1]))


def best_by_pattern(
    problem: GroundProblem, ground: GroundChoice, leader_mask: int,
    gains: tuple[int, ...], cap: int = DEFAULT_CAP, floor: int | None = None,
) -> dict[int, tuple[int, int]]:
    """{pattern: (best gain, canonical member with that gain)} of a ground family.

    The ground family is the problem's feasible sets or its solutions.  A
    member's pattern is its intersection with leader_mask and its gain the
    sum of gains over its elements; the best is always the largest, so
    callers multiply their values by `Sense.sign`.  The patterns come in no
    promised order.  With a floor, only the patterns whose best gain is at
    least the floor are returned, with the same values and members; an
    oracle may then skip the members that cannot reach it.  The problem's
    patterns method answers, by default best_by_enumeration.  The cap is
    checked on every call.  The problem remembers its last answer, so asking
    the same question again in a row costs one comparison of the arguments.
    """
    problem._check_cap(cap)
    key = (ground, leader_mask, gains, cap, floor)
    last = problem._last_answer
    if last is not None and last[0] == key:
        return last[1]
    patterns = problem.patterns(ground, leader_mask, gains, cap, floor)
    object.__setattr__(problem, "_last_answer", (key, patterns))
    return patterns


def best_by_enumeration(
    problem: GroundProblem, ground: GroundChoice, leader_mask: int,
    gains: tuple[int, ...], cap: int, floor: int | None = None,
) -> dict[int, tuple[int, int]]:
    """best_by_pattern by listing the ground family: the default and the reference.

    One pass keeps, per pattern, the best gain so far and the canonical
    member among those tied at it; a floor then filters the answer.
    """
    masks = problem.feasible_masks(cap) if ground is GroundChoice.FEASIBLE \
        else problem.solution_masks(cap)
    best: dict[int, tuple[int, int]] = {}
    for m, gain in zip(masks, mask_sums(gains, masks)):
        pattern = m & leader_mask
        if _beats(gain, m, best.get(pattern)):
            best[pattern] = (gain, m)
    if floor is not None:
        return {p: held for p, held in best.items() if held[0] >= floor}
    return best


def solution_set(problem: GroundProblem, cap: int = DEFAULT_CAP) -> frozenset[frozenset[str]]:
    """The feasible sets meeting the threshold, each as a frozenset of ids."""
    return frozenset(problem.ids_of(m) for m in problem.solution_masks(cap))


def canonical_family(family: Iterable[frozenset[str]]) -> tuple[tuple[str, ...], ...]:
    """Order-independent canonical form of a set family, for display and diffs."""
    return tuple(sorted([tuple(sorted(s)) for s in family]))


@dataclass(frozen=True)
class ReductionArtifact:
    """Output of a reduction: target instance plus the universe embedding."""

    source_universe: tuple[Element, ...]
    target: GroundProblem
    embedding: dict[str, str]
    provenance: tuple[dict, ...] = ()

    def __post_init__(self):
        source_ids = {e.id for e in self.source_universe}
        if set(self.embedding) != source_ids:
            raise ValueError("embedding must be defined on exactly the source universe")
        images = list(self.embedding.values())
        if len(set(images)) != len(images):
            raise ValueError("embedding must be injective")
        target_ids = {e.id for e in self.target.universe}
        if not set(images) <= target_ids:
            raise ValueError("embedding image must lie inside the target universe")

    def image_ids(self) -> frozenset[str]:
        return frozenset(self.embedding.values())


@dataclass(frozen=True)
class ReductionReport:
    """Result of certifying a reduction artifact against its source."""

    yes_equivalence: bool
    family_match: bool
    threshold_tight: bool
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.yes_equivalence and self.family_match and self.threshold_tight

    def failing_checks(self) -> list[str]:
        failing = []
        if not self.yes_equivalence:
            failing.append("yes-equivalence")
        if not self.family_match:
            failing.append("projected-family-equality")
        if not self.threshold_tight:
            failing.append("threshold-tightness")
        return failing


class CertificationError(ValueError):
    def __init__(self, report: ReductionReport):
        super().__init__(
            "reduction artifact failed certification: " + ", ".join(report.failing_checks())
        )
        self.report = report


def check_reduction(
    source: GroundProblem, artifact: ReductionArtifact, cap: int = DEFAULT_CAP
) -> ReductionReport:
    """Certify an artifact against its source.

    Three checks: (a) the source has a solution iff the target does, (b) the
    source solutions mapped through the embedding equal the target solutions
    intersected with the embedding image, as set families, and (c) the target
    admits no feasible set strictly better than its threshold.  The source
    solutions are listed; the target is asked only for the best weight of
    each pattern over the embedding image (negated under MIN), floored at
    the threshold, which decides all three: a pattern is the image of a
    target solution iff its best meets the threshold, so the answer holds
    exactly those patterns, and no pattern's best may beat it.  Both families
    are compared as masks over the target universe; ids are built only for
    the detail of a failed comparison.
    """
    if {e.id for e in artifact.source_universe} != {e.id for e in source.universe}:
        raise ValueError("artifact source universe does not match the given source problem")
    try:
        src_masks = source.solution_masks(cap)
    except CapExceededError as err:
        raise err.staged(f"certification of the {source.name} source: ") from err
    target = artifact.target
    # The embedding is injective, so summing image bits maps a mask.
    image_bits = [target.mask_of((artifact.embedding[e.id],)) for e in source.universe]
    image_mask = sum(image_bits)
    sign = target.sense.sign
    gains = tuple([sign * target.weights[e.id] for e in target.universe])
    threshold = sign * target.threshold
    try:
        meeting = best_by_pattern(target, GroundChoice.FEASIBLE, image_mask, gains, cap,
                                  floor=threshold)
    except CapExceededError as err:
        raise err.staged(f"certification of the {target.name} target: ") from err
    better = sum(1 for gain, _ in meeting.values() if gain > threshold)

    mapped = set(mask_sums(image_bits, src_masks))

    yes_eq = bool(src_masks) == bool(meeting)
    family_match = mapped == meeting.keys()
    tight = better == 0
    detail = ""
    if not family_match:
        only_src = canonical_family(map(target.ids_of, mapped - meeting.keys()))
        only_tgt = canonical_family(map(target.ids_of, meeting.keys() - mapped))
        detail = f"mapped-only={only_src} projected-only={only_tgt}"
    elif not tight:
        detail = f"{better} image patterns hold a feasible set strictly better than threshold"
    return ReductionReport(yes_eq, family_match, tight, detail)


def identity_reduction(problem: GroundProblem) -> ReductionArtifact:
    """The reduction of a problem to itself with the identity embedding."""
    return ReductionArtifact(
        source_universe=problem.universe,
        target=problem,
        embedding={e.id: e.id for e in problem.universe},
        provenance=({"step": "identity"},),
    )


@dataclass(frozen=True, eq=False)
class ExplicitProblem(GroundProblem):
    """A problem whose feasible family is listed outright, as masks."""

    name = "explicit"
    cost_bits = 0
    masks: frozenset[int]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "masks", frozenset(self.masks))
        if any(m >> self.size for m in self.masks):
            raise ValueError("feasible sets must lie inside the universe")

    def feasible(self, mask: int) -> bool:
        return mask in self.masks

    def mask_enumerator(self) -> frozenset[int]:
        return self.masks


def explicit_problem(
    universe: Iterable[Element],
    feasible_sets: Iterable[frozenset[str]],
    weights: dict[str, int] | None = None,
    threshold: int = 0,
    sense: Sense = Sense.FEASIBILITY,
) -> ExplicitProblem:
    """A problem given by listing its feasible family outright."""
    elements = tuple(universe)
    if weights is None:
        weights = {e.id: 0 for e in elements}
    bit = {e.id: 1 << i for i, e in enumerate(elements)}
    past = 1 << len(elements)  # an id outside the universe: ExplicitProblem rejects the bit
    masks = frozenset(sum(bit.get(i, past) for i in frozenset(s)) for s in feasible_sets)
    return ExplicitProblem(elements, weights, threshold, sense, masks)
