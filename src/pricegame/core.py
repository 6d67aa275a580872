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
of any member showing it and the canonical member with that gain.  By
default it enumerates the family; a problem constructor may install a
structured oracle that answers the same question without listing it (the
follower as an optimization oracle, after Briest, Hoefer and Krysta).

Reductions between such problems carry an injective embedding of the source
universe into the target universe.  check_reduction certifies that a
reduction artifact has the defining properties: yes-instance equivalence,
equality of the projected solution families, and tightness of the target
threshold (no feasible set strictly better than the threshold).  It lists
the source solutions and reads all three target checks off the target's
patterns over the embedding image.

Everything here is exact and deterministic.  Subsets are exposed as
frozensets of element ids; internally they are bitmasks over the universe
order, which is what the enumerators produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import ge, le
from typing import Callable, Iterable, Iterator, Sequence

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


class Sense(Enum):
    MIN = "min"
    MAX = "max"
    FEASIBILITY = "feasibility"


class GroundChoice(Enum):
    FEASIBLE = "feasible"
    SOLUTIONS = "solutions"


@dataclass(frozen=True)
class Element:
    id: str
    label: str = ""


@dataclass(eq=False)
class GroundProblem:
    """A combinatorial problem over an explicit finite universe.

    feasible is the decision oracle over frozensets of element ids.
    mask_enumerator, when given, yields every feasible set as a bitmask over
    the universe order and must agree with the oracle; problem constructors
    in problems.py install pruned enumerators, the fallback scans all
    subsets.  name is the kind tag documents are written under, and spec is
    the data its constructor was given beyond universe and weights: the
    CnfFormula of a "sat" problem, the tuple of sorted edges of a
    "vertex-cover" problem, None for every other kind.  pattern_oracle, when
    given, is called as pattern_oracle(problem, ground, leader_mask, gains,
    cap) and must return exactly what best_by_pattern's enumeration returns,
    dict order included; without one, best_by_pattern enumerates.

    The problem caches its feasible masks; its solutions, from one weighing
    pass over them; and the patterns of the last few (ground, leader mask, gains,
    cap) that best_by_pattern was asked for, the least recently used
    dropped first.  dataclasses.replace starts a copy with empty caches.
    """

    universe: tuple[Element, ...]
    weights: dict[str, int]
    threshold: int
    sense: Sense
    feasible: Callable[[frozenset[str]], bool]
    mask_enumerator: Callable[[], Iterable[int]] | None = None
    name: str = "custom"
    cost_bits: int | None = None
    spec: object = None
    pattern_oracle: Callable[..., dict[int, tuple[int, int]]] | None = None
    _index: dict[str, int] = field(init=False, repr=False)
    _weight_bits: list[int] = field(init=False, repr=False)
    _mask_cache: list[int] | None = field(default=None, init=False, repr=False)
    _solution_cache: tuple | None = field(default=None, init=False, repr=False)
    _pattern_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ids = [e.id for e in self.universe]
        if len(set(ids)) != len(ids):
            raise ValueError("universe element ids must be unique")
        if set(self.weights) != set(ids):
            raise ValueError("weights must cover exactly the universe")
        if self.sense is Sense.MIN:
            if self.threshold < 0 or any(w < 0 for w in self.weights.values()):
                raise ValueError("minimization problems need nonnegative weights and threshold")
        if self.sense is Sense.MAX:
            if any(w < 0 for w in self.weights.values()):
                raise ValueError("maximization problems are encoded with nonnegative weights")
        if self.sense is Sense.FEASIBILITY:
            if self.threshold != 0 or any(w != 0 for w in self.weights.values()):
                raise ValueError("feasibility problems carry zero weights and threshold zero")
        object.__setattr__(self, "_index", {e.id: i for i, e in enumerate(self.universe)})
        object.__setattr__(self, "_weight_bits", [self.weights[e.id] for e in self.universe])

    @property
    def size(self) -> int:
        return len(self.universe)

    def mask_of(self, ids: Iterable[str]) -> int:
        mask = 0
        for i in ids:
            mask |= 1 << self._index[i]
        return mask

    def ids_of(self, mask: int) -> frozenset[str]:
        return frozenset(
            self.universe[i].id for i in range(self.size) if mask >> i & 1
        )

    def weight_of_mask(self, mask: int) -> int:
        """One mask's weight by walking its bits; the oracle for mask_sums."""
        total = 0
        bits = self._weight_bits
        while mask:
            low = mask & -mask
            total += bits[low.bit_length() - 1]
            mask ^= low
        return total

    def feasible_masks(self, cap: int = DEFAULT_CAP) -> list[int]:
        """All feasible sets as bitmasks, cached after the first enumeration.

        The cap bounds the enumeration effort at 2^cap: a problem with a
        pruned enumerator may declare a smaller cost_bits than its universe
        size (a satisfiability universe of 2n literals is searched over at
        most 2^n assignments), the brute-force subset scan costs the full
        size.  The cap is checked on every call, cached or not.
        """
        self._check_cap(cap)
        if self._mask_cache is None:
            if self.mask_enumerator is not None:
                masks = sorted(self.mask_enumerator())
            else:
                masks = [
                    m for m in range(1 << self.size) if self.feasible(self.ids_of(m))
                ]
            self._mask_cache = masks
        return self._mask_cache

    def _check_cap(self, cap: int) -> None:
        """Raise CapExceededError if enumerating this problem costs over 2^cap."""
        if self.mask_enumerator is None or self.cost_bits is None:
            if self.size > cap:
                raise CapExceededError(self.size, cap, f"a universe of {self.size} elements")
        elif self.cost_bits > cap:
            raise CapExceededError(
                self.cost_bits, cap, f"a search over {self.cost_bits} binary choices"
            )

    def solution_masks(self, cap: int = DEFAULT_CAP) -> list[int]:
        """The feasible sets meeting the threshold, as a fresh list.

        One pass weighs the feasible family and caches the solutions.
        Feasibility problems have nothing to weigh.
        """
        masks = self.feasible_masks(cap)
        if self.sense is Sense.FEASIBILITY:
            return list(masks)
        if self._solution_cache is None:
            meets = le if self.sense is Sense.MIN else ge
            t, bits = self.threshold, self._weight_bits
            self._solution_cache = tuple(
                m for m, w in zip(masks, mask_sums(bits, masks)) if meets(w, t)
            )
        return list(self._solution_cache)


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


# How many recent best_by_pattern answers each problem keeps.
_PATTERN_MEMO = 8


def best_by_pattern(
    problem: GroundProblem, ground: GroundChoice, leader_mask: int,
    gains: tuple[int, ...], cap: int = DEFAULT_CAP,
) -> dict[int, tuple[int, int]]:
    """{pattern: (best gain, canonical member with that gain)} of a ground family.

    The ground family is the problem's feasible sets or its solutions.  A
    member's pattern is its intersection with leader_mask and its gain the
    sum of gains over its elements; the best is always the largest, so a
    minimizing caller negates its values.  Patterns come in the order of
    their numerically smallest member.  The problem's pattern_oracle answers
    when it has one; otherwise the family is enumerated.  The cap is checked
    on every call, and the last few answers are memoised on the problem.
    """
    problem._check_cap(cap)
    key = (ground, leader_mask, gains, cap)
    cache = problem._pattern_cache
    patterns = cache.pop(key, None)
    if patterns is None:
        oracle = problem.pattern_oracle or best_by_enumeration
        patterns = oracle(problem, ground, leader_mask, gains, cap)
        if len(cache) >= _PATTERN_MEMO:
            del cache[next(iter(cache))]
    cache[key] = patterns
    return patterns


def best_by_enumeration(
    problem: GroundProblem, ground: GroundChoice, leader_mask: int,
    gains: tuple[int, ...], cap: int,
) -> dict[int, tuple[int, int]]:
    """best_by_pattern by listing the ground family: the default and the reference.

    One pass keeps, per pattern, the best gain so far and the canonical
    member among those tied at it.
    """
    masks = problem.feasible_masks(cap) if ground is GroundChoice.FEASIBLE \
        else problem.solution_masks(cap)
    best: dict[int, tuple[int, int]] = {}
    for m, gain in zip(masks, mask_sums(gains, masks)):
        pattern = m & leader_mask
        held = best.get(pattern)
        if held is None or gain > held[0] or (gain == held[0] and _canon_before(m, held[1])):
            best[pattern] = (gain, m)
    return best


def solution_set(problem: GroundProblem, cap: int = DEFAULT_CAP) -> frozenset[frozenset[str]]:
    """The feasible sets meeting the threshold, each as a frozenset of ids."""
    return frozenset(problem.ids_of(m) for m in problem.solution_masks(cap))


def canonical_family(family: Iterable[frozenset[str]]) -> tuple[tuple[str, ...], ...]:
    """Order-independent canonical form of a set family, for display and diffs."""
    return tuple(sorted(tuple(sorted(s)) for s in family))


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

    def map_set(self, source_set: Iterable[str]) -> frozenset[str]:
        return frozenset(self.embedding[i] for i in source_set)

    def pull_back(self, target_set: Iterable[str]) -> frozenset[str]:
        inverse = {v: k for k, v in self.embedding.items()}
        return frozenset(inverse[i] for i in target_set if i in inverse)


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
    each pattern over the embedding image (negated under MIN), which decides
    all three: a pattern is the image of a target solution iff its best
    meets the threshold, and no pattern's best may beat it.
    """
    if {e.id for e in artifact.source_universe} != {e.id for e in source.universe}:
        raise ValueError("artifact source universe does not match the given source problem")
    try:
        src_solutions = solution_set(source, cap)
    except CapExceededError as err:
        raise err.staged(f"certification of the {source.name} source: ") from err
    target = artifact.target
    image_mask = target.mask_of(artifact.image_ids())
    sign = -1 if target.sense is Sense.MIN else 1
    gains = tuple(sign * target.weights[e.id] for e in target.universe)
    try:
        patterns = best_by_pattern(target, GroundChoice.FEASIBLE, image_mask, gains, cap)
    except CapExceededError as err:
        raise err.staged(f"certification of the {target.name} target: ") from err
    threshold = sign * target.threshold
    meeting = [p for p, (gain, _) in patterns.items() if gain >= threshold]
    better = sum(1 for gain, _ in patterns.values() if gain > threshold)

    mapped = frozenset(artifact.map_set(s) for s in src_solutions)
    projected = frozenset(target.ids_of(p) for p in meeting)

    yes_eq = bool(src_solutions) == bool(meeting)
    family_match = mapped == projected
    tight = better == 0
    detail = ""
    if not family_match:
        only_src = canonical_family(mapped - projected)
        only_tgt = canonical_family(projected - mapped)
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


def explicit_problem(
    universe: Iterable[Element],
    feasible_sets: Iterable[frozenset[str]],
    weights: dict[str, int] | None = None,
    threshold: int = 0,
    sense: Sense = Sense.FEASIBILITY,
    name: str = "explicit",
) -> GroundProblem:
    """A problem given by listing its feasible family outright."""
    elements = tuple(universe)
    family = frozenset(frozenset(s) for s in feasible_sets)
    if weights is None:
        weights = {e.id: 0 for e in elements}
    bit = {e.id: 1 << i for i, e in enumerate(elements)}
    if not all(s <= bit.keys() for s in family):
        raise ValueError("feasible sets must lie inside the universe")
    masks = [sum(bit[i] for i in s) for s in family]
    return GroundProblem(
        universe=elements,
        weights=weights,
        threshold=threshold,
        sense=sense,
        feasible=lambda s: frozenset(s) in family,
        mask_enumerator=lambda: masks,
        name=name,
        cost_bits=0,
    )
