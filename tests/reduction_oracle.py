"""Reduction certification by listing both solution families.

This is check_reduction as it was before it read the target's checks off
best_by_pattern: it lists the target's solutions, projects each onto the
embedding image, and looks among them for one strictly better than the
threshold.  Its cost grows with the number of target solutions, so it only
serves as the reference at desk scale.
"""

from __future__ import annotations

from pricegame.core import (
    DEFAULT_CAP,
    GroundProblem,
    ReductionArtifact,
    ReductionReport,
    Sense,
    mask_sums,
    solution_set,
)


def listing_check_reduction(
    source: GroundProblem, artifact: ReductionArtifact, cap: int = DEFAULT_CAP
) -> ReductionReport:
    """The three certification checks, each decided from listed families."""
    if {e.id for e in artifact.source_universe} != {e.id for e in source.universe}:
        raise ValueError("artifact source universe does not match the given source problem")
    src_solutions = solution_set(source, cap)
    target = artifact.target
    image_mask = target.mask_of(artifact.image_ids())
    tgt_solution_masks = target.solution_masks(cap)

    minimizing, t = target.sense is Sense.MIN, target.threshold
    weights = mask_sums([target.weights[e.id] for e in target.universe], tgt_solution_masks)
    tight = not any(w < t if minimizing else w > t for w in weights)

    mapped = frozenset(artifact.map_set(s) for s in src_solutions)
    projected = frozenset(target.ids_of(m & image_mask) for m in tgt_solution_masks)
    return ReductionReport(
        yes_equivalence=bool(src_solutions) == bool(tgt_solution_masks),
        family_match=mapped == projected,
        threshold_tight=tight,
    )
