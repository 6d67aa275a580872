"""Batch verification: compiled instances against the exhaustive oracle.

A sweep takes a deterministic corpus of quantified DNF formulas (an
exhaustive slice for one pair, seeded random formulas beyond), compiles
each into a pricing instance, and compares the pricing decision at the
compiled threshold with the exhaustive two-quantifier oracle.  The emitted
report is a deterministic function of the corpus specification and seed:
records are ordered by instance id and wall-clock timings are left out
unless explicitly requested.

A fault-injection hook corrupts the threshold of one chosen instance so the
comparison must flip there; it exists so the harness can prove it actually
detects mismatches, so an index outside the corpus is an error rather than
a sweep with nothing injected.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from dataclasses import dataclass

from .compilers import QdnfFormula, compile_qdnf_pricing, qdnf, qdnf_holds
from .core import DEFAULT_CAP, CapExceededError
from .pricing import PricingInstance, PricingSolution, meets_threshold, solve_pricing
from .rational import format_rational, require_ints

REPORT_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class CorpusSpec:
    pairs: int
    max_terms: int
    count: int
    seed: int
    exhaustive_pair: bool = False  # prepend the full one-pair corpus

    def __post_init__(self):
        for field, least in (("pairs", 1), ("max_terms", 1), ("count", 0)):
            value = getattr(self, field)
            require_ints((value,), field)
            if value < least:
                raise ValueError(f"corpus {field} must be at least {least}, got {value}")


def one_pair_terms() -> list[frozenset[int]]:
    """All nonempty terms over one exists/forall pair (literals 1, -1, 2, -2)."""
    literals = [1, -1, 2, -2]
    terms = []
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(literals, size):
            if any(-lit in combo for lit in combo):
                continue
            terms.append(frozenset(combo))
    return terms


def exhaustive_one_pair_corpus() -> list[QdnfFormula]:
    """Every term set with at most two terms over one pair, deduplicated."""
    terms = one_pair_terms()
    return [qdnf(1, chosen) for k in range(3) for chosen in itertools.combinations(terms, k)]


def random_formula(rng: random.Random, pairs: int, max_terms: int) -> QdnfFormula:
    terms = set()
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(1, min(3, 2 * pairs))
        variables = rng.sample(range(1, 2 * pairs + 1), size)
        terms.add(frozenset(v if rng.randint(0, 1) else -v for v in variables))
    return qdnf(pairs, terms)


def build_corpus(spec: CorpusSpec) -> list[tuple[str, QdnfFormula]]:
    items: list[tuple[str, QdnfFormula]] = []
    if spec.exhaustive_pair:
        for k, q in enumerate(exhaustive_one_pair_corpus()):
            items.append((f"qdnf-exh1-{k:04d}", q))
    rng = random.Random(spec.seed)
    for k in range(spec.count):
        q = random_formula(rng, spec.pairs, spec.max_terms)
        items.append((f"qdnf-n{spec.pairs}-s{spec.seed}-{k:04d}", q))
    return items


def decision_fields(instance: PricingInstance, outcome: PricingSolution) -> dict:
    """A sweep record's pricing side: outcome at instance's threshold; unbounded is null."""
    value = outcome.leader_value
    return {
        "pricing": meets_threshold(instance, outcome),
        "leader_value": None if value is None else format_rational(value),
        "decision_threshold": format_rational(instance.threshold),
    }


def check_one(
    instance_id: str,
    q: QdnfFormula,
    cap: int = DEFAULT_CAP,
    corrupt: bool = False,
    timed: bool = False,
) -> dict:
    """One sweep record: oracle verdict vs compiled pricing verdict."""
    record: dict = {"instance_id": instance_id, "pairs": q.num_pairs,
                    "terms": [sorted(t) for t in q.terms]}
    start = time.perf_counter()
    try:
        expected = qdnf_holds(q, cap)
        instance = compile_qdnf_pricing(q).pricing
        outcome = solve_pricing(instance, cap)
        if corrupt:
            # The solve never reads the threshold, so pushing it past the
            # achieved value (or down onto it) flips the recorded decision.
            verdict = meets_threshold(instance, outcome)
            bumped = instance.threshold + 1 if verdict else outcome.leader_value
            instance = dataclasses.replace(instance, threshold=bumped)
            record["fault_injected"] = True
        record.update(decision_fields(instance, outcome), oracle=expected)
        record["match"] = expected == record["pricing"]
    except CapExceededError as err:
        record.update(oracle=None, pricing=None, match=None, anomaly=str(err))
    if timed:
        record["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
    return record


def run_sweep(
    spec: CorpusSpec,
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
    inject_fault: int | None = None,
    timed: bool = False,
) -> dict:
    """Check every corpus item in jobs processes; inject_fault, if given, must index one."""
    require_ints((jobs,), "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    items = build_corpus(spec)
    if inject_fault is not None:
        require_ints((inject_fault,), "fault index")
        if not 0 <= inject_fault < len(items):
            raise ValueError(
                f"fault index {inject_fault} is outside the corpus of {len(items)} instances"
            )
    tasks = [
        (instance_id, q, cap, inject_fault == idx, timed)
        for idx, (instance_id, q) in enumerate(items)
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here, so importing the package does not load it (about
        # 0.7 MB of resident memory) for callers that never fan out.
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            records = pool.starmap(check_one, tasks)
    else:
        records = [check_one(*t) for t in tasks]
    records.sort(key=lambda r: r["instance_id"])
    mismatches = [r for r in records if r["match"] is False]
    errors = [r for r in records if r["match"] is None]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "verification-report",
        "corpus": dataclasses.asdict(spec),
        "records": records,
        "summary": {
            "total": len(records),
            "matches": sum(1 for r in records if r["match"] is True),
            "mismatches": len(mismatches),
            "errors": len(errors),
        },
        "failures": [
            {"instance_id": r["instance_id"], "record": r} for r in mismatches
        ],
    }
