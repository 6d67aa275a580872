"""Seeded inputs, operations and correctness checks of the three workloads.

Inputs are generated here, from the seed alone, as plain integers and
tuples; the program under test receives only the objects built from them.
Each workload gives:

    setup(seed)          -> Inputs   (generation plus any warm-up)
    op(item, corrupt)    -> result   (the timed operation)
    check(item, result)  -> bool     (untimed, against an independent oracle)

``corrupt`` deliberately damages the answer so the self-test can show that
the check counts it as failed.

The package is called through module attributes (``pricing.solve_pricing``
rather than a name imported once), so the traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from pricegame import compilers, core, pricing, problems, serialize, sweep


@dataclass
class Inputs:
    items: list
    digest: str
    warm: list = field(default_factory=list)  # ground problems enumerated in set-up


def digest_of(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- oracles


def exists_forall_holds(pairs: int, terms) -> bool:
    """Exists-forall DNF by brute force, written apart from the package's qdnf_holds."""
    for exists in range(1 << pairs):
        if all(
            any(
                all(((exists | forall << pairs) >> (abs(lit) - 1) & 1) == (lit > 0) for lit in term)
                for term in terms
            )
            for forall in range(1 << pairs)
        ):
            return True
    return False


def _assignments(num_vars: int, clauses):
    """Satisfying assignments as tuples of signed literals, by brute force."""
    for bits in range(1 << num_vars):
        chosen = tuple(v if bits >> (v - 1) & 1 else -v for v in range(1, num_vars + 1))
        if all(any(lit in chosen for lit in clause) for clause in clauses):
            yield chosen


# ---------------------------------------------------------------- generators


def _canon_terms(terms) -> tuple:
    return tuple(sorted({tuple(sorted(t)) for t in terms}, key=lambda t: (len(t), t)))


def _random_qdnf_terms(rng: random.Random, pairs: int, max_terms: int) -> tuple:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(1, min(3, 2 * pairs))
        variables = rng.sample(range(1, 2 * pairs + 1), size)
        terms.append([v if rng.randint(0, 1) else -v for v in variables])
    return _canon_terms(terms)


def _one_pair_corpus() -> list[tuple]:
    """Every set of at most two terms over one exists/forall pair."""
    literals = (1, -1, 2, -2)
    terms = [(a,) for a in literals]
    terms += [(a, b) for i, a in enumerate(literals) for b in literals[i + 1:] if a != -b]
    corpus = [()]
    corpus += [(t,) for t in terms]
    corpus += [(s, t) for i, s in enumerate(terms) for t in terms[i + 1:]]
    return [_canon_terms(c) for c in corpus]


def _interleave(first: list, second: list) -> list:
    """Merge two lists so every prefix holds both in about their overall ratio."""
    keyed = [((i + 0.5) / len(first), 0, x) for i, x in enumerate(first)]
    keyed += [((i + 0.5) / len(second), 1, x) for i, x in enumerate(second)]
    return [x for _, _, x in sorted(keyed, key=lambda k: k[:2])]


def _by_verdict(rng: random.Random, per_verdict: int) -> list[tuple]:
    """Seeded two-pair formulas, half of them true and half false, alternating.

    A false formula costs about 1.7x a true one to resolve, so a free mix
    would make the seed, not the program, move the metrics.
    """
    pools = {True: [], False: []}
    while min(len(p) for p in pools.values()) < per_verdict:
        terms = _random_qdnf_terms(rng, 2, 3)
        pool = pools[exists_forall_holds(2, terms)]
        if len(pool) < per_verdict:
            pool.append(terms)
    return [terms for pair in zip(pools[True], pools[False]) for terms in pair]


def _qdnf(pairs: int, terms: tuple):
    return compilers.qdnf(pairs, [frozenset(t) for t in terms])


# ---------------------------------------------------------------- sweep

SWEEP_TWO_PAIR_PER_VERDICT = 100


def sweep_setup(seed: int) -> Inputs:
    rng = random.Random(seed)
    one = [(1, terms) for terms in _one_pair_corpus()]
    two = [(2, terms) for terms in _by_verdict(rng, SWEEP_TWO_PAIR_PER_VERDICT)]
    plain = _interleave(one, two)
    items = [
        (f"bench-{k:04d}", _qdnf(pairs, terms), exists_forall_holds(pairs, terms))
        for k, (pairs, terms) in enumerate(plain)
    ]
    sweep_op(items[0])
    return Inputs(items, digest_of(plain))


def sweep_op(item, corrupt: bool = False) -> dict:
    instance_id, q, _ = item
    return sweep.check_one(instance_id, q, corrupt=corrupt)


def sweep_check(item, record: dict) -> bool:
    expected = item[2]
    return (
        record.get("match") is True
        and record.get("oracle") is expected
        and record.get("pricing") is expected
    )


# ---------------------------------------------------------------- lift-chain

LIFT_CYCLES = 40

# Shapes (variables, distinct clauses) of one cycle of twenty sources.  When
# the benchmark was defined they fell in four cost bands: seven cheap ones
# (about one cal or less), seven in the band that holds the median, five in
# the band that holds the 90th percentile, and one of the largest shape.
# Cost grows about fourfold per clause at five variables, so a free draw of
# shapes would let the seed, not the program, move both percentiles.
LIFT_SHAPES = (
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 2), (4, 1),
    (3, 3), (3, 3), (4, 2), (4, 2), (4, 2), (5, 1), (5, 1),
    (4, 3), (4, 3), (4, 3), (5, 2), (5, 2),
    (5, 3),
)


def _lift_source(rng: random.Random, num_vars: int, num_clauses: int) -> tuple:
    """A satisfiable source with at least one solution avoiding the leader part."""
    literals = [lit for v in range(1, num_vars + 1) for lit in (v, -v)]
    while True:
        clauses = set()
        while len(clauses) < num_clauses:
            width = min(rng.randint(2, 3), num_vars)
            variables = rng.sample(range(1, num_vars + 1), width)
            clauses.add(tuple(sorted(v if rng.randint(0, 1) else -v for v in variables)))
        clauses = tuple(sorted(clauses))
        leader = tuple(lit for lit in literals if rng.randint(0, 1))
        valuation = tuple(rng.randint(0, 5) for _ in literals)
        if any(not set(a) & set(leader) for a in _assignments(num_vars, clauses)):
            return num_vars, clauses, leader, valuation


def lift_setup(seed: int) -> Inputs:
    rng = random.Random(seed)
    shapes = [LIFT_SHAPES[i] for i in rng.sample(range(len(LIFT_SHAPES)), len(LIFT_SHAPES))]
    plain = [_lift_source(rng, *shape) for _ in range(LIFT_CYCLES) for shape in shapes]
    lift_op(min(plain, key=lambda source: (source[0], len(source[1]))))  # smallest shape
    return Inputs(plain, digest_of(plain))


def roundtrip(inst):
    """Pricing document round trip, as compile then solve do it."""
    doc = serialize.make_document("pricing", serialize.encode_pricing(inst))
    text = serialize.dump_document(doc)
    return text, serialize.decode_pricing(serialize.load_document(text)["payload"])


def lift_op(item, corrupt: bool = False) -> dict:
    num_vars, clauses, leader, valuation = item
    formula = problems.cnf(num_vars, clauses)
    base = problems.sat_problem(formula)
    ids = [e.id for e in base.universe]
    source = pricing.PricingInstance(
        base,
        frozenset(formula.literal_id(lit) for lit in leader),
        dict(zip(ids, valuation)),
        pricing.GroundChoice.SOLUTIONS,
    )
    vc = problems.sat_to_vertex_cover(formula)
    ss = problems.sat_to_subset_sum(formula)
    lifted = [
        compilers.lift_min(source, vc)[0],
        compilers.lift_max(source, ss)[0],
        compilers.lift_feas(source, core.identity_reduction(base))[0],
    ]
    docs = [roundtrip(inst) for inst in lifted]
    solutions = [pricing.solve_pricing(source)]
    solutions += [pricing.solve_pricing(decoded) for _, decoded in docs]
    values = [s.leader_value for s in solutions]
    if corrupt:
        values[1] += 1
    return {"statuses": [s.status for s in solutions], "values": values, "docs": docs}


def lift_check(item, result: dict) -> bool:
    optimal = all(s is pricing.SolveStatus.OPTIMAL for s in result["statuses"])
    values = result["values"]
    redumped = all(
        serialize.dump_document(
            serialize.make_document("pricing", serialize.encode_pricing(decoded))
        ) == text
        for text, decoded in result["docs"]
    )
    return optimal and values[0] is not None and len(set(values)) == 1 and redumped


# ---------------------------------------------------------------- domain-resolve

DOMAIN_FORMULAS_PER_VERDICT = 48

# Capped prices add an upper-bound row per leader element, so those LPs do
# the most pivoting, and on a false formula they are the slowest operation.
# Scheduling capped twice puts that group at a fifth of all operations, so
# the 90th percentile falls inside it rather than at its lower edge.
DOMAIN_SCHEDULE = ("free", "nonneg", "capped", "box", "capped")


def domain_setup(seed: int) -> Inputs:
    rng = random.Random(seed)
    plain = _by_verdict(rng, DOMAIN_FORMULAS_PER_VERDICT)
    bases = []
    items = []
    for terms in plain:
        compiled = compilers.compile_qdnf_pricing(_qdnf(2, terms))
        template = compiled.pricing
        template.base.solution_masks()
        bases.append(template.base)
        expected = exists_forall_holds(2, terms)
        # Formula-major, true and false formulas alternating: every ten
        # consecutive operations hold the whole mix, so where a run stops
        # does not shift it.
        items += [(template, pricing.Domain(d), expected) for d in DOMAIN_SCHEDULE]
    domain_op(items[0])
    return Inputs(items, digest_of(plain), warm=bases)


def domain_op(item, corrupt: bool = False) -> dict:
    template, domain, _ = item
    inst = pricing.PricingInstance(
        base=template.base,
        leader_ids=template.leader_ids,
        valuation=template.valuation,
        ground=template.ground,
        domain=domain,
        threshold=template.threshold,
    )
    solution = pricing.solve_pricing(inst)
    value = solution.leader_value
    if corrupt and value is not None:
        value += 1
    return {"inst": inst, "solution": solution, "value": value}


def domain_check(item, result: dict) -> bool:
    expected = item[2]
    solution, inst, value = result["solution"], result["inst"], result["value"]
    if solution.status is pricing.SolveStatus.UNBOUNDED:
        return expected is True
    if solution.status is not pricing.SolveStatus.OPTIMAL:
        return False
    evaluated = pricing.evaluate_prices(inst, solution.prices)
    return (value >= inst.threshold) is expected and evaluated.leader_value == value


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Inputs]
    op: Callable
    check: Callable[..., bool]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_setup, sweep_op, sweep_check),
        Workload("lift-chain", lift_setup, lift_op, lift_check),
        Workload("domain-resolve", domain_setup, domain_op, domain_check),
    )
}
