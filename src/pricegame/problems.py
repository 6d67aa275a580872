"""Concrete problems: satisfiability, vertex cover, subset sum.

Formulas use the clause-as-literal-set convention: a clause is a frozenset
of nonzero signed variable indices (DIMACS style), a formula is a sequence
of clauses.  A satisfiability problem's universe is the 2n literals; its
solutions are the literal sets picking exactly one of each complementary
pair and meeting every clause.

Two reductions out of satisfiability are shipped, each returning a
ReductionArtifact whose target threshold is tight (no strictly better
feasible set), which is what the pricing lifts require:

  sat_to_vertex_cover   one edge per variable pair plus a clique gadget per
                        clause, cover budget  n + sum(|C| - 1)
  sat_to_subset_sum     digit construction, one item per literal and two
                        slack items per clause, no carries by base choice
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass

from .core import (
    Element,
    GroundChoice,
    GroundProblem,
    ReductionArtifact,
    Sense,
    _canon_before,
    best_by_enumeration,
    mask_sums,
    subset_sums,
)


class EmptyClauseError(ValueError):
    """An empty clause makes the formula degenerately unsatisfiable."""


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple[frozenset[int], ...]
    var_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("a formula needs at least one variable")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
            if any(-lit in clause for lit in clause):
                raise ValueError("clause contains a literal and its negation")
        if self.var_names is not None:
            if len(self.var_names) != self.num_vars:
                raise ValueError("var_names length must equal num_vars")
            if len(set(self.var_names)) != self.num_vars:
                raise ValueError("variable names must be unique")
            if any(not name or name.startswith("~") for name in self.var_names):
                raise ValueError("variable names must be nonempty and not start with ~")

    def name_of(self, var: int) -> str:
        if self.var_names is not None:
            return self.var_names[var - 1]
        return f"x{var}"

    def literal_id(self, lit: int) -> str:
        name = self.name_of(abs(lit))
        return name if lit > 0 else "~" + name


def cnf(num_vars: int, clauses, var_names=None) -> CnfFormula:
    """Convenience constructor accepting any iterables of literals."""
    return CnfFormula(
        num_vars,
        tuple(frozenset(c) for c in clauses),
        tuple(var_names) if var_names is not None else None,
    )


def sat_problem(formula: CnfFormula) -> GroundProblem:
    """The satisfiability problem of a formula as a feasibility-sense instance.

    Universe order interleaves the pairs: x1, ~x1, x2, ~x2, ...  The
    enumerator searches assignments depth first rather than scanning
    arbitrary literal subsets, and declares its cost as the 2^n assignments
    it could visit at worst.
    """
    n = formula.num_vars
    universe = []
    for v in range(1, n + 1):
        universe.append(Element(formula.literal_id(v), formula.name_of(v)))
        universe.append(Element(formula.literal_id(-v), "not " + formula.name_of(v)))
    elements = tuple(universe)
    bit = {e.id: 1 << i for i, e in enumerate(elements)}
    true_bit = [1 << (2 * v) for v in range(n)]
    false_bit = [1 << (2 * v + 1) for v in range(n)]
    clause_masks = []
    for clause in formula.clauses:
        mask = 0
        for lit in clause:
            v = abs(lit) - 1
            mask |= true_bit[v] if lit > 0 else false_bit[v]
        clause_masks.append(mask)

    def feasible(subset: frozenset[str]) -> bool:
        if not subset <= bit.keys():
            return False
        mask = sum(bit[i] for i in subset)
        for v in range(n):
            if (1 if mask & true_bit[v] else 0) + (1 if mask & false_bit[v] else 0) != 1:
                return False
        return all(mask & cm for cm in clause_masks)

    # Each clause is checked once its highest variable is set; an empty
    # clause has no highest variable and rules out every assignment.
    closing = [[] for _ in range(n)]
    for clause, cm in zip(formula.clauses, clause_masks):
        if clause:
            closing[max(abs(lit) for lit in clause) - 1].append(cm)
    has_empty_clause = not all(formula.clauses)

    def enumerate_assignments():
        # Depth-first over variables 1..n, dropping a partial assignment as
        # soon as a clause it has fully decided is falsified.
        if has_empty_clause:
            return
        stack = [(0, 0)]
        while stack:
            v, mask = stack.pop()
            if v == n:
                yield mask
                continue
            for bit in (false_bit[v], true_bit[v]):
                extended = mask | bit
                if all(extended & cm for cm in closing[v]):
                    stack.append((v + 1, extended))

    return GroundProblem(
        universe=elements,
        weights={e.id: 0 for e in elements},
        threshold=0,
        sense=Sense.FEASIBILITY,
        feasible=feasible,
        mask_enumerator=enumerate_assignments,
        name="sat",
        cost_bits=n,
        spec=formula,
    )


def vertex_cover_problem(
    vertices, edges, threshold: int, weights: dict[str, int] | None = None
) -> GroundProblem:
    """Vertex cover as a minimization instance, unit weights by default.

    The enumerator emits covers as complements of independent sets, which
    keeps the walk far below 2^|V| on the gadget graphs built here.
    """
    names = [v if isinstance(v, str) else str(v) for v in vertices]
    elements = tuple(Element(v, v) for v in names)
    if weights is None:
        weights = {v: 1 for v in names}
    index = {v: i for i, v in enumerate(names)}
    size = len(names)
    full = (1 << size) - 1
    edge_pairs = tuple(tuple(sorted((str(u), str(v)))) for u, v in edges)
    edge_masks = []
    adjacency = [0] * size
    for u, v in edge_pairs:
        if u not in index or v not in index:
            raise ValueError(f"edge ({u}, {v}) has an end outside the vertex set")
        iu, iv = index[u], index[v]
        if iu == iv:
            raise ValueError("self-loops are not allowed")
        edge_masks.append((1 << iu) | (1 << iv))
        adjacency[iu] |= 1 << iv
        adjacency[iv] |= 1 << iu

    def feasible(subset: frozenset[str]) -> bool:
        if not subset <= set(names):
            return False
        mask = sum(1 << index[v] for v in subset)
        return all(mask & em for em in edge_masks)

    def enumerate_covers():
        # Depth-first over independent sets, each extended only by vertices
        # after its last; each complement is a cover.
        stack = [(0, 0, 0)]
        while stack:
            next_vertex, chosen, banned = stack.pop()
            yield full ^ chosen
            for v in range(next_vertex, size):
                bit = 1 << v
                if not banned & bit:
                    stack.append((v + 1, chosen | bit, banned | bit | adjacency[v]))

    return GroundProblem(
        universe=elements,
        weights=weights,
        threshold=threshold,
        sense=Sense.MIN,
        feasible=feasible,
        mask_enumerator=enumerate_covers,
        name="vertex-cover",
        spec=edge_pairs,
    )


def subset_sum_problem(item_ids, weights: dict[str, int], target: int) -> GroundProblem:
    """Subset sum as a maximization instance.

    Feasible sets are those of total weight at most the target; solutions
    hit the target exactly.  Patterns are found by meeting in the middle
    (_subset_sum_patterns), without listing either family.
    """
    names = list(item_ids)
    elements = tuple(Element(i, i) for i in names)
    if any(weights[i] < 0 for i in names):
        raise ValueError("item weights must be nonnegative")
    w = [weights[i] for i in names]

    def feasible(subset: frozenset[str]) -> bool:
        if not subset <= set(names):
            return False
        return sum(weights[i] for i in subset) <= target

    def enumerate_light():
        # One table of every subset's sum, while it fits in memory.
        if len(w) <= 20:
            return (m for m, total in enumerate(subset_sums(w)) if total <= target)
        masks = range(1 << len(w))
        return (m for m, total in zip(masks, mask_sums(w, masks)) if total <= target)

    def patterns(problem, ground, leader_mask, gains, cap):
        exact = ground is GroundChoice.SOLUTIONS
        # A copy given another sense, threshold or weights has other
        # solutions than the subsets hitting this target.
        if exact and (problem.sense, problem.threshold, problem.weights) != \
                (Sense.MAX, target, weights):
            return best_by_enumeration(problem, ground, leader_mask, gains, cap)
        return _subset_sum_patterns(w, target, exact, leader_mask, gains)

    return GroundProblem(
        universe=elements,
        weights=weights,
        threshold=target,
        sense=Sense.MAX,
        feasible=feasible,
        mask_enumerator=enumerate_light,
        name="subset-sum",
        pattern_oracle=patterns,
    )


def _subset_sum_patterns(
    values: list[int], target: int, exact: bool, leader_mask: int, gains: tuple[int, ...]
) -> dict[int, tuple[int, int]]:
    """best_by_pattern over the subsets of value at most, or exactly, target.

    Meet in the middle (Horowitz and Sahni, JACM 1974).  The left side holds
    the leader items and the lowest follower items, about half of all items;
    the right side holds the other follower items, so a member's pattern is
    its left part's.  Each side lists its parts once, as subset_sums tables
    of bits, values and gains.  A left part A then finds its best right
    parts: among those of value at most target - value(A), by bisecting the
    right side sorted by value with a running maximum of gain and grouped
    by gain, or among those of value exactly target - value(A).  Values are
    nonnegative, so the empty right part always fits the first.  The
    canonical member is sought only among the pairs tied at a pattern's
    best gain.  Patterns come in the order of their numerically smallest
    member: the pattern itself among feasible sets, which are closed under
    subsets.
    """
    n = len(values)
    followers = [i for i in range(n) if not leader_mask >> i & 1]
    right = followers[max(0, n // 2 - (n - len(followers))):]
    left = sorted(set(range(n)).difference(right))

    def tables(side):
        return (subset_sums([1 << i for i in side]), subset_sums([values[i] for i in side]),
                subset_sums([gains[i] for i in side]))

    left_bits, left_values, left_gains = tables(left)
    right_bits, right_values, right_gains = tables(right)

    # Per left part: (part, best total gain, right parts tied at it, how
    # many of those fit, numerically smallest member).
    found = []
    if exact:
        # Per right value: its best gain, the parts tied at it, its smallest part.
        by_value: dict[int, list] = {}
        for b, v, g in zip(right_bits, right_values, right_gains):
            held = by_value.get(v)
            if held is None:
                by_value[v] = [g, [b], b]
            elif g > held[0]:
                held[0], held[1] = g, [b]
            elif g == held[0]:
                held[1].append(b)
        for a, v, g in zip(left_bits, left_values, left_gains):
            held = by_value.get(target - v)
            if held is not None:
                top, parts, smallest = held
                found.append((a, g + top, parts, len(parts), a + smallest))
    else:
        order = sorted(range(len(right_bits)), key=right_values.__getitem__)
        sorted_values = [right_values[j] for j in order]
        running = list(itertools.accumulate((right_gains[j] for j in order), max))
        by_gain: dict[int, tuple[list[int], list[int]]] = {}
        for j in order:
            group = by_gain.setdefault(right_gains[j], ([], []))
            group[0].append(right_values[j])
            group[1].append(right_bits[j])
        for a, v, g in zip(left_bits, left_values, left_gains):
            if v <= target:
                budget = target - v
                top = running[bisect_right(sorted_values, budget) - 1]
                group_values, parts = by_gain[top]
                found.append((a, g + top, parts, bisect_right(group_values, budget), a))

    best: dict[int, int] = {}
    first: dict[int, int] = {}
    for a, total, _, _, smallest in found:
        pattern = a & leader_mask
        if pattern not in best:
            best[pattern], first[pattern] = total, smallest
        else:
            best[pattern] = max(best[pattern], total)
            first[pattern] = min(first[pattern], smallest)
    member: dict[int, int] = {}
    for a, total, parts, fits, _ in found:
        pattern = a & leader_mask
        if total == best[pattern]:
            held = member.get(pattern)
            for b in itertools.islice(parts, fits):
                if held is None or _canon_before(a | b, held):
                    held = a | b
            member[pattern] = held
    return {p: (best[p], member[p]) for p in sorted(best, key=first.__getitem__)}


def sat_to_vertex_cover(formula: CnfFormula) -> ReductionArtifact:
    """Clause-gadget reduction from satisfiability to vertex cover.

    One edge per complementary literal pair, one clique per clause with an
    edge from each clique vertex to the vertex of its literal.  A singleton
    clause gets a two-vertex clique whose members both attach to the single
    literal's vertex, so every gadget still forces one uncovered clique
    vertex whose literal must be chosen.  The budget is
    n + sum over clauses of (gadget size - 1) and is tight.
    """
    for clause in formula.clauses:
        if not clause:
            raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")

    n = formula.num_vars
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    embedding: dict[str, str] = {}
    for v in range(1, n + 1):
        pos, neg = formula.literal_id(v), formula.literal_id(-v)
        vertices += [f"v:{pos}", f"v:{neg}"]
        edges.append((f"v:{pos}", f"v:{neg}"))
        embedding[pos] = f"v:{pos}"
        embedding[neg] = f"v:{neg}"

    budget = n
    for j, clause in enumerate(formula.clauses, start=1):
        literals = sorted(clause)
        if len(literals) == 1:
            literals = literals * 2
        gadget = []
        for k, lit in enumerate(literals):
            node = f"c{j}.{k}"
            vertices.append(node)
            gadget.append(node)
            edges.append((node, f"v:{formula.literal_id(lit)}"))
        edges.extend(itertools.combinations(gadget, 2))
        budget += len(gadget) - 1

    target = vertex_cover_problem(vertices, edges, budget)
    source = sat_problem(formula)
    return ReductionArtifact(
        source_universe=source.universe,
        target=target,
        embedding=embedding,
        provenance=(
            {"step": "sat2vc", "params": {"threshold": budget, "vertices": len(vertices)}},
        ),
    )


_SLACK_DIGITS = {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (1, 2)}


def sat_to_subset_sum(formula: CnfFormula) -> ReductionArtifact:
    """Digit reduction from satisfiability to subset sum.

    One digit per variable (target 1) and one per clause (target equal to
    the clause size).  Literal items carry a 1 in their variable digit and
    in each clause digit they appear in.  Two slack items per clause close
    the gap between the number of satisfied literals and the clause size;
    their digit values depend on the clause size so that slacks alone can
    never reach the clause target.  Clauses wider than four literals have
    no such two-slack completion and are rejected.
    """
    for clause in formula.clauses:
        if not clause:
            raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")
        if len(clause) > 4:
            raise ValueError("clauses with more than four literals are not supported")

    n = formula.num_vars
    m = len(formula.clauses)
    base = max(10, max((len(c) for c in formula.clauses), default=0) + 3)
    digit = [base**k for k in range(n + m)]

    item_ids: list[str] = []
    weights: dict[str, int] = {}
    embedding: dict[str, str] = {}
    for v in range(1, n + 1):
        for lit in (v, -v):
            lid = formula.literal_id(lit)
            value = digit[v - 1]
            for j, clause in enumerate(formula.clauses):
                if lit in clause:
                    value += digit[n + j]
            item_ids.append(lid)
            weights[lid] = value
            embedding[lid] = lid

    for j, clause in enumerate(formula.clauses, start=1):
        a, b = _SLACK_DIGITS[len(clause)]
        item_ids += [f"s{j}a", f"s{j}b"]
        weights[f"s{j}a"] = a * digit[n + j - 1]
        weights[f"s{j}b"] = b * digit[n + j - 1]

    target_value = sum(digit[v] for v in range(n))
    for j, clause in enumerate(formula.clauses):
        target_value += len(clause) * digit[n + j]

    target = subset_sum_problem(item_ids, weights, target_value)
    source = sat_problem(formula)
    return ReductionArtifact(
        source_universe=source.universe,
        target=target,
        embedding=embedding,
        provenance=(
            {"step": "sat2ss", "params": {"base": base, "target": target_value}},
        ),
    )
