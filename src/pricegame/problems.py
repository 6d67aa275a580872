"""Concrete problems: satisfiability, vertex cover, subset sum.

Formulas use the clause-as-literal-set convention: a clause is a frozenset
of nonzero signed variable indices (DIMACS style), a formula is a sequence
of clauses.  A CnfFormula walks its clauses once, when it is made, and
carries the incidence tables that the problem and both reductions read.
A satisfiability problem's universe is the 2n literals; its solutions are
the literal sets picking exactly one of each complementary pair and
meeting every clause.

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    Element,
    GroundChoice,
    GroundProblem,
    ReductionArtifact,
    Sense,
    _beats,
    bits,
    mask_sums,
    subset_sums,
)
from .rational import require_ints


class EmptyClauseError(ValueError):
    """An empty clause makes the formula degenerately unsatisfiable."""


@dataclass(frozen=True)
class CnfFormula:
    """A formula and its incidence tables, recorded by the one walk over its clauses.

    Literal x_v is bit 2(v - 1) and ~x_v bit 2(v - 1) + 1.  The tables are
    tuples: per clause its literal mask, per literal bit the clauses holding
    it as bits, per variable the clauses it closes (those whose highest
    variable it is), and whether some clause is empty; universe is the
    literal universe x1, ~x1, x2, ~x2, ...  They take no part in equality,
    hashing or repr.  num_vars and the literals are ints; a float or a bool
    raises TypeError.
    """

    num_vars: int
    clauses: tuple[frozenset[int], ...]
    var_names: tuple[str, ...] | None = None
    clause_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    literal_clauses: tuple[int, ...] = field(init=False, repr=False, compare=False)
    closing_clauses: tuple[int, ...] = field(init=False, repr=False, compare=False)
    has_empty_clause: bool = field(init=False, repr=False, compare=False)
    universe: tuple[Element, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_vars
        require_ints((n,), "num_vars")
        if n < 1:
            raise ValueError("a formula needs at least one variable")
        require_ints([lit for clause in self.clauses for lit in clause], "literal")
        bit_of = {}
        for v in range(1, n + 1):
            bit_of[v], bit_of[-v] = 2 * v - 2, 2 * v - 1
        evens = ((1 << 2 * n) - 1) // 3
        clause_masks, literal_clauses, closing = [], [0] * (2 * n), [0] * n
        for j, clause in enumerate(self.clauses):
            mask, flag = 0, 1 << j
            for lit in clause:
                b = bit_of.get(lit)
                if b is None:
                    raise ValueError(f"literal {lit} out of range")
                mask |= 1 << b
                literal_clauses[b] |= flag
            if mask & mask >> 1 & evens:
                raise ValueError("clause contains a literal and its negation")
            if mask:
                closing[(mask.bit_length() - 1) >> 1] |= flag
            clause_masks.append(mask)
        if self.var_names is not None:
            if len(self.var_names) != n:
                raise ValueError("var_names length must equal num_vars")
            if len(set(self.var_names)) != n:
                raise ValueError("variable names must be unique")
            if any(not name or name.startswith("~") for name in self.var_names):
                raise ValueError("variable names must be nonempty and not start with ~")
        universe = []
        for name in self.var_names or [f"x{v}" for v in range(1, n + 1)]:
            universe += (Element(name, name), Element("~" + name, "not " + name))
        for attr, value in (("clause_masks", tuple(clause_masks)),
                            ("literal_clauses", tuple(literal_clauses)),
                            ("closing_clauses", tuple(closing)),
                            ("has_empty_clause", not all(clause_masks)),
                            ("universe", tuple(universe))):
            object.__setattr__(self, attr, value)

    def literal_id(self, lit: int) -> str:
        return self.universe[2 * abs(lit) - 2 + (lit < 0)].id


def cnf(num_vars: int, clauses, var_names=None) -> CnfFormula:
    """Convenience constructor accepting any iterables of literals."""
    return CnfFormula(
        num_vars,
        tuple([frozenset(c) for c in clauses]),
        tuple(var_names) if var_names is not None else None,
    )


@dataclass(frozen=True, eq=False)
class SatProblem(GroundProblem):
    """The satisfiability problem of a formula as a feasibility-sense instance.

    Its universe is the formula's literals, its weights zero and its
    threshold 0, set by SatProblem(formula) itself; its oracles read the
    formula's incidence tables rather than its clauses.  The enumerator
    searches assignments depth first rather than scanning arbitrary literal
    subsets, and declares its cost as the 2^n assignments it could visit at
    worst, which best_by_pattern checks against the cap before any oracle
    runs.  Patterns over the assignments are found without listing them, by
    the frontier engine (_frontier) over a table of one layer per variable
    (_sat_patterns), whose layers hold at most one state per partial
    assignment.
    """

    name = "sat"
    sense: Sense = field(default=Sense.FEASIBILITY, init=False)
    universe: tuple[Element, ...] = field(init=False)
    weights: Mapping[str, int] = field(init=False)
    threshold: int = field(default=0, init=False)
    formula: CnfFormula

    def __post_init__(self):
        object.__setattr__(self, "universe", self.formula.universe)
        object.__setattr__(self, "weights", dict.fromkeys([e.id for e in self.universe], 0))
        super().__post_init__()

    @property
    def cost_bits(self) -> int:
        return self.formula.num_vars

    def feasible(self, mask: int) -> bool:
        # Bits 2v and 2v + 1 are variable v's literals: exactly one is set
        # when the two halves add up to one bit per variable without a carry.
        n = self.formula.num_vars
        evens = ((1 << 2 * n) - 1) // 3
        if mask >> 2 * n or (mask & evens) + (mask >> 1 & evens) != evens:
            return False
        return all(mask & cm for cm in self.formula.clause_masks)

    def mask_enumerator(self):
        # Depth-first over variables 1..n with the satisfied clauses as bits,
        # dropping a partial assignment as soon as a clause that its last
        # variable closes is falsified; an empty clause has no highest
        # variable and rules out every assignment.
        formula = self.formula
        if formula.has_empty_clause:
            return
        n, literal_clauses, closing_clauses = \
            formula.num_vars, formula.literal_clauses, formula.closing_clauses
        stack = [(0, 0, 0)]
        while stack:
            v, mask, met = stack.pop()
            if v == n:
                yield mask
                continue
            closed = closing_clauses[v]
            for b in (2 * v + 1, 2 * v):
                extended = met | literal_clauses[b]
                if extended & closed == closed:
                    stack.append((v + 1, mask | 1 << b, extended))

    def patterns(self, ground, leader_mask, gains, cap, floor=None):
        formula = self.formula
        if formula.has_empty_clause:
            return {}
        return _sat_patterns(formula.literal_clauses, formula.closing_clauses, leader_mask,
                             gains, floor)


def sat_problem(formula: CnfFormula) -> SatProblem:
    """The satisfiability problem of a formula."""
    return SatProblem(formula)


def _frontier(layers, needs):
    """Yield a layered frontier DP's states after each of its layers.

    The engine of the satisfiability and vertex-cover pattern oracles (after
    Kawahara, Inoue, Iwashita and Minato, 2017).  A state maps a key to the
    best gain of a decided part and its canonical part, from the empty part
    under key 0.  In a layer (close, moves), a move (forbid, clear, put, bit,
    gain) takes each key sharing no bit with forbid to key & ~clear | put,
    which must hold close, and close then leaves it; the part gains bit and
    the gain grows by gain.  No move clears or puts a forbid bit, and no
    layer closes one, so both tests read the moved key through one mask.
    Gains below the layer's need are dropped, and a key keeps the part that
    core._beats picks: the larger gain, on a tie the canonically first part.
    That is exact when every completion H orders two parts with one key as
    canonical order orders the parts (L1 | H first iff L1 first), and when a
    need is at most the floor less a bound on what the later layers add.
    Each table says why it meets both; its last keys are patterns.
    """
    states = {0: (0, 0)}
    for (close, moves), need in zip(layers, needs):
        step: dict[int, tuple[int, int]] = {}
        held_at = step.get
        for forbid, clear, put, bit, gain in moves:
            keep, tested = ~clear, close | forbid
            for key, (g, part) in states.items():
                moved = key & keep | put
                if moved & tested != close:
                    continue
                total = g + gain
                if total < need:
                    continue
                moved ^= close
                member = part | bit
                held = held_at(moved)
                if held is None or _beats(total, member, held):
                    step[moved] = (total, member)
        states = step
        yield states


def _sat_patterns(
    literal_clauses: list[int], closing: list[int], leader_mask: int,
    gains: tuple[int, ...], floor: int | None,
) -> dict[int, tuple[int, int]]:
    """best_by_pattern over the satisfying assignments, without listing them.

    One layer per variable v, from the first up, with a move for its true
    literal (bit 2v) and one for its false literal (bit 2v + 1).  A key is
    pattern | open << 2n: the leader bits decided so far, and the satisfied
    clauses among those whose lowest variable is decided and whose highest
    is not.  A literal puts its leader bit and its clauses; v closes the
    clauses whose highest variable it is.  Every assignment holds one
    literal per variable, so two parts with one key first differ at a
    variable both decide, and any completion keeps their order.  Only the
    last layer needs the floor.

    A key is a function of a partial assignment, so the layer after v + 1
    variables holds at most 2^(v + 1) states: the declared 2^n bounds the
    memory as well as the time.  With (x_i | x_n) and (~x_i | ~x_n) for
    every i < n, 2^(n - 1) states wait on x_n and 2 assignments survive.
    Decided from the last variable down, the clauses spanning the formula
    would stay open throughout.
    """
    n = len(closing)
    shift = 2 * n
    layers = []
    for v in range(n):
        moves = []
        for b in (2 * v, 2 * v + 1):
            bit = 1 << b
            moves.append((0, 0, bit & leader_mask | literal_clauses[b] << shift, bit, gains[b]))
        layers.append((closing[v] << shift, moves))
    # Every assignment gains more than low, so no earlier layer drops one.
    low = -sum(map(abs, gains)) - 1
    states = {0: (0, 0)}
    for states in _frontier(layers, [low] * (n - 1) + [low if floor is None else floor]):
        pass
    return states


@dataclass(frozen=True, eq=False)
class VertexCoverProblem(GroundProblem):
    """Vertex cover as a minimization instance; edges are sorted pairs of ids.

    The enumerator emits covers as complements of independent sets, which
    keeps the walk far below 2^|V| on the gadget graphs built here.
    Patterns over the feasible covers are found without listing them, by
    the frontier engine (_frontier) over a table of one layer per clique
    (_cover_patterns), whose states never outnumber the covers and whose
    needs drop, under a floor, the states that cannot reach it; patterns
    over the solutions are found by enumeration.  The cliques are the
    maximal runs of consecutive, pairwise adjacent vertices, taken from the
    highest vertex down and computed once per problem as ranges of
    positions; they give both the layers and the bound on the needs
    (_cover_bounds).  In sat_to_vertex_cover's order they are the literal
    pairs and the clause gadgets, except that a first clause ~x_n, whose
    two gadget vertices both join ~x_n, takes ~x_n into its run.
    """

    name = "vertex-cover"
    sense: Sense = field(default=Sense.MIN, init=False)
    edges: tuple[tuple[str, str], ...]
    _adjacency: list[int] = field(init=False, repr=False)
    _cliques: list[range] = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        edges = tuple([tuple(sorted((str(u), str(v)))) for u, v in self.edges])
        index = self._index
        adjacency = [0] * self.size
        for u, v in edges:
            if u not in index or v not in index:
                raise ValueError(f"edge ({u}, {v}) has an end outside the vertex set")
            iu, iv = index[u], index[v]
            if iu == iv:
                raise ValueError("self-loops are not allowed")
            adjacency[iu] |= 1 << iv
            adjacency[iv] |= 1 << iu
        # A run grows down while the next vertex is adjacent to all of it.
        cliques, low = [], self.size
        while low:
            top = low = low - 1
            common = adjacency[top]
            while low and common >> low - 1 & 1:
                low -= 1
                common &= adjacency[low]
            cliques.append(range(low, top + 1))
        for attr, value in (("edges", edges), ("_adjacency", adjacency), ("_cliques", cliques)):
            object.__setattr__(self, attr, value)

    def feasible(self, mask: int) -> bool:
        # A cover leaves no edge between two vertices outside it.
        adjacency, outside = self._adjacency, ~mask & (1 << self.size) - 1
        return not mask >> self.size and not any(adjacency[v] & outside for v in bits(outside))

    def mask_enumerator(self):
        # Depth-first over independent sets, each extended only by vertices
        # after its last; each complement is a cover.
        size, adjacency = self.size, self._adjacency
        full = (1 << size) - 1
        stack = [(0, 0, 0)]
        while stack:
            next_vertex, chosen, banned = stack.pop()
            yield full ^ chosen
            for v in range(next_vertex, size):
                bit = 1 << v
                if not banned & bit:
                    stack.append((v + 1, chosen | bit, banned | bit | adjacency[v]))

    def patterns(self, ground, leader_mask, gains, cap, floor=None):
        # The table reads no weights or threshold, so solutions are listed.
        if ground is GroundChoice.SOLUTIONS:
            return super().patterns(ground, leader_mask, gains, cap, floor)
        return _cover_patterns(self._adjacency, self._cliques, leader_mask, gains, floor)


def vertex_cover_problem(
    vertices, edges, threshold: int, weights: dict[str, int] | None = None
) -> VertexCoverProblem:
    """Vertex cover as a minimization instance, unit weights by default."""
    names = [v if isinstance(v, str) else str(v) for v in vertices]
    if weights is None:
        weights = dict.fromkeys(names, 1)
    return VertexCoverProblem(tuple([Element(v, v) for v in names]), weights, threshold, edges)


def _cover_bounds(cliques: list[range], gains: tuple[int, ...]) -> list[int]:
    """Entry k bounds from above the gain that the lowest k cliques add to a cover.

    The cliques are VertexCoverProblem's, highest first.  A cover keeps all
    of a clique's vertices but at most one, so a clique adds at most the sum
    of its gains less its most negative gain, if one is negative.
    """
    rest = [0]
    for clique in reversed(cliques):
        part = gains[clique.start:clique.stop]
        rest.append(rest[-1] + sum(part) - min(0, *part))
    return rest


def _cover_patterns(
    adjacency: list[int], cliques: list[range], leader_mask: int, gains: tuple[int, ...],
    floor: int | None,
) -> dict[int, tuple[int, int]]:
    """best_by_pattern over the vertex covers of a graph, without listing them.

    One layer per clique, from the highest down.  A key is forced | pattern:
    the undecided vertices that an excluded neighbour forces into the cover,
    and the leader bits decided so far, in disjoint bit ranges.  A cover
    keeps all of a clique or all but one vertex u of it, so a layer has one
    move per choice: each clears the forced bits of the vertices it keeps
    and puts their leader bits, and excluding u is forbidden when u is
    forced and forces u's neighbours below the clique.  Undecided bits lie
    below decided ones, so L | H1 precedes L | H2 in canonical order exactly
    when H1 precedes H2.  Every state completes to a cover by including
    the rest, so no layer holds more states than there are covers.  A layer
    per vertex, highest first, would hold the same states after each
    clique's lowest vertex, given the same needs.  Under a floor, a layer's
    need is the floor less _cover_bounds' bound on the cliques below it.
    With no floor every need is one sentinel below every partial gain, so
    no state is dropped and no bound is computed.
    """
    if floor is None:
        needs = [-sum(map(abs, gains)) - 1] * len(cliques)
    else:
        rest = _cover_bounds(cliques, gains)
        if rest[-1] < floor:
            return {}
        needs = [floor - bound for bound in reversed(rest[:-1])]
    layers = []
    for clique in cliques:
        whole, below = (1 << clique.stop) - (1 << clique.start), (1 << clique.start) - 1
        total = sum(gains[clique.start:clique.stop])
        moves = [(0, whole, whole & leader_mask, whole, total)]
        for u in clique:
            kept = whole ^ 1 << u
            moves.append((1 << u, kept, kept & leader_mask | adjacency[u] & below, kept,
                          total - gains[u]))
        layers.append((0, moves))
    states = {0: (0, 0)}
    for states in _frontier(layers, needs):
        pass
    return states


@dataclass(frozen=True, eq=False)
class SubsetSumProblem(GroundProblem):
    """Subset sum as a maximization instance whose threshold is its target.

    Feasible sets are those of total weight at most the target; solutions
    hit the target exactly.  The enumerator weighs all 2^n subsets with
    mask_sums; patterns are found by meeting in the middle
    (_subset_sum_patterns), without listing either family.
    """

    name = "subset-sum"
    sense: Sense = field(default=Sense.MAX, init=False)

    def __post_init__(self):
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("item weights must be nonnegative")
        super().__post_init__()

    def feasible(self, mask: int) -> bool:
        return not mask >> self.size and self.weight_of_mask(mask) <= self.threshold

    def mask_enumerator(self):
        masks, target = range(1 << self.size), self.threshold
        return (m for m, total in zip(masks, mask_sums(self._weight_bits, masks))
                if total <= target)

    def patterns(self, ground, leader_mask, gains, cap, floor=None):
        values, target = self._weight_bits, self.threshold
        # No feasible set weighs more than the target, so when gains are the
        # weights only the exact hits can reach a floor at the target.
        exact = ground is GroundChoice.SOLUTIONS or \
            floor is not None and floor >= target and gains == values
        return _subset_sum_patterns(values, target, exact, leader_mask, gains, floor)


def subset_sum_problem(item_ids, weights: dict[str, int], target: int) -> SubsetSumProblem:
    """Subset sum as a maximization instance."""
    return SubsetSumProblem(tuple([Element(i, i) for i in item_ids]), weights, target)


def _subset_sum_patterns(
    values: list[int], target: int, exact: bool, leader_mask: int, gains: tuple[int, ...],
    floor: int | None,
) -> dict[int, tuple[int, int]]:
    """best_by_pattern over the subsets of value at most, or exactly, target.

    Meet in the middle (Horowitz and Sahni, JACM 1974).  Each side lists the
    bits, values and gains of its parts once, as subset_sums tables indexed
    by part, and reuses the value table where its gains are its values.
    The split depends on the query:

      exactly target   the first half of the items by position on the left,
                       the rest on the right, whatever the leader mask.  Per
                       right value that some left part needs, a map from
                       right pattern to its best gain and its canonical part
                       at that gain; each left part of value v whose need
                       target - v is there joins its pattern with each right
                       pattern.  Right bits lie above left bits, so for one
                       left part a, a | b1 precedes a | b2 in canonical order
                       exactly when b1 precedes b2.
      at most target   the lowest follower items, then the leader items, on
                       the left, about half of all items, so a member's
                       pattern is its left part's and the parts showing one
                       pattern fill one block of the left table.  The right
                       parts that no lighter part beats on gain, sorted by
                       value, give every left part its best completion by
                       one bisection; values are nonnegative, so the empty
                       right part always fits.  A pattern's best gain is its
                       block's maximum.

    Each pattern's best gain and canonical member are kept as the halves
    meet.  A floor drops the patterns whose best falls below it; the at-most
    search applies it before it looks among a block's ties for the
    canonical member.  The exact search also answers a feasible query whose
    gains are the values and whose floor is at least the target: only the
    members hitting the target can reach that floor.
    """
    n = len(values)
    if exact:
        left, right = list(range(n // 2)), list(range(n // 2, n))
    else:
        leaders = [i for i in range(n) if leader_mask >> i & 1]
        followers = [i for i in range(n) if not leader_mask >> i & 1]
        cut = max(0, n // 2 - len(leaders))
        left, right = followers[:cut] + leaders, followers[cut:]

    def tables(side):
        side_values = [values[i] for i in side]
        side_gains = [gains[i] for i in side]
        value_table = subset_sums(side_values)
        gain_table = value_table if side_gains == side_values else subset_sums(side_gains)
        return subset_sums([1 << i for i in side]), value_table, gain_table

    left_bits, left_values, left_gains = tables(left)
    right_bits, right_values, right_gains = tables(right)

    answer = {}
    if exact:
        needs = {target - v for v in left_values}
        by_value: dict[int, dict[int, tuple[int, int]]] = {}
        for j in [j for j, v in enumerate(right_values) if v in needs]:
            b, g = right_bits[j], right_gains[j]
            at = by_value.setdefault(right_values[j], {})
            if _beats(g, b, at.get(b & leader_mask)):
                at[b & leader_mask] = (g, b)
        for k in [k for k, v in enumerate(left_values) if target - v in by_value]:
            a, g = left_bits[k], left_gains[k]
            for pattern, (top, b) in by_value[target - left_values[k]].items():
                total = g + top
                pattern |= a & leader_mask
                if _beats(total, a | b, answer.get(pattern)):
                    answer[pattern] = (total, a | b)
        if floor is not None:
            answer = {p: held for p, held in answer.items() if held[0] >= floor}
    else:
        # The right parts that no lighter part beats on gain, by value.
        order = sorted(range(len(right_values)), key=right_values.__getitem__)
        running = itertools.accumulate([right_gains[j] for j in order], max)
        kept = [j for j, top in zip(order, running) if right_gains[j] == top]
        kept_values = [right_values[j] for j in kept]
        kept_gains = [right_gains[j] for j in kept]
        # Below every total, for the left parts that weigh over the target.
        low = -2 * sum(map(abs, gains)) - 1
        tops = [low] + kept_gains
        fits = list(map(bisect_right, itertools.repeat(kept_values),
                        [target - v for v in left_values]))
        totals = [g + tops[f] for g, f in zip(left_gains, fits)]
        size = 1 << cut
        for start in range(0, len(totals), size):
            # A block's first part holds only its pattern's leader items, so
            # it has the block's least value.
            if left_values[start] <= target:
                block = totals[start:start + size]
                total = max(block)
                if floor is not None and total < floor:
                    continue
                held = None
                for k in [start + k for k, t in enumerate(block) if t == total]:
                    a = left_bits[k]
                    for j in kept[bisect_left(kept_gains, total - left_gains[k]):fits[k]]:
                        if _beats(total, a | right_bits[j], held):
                            held = (total, a | right_bits[j])
                answer[left_bits[start]] = held
    return answer


def sat_to_vertex_cover(formula: CnfFormula) -> ReductionArtifact:
    """Clause-gadget reduction from satisfiability to vertex cover.

    One edge per complementary literal pair, one clique per clause with an
    edge from each clique vertex to the vertex of its literal.  A singleton
    clause gets a two-vertex clique whose members both attach to the single
    literal's vertex, so every gadget still forces one uncovered clique
    vertex whose literal must be chosen.  The budget is
    n + sum over clauses of (gadget size - 1) and is tight.  The empty-clause
    flag and the literal universe come from the formula's incidence tables.
    """
    if formula.has_empty_clause:
        raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")

    n = formula.num_vars
    ids = [e.id for e in formula.universe]
    # Literal lit's vertex sits at its bit, 2(|lit| - 1) + (lit < 0).
    vertices = [f"v:{lid}" for lid in ids]
    edges = list(zip(vertices[::2], vertices[1::2]))
    embedding = dict(zip(ids, vertices))

    budget = n
    for j, clause in enumerate(formula.clauses, start=1):
        literals = sorted(clause)
        if len(literals) == 1:
            literals = literals * 2
        gadget = [f"c{j}.{k}" for k in range(len(literals))]
        edges += [(node, vertices[2 * abs(lit) - 2 + (lit < 0)])
                  for node, lit in zip(gadget, literals)]
        edges.extend(itertools.combinations(gadget, 2))
        vertices += gadget
        budget += len(gadget) - 1

    target = vertex_cover_problem(vertices, edges, budget)
    return ReductionArtifact(
        source_universe=formula.universe,
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
    in each clause digit they appear in, read off the clause bits of the
    formula's incidence tables.  Two slack items per clause j, ``s<j>a`` and
    ``s<j>b`` (a variable of either name is a ValueError), close the gap
    between the number of satisfied literals and the clause size; their
    digit values depend on the clause size so that slacks alone can never
    reach the clause target.  Clauses wider than four literals have no such
    two-slack completion and are rejected.
    """
    for clause in formula.clauses:
        if not clause:
            raise EmptyClauseError("empty clause: formula is unsatisfiable by construction")
        if len(clause) > 4:
            raise ValueError("clauses with more than four literals are not supported")

    n = formula.num_vars
    m = len(formula.clauses)
    base = max(10, max(map(len, formula.clauses), default=0) + 3)
    digit = [base**k for k in range(n + m)]

    item_ids = [e.id for e in formula.universe]
    weights: dict[str, int] = {}
    for b, (lid, held) in enumerate(zip(item_ids, formula.literal_clauses)):
        weights[lid] = digit[b >> 1] + sum([digit[n + j] for j in bits(held)])
    embedding = dict(zip(item_ids, item_ids))

    for j, clause in enumerate(formula.clauses, start=1):
        for slack, size in zip((f"s{j}a", f"s{j}b"), _SLACK_DIGITS[len(clause)]):
            if slack in weights:
                raise ValueError(f"variable {slack!r} clashes with the slack item {slack!r} "
                                 f"of clause {j}")
            item_ids.append(slack)
            weights[slack] = size * digit[n + j - 1]

    target_value = sum(digit[v] for v in range(n))
    for j, clause in enumerate(formula.clauses):
        target_value += len(clause) * digit[n + j]

    target = subset_sum_problem(item_ids, weights, target_value)
    return ReductionArtifact(
        source_universe=formula.universe,
        target=target,
        embedding=embedding,
        provenance=(
            {"step": "sat2ss", "params": {"base": base, "target": target_value}},
        ),
    )
