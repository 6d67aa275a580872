"""Spans around the package's public entry points, recorded from outside it.

The tracer rebinds each traced name where its caller looks it up (the class
for GroundProblem methods, the importing module for functions imported by
name), records one span per call, and restores every original on exit.
Spans stay in memory as [name, start, end, parent, op, attrs] and are
written out once the run ends; self times are computed from them afterwards.

Attributes that need extra work (how many leader signatures a solve saw,
how many bytes a document had) are computed after the operation, with the
originals restored, so the spans do not include that work.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._pending: list = []
        self._saved: list = []
        self._seen = weakref.WeakSet()
        self.op_id = -1

    def mark_enumerated(self, problems) -> None:
        """Problems whose ground family was enumerated before tracing began."""
        self._seen.update(problems)

    def wrap(self, name: str, func, before=None, after=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op_id,
                    before(args) if before else None]
            self.spans.append(span)
            self._stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                self._pending.append((span, after, args, result))
            return result

        return traced

    def run_op(self, op_id: int, func, *args):
        """Run one operation with every target traced; returns (result, seconds)."""
        self.op_id = op_id
        for owner, attr, name, before, after in _targets(self):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, before, after))
        op_span_index = len(self.spans)
        try:
            result = self.wrap("op", func)(*args)
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            pending, self._pending = self._pending, []
        for span, after, call_args, call_result in pending:
            span[ATTRS] = after(span[ATTRS], call_args, call_result)
        op_span = self.spans[op_span_index]
        return result, op_span[END] - op_span[START]

    # ------------------------------------------------------------ annotations

    def _first_sight(self, args):
        problem = args[0]
        cold = problem not in self._seen
        self._seen.add(problem)
        return {"cold": cold}


def _enumerated(attrs, args, masks):
    if attrs["cold"]:
        problem = args[0]
        declared = problem.cost_bits if problem.cost_bits is not None else problem.size
        if problem.mask_enumerator is None:
            declared = problem.size
        attrs.update(members=len(masks), walk=2 ** declared)
    return attrs


def _lp(attrs, args, outcome):
    return {"rows": len(args[0].constraints), "infeasible": outcome.status.value == "infeasible"}


def _solve(attrs, args, solution):
    inst = args[0]
    base = inst.base
    masks = base.feasible_masks() if inst.ground.value == "feasible" else base.solution_masks()
    leader = base.mask_of(inst.leader_ids)
    return {"signatures": len({m & leader for m in masks})}


def _document(attrs, args, result):
    return {"bytes": len(result[0].encode())}


def _targets(tracer: Tracer):
    from pricegame import compilers, core, pricing, problems, sweep

    import workloads

    ground = core.GroundProblem
    return [
        (ground, "feasible_masks", "core.enumerate", tracer._first_sight, _enumerated),
        (ground, "solution_masks", "core.filter", None, None),
        (compilers, "check_reduction", "core.certify", None, None),
        (pricing, "solve_lp", "linprog.solve_lp", None, _lp),
        (pricing, "solve_pricing", "pricing.solve", None, _solve),
        (sweep, "solve_pricing", "pricing.solve", None, _solve),
        (sweep, "qdnf_holds", "compilers.oracle", None, None),
        (sweep, "compile_qdnf_pricing", "compilers.compile", None, None),
        (compilers, "lift_min", "compilers.lift", None, None),
        (compilers, "lift_max", "compilers.lift", None, None),
        (compilers, "lift_feas", "compilers.lift", None, None),
        (problems, "sat_to_vertex_cover", "problems.reduce", None, None),
        (problems, "sat_to_subset_sum", "problems.reduce", None, None),
        (workloads, "roundtrip", "serialize.roundtrip", None, _document),
    ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans, untraced_s: float) -> dict:
    """Per-layer metrics, per traced operation unless the unit says otherwise."""
    own = self_times(spans)
    ops = [s for s in spans if s[NAME] == "op"]
    n = len(ops)

    def self_s(name):
        return sum(t for s, t in zip(spans, own) if s[NAME] == name) / n

    def of(name):
        return [s for s in spans if s[NAME] == name]

    def attr_sum(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s in of(name))

    certify = of("core.certify")
    lps = of("linprog.solve_lp")
    lp_ms = [1000 * (s[END] - s[START]) for s in lps]
    signatures = attr_sum("pricing.solve", "signatures")
    docs = of("serialize.roundtrip")
    traced_s = sum(s[END] - s[START] for s in ops)
    return {
        "core.enumerate_s": (self_s("core.enumerate"), "s/op"),
        "core.members": (attr_sum("core.enumerate", "members") / n, "count/op"),
        "core.declared_walk": (attr_sum("core.enumerate", "walk") / n, "count/op"),
        "core.filter_s": (self_s("core.filter"), "s/op"),
        "core.certify_s": (self_s("core.certify"), "s/op"),
        "core.certify_total_s": (sum(s[END] - s[START] for s in certify) / n, "s/op"),
        "core.certify_calls": (len(certify) / n, "count/op"),
        "linprog.lp_calls": (len(lps) / n, "count/op"),
        "linprog.lp_s": (self_s("linprog.solve_lp"), "s/op"),
        "linprog.lp_ms.p50": (statistics.median(lp_ms) if lp_ms else 0.0, "ms"),
        "linprog.rows_per_lp": (attr_sum("linprog.solve_lp", "rows") / len(lps) if lps else 0.0, "count"),
        "linprog.infeasible_ratio": (attr_sum("linprog.solve_lp", "infeasible") / len(lps) if lps else 0.0, "ratio"),
        "pricing.solve_self_s": (self_s("pricing.solve"), "s/op"),
        "pricing.signatures": (signatures / n, "count/op"),
        "pricing.pruned_ratio": ((signatures - len(lps)) / signatures if signatures else 0.0, "ratio"),
        "compilers.oracle_s": (self_s("compilers.oracle"), "s/op"),
        "compilers.compile_s": (self_s("compilers.compile"), "s/op"),
        "compilers.lift_s": (self_s("compilers.lift"), "s/op"),
        "problems.reduce_s": (self_s("problems.reduce"), "s/op"),
        "serialize.roundtrip_s": (self_s("serialize.roundtrip"), "s/op"),
        "serialize.doc_bytes": (attr_sum("serialize.roundtrip", "bytes") / len(docs) if docs else 0.0, "bytes/doc"),
        "trace.op_s": (traced_s / n, "s/op"),
        "trace.unattributed_s": (self_s("op"), "s/op"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }


# Self-time metrics that partition an operation's traced time.
SELF_TIMES = (
    "core.enumerate_s", "core.filter_s", "core.certify_s", "linprog.lp_s",
    "pricing.solve_self_s", "compilers.oracle_s", "compilers.compile_s",
    "compilers.lift_s", "problems.reduce_s", "serialize.roundtrip_s",
    "trace.unattributed_s",
)


def shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced operation time."""
    total = metrics["trace.op_s"][0]
    return {name: metrics[name][0] / total for name in SELF_TIMES}


def write_spans(spans, path) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "attrs"), span))) + "\n")
