"""Instance documents: a JSON format for every artifact this package builds.

A document is {schema_version, kind, payload, provenance} with kind one of
qdnf, cnf, pricing, reduction-artifact.  Rationals are serialized as
"numerator/denominator" strings, never as decimals; literals inside cnf and
qdnf payloads are signed integers.  Serialization preserves the stored
order of formulas and universes, so parsing a serialized value reproduces
it exactly, and serializing the same value twice yields identical bytes.
"""

from __future__ import annotations

import json

from .compilers import QdnfFormula
from .core import Element, GroundProblem, ReductionArtifact, Sense, explicit_problem
from .pricing import Domain, GroundChoice, PricingInstance
from .problems import CnfFormula, sat_problem, subset_sum_problem, vertex_cover_problem
from .rational import format_rational, parse_rational

SCHEMA_VERSION = "1"
KINDS = ("qdnf", "cnf", "pricing", "reduction-artifact")


def make_document(kind: str, payload: dict, provenance=()) -> dict:
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": payload,
        "provenance": list(provenance),
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a document must be a JSON object")
    for field in ("schema_version", "kind", "payload"):
        if field not in doc:
            raise ValueError(f"document is missing the {field!r} field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc['schema_version']!r}")
    if doc["kind"] not in KINDS:
        raise ValueError(f"unknown document kind {doc['kind']!r}")
    doc.setdefault("provenance", [])
    return doc


def encode_qdnf(q: QdnfFormula) -> dict:
    return {"pairs": q.num_pairs, "terms": [sorted(t) for t in q.terms]}


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _field(payload: dict, name: str, kind: type):
    """A required payload field of one JSON type; else a malformed document."""
    if not isinstance(payload, dict) or name not in payload:
        raise ValueError(f"payload is missing the {name!r} field")
    value = payload[name]
    if not isinstance(value, kind):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"payload field {name!r} must be {_JSON_TYPES[kind]}, not {found}")
    return value


def _rows(payload: dict, name: str, kind: type) -> list[list]:
    """A required payload field that is a list of lists of one JSON type."""
    rows = _field(payload, name, list)
    if not all(isinstance(row, list) and all(isinstance(x, kind) for x in row) for row in rows):
        raise ValueError(
            f"payload field {name!r} must be a list of lists, each item {_JSON_TYPES[kind]}"
        )
    return rows


def _pairs(payload: dict, name: str, shape: str) -> list[list[str]]:
    """A required payload field that is a list of two-string rows."""
    rows = _rows(payload, name, str)
    for row in rows:
        if len(row) != 2:
            raise ValueError(
                f"payload field {name!r} must be a list of {shape} pairs, not a row of {len(row)}"
            )
    return rows


def _strings(payload: dict, name: str) -> list[str]:
    """A required payload field that is a list of strings."""
    names = _field(payload, name, list)
    if not all(isinstance(x, str) for x in names):
        raise ValueError(f"payload field {name!r} must be a list, each item a string")
    return names


def decode_qdnf(payload: dict) -> QdnfFormula:
    pairs = _field(payload, "pairs", int)
    return QdnfFormula(pairs, tuple(frozenset(t) for t in _rows(payload, "terms", int)))


def encode_cnf(f: CnfFormula) -> dict:
    payload = {"num_vars": f.num_vars, "clauses": [sorted(c) for c in f.clauses]}
    if f.var_names is not None:
        payload["var_names"] = list(f.var_names)
    return payload


def decode_cnf(payload: dict) -> CnfFormula:
    num_vars = _field(payload, "num_vars", int)
    names = payload.get("var_names")
    return CnfFormula(
        num_vars,
        tuple(frozenset(c) for c in _rows(payload, "clauses", int)),
        tuple(_strings(payload, "var_names")) if names is not None else None,
    )


def encode_problem(p: GroundProblem) -> dict:
    if p.name == "sat":
        return {"problem": "sat", "cnf": encode_cnf(p.spec)}
    if p.name == "vertex-cover":
        return {
            "problem": "vertex-cover",
            "vertices": [e.id for e in p.universe],
            "edges": [list(edge) for edge in p.spec],
            "weights": {e.id: p.weights[e.id] for e in p.universe},
            "threshold": p.threshold,
        }
    if p.name == "subset-sum":
        return {
            "problem": "subset-sum",
            "items": [e.id for e in p.universe],
            "weights": {e.id: p.weights[e.id] for e in p.universe},
            "target": p.threshold,
        }
    return {
        "problem": "explicit",
        "universe": [[e.id, e.label] for e in p.universe],
        "sense": p.sense.value,
        "weights": {e.id: p.weights[e.id] for e in p.universe},
        "threshold": p.threshold,
        "feasible_sets": sorted(sorted(p.ids_of(m)) for m in p.feasible_masks()),
    }


def _integers(payload: dict, name: str) -> dict[str, int]:
    mapping = _field(payload, name, dict)
    if not all(isinstance(v, int) for v in mapping.values()):
        raise ValueError(f"payload field {name!r} must map ids to integers")
    return dict(mapping)


def decode_problem(payload: dict) -> GroundProblem:
    flavor = _field(payload, "problem", str)
    if flavor == "sat":
        return sat_problem(decode_cnf(_field(payload, "cnf", dict)))
    if flavor == "vertex-cover":
        return vertex_cover_problem(
            _field(payload, "vertices", list),
            [tuple(e) for e in _pairs(payload, "edges", "[vertex, vertex]")],
            _field(payload, "threshold", int),
            _integers(payload, "weights"),
        )
    if flavor == "subset-sum":
        return subset_sum_problem(
            _field(payload, "items", list),
            _integers(payload, "weights"),
            _field(payload, "target", int),
        )
    if flavor == "explicit":
        return explicit_problem(
            (Element(i, label) for i, label in _pairs(payload, "universe", "[id, label]")),
            (frozenset(s) for s in _rows(payload, "feasible_sets", str)),
            _integers(payload, "weights"),
            _field(payload, "threshold", int),
            Sense(_field(payload, "sense", str)),
        )
    raise ValueError(f"unknown problem flavor {flavor!r}")


def encode_pricing(inst: PricingInstance) -> dict:
    return {
        "base": encode_problem(inst.base),
        "leader": sorted(inst.leader_ids),
        "valuation": {e.id: inst.valuation[e.id] for e in inst.base.universe},
        "domain": inst.domain.value,
        "ground": inst.ground.value,
        "threshold": format_rational(inst.threshold),
    }


def decode_pricing(payload: dict) -> PricingInstance:
    return PricingInstance(
        base=decode_problem(_field(payload, "base", dict)),
        leader_ids=frozenset(_strings(payload, "leader")),
        valuation=_integers(payload, "valuation"),
        ground=GroundChoice(_field(payload, "ground", str)),
        domain=Domain(_field(payload, "domain", str)),
        threshold=parse_rational(_field(payload, "threshold", str)),
    )


def encode_artifact(artifact: ReductionArtifact, source: GroundProblem) -> dict:
    return {
        "source": encode_problem(source),
        "target": encode_problem(artifact.target),
        "embedding": dict(sorted(artifact.embedding.items())),
    }


def decode_artifact(payload: dict) -> tuple[GroundProblem, ReductionArtifact]:
    source = decode_problem(_field(payload, "source", dict))
    artifact = ReductionArtifact(
        source_universe=source.universe,
        target=decode_problem(_field(payload, "target", dict)),
        embedding=dict(_field(payload, "embedding", dict)),
    )
    return source, artifact


def pricing_summary(inst: PricingInstance, solution, decision=None) -> list[str]:
    """Human-readable lines describing a solved instance; all values exact."""
    lines = [f"status: {solution.status.value}"]
    if solution.leader_value is not None:
        lines.append(f"leader_value: {format_rational(solution.leader_value)}")
        lines.append(f"follower_value: {format_rational(solution.follower_value)}")
        for e in sorted(solution.prices):
            lines.append(f"price {e} = {format_rational(solution.prices[e])}")
        lines.append("response: " + " ".join(sorted(solution.response)))
    if decision is not None:
        lines.append(
            f"decision: {'true' if decision else 'false'} at threshold "
            f"{format_rational(inst.threshold)}"
        )
    return lines
