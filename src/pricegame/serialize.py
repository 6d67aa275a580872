"""Instance documents: a JSON format for every artifact this package builds.

A document is {schema_version, kind, payload, provenance} with kind one of
the keys of DECODERS: qdnf, cnf, pricing, reduction-artifact.  Rationals
are serialized as "numerator/denominator" strings, never as decimals;
literals inside cnf and qdnf payloads are signed integers.  Serialization preserves the stored
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


def make_document(kind: str, payload: dict, provenance=()) -> dict:
    if kind not in DECODERS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "payload": payload,
        "provenance": list(provenance),
    }


def dump_document(doc: dict) -> str:
    """The bytes json.dumps writes for doc at indent 2 with sorted keys, then a newline.

    Written directly: before Python 3.13 an indented json.dumps runs the
    pure-Python encoder, whose closures also leave reference cycles that
    only the cyclic collector frees.  Keys must be strings; a value that is
    not a str, int, bool, None, dict, list or tuple is written as json.dumps
    writes it alone, so a float reads the same and a Fraction raises
    TypeError.  Nesting past the recursion limit raises ValueError.
    """
    out: list[str] = []
    try:
        _write(doc, "\n", out.append)
    except RecursionError:
        raise ValueError("the document is nested too deeply to write") from None
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _write(value, newline: str, emit) -> None:
    """Emit one value; newline starts each of its further lines at its indent."""
    kind = type(value)
    if kind is str:
        emit(_quote(value))
    elif kind is int:
        emit(int.__repr__(value))
    elif kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            emit(lead + _quote(key) + ": ")
            _write(value[key], inner, emit)
            lead = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            emit(lead)
            _write(item, inner, emit)
            lead = "," + inner
        emit(newline + "]")
    elif kind is bool or value is None:
        emit(_LITERALS[value])
    elif isinstance(value, dict):
        _write(dict(value), newline, emit)
    elif isinstance(value, (list, tuple)):
        _write(list(value), newline, emit)
    else:
        emit(json.dumps(value))


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("the document is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError("a document must be a JSON object")
    for field in ("schema_version", "kind", "payload"):
        if field not in doc:
            raise ValueError(f"document is missing the {field!r} field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc['schema_version']!r}")
    if not isinstance(doc["kind"], str) or doc["kind"] not in DECODERS:
        raise ValueError(f"unknown document kind {doc['kind']!r}")
    provenance = doc.setdefault("provenance", [])
    if not isinstance(provenance, list) or not all(isinstance(p, dict) for p in provenance):
        raise ValueError("document field 'provenance' must be a list of objects")
    return doc


def encode_qdnf(q: QdnfFormula) -> dict:
    return {"pairs": q.num_pairs, "terms": [sorted(t) for t in q.terms]}


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               bool: "a boolean"}


def _is(value, kind: type) -> bool:
    """Whether a JSON value has one type; a boolean is not an integer here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _field(payload: dict, name: str, kind: type):
    """A required payload field of one JSON type; else a malformed document."""
    if not isinstance(payload, dict) or name not in payload:
        raise ValueError(f"payload is missing the {name!r} field")
    value = payload[name]
    if not _is(value, kind):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"payload field {name!r} must be {_JSON_TYPES[kind]}, not {found}")
    return value


def _rows(payload: dict, name: str, kind: type) -> list[list]:
    """A required payload field that is a list of lists of one JSON type."""
    rows = _field(payload, name, list)
    if not all(isinstance(row, list) and all(_is(x, kind) for x in row) for row in rows):
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
    return QdnfFormula(pairs, tuple([frozenset(t) for t in _rows(payload, "terms", int)]))


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
        tuple([frozenset(c) for c in _rows(payload, "clauses", int)]),
        tuple(_strings(payload, "var_names")) if names is not None else None,
    )


def _mapping(payload: dict, name: str, kind: type, values: str) -> dict:
    """A required payload field that maps ids to values of one JSON type."""
    mapping = _field(payload, name, dict)
    if not all(_is(v, kind) for v in mapping.values()):
        raise ValueError(f"payload field {name!r} must map ids to {values}")
    return dict(mapping)


def _integers(payload: dict, name: str) -> dict[str, int]:
    return _mapping(payload, name, int, "integers")


# Per problem kind, how its payload is written and how it is read back.  A
# problem of a kind not listed here is written out as an explicit family.
_KINDS = {
    "sat": (
        lambda p: {"cnf": encode_cnf(p.formula)},
        lambda d: sat_problem(decode_cnf(_field(d, "cnf", dict))),
    ),
    "vertex-cover": (
        lambda p: {
            "vertices": [e.id for e in p.universe],
            "edges": [list(edge) for edge in p.edges],
            "weights": dict(p.weights),
            "threshold": p.threshold,
        },
        lambda d: vertex_cover_problem(
            _strings(d, "vertices"),
            [tuple(e) for e in _pairs(d, "edges", "[vertex, vertex]")],
            _field(d, "threshold", int),
            _integers(d, "weights"),
        ),
    ),
    "subset-sum": (
        lambda p: {
            "items": [e.id for e in p.universe], "weights": dict(p.weights), "target": p.threshold,
        },
        lambda d: subset_sum_problem(
            _strings(d, "items"), _integers(d, "weights"), _field(d, "target", int),
        ),
    ),
    "explicit": (
        lambda p: {
            "universe": [[e.id, e.label] for e in p.universe],
            "sense": p.sense.value,
            "weights": dict(p.weights),
            "threshold": p.threshold,
            "feasible_sets": sorted(sorted(p.ids_of(m)) for m in p.feasible_masks()),
        },
        lambda d: explicit_problem(
            [Element(i, label) for i, label in _pairs(d, "universe", "[id, label]")],
            (frozenset(s) for s in _rows(d, "feasible_sets", str)),
            _integers(d, "weights"),
            _field(d, "threshold", int),
            Sense(_field(d, "sense", str)),
        ),
    ),
}


def encode_problem(p: GroundProblem) -> dict:
    kind = p.name if p.name in _KINDS else "explicit"
    return {"problem": kind, **_KINDS[kind][0](p)}


def decode_problem(payload: dict) -> GroundProblem:
    flavor = _field(payload, "problem", str)
    if flavor not in _KINDS:
        raise ValueError(f"unknown problem flavor {flavor!r}")
    return _KINDS[flavor][1](payload)


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
        embedding=_mapping(payload, "embedding", str, "strings"),
    )
    return source, artifact


# Document kind -> the decoder of its payload.
DECODERS = {"qdnf": decode_qdnf, "cnf": decode_cnf, "pricing": decode_pricing,
            "reduction-artifact": decode_artifact}


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
