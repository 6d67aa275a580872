import dataclasses
import enum
import json
import math
from collections import OrderedDict, namedtuple
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from pricegame.compilers import compile_qdnf_pricing, qdnf, weight_lift
from pricegame.core import Element, Sense, explicit_problem, solution_set
from pricegame.problems import (
    cnf,
    sat_problem,
    sat_to_subset_sum,
    sat_to_vertex_cover,
    subset_sum_problem,
)
from pricegame.serialize import (
    decode_artifact,
    decode_cnf,
    decode_pricing,
    decode_problem,
    decode_qdnf,
    dump_document,
    encode_artifact,
    encode_cnf,
    encode_pricing,
    encode_problem,
    encode_qdnf,
    load_document,
    make_document,
)


def same_problem(a, b) -> bool:
    return (
        [e.id for e in a.universe] == [e.id for e in b.universe]
        and a.weights == b.weights
        and a.threshold == b.threshold
        and a.sense == b.sense
        and solution_set(a) == solution_set(b)
        and set(a.feasible_masks()) == set(b.feasible_masks())
    )


def test_qdnf_round_trip():
    q = qdnf(2, [{1, -3}, {2}])
    assert decode_qdnf(encode_qdnf(q)) == q


def test_cnf_round_trip_preserves_clause_order_and_names():
    f = cnf(2, [[2, -1], [1]], var_names=["p", "q"])
    assert decode_cnf(encode_cnf(f)) == f


def test_problem_round_trips():
    problems = [
        sat_problem(cnf(2, [[1, 2]])),
        sat_to_vertex_cover(cnf(2, [[1, 2]])).target,
        sat_to_subset_sum(cnf(2, [[1, 2]])).target,
        explicit_problem(
            [Element("a"), Element("b")],
            [frozenset({"a"}), frozenset({"a", "b"})],
            {"a": 1, "b": 2},
            threshold=1,
            sense=Sense.MIN,
        ),
    ]
    for problem in problems:
        assert same_problem(problem, decode_problem(encode_problem(problem)))


def test_pricing_round_trip():
    compiled = compile_qdnf_pricing(qdnf(1, [{1}]))
    inst = compiled.pricing
    restored = decode_pricing(encode_pricing(inst))
    assert restored.leader_ids == inst.leader_ids
    assert restored.valuation == inst.valuation
    assert restored.domain == inst.domain
    assert restored.ground == inst.ground
    assert restored.threshold == inst.threshold
    assert same_problem(restored.base, inst.base)


def test_rationals_serialize_as_fraction_strings():
    inst = compile_qdnf_pricing(qdnf(1, [{1}])).pricing
    inst = dataclasses.replace(inst, threshold=Fraction(7, 2))
    payload = encode_pricing(inst)
    assert payload["threshold"] == "7/2"
    assert "." not in dump_document(make_document("pricing", payload))


def test_artifact_round_trip():
    formula = cnf(2, [[1, -2]])
    artifact = sat_to_vertex_cover(formula)
    source = sat_problem(formula)
    payload = encode_artifact(artifact, source)
    restored_source, restored = decode_artifact(payload)
    assert same_problem(source, restored_source)
    assert same_problem(artifact.target, restored.target)
    assert restored.embedding == artifact.embedding


def test_lifted_document_solves_identically_after_round_trip():
    from pricegame.compilers import lift_min
    from pricegame.pricing import GroundChoice, PricingInstance, solve_pricing

    formula = cnf(2, [[1, 2]])
    source = PricingInstance(
        sat_problem(formula),
        frozenset({"x1", "~x2"}),
        {"x1": 3, "~x1": 0, "x2": 1, "~x2": 2},
        GroundChoice.SOLUTIONS,
    )
    lifted, _ = lift_min(source, sat_to_vertex_cover(formula))
    restored = decode_pricing(encode_pricing(lifted))
    assert solve_pricing(restored).leader_value == solve_pricing(lifted).leader_value


def test_serialization_is_a_fixed_point():
    compiled = compile_qdnf_pricing(qdnf(1, [{1}]))
    doc = make_document("pricing", encode_pricing(compiled.pricing),
                        list(compiled.provenance))
    text = dump_document(doc)
    again = dump_document(load_document(text))
    assert text == again


def test_document_validation():
    with pytest.raises(ValueError):
        make_document("nonsense", {})
    with pytest.raises(ValueError):
        load_document("{}")
    with pytest.raises(ValueError):
        load_document('{"schema_version": "0", "kind": "cnf", "payload": {}}')
    with pytest.raises(ValueError, match="^a document must be a JSON object$"):
        load_document("[]")
    with pytest.raises(ValueError, match="^unknown problem flavor 'knapsack'$"):
        decode_problem({"problem": "knapsack"})
    deep = []
    for _ in range(3_000):
        deep = [deep]
    with pytest.raises(ValueError, match="^the document is nested too deeply to write$"):
        dump_document(make_document("cnf", {}, [{"deep": deep}]))
    with pytest.raises(ValueError, match="^the document is nested too deeply to read$"):
        load_document("[" * 100_000 + "]" * 100_000)


def _abc_subset_sum():
    return subset_sum_problem(["a", "b", "c"], {"a": 2, "b": 3, "c": 4}, 5)


def _lifted_cover():
    formula = cnf(2, [[1, -2], [2]])
    artifact = sat_to_vertex_cover(formula)
    return weight_lift(artifact.target, artifact.image_ids())


# An unchanged copy, a weight-lifted cover, a sat problem given a formula
# over another number of variables, or a subset sum given another threshold
# (its target) or other weights keeps its kind and round-trips to identical
# bytes.
@pytest.mark.parametrize("build, changes", [
    (lambda: sat_problem(cnf(2, [[1, 2]], var_names=["p", "q"])), {}),
    (lambda: sat_to_vertex_cover(cnf(2, [[1, -2], [2]])).target, {}),
    (lambda: sat_to_subset_sum(cnf(2, [[1, 2]])).target, {}),
    (lambda: explicit_problem([Element("a", "A"), Element("b")],
                              [frozenset(), frozenset({"a", "b"})]), {}),
    (_lifted_cover, {}),
    (lambda: sat_problem(cnf(2, [[1, 2]])), {"formula": cnf(3, [[1]])}),
    (_abc_subset_sum, {"threshold": 3}),
    (_abc_subset_sum, {"weights": {"a": 1, "b": 1, "c": 4}}),
], ids=["sat", "vertex-cover", "subset-sum", "explicit", "weight-lifted-cover",
        "sat-formula", "subset-sum-threshold", "subset-sum-weights"])
def test_replace_copy_encodes_like_the_original(build, changes):
    problem = build()
    copy = dataclasses.replace(problem, **changes)
    encoded = encode_problem(copy)
    decoded = decode_problem(encoded)
    assert same_problem(copy, decoded)
    assert encoded["problem"] == problem.name
    assert dump_document(encode_problem(decoded)) == dump_document(encoded)
    if not changes:
        assert encoded == encode_problem(problem)


_FIXED_SENSE = "field sense is declared with init=False, it cannot be specified with replace()"


# A copy is a valid problem of its kind or a ValueError: a kind sets its own
# sense, so replace takes no other, and its own field is validated like the
# rest.
@pytest.mark.parametrize("build, changes, message", [
    (lambda: sat_problem(cnf(2, [[1, 2]], var_names=["p", "q"])), {"sense": Sense.MIN},
     _FIXED_SENSE),
    (lambda: sat_to_vertex_cover(cnf(2, [[1, -2], [2]])).target, {"sense": Sense.MAX},
     _FIXED_SENSE),
    (_abc_subset_sum, {"sense": Sense.MIN}, _FIXED_SENSE),
    (lambda: sat_to_vertex_cover(cnf(1, [])).target, {"edges": [("v:x1", "v:x3")]},
     "edge (v:x1, v:x3) has an end outside the vertex set"),
    (lambda: sat_to_vertex_cover(cnf(1, [])).target, {"edges": [("v:x1", "v:x1")]},
     "self-loops are not allowed"),
    (_abc_subset_sum, {"weights": {"a": -1, "b": 3, "c": 4}}, "item weights must be nonnegative"),
    (lambda: explicit_problem([Element("a")], [frozenset({"a"})]), {"masks": frozenset({2})},
     "feasible sets must lie inside the universe"),
], ids=["sat-min", "vertex-cover-max", "subset-sum-min", "vertex-cover-edges",
        "vertex-cover-loop", "subset-sum-weights", "explicit-masks"])
def test_an_invalid_copy_is_a_value_error(build, changes, message):
    with pytest.raises(ValueError) as err:
        dataclasses.replace(build(), **changes)
    assert str(err.value) == message


_SUBSET_SUM = {"problem": "subset-sum", "items": ["a"], "weights": {"a": 1}, "target": 1}
_VERTEX_COVER = {"problem": "vertex-cover", "vertices": ["u", "v"], "edges": [["u", "v"]],
                 "weights": {"u": 1, "v": 1}, "threshold": 1}
_PRICING = {"base": _SUBSET_SUM, "leader": [], "valuation": {"a": 1}, "domain": "free",
            "ground": "feasible", "threshold": "0/1"}


@pytest.mark.parametrize("decode, payload, message", [
    (decode_qdnf, {"pairs": True, "terms": [[1]]},
     "payload field 'pairs' must be an integer, not a boolean"),
    (decode_qdnf, {"pairs": 1, "terms": [[1, True]]},
     "payload field 'terms' must be a list of lists, each item an integer"),
    (decode_cnf, {"num_vars": False, "clauses": [[1]]},
     "payload field 'num_vars' must be an integer, not a boolean"),
    (decode_cnf, {"num_vars": 1, "clauses": [[True]]},
     "payload field 'clauses' must be a list of lists, each item an integer"),
    (decode_problem, dict(_VERTEX_COVER, threshold=True),
     "payload field 'threshold' must be an integer, not a boolean"),
    (decode_pricing, dict(_PRICING, base=dict(_SUBSET_SUM, target=True)),
     "payload field 'target' must be an integer, not a boolean"),
    (decode_problem, dict(_SUBSET_SUM, weights={"a": True}),
     "payload field 'weights' must map ids to integers"),
    (decode_pricing, dict(_PRICING, valuation={"a": False}),
     "payload field 'valuation' must map ids to integers"),
], ids=["pairs", "terms", "num_vars", "clauses", "threshold", "target", "weights",
        "valuation"])
def test_booleans_are_not_integers(decode, payload, message):
    with pytest.raises(ValueError) as err:
        decode(payload)
    assert str(err.value) == message


# Strings mix what json escapes (quotes, backslashes, control characters,
# non-ASCII, U+2028) with arbitrary text.
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\té \U0001f600') | st.characters(),
                max_size=6)
_SCALARS = (
    _TEXT
    | st.integers(min_value=-2**70, max_value=2**70)
    | st.booleans()
    | st.none()
    | st.sampled_from([-0.0, 0.5, 1e300, -1e-300, math.nan, math.inf, -math.inf])
    | st.floats()
)
class _Items(list):
    pass


_Pair = namedtuple("_Pair", "left right")

_TREES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(inner, max_size=4).map(_Items)
        | st.tuples(inner, inner).map(_Pair._make)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=16,
)


@given(st.dictionaries(_TEXT, _TREES, max_size=5) | _TREES)
@settings(max_examples=200, deadline=None)
def test_writer_reproduces_indented_sorted_json(doc):
    assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [
    {"threshold": Fraction(1, 2)},
    {"weights": MappingProxyType({"a": 1})},
    {"rows": [{1: "a"}]},
    {"a": 1, 2: "b"},
], ids=["fraction", "mapping-proxy", "int-key", "mixed-keys"])
def test_writer_rejects_what_json_cannot_write_as_a_document(doc):
    with pytest.raises(TypeError):
        dump_document(doc)


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


def test_writer_writes_subclasses_as_json_does():
    doc = {"ordered": OrderedDict([("b", [1]), ("a", _Level.HIGH)]),
           _Name("name"): _Name('"x"'), "floats": (0.1, -0.0)}
    assert dump_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
