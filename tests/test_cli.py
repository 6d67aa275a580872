import dataclasses
import hashlib
import json
import multiprocessing
import random
from functools import partial

import pytest

from pricegame import cli, sweep
from pricegame.cli import main
from pricegame.compilers import qdnf
from pricegame.core import Element, explicit_problem
from pricegame.pricing import GroundChoice, PricingInstance
from pricegame.serialize import (
    dump_document,
    encode_cnf,
    encode_pricing,
    encode_qdnf,
    load_document,
    make_document,
)
from pricegame.problems import cnf, sat_to_vertex_cover, vertex_cover_problem
from pricegame.sweep import CorpusSpec, random_formula, run_sweep


def write_doc(path, kind, payload, provenance=()):
    path.write_text(dump_document(make_document(kind, payload, provenance)))
    return str(path)


def two_item_pricing_doc(tmp_path):
    base = explicit_problem(
        [Element("eL"), Element("eF")], [frozenset({"eL"}), frozenset({"eF"})]
    )
    inst = PricingInstance(
        base, frozenset({"eL"}), {"eL": 5, "eF": 3}, GroundChoice.SOLUTIONS
    )
    return write_doc(tmp_path / "two.json", "pricing", encode_pricing(inst))


def test_solve_decision_true(tmp_path, capsys):
    path = two_item_pricing_doc(tmp_path)
    code = main(["solve", path, "--threshold", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "leader_value: 2/1" in out
    assert "decision: true" in out


def test_solve_decision_false_exit_code(tmp_path, capsys):
    path = two_item_pricing_doc(tmp_path)
    assert main(["solve", path, "--threshold", "5/2"]) == 2


def test_solve_unbounded_exit_code(tmp_path, capsys):
    base = explicit_problem([Element("eL")], [frozenset({"eL"})])
    inst = PricingInstance(base, frozenset({"eL"}), {"eL": 5}, GroundChoice.SOLUTIONS)
    path = write_doc(tmp_path / "u.json", "pricing", encode_pricing(inst))
    assert main(["solve", path]) == 3
    assert "unbounded" in capsys.readouterr().out


def test_solve_unbounded_decides_true_at_any_threshold(tmp_path, capsys):
    base = explicit_problem([Element("eL")], [frozenset({"eL"})])
    inst = PricingInstance(base, frozenset({"eL"}), {"eL": 5}, GroundChoice.SOLUTIONS)
    path = write_doc(tmp_path / "u.json", "pricing", encode_pricing(inst))
    assert main(["solve", path, "--threshold", "3"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == ["status: unbounded", "decision: true at threshold 3/1"]


def test_solve_negative_threshold_is_an_error(tmp_path, capsys):
    path = two_item_pricing_doc(tmp_path)
    assert main(["solve", path, "--threshold", "-1"]) == 1
    assert "threshold must be nonnegative" in capsys.readouterr().err


def test_solve_empty_ground_exit_code(tmp_path, capsys):
    base = explicit_problem([Element("e")], [])
    inst = PricingInstance(base, frozenset(), {"e": 1}, GroundChoice.SOLUTIONS)
    path = write_doc(tmp_path / "empty.json", "pricing", encode_pricing(inst))
    assert main(["solve", path]) == 4


def test_compile_thm2_reports_parameters(tmp_path, capsys):
    src = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    out_path = tmp_path / "compiled.json"
    code = main(["--out", str(out_path), "compile", src, "--pipeline", "thm2"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "price_unit=2" in printed and "decision_threshold=3" in printed
    doc = load_document(out_path.read_text())
    assert doc["kind"] == "pricing"
    assert doc["provenance"][0]["step"] == "thm2"


def test_compile_to_an_unwritable_out_prints_only_the_error(tmp_path, capsys):
    src = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    out_path = tmp_path / "missing" / "x.json"
    code = main(["--out", str(out_path), "compile", src, "--pipeline", "thm2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out_path.exists()


def test_compile_without_out_prints_the_line_then_the_document(tmp_path, capsys):
    src = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    assert main(["compile", src, "--pipeline", "thm2"]) == 0
    line, document = capsys.readouterr().out.split("\n", 1)
    assert line == "price_unit=2 decision_threshold=3"
    assert load_document(document)["kind"] == "pricing"


def test_compile_rejects_an_artifact_that_fails_certification(tmp_path, capsys, monkeypatch):
    def swapped(formula):
        artifact = sat_to_vertex_cover(formula)
        embedding = {"x1": "v:~x1", "~x1": "v:x1"}
        return dataclasses.replace(artifact, embedding=embedding)

    monkeypatch.setitem(cli.PIPELINES, "sat2vc", ("cnf", partial(cli._certified, swapped)))
    src = write_doc(tmp_path / "f.json", "cnf", encode_cnf(cnf(1, [[1]])))
    out_path = tmp_path / "vc.json"
    code = main(["--out", str(out_path), "compile", src, "--pipeline", "sat2vc"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: reduction artifact failed certification: ")
    assert not out_path.exists()


def test_compile_sat2vc_reports_threshold(tmp_path, capsys):
    src = write_doc(tmp_path / "f.json", "cnf", encode_cnf(cnf(1, [[1]])))
    out_path = tmp_path / "vc.json"
    code = main(["--out", str(out_path), "compile", src, "--pipeline", "sat2vc"])
    assert code == 0
    assert "target_threshold=2" in capsys.readouterr().out
    assert load_document(out_path.read_text())["kind"] == "reduction-artifact"


def test_chained_pipeline_provenance_lists_steps_in_order(tmp_path, capsys):
    q = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    stage1 = tmp_path / "stage1.json"
    assert main(["--out", str(stage1), "compile", q, "--pipeline", "thm2"]) == 0
    stage2 = tmp_path / "stage2.json"
    assert main(["--out", str(stage2), "compile", str(stage1),
                 "--pipeline", "lift-feas"]) == 0
    doc = load_document(stage2.read_text())
    assert [p["step"] for p in doc["provenance"]] == ["thm2", "identity", "lift-feas"]


def test_chained_lift_min_from_cnf(tmp_path, capsys):
    f = cnf(2, [[1, 2]])
    base_doc = tmp_path / "pricing.json"
    from pricegame.problems import sat_problem
    from pricegame.serialize import encode_pricing as ep

    inst = PricingInstance(
        sat_problem(f),
        frozenset({"x1"}),
        {"x1": 2, "~x1": 0, "x2": 1, "~x2": 1},
        GroundChoice.SOLUTIONS,
    )
    write_doc(base_doc, "pricing", ep(inst))
    out_path = tmp_path / "lifted.json"
    assert main(["--out", str(out_path), "compile", str(base_doc),
                 "--pipeline", "lift-min"]) == 0
    doc = load_document(out_path.read_text())
    assert [p["step"] for p in doc["provenance"]] == ["sat2vc", "lift-min"]
    assert doc["payload"]["base"]["problem"] == "vertex-cover"


def test_solve_ground_override_switches_families(tmp_path, capsys):
    from pricegame.problems import subset_sum_problem

    base = subset_sum_problem(["a", "b"], {"a": 2, "b": 3}, target=3)
    inst = PricingInstance(
        base, frozenset({"a"}), {"a": 5, "b": 3}, GroundChoice.SOLUTIONS
    )
    path = write_doc(tmp_path / "ss.json", "pricing", encode_pricing(inst))
    assert main(["solve", path]) == 0
    assert "leader_value: 0/1" in capsys.readouterr().out
    assert main(["solve", path, "--ground", "feasible"]) == 0
    assert "leader_value: 2/1" in capsys.readouterr().out


def test_oracle_command(tmp_path, capsys):
    yes = write_doc(tmp_path / "y.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    no = write_doc(tmp_path / "n.json", "qdnf", encode_qdnf(qdnf(1, [{1, 2}])))
    assert main(["oracle", yes]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["oracle", no]) == 2
    assert capsys.readouterr().out.strip() == "false"


def test_solve_out_writes_the_stdout_bytes_to_the_file(tmp_path, capsys):
    path = two_item_pricing_doc(tmp_path)
    assert main(["solve", path, "--threshold", "2"]) == 0
    expected = capsys.readouterr().out
    out_path = tmp_path / "solved.txt"
    assert main(["solve", path, "--threshold", "2", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == expected
    assert expected.endswith("decision: true at threshold 2/1\n")


def test_oracle_out_writes_the_verdict_to_the_file(tmp_path, capsys):
    no = write_doc(tmp_path / "n.json", "qdnf", encode_qdnf(qdnf(1, [{1, 2}])))
    out_path = tmp_path / "verdict.txt"
    assert main(["--out", str(out_path), "oracle", no]) == 2
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == "false\n"


def test_sat2ss_names_a_variable_that_clashes_with_a_slack_item(tmp_path, capsys):
    src = write_doc(tmp_path / "f.json", "cnf", encode_cnf(cnf(1, [[1]], ["s1a"])))
    assert main(["compile", src, "--pipeline", "sat2ss"]) == 1
    err = capsys.readouterr().err
    assert err == "error: variable 's1a' clashes with the slack item 's1a' of clause 1\n"


def test_parse_error_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    bad.write_text(dump_document(make_document("cnf", encode_cnf(cnf(1, [[1]])))))
    assert main(["solve", str(bad)]) == 1


NEGATIVE_CAP = "pricegame: error: argument --cap: must be at least 0, got -1"


@pytest.mark.parametrize("argv, message", [
    (["--cap", "abc", "solve", "p.json"], "pricegame: error: argument --cap: invalid int value"),
    (["solve"], "pricegame solve: error: the following arguments are required: path"),
    (["compile", "q.json", "--pipeline", "nope"],
     "pricegame compile: error: argument --pipeline: invalid choice: 'nope'"),
    (["solve", "p.json", "--bogus"], "pricegame: error: unrecognized arguments: --bogus"),
    (["--cap", "-1", "solve", "p.json"], NEGATIVE_CAP),
    (["solve", "p.json", "--cap", "-1"], NEGATIVE_CAP),
], ids=["cap-not-an-int", "solve-without-path", "unknown-pipeline", "unknown-flag",
        "negative-cap-before-the-command", "negative-cap-after-the-command"])
def test_malformed_command_lines_exit_one(capsys, argv, message):
    # Exit 2 is a false decision, so a malformed command line must not use it.
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: pricegame")
    assert captured.err.splitlines()[-1].startswith(message)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pricegame")


def test_a_zero_cap_is_valid(tmp_path, capsys):
    # An explicit problem declares a walk of 2^0 steps.
    assert main(["--cap", "0", "solve", two_item_pricing_doc(tmp_path)]) == 0
    assert "leader_value: 2/1" in capsys.readouterr().out


def test_the_oracle_reads_the_cap(tmp_path, capsys):
    q = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    assert main(["--cap", "0", "oracle", q]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a search over 2 binary choices exceeds the enumeration cap of 0\n"
    )
    assert main(["--cap", "2", "oracle", q]) == 0
    assert capsys.readouterr().out == "true\n"


def vertex_cover_pricing_doc(tmp_path):
    base = vertex_cover_problem("uv", [("u", "v")], threshold=1)
    inst = PricingInstance(base, frozenset({"u"}), {"u": 1, "v": 1}, GroundChoice.SOLUTIONS)
    return write_doc(tmp_path / "vc.json", "pricing", encode_pricing(inst))


WRONG_INPUTS = {
    "cnf": lambda tmp_path: write_doc(tmp_path / "f.json", "cnf", encode_cnf(cnf(1, [[1]]))),
    "qdnf": lambda tmp_path: write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}]))),
    "pricing": two_item_pricing_doc,
    "pricing-over-vc": vertex_cover_pricing_doc,
}


@pytest.mark.parametrize("command, document, message", [
    (["compile", "--pipeline", "thm2"], "cnf", "thm2 expects a qdnf document"),
    (["compile", "--pipeline", "sat2vc"], "qdnf", "sat2vc expects a cnf document"),
    (["compile", "--pipeline", "sat2ss"], "qdnf", "sat2ss expects a cnf document"),
    (["compile", "--pipeline", "weight-lift"], "pricing",
     "weight-lift expects a reduction-artifact document"),
    (["compile", "--pipeline", "lift-min"], "cnf", "lift-min expects a pricing document"),
    (["compile", "--pipeline", "lift-max"], "pricing-over-vc",
     "this pipeline needs a pricing document over a sat base"),
    (["oracle"], "cnf", "oracle expects a qdnf document"),
    (["solve"], "qdnf", "solve expects a pricing document"),
], ids=["thm2-cnf", "sat2vc-qdnf", "sat2ss-qdnf", "weight-lift-pricing", "lift-min-cnf",
        "lift-max-vc-base", "oracle-cnf", "solve-qdnf"])
def test_wrong_document_kinds_are_one_line_errors(tmp_path, capsys, command, document, message):
    path = WRONG_INPUTS[document](tmp_path)
    assert main([command[0], path, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_malformed_documents_say_what_is_wrong(tmp_path, capsys):
    two_item_pricing_doc(tmp_path)
    payload = load_document((tmp_path / "two.json").read_text())["payload"]
    del payload["leader"]
    no_leader = write_doc(tmp_path / "no-leader.json", "pricing", payload)
    sat_doc = {"base": {"problem": "sat"}, "leader": ["x1"],
               "valuation": {"x1": 1, "~x1": 0}, "domain": "free",
               "ground": "solutions", "threshold": "0/1"}
    no_cnf = write_doc(tmp_path / "no-cnf.json", "pricing", sat_doc)
    vc_doc = dict(sat_doc, leader=[], valuation={"u": 1, "v": 1}, base={
        "problem": "vertex-cover", "vertices": ["u", "v"], "edges": [["u", "w"]],
        "weights": {"u": 1, "v": 1}, "threshold": 1})
    stray_edge = write_doc(tmp_path / "stray-edge.json", "pricing", vc_doc)
    explicit_doc = dict(sat_doc, leader=[], valuation={"a": 1}, base={
        "problem": "explicit", "universe": [["a", ""]], "sense": "feasibility",
        "weights": {"a": 0}, "threshold": 0, "feasible_sets": [["a", "b"]]})
    stray_set = write_doc(tmp_path / "stray-set.json", "pricing", explicit_doc)
    for path, wrong in ((no_leader, "missing the 'leader' field"),
                        (no_cnf, "missing the 'cnf' field"),
                        (stray_edge, "outside the vertex set"),
                        (stray_set, "inside the universe")):
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and wrong in err
    # A kind that is not a string is rejected before it is looked up.
    for k, kind in enumerate(("lop", [], {})):
        path = tmp_path / f"kind-{k}.json"
        path.write_text(json.dumps({"schema_version": "1", "kind": kind, "payload": {}}))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: unknown document kind {kind!r}\n"
    # Provenance nested past the recursion limit is refused when it is read,
    # or, where json reads 3,000 levels (Python 3.13), when it is written.
    for depth in (3_000, 100_000):
        doc = {"schema_version": "1", "kind": "qdnf", "payload": encode_qdnf(qdnf(1, [{1}])),
               "provenance": [{"deep": "here"}]}
        path = tmp_path / f"deep-{depth}.json"
        path.write_text(json.dumps(doc).replace('"here"', "[" * depth + "]" * depth))
        assert main(["compile", str(path), "--pipeline", "thm2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the document is nested too deeply to ")
        assert err.count("\n") == 1


def test_wrong_json_types_name_the_field_and_the_type(tmp_path, capsys):
    two_item_pricing_doc(tmp_path)
    payload = load_document((tmp_path / "two.json").read_text())["payload"]
    vc_base = {"problem": "vertex-cover", "vertices": ["u", "v"], "edges": [["u", "v"]],
               "weights": [1, 1], "threshold": 1}
    cases = (
        (dict(payload, threshold=3), "'threshold' must be a string, not an integer"),
        (dict(payload, valuation=[5, 3]), "'valuation' must be an object, not a list"),
        (dict(payload, leader=[], valuation={"u": 1, "v": 1}, base=vc_base),
         "'weights' must be an object, not a list"),
        (dict(payload, valuation={"eL": "5", "eF": 3}), "'valuation' must map ids to integers"),
    )
    for k, (wrong, message) in enumerate(cases):
        path = write_doc(tmp_path / f"wrong-{k}.json", "pricing", wrong)
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_nested_wrong_json_types_name_the_field(tmp_path, capsys):
    explicit_base = {"problem": "explicit", "universe": [["a", ""]], "sense": "feasibility",
                     "weights": {"a": 0}, "threshold": 0, "feasible_sets": [["a"]]}
    pricing = {"base": explicit_base, "leader": [], "valuation": {"a": 1},
               "domain": "free", "ground": "solutions", "threshold": "0/1"}
    cases = (
        ("oracle", "qdnf", {"pairs": 1, "terms": [1, 2]}, "'terms' must be a list of lists"),
        ("oracle", "qdnf", {"pairs": 1, "terms": [[1, "x"]]}, "each item an integer"),
        ("sat2vc", "cnf", {"num_vars": 1, "clauses": [1]}, "'clauses' must be a list of lists"),
        ("sat2vc", "cnf", {"num_vars": 2, "clauses": [[1]], "var_names": "ab"},
         "'var_names' must be a list"),
        ("solve", "pricing", dict(pricing, base=dict(explicit_base, feasible_sets=[["a"], 1])),
         "'feasible_sets' must be a list of lists"),
        ("solve", "pricing", dict(pricing, leader=[["a"]]), "'leader' must be a list, each item"),
        ("solve", "pricing", dict(pricing, base=dict(explicit_base, universe=["a"])),
         "'universe' must be a list of lists"),
        ("solve", "pricing", dict(pricing, valuation={"u": 1, "v": 1}, base={
            "problem": "vertex-cover", "vertices": ["u", "v"], "edges": [1],
            "weights": {"u": 1, "v": 1}, "threshold": 1}), "'edges' must be a list of lists"),
    )
    for k, (command, kind, payload, message) in enumerate(cases):
        path = write_doc(tmp_path / f"nested-{k}.json", kind, payload)
        argv = ["compile", path, "--pipeline", command] if command == "sat2vc" else [command, path]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def test_wrong_row_widths_name_the_field(tmp_path, capsys):
    explicit_base = {"problem": "explicit", "universe": [["a", ""]], "sense": "feasibility",
                     "weights": {"a": 0}, "threshold": 0, "feasible_sets": [["a"]]}
    vc_base = {"problem": "vertex-cover", "vertices": ["u", "v"], "edges": [["u", "v"]],
               "weights": {"u": 1, "v": 1}, "threshold": 1}
    pricing = {"leader": [], "domain": "free", "ground": "solutions", "threshold": "0/1"}
    universe = "payload field 'universe' must be a list of [id, label] pairs, not a row of"
    edges = "payload field 'edges' must be a list of [vertex, vertex] pairs, not a row of"
    cases = (
        (dict(explicit_base, universe=[["a"]]), {"a": 1}, f"{universe} 1"),
        (dict(explicit_base, universe=[["a", "", "b"]]), {"a": 1}, f"{universe} 3"),
        (dict(vc_base, edges=[["u"]]), {"u": 1, "v": 1}, f"{edges} 1"),
        (dict(vc_base, edges=[["u", "v"], ["u", "v", "u"]]), {"u": 1, "v": 1}, f"{edges} 3"),
    )
    for k, (base, valuation, message) in enumerate(cases):
        payload = dict(pricing, base=base, valuation=valuation)
        path = write_doc(tmp_path / f"row-{k}.json", "pricing", payload)
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("provenance", [5, "ab", None, {"step": "thm2"}, [1], [{"step": "a"}, "b"]])
def test_malformed_provenance_is_one_error_line(tmp_path, capsys, provenance):
    doc = make_document("qdnf", encode_qdnf(qdnf(1, [{1}])))
    doc["provenance"] = provenance
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "thm2.json"
    assert main(["--out", str(out), "compile", str(path), "--pipeline", "thm2"]) == 1
    assert capsys.readouterr().err == \
        "error: document field 'provenance' must be a list of objects\n"
    assert not out.exists()


def test_lift_past_the_cap_names_the_stage_on_stderr_only(tmp_path, capsys):
    q = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    compiled = tmp_path / "thm2.json"
    assert main(["--out", str(compiled), "compile", q, "--pipeline", "thm2"]) == 0
    capsys.readouterr()
    assert main(["compile", str(compiled), "--pipeline", "lift-min"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: lift-min certification of the vertex-cover target: a universe of 67 elements"
        " exceeds the enumeration cap of 24\n"
    )


def test_solve_past_the_cap_names_the_stage_on_stderr_only(tmp_path, capsys):
    q = write_doc(tmp_path / "q.json", "qdnf", encode_qdnf(qdnf(1, [{1}])))
    compiled = tmp_path / "thm2.json"
    assert main(["--out", str(compiled), "compile", q, "--pipeline", "thm2"]) == 0
    capsys.readouterr()
    assert main(["solve", str(compiled), "--cap", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: solve of the sat ground: a search over 9 binary choices"
        " exceeds the enumeration cap of 8\n"
    )


def test_zero_denominators_are_one_line_errors(tmp_path, capsys):
    path = two_item_pricing_doc(tmp_path)
    payload = load_document((tmp_path / "two.json").read_text())["payload"]
    zero = write_doc(tmp_path / "zero.json", "pricing", dict(payload, threshold="1/0"))
    for argv in (["solve", zero], ["solve", path, "--threshold", "1/0"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a rational needs a nonzero denominator: '1/0'\n"


def test_sweep_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--seed", "9", "verify-sweep", "--pairs", "1", "--max-terms", "2",
            "--count", "6"]
    assert main(["--out", str(a)] + args) == 0
    assert main(["--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["summary"] == {"total": 6, "matches": 6, "mismatches": 0, "errors": 0}
    ids = [r["instance_id"] for r in report["records"]]
    assert ids == sorted(ids)


def test_sweep_timings_add_elapsed_ms_to_every_record(tmp_path):
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    args = ["--seed", "9", "verify-sweep", "--pairs", "1", "--max-terms", "2",
            "--count", "3", "--exhaustive-pair"]
    assert main(["--out", str(plain)] + args) == 0
    assert main(["--out", str(timed)] + args + ["--timings"]) == 0
    plain_records = json.loads(plain.read_text())["records"]
    timed_records = json.loads(timed.read_text())["records"]
    assert all(r.pop("elapsed_ms") >= 0 for r in timed_records)
    assert timed_records == plain_records


def test_sweep_fault_injection_yields_exactly_one_mismatch(tmp_path):
    out = tmp_path / "faulty.json"
    code = main(["--out", str(out), "--seed", "9", "verify-sweep", "--pairs", "1",
                 "--max-terms", "2", "--count", "6", "--inject-fault", "2"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["mismatches"] == 1
    assert len(report["failures"]) == 1
    assert report["records"][2]["fault_injected"] is True


@pytest.mark.parametrize("index", ["7", "-1"])
def test_sweep_fault_outside_the_corpus_is_an_error(tmp_path, capsys, index):
    # A fault that lands on no instance would let the self-test pass
    # without testing anything.
    out = tmp_path / "faulty.json"
    code = main(["--out", str(out), "verify-sweep", "--pairs", "1", "--max-terms", "2",
                 "--count", "3", "--inject-fault", index])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: fault index {index} is outside the corpus of 3 instances\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field, least", [
    ("--pairs", "0", "pairs", 1),
    ("--max-terms", "0", "max_terms", 1),
    ("--count", "-1", "count", 0),
])
def test_sweep_rejects_a_corpus_it_cannot_build(tmp_path, capsys, flag, value, field, least):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "verify-sweep", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: corpus {field} must be at least {least}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--jobs", jobs, "verify-sweep", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


def test_run_sweep_takes_an_int_job_count():
    with pytest.raises(TypeError, match="jobs 2.0 is not an int"):
        run_sweep(CorpusSpec(pairs=1, max_terms=1, count=1, seed=0), jobs=2.0)


def test_corpus_spec_validates_its_fields():
    with pytest.raises(ValueError, match="corpus max_terms must be at least 1"):
        CorpusSpec(pairs=1, max_terms=0, count=3, seed=4)
    with pytest.raises(TypeError, match="count 2.0 is not an int"):
        CorpusSpec(pairs=1, max_terms=2, count=2.0, seed=4)
    assert CorpusSpec(pairs=1, max_terms=1, count=0, seed=4).count == 0


def test_sweep_records_cap_errors_as_anomalies(tmp_path):
    # Six-pair formulas compile into universes past the default cap; the
    # sweep must record that per instance instead of dying, and exit 1.
    out = tmp_path / "anomalies.json"
    code = main(["--out", str(out), "verify-sweep", "--pairs", "6",
                 "--max-terms", "2", "--count", "2"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["errors"] == 2
    assert all("cap" in r["anomaly"] for r in report["records"])


def test_a_sweep_below_twice_the_pairs_records_the_oracle_cap_error(tmp_path, capsys):
    out = tmp_path / "capped.json"
    assert main(["--out", str(out), "--cap", "3", "verify-sweep", "--pairs", "2",
                 "--count", "2"]) == 1
    assert "errors=2" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert {r["anomaly"] for r in report["records"]} == {
        "a search over 4 binary choices exceeds the enumeration cap of 3"
    }


@pytest.mark.parametrize("corrupt", [False, True])
def test_a_sweep_record_solves_once(monkeypatch, corrupt):
    solved = []
    solve = sweep.solve_pricing
    monkeypatch.setattr(sweep, "solve_pricing",
                        lambda inst, cap: solved.append(inst) or solve(inst, cap))
    record = sweep.check_one("one", qdnf(1, [{1}]), corrupt=corrupt)
    assert len(solved) == 1
    assert record["match"] is not corrupt


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    base = ["--seed", "4", "verify-sweep", "--pairs", "1", "--max-terms", "2",
            "--count", "4", "--exhaustive-pair"]
    assert main(["--out", str(serial)] + base) == 0
    assert main(["--out", str(parallel), "--jobs", "2"] + base) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# sha256 of the report below, the same at any --jobs; recorded while
# dump_document was json.dumps(indent=2, sort_keys=True), whose bytes the
# writer must keep.
SWEEP_REPORT_DIGEST = "8e006aa417533bec40d962889c3d9694c7a956f844af8646ce450bfe76c5283b"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_report_is_pinned(tmp_path, jobs):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), "--seed", "7", "--jobs", jobs, "verify-sweep",
                 "--pairs", "2", "--max-terms", "3", "--count", "50",
                 "--exhaustive-pair"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_REPORT_DIGEST


def test_sweep_pool_is_sized_by_its_corpus(monkeypatch):
    # The fake pool records its size and runs the tasks in this process.
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, tasks):
            return [func(*task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    three = CorpusSpec(pairs=1, max_terms=2, count=3, seed=4)
    assert dump_document(run_sweep(three, jobs=64)) == dump_document(run_sweep(three))
    assert sizes == [3]
    run_sweep(CorpusSpec(pairs=1, max_terms=2, count=1, seed=4), jobs=64)
    assert sizes == [3]


# sha256 over every run below: its argv (paths as file names), exit code,
# stdout and, on success with --out, the written document.  Recorded before
# the problem data, the lifts and PricingInstance were restructured; every
# pipeline's output bytes must stay as they were.
PIPELINE_DIGEST = "98b092d3ac519863610175679a130ba04330ee134d34e150f78f9ed64e975409"


def _pipeline_corpus():
    """Seeded one-pair qdnf payloads and pricing-over-sat payloads of 1-3 variables."""
    rng = random.Random(2024)
    qdnfs = [encode_qdnf(random_formula(rng, 1, 2)) for _ in range(4)]
    sources = []
    for k in range(6):
        num_vars = 1 + k % 3
        literals = [v for x in range(1, num_vars + 1) for v in (x, -x)]
        clauses = []
        for _ in range(rng.randint(1, 3)):
            variables = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
            clauses.append(sorted(v if rng.randint(0, 1) else -v for v in variables))
        names = {lit: f"x{lit}" if lit > 0 else f"~x{-lit}" for lit in literals}
        sources.append({
            "base": {"problem": "sat",
                     "cnf": {"num_vars": num_vars, "clauses": clauses}},
            "leader": sorted(names[lit] for lit in literals if rng.randint(0, 1)),
            "valuation": {names[lit]: rng.randint(0, 5) for lit in literals},
            "domain": "free",
            "ground": "solutions",
            "threshold": "1/1",
        })
    return qdnfs, sources


def test_every_pipeline_writes_the_pinned_bytes(tmp_path, capsys):
    digest = hashlib.sha256()

    def run(*argv, out=None):
        extra = ["--out", str(tmp_path / out)] if out else []
        code = main(extra + list(argv))
        shown = [a.rsplit("/", 1)[-1] for a in argv] + ([out] if out else [])
        digest.update(f"{' '.join(shown)}\nexit {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        if out and code == 0:
            digest.update((tmp_path / out).read_bytes())
        return str(tmp_path / out) if out else None

    qdnfs, sources = _pipeline_corpus()
    for k, payload in enumerate(qdnfs):
        q = write_doc(tmp_path / f"q{k}.json", "qdnf", payload)
        compiled = run("compile", q, "--pipeline", "thm2", out=f"thm2-{k}.json")
        run("solve", compiled)
        run("solve", run("compile", compiled, "--pipeline", "lift-feas",
                         out=f"thm2-feas-{k}.json"))
    # A thm2 base lifted through either gadget reduction exceeds the default cap.
    run("compile", compiled, "--pipeline", "lift-max", out="thm2-max.json")
    run("compile", compiled, "--pipeline", "lift-min", out="thm2-min.json")
    for k, payload in enumerate(sources):
        f = write_doc(tmp_path / f"f{k}.json", "cnf", payload["base"]["cnf"])
        vc = run("compile", f, "--pipeline", "sat2vc", out=f"vc-{k}.json")
        ss = run("compile", f, "--pipeline", "sat2ss", out=f"ss-{k}.json")
        run("compile", vc, "--pipeline", "weight-lift", out=f"wl-{k}.json")
        p = write_doc(tmp_path / f"p{k}.json", "pricing", payload)
        run("solve", p, "--threshold", "1")
        for pipeline in ("lift-max", "lift-min", "lift-feas"):
            run("solve", run("compile", p, "--pipeline", pipeline,
                             out=f"{pipeline}-{k}.json"))
    run("compile", ss, "--pipeline", "weight-lift", out="wl-ss.json")
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_ids_must_be_strings_and_weights_must_cover_the_items(tmp_path, capsys):
    pricing = {"leader": [], "domain": "free", "ground": "solutions", "threshold": "0/1"}
    vc_base = {"problem": "vertex-cover", "vertices": ["a", ["b"]], "edges": [],
               "weights": {"a": 1, "['b']": 1}, "threshold": 1}
    ss_base = {"problem": "subset-sum", "items": ["a", 3], "weights": {"a": 1, "3": 1},
               "target": 1}
    cases = [
        (dict(pricing, base=vc_base, valuation={"a": 1, "['b']": 1}),
         "payload field 'vertices' must be a list, each item a string"),
        (dict(pricing, base=ss_base, valuation={"a": 1, "3": 1}),
         "payload field 'items' must be a list, each item a string"),
        (dict(pricing, base=dict(ss_base, items=["a", "b"], weights={"a": 1}),
              valuation={"a": 1, "b": 1}),
         "weights must cover exactly the universe"),
    ]
    runs = [(["solve", write_doc(tmp_path / f"ids-{k}.json", "pricing", payload)], message)
            for k, (payload, message) in enumerate(cases)]
    src = write_doc(tmp_path / "f.json", "cnf", encode_cnf(cnf(1, [[1]])))
    built = tmp_path / "vc.json"
    assert main(["--out", str(built), "compile", src, "--pipeline", "sat2vc"]) == 0
    payload = load_document(built.read_text())["payload"]
    for k, image in enumerate((["v:x1"], 3)):
        embedding = dict(payload["embedding"], x1=image)
        path = write_doc(tmp_path / f"embedding-{k}.json", "reduction-artifact",
                         dict(payload, embedding=embedding))
        runs.append((["compile", path, "--pipeline", "weight-lift"],
                     "payload field 'embedding' must map ids to strings"))
    capsys.readouterr()
    for argv, message in runs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
