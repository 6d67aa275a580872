import hashlib
import json
import random

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
from pricegame.problems import cnf
from pricegame.sweep import random_formula


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


def test_parse_error_is_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    bad.write_text(dump_document(make_document("cnf", encode_cnf(cnf(1, [[1]])))))
    assert main(["solve", str(bad)]) == 1


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
    lop = tmp_path / "lop.json"
    lop.write_text(json.dumps({"schema_version": "1", "kind": "lop", "payload": {}}))
    assert main(["solve", str(lop)]) == 1
    assert "unknown document kind 'lop'" in capsys.readouterr().err


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


def test_sweep_fault_injection_yields_exactly_one_mismatch(tmp_path):
    out = tmp_path / "faulty.json"
    code = main(["--out", str(out), "--seed", "9", "verify-sweep", "--pairs", "1",
                 "--max-terms", "2", "--count", "6", "--inject-fault", "2"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["mismatches"] == 1
    assert len(report["failures"]) == 1
    assert report["records"][2]["fault_injected"] is True


def test_sweep_records_cap_errors_as_anomalies(tmp_path):
    # Six-pair formulas compile into universes past the default cap; the
    # sweep must record that per instance instead of dying.
    out = tmp_path / "anomalies.json"
    code = main(["--out", str(out), "verify-sweep", "--pairs", "6",
                 "--max-terms", "2", "--count", "2"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["errors"] == 2
    assert all("cap" in r["anomaly"] for r in report["records"])


def test_sweep_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    base = ["--seed", "4", "verify-sweep", "--pairs", "1", "--max-terms", "2",
            "--count", "4", "--exhaustive-pair"]
    assert main(["--out", str(serial)] + base) == 0
    assert main(["--out", str(parallel), "--jobs", "2"] + base) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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
