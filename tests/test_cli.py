import json

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
