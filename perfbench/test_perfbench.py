"""Self-tests of the benchmark: run with  python3 -m pytest -q perfbench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pricegame import pricing  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def loaded(request):
    w = workloads.WORKLOADS[request.param]
    return w, w.setup(3)


def test_correct_answer_passes_and_corrupted_answer_is_counted(loaded):
    w, inputs = loaded
    item = inputs.items[1]
    assert w.check(item, w.op(item))
    failures = run.Failures()
    seconds = run.run_checked(w, item, 1, failures,
                              lambda op, it: run.timed_call(lambda x: op(x, corrupt=True), it))
    assert seconds is not None and failures.count == 1
    assert failures.first == "input 1: wrong answer"


def test_raising_operation_is_counted_and_the_run_goes_on(loaded):
    w, inputs = loaded

    def boom(op, item):
        raise RuntimeError("injected")

    failures = run.Failures()
    assert run.run_checked(w, inputs.items[0], 0, failures, boom) is None
    assert failures.count == 1 and "injected" in failures.first


def test_same_seed_same_inputs(loaded):
    w, inputs = loaded
    assert w.setup(3).digest == inputs.digest
    assert w.setup(4).digest != inputs.digest


def test_tracing_restores_every_name_and_sees_the_layers(loaded):
    w, inputs = loaded
    before = pricing.solve_pricing
    tracer = spans.Tracer()
    tracer.mark_enumerated(inputs.warm)
    result, seconds = tracer.run_op(0, w.op, inputs.items[0])
    assert pricing.solve_pricing is before and seconds > 0
    assert w.check(inputs.items[0], result)
    metrics = spans.layer_metrics(tracer.spans, seconds)
    assert metrics["linprog.lp_calls"][0] >= 1
    assert metrics["pricing.signatures"][0] >= metrics["linprog.lp_calls"][0]


def test_self_time_subtracts_direct_children_only():
    tree = [
        ["op", 0.0, 10.0, None, 0, None],
        ["pricing.solve", 1.0, 9.0, 0, 0, None],
        ["linprog.solve_lp", 2.0, 5.0, 1, 0, None],
        ["linprog.solve_lp", 5.0, 6.0, 1, 0, None],
    ]
    assert spans.self_times(tree) == [2.0, 4.0, 3.0, 1.0]


def test_calibration_never_imports_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calib; "
            "calib.calibration_work(); print('pricegame' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
