#!/usr/bin/env python3
"""The pricegame benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, own process

Run from the root of a checkout; the package is imported from ./src.  One
process runs one workload: it sets up (seeded input generation, imports,
warm-up), then runs operations back to back for --seconds, checking every
answer against an independent oracle.  A failed check, a raised exception
or CapExceededError counts as a failed operation and the run goes on.

--trace 0 reports the end-to-end metrics.  Operation times are divided by
the time of the stdlib calibration loop in calib.py, measured next to them
in the same process, so they are in calibration units (cal) and survive the
host's slow and fast phases; raw milliseconds are reported beside them.
--trace 1 runs every input twice, untraced and traced in alternating order,
and reports per-layer self times and counts from spans (see spans.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full report, and the spans of a traced
run, go to perfbench-results/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calib import time_calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench-results"

WORKLOAD_NAMES = ("sweep", "lift-chain", "domain-resolve")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
DEFAULT_SECONDS = 30

SETUP_RUNS = 3        # this process plus two fresh ones; setup_s is their median
# setup_s is normalised like every other timing, then given in seconds of a
# reference host on which one cal takes 10 ms: on a shared 2-cpu host the
# loop's median drifted 1.7x within an hour, which raw seconds would report
# as a regression.
CAL_REFERENCE_S = 0.010
CAL_EVERY_S = 0.05    # busy time between calibration samples
CAL_WINDOW = 2        # an operation is normalised by the 2 + 2 nearest samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import pricegame from this checkout's src, refusing any other copy."""
    if not (SRC / "pricegame" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'pricegame'}; run from a checkout root")
    sys.path[:0] = [str(SRC), str(HERE)]
    import pricegame

    if not Path(pricegame.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: pricegame imported from {pricegame.__file__}, not {SRC}")


def timed_setup(name: str, seed: int):
    """Import, input generation and warm-up: (seconds, cal, inputs)."""
    cal = [time_calibration() for _ in range(3)][1:]  # the first call faults pages in
    start = time.perf_counter()
    import_package()
    import workloads

    inputs = workloads.WORKLOADS[name].setup(seed)
    seconds = time.perf_counter() - start
    cal += [time_calibration() for _ in range(2)]
    return seconds, seconds / statistics.median(cal), inputs


def fresh_setups(name: str, seed: int, count: int) -> list[dict]:
    results = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


class Failures:
    def __init__(self):
        self.count = 0
        self.first = None

    def record(self, item_index: int, reason: str) -> None:
        self.count += 1
        if self.first is None:
            self.first = f"input {item_index}: {reason}"


def run_checked(w, item, index: int, failures: Failures, call):
    """Time one operation through call(op, item), then check it, untimed."""
    try:
        result, seconds = call(w.op, item)
    except Exception as err:  # the run must go on; the failure is counted
        failures.record(index, "".join(traceback.format_exception_only(err)).strip())
        return None
    try:
        ok = w.check(item, result)
    except Exception as err:
        failures.record(index, "check raised " + repr(err))
        return seconds
    if not ok:
        failures.record(index, "wrong answer")
    return seconds


def timed_call(op, item):
    start = time.perf_counter()
    result = op(item)
    return result, time.perf_counter() - start


def measure(w, inputs, seconds: float, failures: Failures):
    """Closed loop for `seconds`; returns operation and calibration samples."""
    ops, cal = [], []
    gc.collect()
    deadline = time.perf_counter() + seconds
    last_cal = -math.inf
    k = 0
    while (now := time.perf_counter()) < deadline:
        if now - last_cal >= CAL_EVERY_S:
            cal.append((now, time_calibration()))
            last_cal = time.perf_counter()
        index = k % len(inputs.items)
        started = time.perf_counter()
        elapsed = run_checked(w, inputs.items[index], index, failures, timed_call)
        ops.append((started, elapsed))
        k += 1
    cal.append((time.perf_counter(), time_calibration()))
    return ops, cal


def normalise(ops, cal) -> list[float]:
    """Each operation's seconds over the median of its nearest calibration samples."""
    times = [t for t, _ in cal]
    out = []
    for started, elapsed in ops:
        if elapsed is None:
            continue
        i = bisect.bisect_left(times, started)
        window = [c for _, c in cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW]]
        out.append(elapsed / statistics.median(window))
    return out


def end_to_end(args, w, inputs, setups: list[dict]) -> tuple[dict, dict]:
    failures = Failures()
    ops, cal = measure(w, inputs, args.seconds, failures)
    op_cal = normalise(ops, cal)
    if len(op_cal) < 2:
        raise SystemExit(f"error: {len(op_cal)} operations completed; first failure: {failures.first}")
    op_ms = [1000 * e for _, e in ops if e is not None]
    attempted = len(ops)
    metrics = {
        "op_cal.p50": (statistics.median(op_cal), "cal"),
        "op_cal.p90": (quantile(op_cal, 0.9), "cal"),
        "ops_per_kcal": (1000 * (attempted - failures.count) / sum(op_cal), "1/kcal"),
        "setup_s": (CAL_REFERENCE_S * statistics.median(s["setup_cal"] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "samples": len(op_cal),
        "samples_above_p90": sum(1 for x in op_cal if x > metrics["op_cal.p90"][0]),
        "failed_ratio": failures.count / attempted,
        "first_failure": failures.first,
        "cal_ms.p50": 1000 * statistics.median(c for _, c in cal),
        "cal_samples": len(cal),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": quantile(op_ms, 0.9),
        "setup_cal.samples": [s["setup_cal"] for s in setups],
        "setup_raw_s.samples": [s["setup_raw_s"] for s in setups],
    }
    return metrics, {"attempted": attempted, "failed": failures.count, **detail}


def traced(args, w, inputs) -> tuple[dict, dict]:
    import spans

    tracer = spans.Tracer()
    tracer.mark_enumerated(inputs.warm)
    failures = Failures()
    untraced_s = 0.0
    attempted = 0
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    k = 0
    while time.perf_counter() < deadline:
        index = k % len(inputs.items)
        item = inputs.items[index]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                run_checked(w, item, index, failures,
                            lambda op, it: tracer.run_op(k, op, it))
            else:
                untraced_s += run_checked(w, item, index, failures, timed_call) or 0.0
            attempted += 1
        k += 1
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write_spans(tracer.spans, spans_path)
    metrics = spans.layer_metrics(tracer.spans, untraced_s)
    return metrics, {"attempted": attempted, "failed": failures.count,
                     "failed_ratio": failures.count / attempted,
                     "first_failure": failures.first, "spans": len(tracer.spans),
                     "spans_file": str(spans_path.relative_to(ROOT)),
                     "shares": spans.shares(metrics)}


def run_one(args) -> int:
    seconds, cal, inputs = timed_setup(args.workload, args.seed)
    import workloads

    w = workloads.WORKLOADS[args.workload]
    setup = {"setup_raw_s": seconds, "setup_cal": cal, "digest": inputs.digest}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if not args.trace:
        setups = [setup] + fresh_setups(args.workload, args.seed, SETUP_RUNS - 1)
        if any(s["digest"] != inputs.digest for s in setups):
            raise SystemExit("error: the same seed generated different inputs")
        metrics, detail = end_to_end(args, w, inputs, setups)
    else:
        metrics, detail = traced(args, w, inputs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": inputs.digest,
        "inputs": len(inputs.items),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.system()}",
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print_human(report)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def print_human(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"inputs {report['inputs']} (digest {report['inputs_digest']})  "
          f"{report['seconds']} s  trace {report['trace']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<26} {report['failed_ratio']:>14.6g} "
          f"({report['failed']} of {report['attempted']})")
    if "samples" in report:
        print(f"  samples {report['samples']} ({report['samples_above_p90']} above p90); "
              f"cal {report['cal_ms.p50']:.3f} ms p50 over {report['cal_samples']}; "
              f"raw op_ms p50 {report['op_ms.p50']:.3f} p90 {report['op_ms.p90']:.3f}")
    if "shares" in report:
        print("  share of traced op time: " + ", ".join(
            f"{name.removesuffix('_s')} {share:.1%}"
            for name, share in sorted(report["shares"].items(), key=lambda kv: -kv[1])))
    if report["first_failure"]:
        print(f"  first failure: {report['first_failure']}")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
