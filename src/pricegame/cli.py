"""Command line surface.

Subcommands: solve (run the exact bilevel solver on a pricing document),
compile (run one reduction pipeline and write the result with provenance),
oracle (exhaustively decide a quantified DNF document), verify-sweep (batch
compile-and-compare against the oracle, emitting a deterministic report).

Exit codes: 0 success / decision true, 2 decision false, 3 unbounded, 4 no
follower solution, 1 anything malformed or a sweep with a mismatch or error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial

from .compilers import (
    compile_qdnf_pricing,
    lift_feas,
    lift_max,
    lift_min,
    qdnf_holds,
    weight_lift,
)
from .core import (
    CapExceededError,
    CertificationError,
    DEFAULT_CAP,
    check_reduction,
    identity_reduction,
)
from .pricing import Domain, GroundChoice, SolveStatus, meets_threshold, solve_pricing
from .problems import SatProblem, sat_problem, sat_to_subset_sum, sat_to_vertex_cover
from .rational import format_rational, parse_rational
from .serialize import (
    DECODERS,
    dump_document,
    encode_artifact,
    encode_pricing,
    load_document,
    make_document,
    pricing_summary,
)
from .sweep import CorpusSpec, run_sweep

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSE = 2
EXIT_UNBOUNDED = 3
EXIT_NO_FOLLOWER = 4


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a malformed command line exits 1; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_global_flags(parser) -> None:
    # SUPPRESS keeps unprovided copies from clobbering the root defaults,
    # so the flags work both before and after the subcommand.
    parser.add_argument("--cap", type=int, default=argparse.SUPPRESS, metavar="N",
                        help="enumeration cap, at least 0: bounds each walk, the "
                             f"oracle's included, at 2^N steps (default {DEFAULT_CAP})")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for generated corpora")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for sweeps")
    parser.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (defaults to stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pricegame",
        description="Exact solver and reduction pipelines for combinatorial pricing games.",
    )
    parser.set_defaults(cap=DEFAULT_CAP, seed=0, jobs=1, out=None)
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a pricing document exactly")
    solve.add_argument("path")
    solve.add_argument("--domain", choices=[d.value for d in Domain],
                       help="override the price-domain restriction")
    solve.add_argument("--threshold", help="decide at this rational threshold (a/b)")
    solve.add_argument("--ground", choices=[g.value for g in GroundChoice],
                       help="override the follower ground family")

    compile_cmd = sub.add_parser("compile", help="run one reduction pipeline")
    compile_cmd.add_argument("path")
    compile_cmd.add_argument("--pipeline", choices=PIPELINES, required=True)

    oracle = sub.add_parser("oracle", help="decide a qdnf document exhaustively")
    oracle.add_argument("path")

    sweep = sub.add_parser("verify-sweep", help="compile a corpus and compare with the oracle")
    sweep.add_argument("--pairs", type=int, default=2)
    sweep.add_argument("--max-terms", type=int, default=3)
    sweep.add_argument("--count", type=int, default=50)
    sweep.add_argument("--exhaustive-pair", action="store_true",
                       help="prepend the exhaustive one-pair corpus")
    sweep.add_argument("--inject-fault", type=int, default=None,
                       help="corrupt the instance at this index (harness self-test)")
    sweep.add_argument("--timings", action="store_true",
                       help="record wall-clock timings (breaks byte reproducibility)")

    for command in (solve, compile_cmd, oracle, sweep):
        _add_global_flags(command)
    return parser


def _read(path: str, kind: str, reader: str):
    """The decoded value of the document at path and its provenance; reader needs kind."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = load_document(handle.read())
    if doc["kind"] != kind:
        raise ValueError(f"{reader} expects a {kind} document")
    return DECODERS[kind](doc["payload"]), doc["provenance"]


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    inst, _ = _read(args.path, "pricing", "solve")
    decide = args.threshold is not None
    inst = dataclasses.replace(
        inst,
        domain=Domain(args.domain) if args.domain else inst.domain,
        ground=GroundChoice(args.ground) if args.ground else inst.ground,
        threshold=parse_rational(args.threshold) if decide else inst.threshold,
    )
    solution = solve_pricing(inst, args.cap)
    decision = None
    if decide and solution.status is not SolveStatus.NO_FOLLOWER_SOLUTION:
        decision = meets_threshold(inst, solution)
    _write(args, "\n".join(pricing_summary(inst, solution, decision)) + "\n")
    if solution.status is SolveStatus.NO_FOLLOWER_SOLUTION:
        return EXIT_NO_FOLLOWER
    if solution.status is SolveStatus.UNBOUNDED:
        return EXIT_UNBOUNDED
    if decide and not decision:
        return EXIT_FALSE
    return EXIT_OK


def _thm2(formula, cap, name):
    compiled = compile_qdnf_pricing(formula)
    return ("pricing", encode_pricing(compiled.pricing), compiled.provenance,
            f"price_unit={compiled.price_unit} decision_threshold={compiled.pricing.threshold}")


def _certified(reduce, formula, cap, name):
    """Reduce a formula, certifying the artifact against its sat problem."""
    artifact = reduce(formula)
    source = sat_problem(formula)
    report = check_reduction(source, artifact, cap)
    if not report.passed:
        raise CertificationError(report)
    return ("reduction-artifact", encode_artifact(artifact, source), artifact.provenance,
            f"target_threshold={artifact.target.threshold}")


def _lifted(lift, reduce, inst, cap, name):
    """Lift a pricing game over a sat base along the artifact reduce(base)."""
    if not isinstance(inst.base, SatProblem):
        raise ValueError("this pipeline needs a pricing document over a sat base")
    artifact = reduce(inst.base)
    lifted, params = lift(inst, artifact, cap)
    step = {"step": name, "params": {
        "weight_scale": params.weight_scale,
        "target_optimum": params.target_optimum,
        "threshold": format_rational(lifted.threshold),
    }}
    return ("pricing", encode_pricing(lifted), [*artifact.provenance, step],
            f"weight_scale={params.weight_scale}")


def _weight_lifted(decoded, cap, name):
    source, artifact = decoded
    image = artifact.image_ids()
    target = weight_lift(artifact.target, image)
    step = {"step": name, "params": {"scale": len(image) + 1, "threshold": target.threshold}}
    return ("reduction-artifact",
            encode_artifact(dataclasses.replace(artifact, target=target), source), [step],
            f"lifted_threshold={target.threshold}")


# Pipeline name -> (the document kind it reads, its step), in --help order.
# A step takes the decoded document, the cap and the pipeline's name, and
# returns the output kind and payload, the provenance steps it appends and
# the line it prints.
PIPELINES = {
    "thm2": ("qdnf", _thm2),
    "sat2vc": ("cnf", partial(_certified, sat_to_vertex_cover)),
    "sat2ss": ("cnf", partial(_certified, sat_to_subset_sum)),
    "lift-max": ("pricing", partial(_lifted, lift_max, lambda b: sat_to_subset_sum(b.formula))),
    "lift-min": ("pricing", partial(_lifted, lift_min, lambda b: sat_to_vertex_cover(b.formula))),
    "lift-feas": ("pricing", partial(_lifted, lift_feas, identity_reduction)),
    "weight-lift": ("reduction-artifact", _weight_lifted),
}

def _cmd_compile(args) -> int:
    kind, step = PIPELINES[args.pipeline]
    decoded, provenance = _read(args.path, kind, args.pipeline)
    out_kind, payload, steps, line = step(decoded, args.cap, args.pipeline)
    text = dump_document(make_document(out_kind, payload, [*provenance, *steps]))
    # The line goes to stdout ahead of the document, or once the file is written.
    _write(args, text if args.out else f"{line}\n{text}")
    if args.out:
        print(line)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    formula, _ = _read(args.path, "qdnf", "oracle")
    verdict = qdnf_holds(formula, args.cap)
    _write(args, "true\n" if verdict else "false\n")
    return EXIT_OK if verdict else EXIT_FALSE


def _cmd_sweep(args) -> int:
    spec = CorpusSpec(pairs=args.pairs, max_terms=args.max_terms, count=args.count,
                      seed=args.seed, exhaustive_pair=args.exhaustive_pair)
    report = run_sweep(spec, cap=args.cap, jobs=args.jobs,
                       inject_fault=args.inject_fault, timed=args.timings)
    _write(args, dump_document(report))
    summary = report["summary"]
    print(
        f"total={summary['total']} matches={summary['matches']} "
        f"mismatches={summary['mismatches']} errors={summary['errors']}",
        file=sys.stderr,
    )
    return EXIT_OK if summary["mismatches"] == summary["errors"] == 0 else EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cap < 0:
        parser.error(f"argument --cap: must be at least 0, got {args.cap}")
    handlers = {
        "solve": _cmd_solve,
        "compile": _cmd_compile,
        "oracle": _cmd_oracle,
        "verify-sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (CapExceededError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
