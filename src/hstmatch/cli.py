"""Command-line harness: generate, run, sweep, and embed subcommands.

All randomness flows from --seed; re-running any subcommand with the same
arguments reproduces its output files byte for byte. Runtime failures exit
nonzero after printing a single JSON error line to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .generators import FAMILIES, GeneratorSpec, generate_instance
from .harness import (
    ALGORITHMS,
    pipeline_setup,
    report_to_dict,
    run_algorithm,
    sweep,
    sweep_csv,
    trace_csv,
)
from .hst import EmbeddingParams, frt_embed, tree_to_dict
from .metric import load_instance, save_instance

__all__ = ["main"]


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path, data) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        seed=args.seed,
        dim=args.dim,
        coord_range=args.coord_range,
    )
    inst = generate_instance(spec)
    save_instance(inst, args.output)
    print(json.dumps({"written": str(args.output), "family": args.family, "n": inst.n}))
    return 0


def _cmd_run(args) -> int:
    inst = load_instance(args.instance)
    record = run_algorithm(inst, args.algorithm, args.seed, args.episodes, keep_rows=bool(args.output))
    report = report_to_dict(record)
    if args.output:
        _write_text(args.output, trace_csv(record))
    if args.report:
        _write_json(args.report, report)
    print(json.dumps(report))
    return 0


def _cmd_sweep(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    algorithms = [a for a in args.algorithms.split(",") if a]
    rows = sweep(args.family, sizes, algorithms, args.episodes, args.seed, dim=args.dim, coord_range=args.coord_range)
    _write_text(args.output, sweep_csv(rows))
    print(json.dumps({"written": str(args.output), "rows": len(rows)}))
    return 0


def _cmd_embed(args) -> int:
    inst = load_instance(args.instance)
    setup = pipeline_setup(inst)
    lam = args.lam if args.lam is not None else setup.lam
    tree = frt_embed(setup.servers, EmbeddingParams(lam=lam, seed=args.seed))
    dump = tree_to_dict(tree)
    if args.dump_tree:
        _write_json(args.dump_tree, dump)
        print(json.dumps({"written": str(args.dump_tree), "height": tree.height, "leaves": len(tree.leaves)}))
    else:
        print(json.dumps(dump))
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy seeds streams from non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hstmatch",
        description="Online matching harness: instance generators, algorithm runs, sweeps, embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an instance JSON for one adversary family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--dim", type=int, default=2, help="dimension for the euclidean family")
    p.add_argument("--coord-range", type=float, default=100.0, help="coordinate span for the line family")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one algorithm on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", help="trace CSV path")
    p.add_argument("--report", help="report JSON path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="ratio statistics across sizes and algorithms")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 2,4,8")
    p.add_argument("--algorithms", default="rwgm,greedy", help="comma-separated algorithm tags")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--coord-range", type=float, default=100.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("embed", help="embed an instance's server submetric into one random tree")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--dump-tree", help="tree JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already reported usage problems
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
