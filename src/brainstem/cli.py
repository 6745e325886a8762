"""Command-line interface: run benchmark batches, aggregate, render reports."""

from __future__ import annotations

import argparse
import sys

from .episode import MODES, EpisodeConfig
from .errors import BrainstemError, ConfigError, IoError, SchemaViolation
from .harness import (BACKENDS, BenchConfig, EvalBatch, aggregate, emit_report,
                      reference_aggregates, run_bench)
from .protocol import is_finite_number, parse_json
from .simenv import TASK_IDS


def _parse_tasks(text: str) -> tuple:
    if text == "all":
        return TASK_IDS
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(f"--task must be 'all' or a comma list of task "
                          f"ids, got {text!r}") from None


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path}: not UTF-8 ({exc})") from None
    return parse_json(text, path)


def _parse_ratios(text: str) -> tuple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3 or parts[0] != 1:
        raise argparse.ArgumentTypeError(
            "ratios must be 1,<memory_period>,<deliberative_period>")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brainstem",
        description="Desk-scale multi-agent orchestration benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded benchmark trials")
    run_p.add_argument("--task", default="all",
                       help="task id, comma list, or 'all'")
    run_p.add_argument("--config", default="full", choices=MODES,
                       help="agent configuration")
    run_p.add_argument("--seeds", type=int, default=0, help="base seed")
    run_p.add_argument("--trials", type=int, default=25,
                       help="trials per evaluation block")
    run_p.add_argument("--evals", type=int, default=2,
                       help="evaluation blocks per task")
    run_p.add_argument("--backend", default="scripted",
                       choices=BACKENDS,
                       help="completion backend (remote reads BRAINSTEM_* env)")
    run_p.add_argument("--ratios", type=_parse_ratios,
                       default=(1, EpisodeConfig.memory_period,
                                EpisodeConfig.deliberative_period),
                       help="reactive,memory,deliberative periods in ticks")
    run_p.add_argument("--out", default=None, help="output directory")

    agg_p = sub.add_parser("aggregate",
                           help="aggregate eval arrays (mean, sample std)")
    agg_p.add_argument("--input", default="fixtures",
                       help="'fixtures' or a JSON file of {name: [values]}")

    rep_p = sub.add_parser("report", help="render a saved batch as a table")
    rep_p.add_argument("--format", default="md",
                       choices=("md", "csv", "json"))
    rep_p.add_argument("--input", required=True, help="batch.json path")
    rep_p.add_argument("--out", default=None, help="report file path")
    return parser


def _cmd_run(args) -> int:
    config = BenchConfig(
        tasks=_parse_tasks(args.task),
        mode=args.config,
        trials_per_eval=args.trials,
        evals=args.evals,
        base_seed=args.seeds,
        backend=args.backend,
        memory_period=args.ratios[1],
        deliberative_period=args.ratios[2],
        out_dir=args.out,
    )
    batch = run_bench(config)
    sys.stdout.write(emit_report(batch, "md"))
    return 0


def _cmd_aggregate(args) -> int:
    if args.input == "fixtures":
        for record in reference_aggregates():
            flag = "" if record["consistent"] else \
                f"  [printed {record['printed_avg']} is inconsistent with " \
                "its raw array]"
            sys.stdout.write(
                f"{record['model']:8s} {record['category']:14s} "
                f"avg={record['computed_avg']:g} "
                f"std={record['computed_std']:.4g}{flag}\n")
        return 0
    doc = _read_json(args.input)
    if not isinstance(doc, dict) or not all(
            isinstance(values, list) and all(map(is_finite_number, values))
            for values in doc.values()):
        raise SchemaViolation(f"{args.input}: expected an object of "
                              "name -> list of finite numbers")
    for name, values in doc.items():
        avg, std = aggregate(values)
        sys.stdout.write(f"{name}: avg={avg:g} std={std:.4g}\n")
    return 0


def _cmd_report(args) -> int:
    batch = EvalBatch.from_doc(_read_json(args.input))
    text = emit_report(batch, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "aggregate":
            return _cmd_aggregate(args)
        return _cmd_report(args)
    except BrainstemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
