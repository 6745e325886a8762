#!/usr/bin/env python3
"""Run the eight-task benchmark under every agent configuration in ``MODES``.

Writes one batch per configuration into the output directory and prints the
markdown tables. Roughly a minute at the default 2 evals x 25 trials.

    python3 scripts/run_benchmark.py --out results/ --trials 25 --evals 2
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from brainstem.episode import MODES  # noqa: E402
from brainstem.harness import BenchConfig, emit_report, run_bench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="results")
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--evals", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for mode in MODES:
        out_dir = os.path.join(args.out, mode)
        config = BenchConfig(mode=mode, trials_per_eval=args.trials,
                             evals=args.evals, base_seed=args.seed,
                             out_dir=out_dir)
        batch = run_bench(config)
        report = emit_report(batch, "md",
                             path=os.path.join(out_dir, "report.md"))
        emit_report(batch, "csv", path=os.path.join(out_dir, "report.csv"))
        print(f"\n## configuration: {mode}\n")
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
