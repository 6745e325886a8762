"""Write perfbench/pinned.json from the current program's outputs.

Runs every cell any run can reach, once, through ``harness.run_bench`` and
records its (outcome, ticks, detail). Re-pin only in a change that fixes
behaviour, and list the cells that moved. About five minutes on a 2-core x86
host.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (PINNED_PATH, WORKLOADS, bench_config,  # noqa: E402
                       cell_key, cell_value, import_brainstem)


def pin(harness, workload) -> dict:
    config = bench_config(harness, workload, 0, workload.pool())
    trials = harness.run_bench(config).trials
    return {"params": workload.params(), "pool": workload.pool(),
            "cells": {cell_key(t.task_id, t.seed): cell_value(t)
                      for t in trials}}


def dumps(doc: dict) -> str:
    """JSON with one line per cell, so a re-pin diffs cell by cell."""
    blocks = []
    for name, entry in sorted(doc["workloads"].items()):
        cells = ",\n".join(f"    {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in sorted(entry["cells"].items()))
        blocks.append(
            f"  {json.dumps(name)}: {{\n"
            f"   \"params\": {json.dumps(entry['params'], sort_keys=True)},\n"
            f"   \"pool\": {entry['pool']},\n"
            f"   \"cells\": {{\n{cells}\n   }}\n  }}")
    return "{\"workloads\": {\n" + ",\n".join(blocks) + "\n}}\n"


def main() -> int:
    import_brainstem()
    from brainstem import harness
    doc = {"workloads": {}}
    for name, workload in WORKLOADS.items():
        print(f"pinning {name}", flush=True)
        doc["workloads"][name] = pin(harness, workload)
    with open(PINNED_PATH, "w", encoding="utf-8") as sink:
        sink.write(dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
