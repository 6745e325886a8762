"""Episode-runtime benchmark: seeded trial grids through ``harness.run_bench``.

    python3 perfbench/run.py --workload grid_full --seed 3 --seconds 50 --trace 0

A closed loop with one caller and no extra threads: trials run back to back.
``--seed`` picks the run's first trial seed (see ``workloads.py``); the
program receives only the generated grids, as ``BenchConfig`` objects. Every
trial's (outcome, ticks, detail) and every pass's outcome digest are checked
against ``pinned.json``. A trial that raises is recorded with its exception
class and the batch goes on; raised and mismatched trials count as failed,
and a run with any failure exits with code 1.

``--trace 0`` runs passes of ``run_bench`` in this process, one new trial
seed per pass for every task, for ``--seconds``: every call is a cell's
first and only run in the process, as in a real batch. A shared host runs
this code up to 2x slower for stretches of seconds to minutes, so a fixed
canary trial runs in a process of its own before and after every measured
call (see :class:`Canary`), and each call's time is scaled to the fastest
host state of the run. Throughput is cells (or their ticks) per second of
summed scaled calls; the latency percentiles are over the scaled calls.
Set-up time is the median scaled time of fresh processes, run between the
passes, that import ``brainstem`` and build the config and backend.

``--trace 1`` runs one fixed grid with every layer's public functions
wrapped in spans and prints the per-layer metrics; rounds of the same grid
without tracing, in fresh processes for ``--seconds``, give
``trace_overhead``. Spans and a stamped result go to ``.perfbench_out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, patched  # noqa: E402
from workloads import (MAX_PASSES, ROOT, WORKLOADS, base_seed,  # noqa: E402
                       bench_config, cell_key, cell_value, import_brainstem,
                       load_pinned, outcome_digest, outcome_rows)

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 9
CANARY_WARM_UP = 5
CHILD_TIMEOUT_S = 150
# CPUs this process may use, before --trace 0 pins it to one
NPROC = len(os.sched_getaffinity(0))

# Runs in a fresh interpreter; the clock starts before brainstem is imported.
SETUP_CHILD = """
import time
start = time.perf_counter()
import json, sys
sys.path.insert(0, sys.argv[1])
from brainstem import harness
from brainstem.backends import ScriptedBackend
config = harness.BenchConfig(**json.loads(sys.argv[2]))
config.episode_config()
ScriptedBackend()
print(repr(time.perf_counter() - start))
"""

# Runs in a process of its own: CANARY_REPEATS canary trials per line read.
CANARY_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from brainstem import harness
from brainstem.backends import ScriptedBackend
config = harness.BenchConfig(tasks=(3,), mode="reactive_only").episode_config()
for _ in sys.stdin:
    seconds = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        harness.run_trial(3, 2, config, ScriptedBackend())
        seconds.append(repr(time.perf_counter() - start))
    print(" ".join(seconds), flush=True)
"""
CANARY_REPEATS = 3


class Canary:
    """A short fixed trial (``reactive_only``, task 3, seed 2, 219 ticks) in
    a process of its own, run ``CANARY_REPEATS`` times on demand while the
    measuring process waits.

    The shared host runs this code up to 2x slower for stretches of seconds
    to minutes. A measured call's time, times the canary's floor over the
    median of the canary trials just before and after the call, is the
    call's time at the run's fastest host state. The factor is a ratio
    of two canary times, so a program that gets faster everywhere still
    reads faster; and the canary's own process warms nothing in the
    measuring one.
    """

    def __init__(self):
        self.trials: list = []     # seconds of every canary trial
        self.group: list = []      # seconds of the latest group of repeats
        self._process = subprocess.Popen(
            [sys.executable, "-s", "-c", CANARY_CHILD,
             os.path.join(ROOT, "src"), str(CANARY_REPEATS)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    def sample(self) -> list:
        """Runs one group of canary trials; returns their seconds."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the canary process ended")
        self.group = [float(item) for item in line.split()]
        self.trials += self.group
        return self.group

    def gauge(self, before: list) -> float:
        """Runs a group of canary trials after a measured call; returns the
        median of it and ``before``, the group that ran before the call."""
        return statistics.median(before + self.sample())

    def floor(self) -> float:
        """The 1st percentile of the run's canary trials: its time at the
        fastest host state, without resting on a single lucky trial."""
        import numpy as np
        return float(np.quantile(self.trials, 0.01))

    def scaled(self, seconds: float, gauge: float) -> float:
        return seconds * self.floor() / gauge


class TrialLog:
    """Wraps ``run_trial``: times each call and contains its exceptions."""

    def __init__(self, episode, canary=None):
        self._episode = episode
        self._canary = canary
        # (task_id, seed, seconds, median canary trial around the call, or
        # 1.0 without a canary)
        self.calls: list = []
        self.errors: list = []

    def contain(self, run_trial):
        episode = self._episode
        canary = self._canary

        def contained(task_id, seed, config=None, backend=None):
            before = canary.group if canary else []
            start = time.perf_counter()
            try:
                return run_trial(task_id, seed, config, backend)
            except Exception as exc:
                # one bad trial must not end the batch; it counts as failed
                self.errors.append({"task_id": task_id, "seed": seed,
                                    "exception": type(exc).__name__,
                                    "traceback": traceback.format_exc()})
                return episode.TrialResult(
                    task_id, seed, episode.Outcome.FAILURE, 0, None,
                    f"raised {type(exc).__name__}")
            finally:
                seconds = time.perf_counter() - start
                gauge = canary.gauge(before) if canary else 1.0
                self.calls.append((task_id, seed, seconds, gauge))
        return contained


class Check:
    """Compares each pass with the pinned cells."""

    def __init__(self, workload, pinned):
        self.mode = workload.mode
        self.tasks = workload.tasks
        self.cells = pinned["cells"]
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.mismatches: list = []
        self.rows: list = []

    def batch(self, seeds, trials) -> None:
        """Count each cell that is missing or differs from its pinned value
        (a contained exception shows up as a differing cell), and compare
        the pass's outcome digest with the one of its pinned cells."""
        expected = {cell_key(t, s): [self.mode, t, s, *self.cells[cell_key(t, s)]]
                    for t in self.tasks for s in seeds}
        self.attempted += len(expected)
        seen = set()
        for trial in trials:
            key = cell_key(trial.task_id, trial.seed)
            seen.add(key)
            if key not in expected or expected[key][3:] != cell_value(trial):
                self.failed += 1
                self.mismatches.append({"cell": key, "got": cell_value(trial),
                                        "pinned": self.cells.get(key)})
        self.failed += len(expected.keys() - seen)
        rows = outcome_rows(self.mode, trials)
        self.rows += rows
        if outcome_digest(rows) != outcome_digest(list(expected.values())):
            self.digest_mismatches += 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "digest_mismatches": self.digest_mismatches,
                "mismatches": self.mismatches, "rows": self.rows}


def run_pass(harness, workload, first: int, columns: int, log: TrialLog,
             check: Check) -> float:
    """One ``run_bench`` grid; returns the seconds spent inside it."""
    config = bench_config(harness, workload, first, columns)
    start = time.perf_counter()
    try:
        trials = harness.run_bench(config).trials
    except Exception as exc:
        log.errors.append({"exception": type(exc).__name__,
                           "where": "run_bench",
                           "traceback": traceback.format_exc()})
        trials = []
    seconds = time.perf_counter() - start
    check.batch(range(first, first + columns), trials)
    return seconds


def child(workload, pinned, first: int, columns: int) -> int:
    """One untraced round for ``trace_overhead``: one pass of ``columns``
    consecutive trial seeds from ``first``. Prints it as one JSON line."""
    import_brainstem()
    from brainstem import episode, harness
    log = TrialLog(episode)
    check = Check(workload, pinned)
    with patched({harness.run_trial: log.contain(harness.run_trial)}, {}):
        spent = [run_pass(harness, workload, first, columns, log, check)]
    print(json.dumps({"calls": log.calls, "errors": log.errors,
                      "pass_seconds": spent, **check.summary()}))
    return 0


def run_round(args, first: int, columns: int) -> dict:
    command = [sys.executable, "-s", os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--child", f"{first},{columns}"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: round failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class Rounds:
    """The rounds of one grid, merged."""

    def __init__(self):
        self.rounds: list = []

    def add(self, result: dict) -> None:
        self.rounds.append(result)

    def fastest(self) -> dict:
        """cell key -> seconds of its fastest call."""
        best: dict = {}
        for result in self.rounds:
            for task_id, seed, seconds, *_ in result["calls"]:
                key = cell_key(task_id, seed)
                best[key] = min(seconds, best.get(key, seconds))
        return best

    def total(self, field: str):
        return sum(result[field] for result in self.rounds)

    def joined(self, field: str) -> list:
        return [item for result in self.rounds for item in result[field]]

    def spent(self) -> float:
        return sum(sum(result["pass_seconds"]) for result in self.rounds)


class SetupProbe:
    """Seconds for a fresh process to import brainstem and build config and
    backend, with the canaries around each sample."""

    def __init__(self, config, canary: Canary):
        self._kwargs = json.dumps(dataclasses.asdict(config))
        self._canary = canary
        self.samples: list = []    # (seconds, median canary trial around)

    def sample(self) -> None:
        before = self._canary.group
        child = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CHILD,
             os.path.join(ROOT, "src"), self._kwargs],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{child.stderr}")
        seconds = float(child.stdout.strip().splitlines()[-1])
        self.samples.append((seconds, self._canary.gauge(before)))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_sha() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "brainstem")
    paths = []
    for folder, dirs, files in os.walk(package):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(folder, name) for name in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def stamp(args, workload, seeds: list) -> dict:
    import numpy
    return {"git_sha": git_sha(), "source_sha256": source_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(),
            "nproc": NPROC,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workload": workload.params(), "trial_seeds": seeds}


def end_to_end(log: TrialLog, check: Check, setup: SetupProbe,
               canary: Canary) -> dict:
    import numpy as np
    ticks = {cell_key(row[1], row[2]): row[4] for row in check.rows}
    scaled = {cell_key(task_id, seed): canary.scaled(*timing)
              for task_id, seed, *timing in log.calls}
    busy = sum(scaled.values())
    p50, p90 = np.quantile([1000.0 * s for s in scaled.values()], [0.5, 0.9])
    return {
        "trials_per_s": len(scaled) / busy,
        "ticks_per_s": sum(ticks[key] for key in scaled) / busy,
        "trial_ms_p50": float(p50),
        "trial_ms_p90": float(p90),
        "setup_s": float(np.median([canary.scaled(*timing)
                                    for timing in setup.samples])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_share": (check.attempted - check.failed) / check.attempted,
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer: Tracer, names: list, overhead: float) -> dict:
    derived = {
        "trace_overhead": overhead,
        "episode.unattributed_ms": tracer.self_ms("harness.run_trial"),
        "agents.embed.distinct_ratio": ratio(
            len(tracer.embed_keys), tracer.total_calls("agents.embed")),
        "planner.generate_state_tree.distinct_ratio": ratio(
            len(tracer.tree_keys),
            tracer.total_calls("planner.generate_state_tree")),
        "protocol.make_envelope.bytes": tracer.envelope_bytes,
        "bus.next_message.hit_ratio": ratio(
            tracer.next_message_hits, tracer.total_calls("bus.next_message")),
        "bus.backlog_end": tracer.backlog_end,
        "bus.audit_len_end": tracer.audit_len_end,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = tracer.total_calls(name[:-len(".calls")])
        elif name.endswith(".self_ms"):
            values[name] = tracer.self_ms(name[:-len(".self_ms")])
        else:
            raise SystemExit(f"perfbench: no source for metric {name!r}")
    return values


def timed_batch(args, workload, pinned, first: int, canary: Canary):
    """One-seed passes from ``first`` in this process for ``--seconds``, the
    canary around every call, and ``SETUP_SAMPLES`` set-up probes spread
    over the passes. Returns the trial log, the check, the set-up probe and
    the seconds of each pass."""
    from brainstem import episode, harness
    log = TrialLog(episode, canary)
    check = Check(workload, pinned)
    setup = SetupProbe(bench_config(harness, workload, first, 1), canary)
    for _ in range(CANARY_WARM_UP):
        canary.sample()
    spent: list = []
    with patched({harness.run_trial: log.contain(harness.run_trial)}, {}):
        while len(spent) < MAX_PASSES and sum(spent) < args.seconds:
            spent.append(run_pass(harness, workload, first + len(spent), 1,
                                  log, check))
            if len(setup.samples) < min(
                    SETUP_SAMPLES, SETUP_SAMPLES * sum(spent) / args.seconds):
                setup.sample()
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    return log, check, setup, spent


def traced_grid(args, workload, pinned, base: int):
    """The traced grid in this process, after rounds of the same grid
    without tracing for ``--seconds``. Returns the tracer, the tracing
    overhead, the untraced rounds and the traced grid's log and check."""
    columns = workload.traced_seeds
    untraced = Rounds()
    while not untraced.rounds or untraced.spent() < args.seconds:
        untraced.add(run_round(args, base, columns))

    from brainstem import episode, harness
    tracer = Tracer()
    log = TrialLog(episode)
    check = Check(workload, pinned)
    functions, methods = tracer.instrumentation()
    functions[harness.run_trial] = log.contain(functions[harness.run_trial])
    with patched(functions, methods):
        run_pass(harness, workload, base, columns, log, check)
    # same cells, so the ratio of busy times is the inverse ratio of trials/s
    traced_busy = sum(seconds for _, _, seconds, *_ in log.calls)
    overhead = traced_busy / sum(untraced.fastest().values()) - 1
    return tracer, overhead, untraced, log, check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: FIRST,COLUMNS of one untraced round (see child())
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pinned = load_pinned(workload)
    if args.child:
        first, columns = args.child.split(",")
        return child(workload, pinned, int(first), int(columns))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    import_brainstem()
    from brainstem import harness
    base = base_seed(workload, args.seed)
    # seeds [base, base + traced_seeds) are the traced grid of --trace 1
    first = base + workload.traced_seeds

    if args.trace:
        tracer, overhead, rounds, log, check = traced_grid(
            args, workload, pinned, base)
        metrics = per_layer(tracer, list(units), overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"{workload.name}_seed{args.seed}_spans.npz"))
        seeds = [base, first - 1]
        traced = check.summary()
        attempted = rounds.total("attempted") + check.attempted
        failed = rounds.total("failed") + check.failed
        digest_mismatches = rounds.total("digest_mismatches") \
            + check.digest_mismatches
        mismatches = rounds.joined("mismatches") + check.mismatches
        errors = rounds.joined("errors") + log.errors
        cell_ms = {key: 1000.0 * seconds
                   for key, seconds in rounds.fastest().items()}
        details = {"digests": {
            "untraced": outcome_digest(rounds.rounds[0]["rows"]),
            "traced": outcome_digest(traced["rows"])},
            "untraced_rounds": len(rounds.rounds),
            "pass_seconds": [r["pass_seconds"] for r in rounds.rounds]}
    else:
        # the canary gauges the CPU the calls run on, so both use one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        with Canary() as canary:
            log, check, setup, spent = timed_batch(args, workload, pinned,
                                                   first, canary)
        metrics = end_to_end(log, check, setup, canary)
        seeds = [first, first + len(spent) - 1]
        attempted, failed = check.attempted, check.failed
        digest_mismatches = check.digest_mismatches
        mismatches, errors = check.mismatches, log.errors
        cell_ms = {cell_key(task_id, seed): 1000.0 * canary.scaled(*timing)
                   for task_id, seed, *timing in log.calls}
        details = {"digests": {"untraced": outcome_digest(check.rows)},
                   "pass_seconds": spent,
                   "calls": log.calls,
                   "canary_ms": [1000.0 * s for s in canary.trials],
                   "setup_samples": setup.samples}

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(units)}")
    correct = failed == 0 and digest_mismatches == 0
    result = {"stamp": stamp(args, workload, seeds), "cell_ms": cell_ms,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_share": failed / attempted,
              "digest_mismatches": digest_mismatches, "errors": errors,
              "mismatches": mismatches, "metrics": metrics, **details}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(
            OUT_DIR, f"{workload.name}_seed{args.seed}_trace{args.trace}.json"),
            "w", encoding="utf-8") as sink:
        json.dump(result, sink, indent=1, sort_keys=True)

    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    print(f"{workload.name}: {len(cell_ms)} cells timed, "
          f"{attempted} trials checked; "
          f"{'all cells and digests match' if correct else 'DOES NOT MATCH'} "
          f"pinned, failed_share {failed / attempted:.6g}")
    for mismatch in mismatches[:20]:
        print(f"  mismatch {json.dumps(mismatch)}")
    for error in errors[:5]:
        print(f"  error {error['exception']} "
              f"at {error.get('task_id', error.get('where'))}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
