#!/usr/bin/env python3
"""Study the dynamic-deletion race on the long-horizon fetch task.

The target disappears 60 virtual seconds in; nominal completion sits near
64 s, so only fast seeds beat the window. Prints the completion-time
distribution, the success/abort split, and how quickly the collective reacts
to the perturbation.

    python3 scripts/deletion_race.py --seeds 100
"""

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from brainstem.episode import (MODES, EpisodeConfig, Outcome,  # noqa: E402
                               run_trial)
from brainstem.simenv import DELETION_TICK, TICKS_PER_SECOND  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--mode", default="full", choices=MODES)
    args = parser.parse_args()

    config = EpisodeConfig(mode=args.mode)
    outcomes = Counter()
    finish_times = []
    react_delays = []
    for seed in range(args.seeds):
        result = run_trial(8, seed, config)
        outcomes[result.outcome.value] += 1
        if result.outcome is Outcome.SUCCESS:
            finish_times.append(result.ticks_elapsed)
        elif result.outcome is Outcome.HANDLED_ABORT:
            react_delays.append(result.ticks_elapsed - DELETION_TICK)

    print(f"mode={args.mode} seeds={args.seeds} deletion at "
          f"{DELETION_TICK / TICKS_PER_SECOND:.0f}s")
    print(f"outcomes: {dict(outcomes)}")
    if finish_times:
        mean = sum(finish_times) / len(finish_times)
        print(f"successful completions: {len(finish_times)} "
              f"(mean {mean / TICKS_PER_SECOND:.2f}s, all before the window)")
    if react_delays:
        worst = max(react_delays)
        print(f"aborts reacted within {worst / TICKS_PER_SECOND:.1f}s of the "
              f"deletion (bounded by one deliberative period, "
              f"{config.deliberative_period / TICKS_PER_SECOND:.0f}s)")
    if args.mode == "reactive_only" and not finish_times and not react_delays:
        print("reactive-only never succeeds and never aborts: once the "
              "deletion takes the apple, its grasp can never succeed, and "
              "the episode ends at its timeout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
