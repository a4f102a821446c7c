#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two checkouts.

Usage:
    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N \
        [--seconds S] [--seed SEED]

Runs the benchmark command of ``CHANGE_TREE/BENCHMARK.json`` (``python3
perfbench/run.py``) with ``--workload W --seconds S --trace 0`` (and
``--seed SEED`` when given) in each tree, N pairs of one run per tree, with the tree that runs first
alternating from pair to pair, so that the machine's drift falls on both
sides alike.  Each run is a process of its own, started in its tree.

For every end-to-end metric of ``BENCHMARK.json`` it prints each run's
value, then both medians, both interquartile ranges, the pairs the change
wins (a lower or higher value, as the metric's ``better`` says) and
whether the gap between the medians exceeds the parent's interquartile
range.  Each run's ``correct`` is printed beside its values.  The runs
write only what ``perfbench/run.py`` writes, under each tree's
``perfbench/out/``.  Exit status 0 when every run was correct.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, command: list[str]) -> dict:
    """The last stdout line of the benchmark ``command`` run in ``tree``,
    parsed: the ``{"correct", "attempted", "failed", "metrics"}`` summary."""
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from the benchmark in {tree}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (the 'inclusive' method: 0 apart for one value)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="the workload seed; the benchmark's default when omitted")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    command = [*benchmark["command"], "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", "0"]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in trees}

    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            summary = run_once(trees[side], command)
            runs[side].append(summary)
            values = " ".join(f"{m['name']}={summary['metrics'][m['name']]['value']}"
                              for m in metrics)
            print(f"pair {pair + 1} {side:6} correct={summary['correct']} {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of --seconds {args.seconds:g}")
    for m in metrics:
        name, sign = m["name"], -1.0 if m["better"] == "lower" else 1.0
        side_values = {side: [math.nan if r["metrics"][name]["value"] is None
                              else r["metrics"][name]["value"] for r in runs[side]]
                       for side in trees}
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(side_values["parent"], side_values["change"]))
        medians = {side: statistics.median(v) for side, v in side_values.items()}
        iqrs = {side: quartiles(v) for side, v in side_values.items()}
        gap = abs(medians["change"] - medians["parent"])
        parent_iqr = iqrs["parent"][1] - iqrs["parent"][0]
        print(f"{name} ({m['unit']}, {m['better']} is better):")
        for side in trees:
            q1, q3 = iqrs[side]
            print(f"  {side:6} median {medians[side]:.6g}  IQR {q1:.6g}..{q3:.6g} "
                  f"({q3 - q1:.3g})  runs {', '.join(f'{v:.6g}' for v in side_values[side])}")
        better = sign * (medians["change"] - medians["parent"]) > 0
        print(f"  change wins {wins} of {args.pairs}; medians {gap:.3g} apart "
              f"({'better' if better else 'not better'}), "
              f"{'more' if gap > parent_iqr else 'not more'} than the parent's IQR")
    correct = all(r["correct"] for side in trees for r in runs[side])
    print(f"every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
