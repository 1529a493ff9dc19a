"""Run alternating benchmark pairs of a parent tree and a change tree and compare their medians.

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD --out pairs.json

Both trees run the change tree's ``BENCHMARK.json`` ``command`` from their own root, with
``--workload``, ``--seed`` and ``--seconds`` (its ``run_seconds``). It always runs ``PAIRS``
(10) pairs, the fewest from which a gain may be claimed. Pair i runs both trees
on seed i + 1; the parent runs first in even pairs and the change first in odd ones. Each
run's last standard-output line must be the benchmark's JSON result with ``correct`` true
and ``failed`` 0; otherwise the script stops with exit 1.

For each end-to-end metric it prints both medians, the relative change, the parent's
quartile spread relative to its median, the change's wins (ties count for neither) and one
verdict, checked in this order:
- ``gain``: the change wins at least 9 pairs in 10 and the medians are further apart than
  the parent's quartile spread;
- ``worse``: the change's median is worse than the parent's by more than the metric's bound;
- ``unresolved``: either side's quartile spread, relative to the parent's median, is wider
  than the bound, and not every change run reads better than every parent run;
- ``no worse`` otherwise.

Every run's metric values, the order of each pair and the verdicts go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no result or reported a failure."""


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, relative change, spread, wins and verdict of one metric over aligned pairs."""
    sign = 1.0 if better == "higher" else -1.0  # a positive signed difference is a gain
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    spread = quartile_spread(parent)
    gain = sign * (mid_c - mid_p)
    relative_spread = max(spread, quartile_spread(change)) / abs(mid_p)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(parent) and gain > spread:
        label = "gain"
    elif -gain / abs(mid_p) > bound:
        label = "worse"
    elif relative_spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "no worse"
    return {
        "parent_median": mid_p,
        "change_median": mid_c,
        "relative_change": (mid_c - mid_p) / abs(mid_p),
        "parent_spread": spread / abs(mid_p),
        "wins": wins,
        "pairs": len(parent),
        "verdict": label,
    }


def parse_result(stdout: str) -> dict:
    """The metric values of a run's last line, refused unless it reports a correct run."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, json.JSONDecodeError, KeyError, TypeError, AttributeError):
        raise RunFailed("the last line is not the benchmark's JSON result") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"correct {result.get('correct')}, failed {result.get('failed')}")
    return metrics


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=max(600, 20 * seconds))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{tree}: seed {seed} timed out") from None
    if done.returncode != 0:
        raise RunFailed(f"{tree}: seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    try:
        return parse_result(done.stdout)
    except RunFailed as exc:
        raise RunFailed(f"{tree}: seed {seed}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's tree")
    parser.add_argument("change", type=Path, help="the change's tree")
    parser.add_argument("workload")
    parser.add_argument("--out", type=Path, required=True, help="JSON file for every run")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    try:
        for index in range(PAIRS):
            seed = index + 1
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], spec["command"], args.workload, seed,
                                      spec["run_seconds"])
            pairs.append(pair)
            print(f"pair {index + 1}/{PAIRS} (seed {seed}, {order[0]} first) done",
                  file=sys.stderr)
    except RunFailed as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    summary = {}
    print(f"{args.workload}: {PAIRS} pairs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        row = verdict([pair["parent"][name] for pair in pairs],
                      [pair["change"][name] for pair in pairs],
                      metric["better"], metric["bound"])
        summary[name] = row
        print(f"  {name}: parent {row['parent_median']:.6g}, change {row['change_median']:.6g} "
              f"({row['relative_change']:+.1%}), parent spread {row['parent_spread']:.1%}, "
              f"wins {row['wins']}/{row['pairs']}: {row['verdict']}")
    doc = {"workload": args.workload, "pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
