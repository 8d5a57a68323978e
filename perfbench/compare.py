"""Compare two sets of benchmark runs, or summarize one.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the standard output of runs of perfbench/run.py, one
file per run.  For each workload and metric it prints both medians and
quartiles.  With two sets it gives a verdict:

- improved: the change wins at least 9/10 of the pairs (paired by seed,
  ties count for neither), the medians differ by more than the parent's
  interquartile range, and the change fails no larger share of its ops;
- no worse: the change's median is within the metric's bound of the
  parent's;
- unresolved: the parent's own spread is wider than the bound, and not every
  run of the change reads better than every run of the parent;
- worse: otherwise.

The failure ratio (failed / attempted ops) is compared per workload as well.
With one set it prints each metric's spread, the interquartile range as a
share of the median, next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict:
    """(workload, trace) -> {seed: result}, from every file with a result line."""
    runs = defaultdict(dict)
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), None)
        if env is None or not lines[-1].startswith("{"):
            continue
        runs[(env["workload"], env["trace"])][env["seed"]] = json.loads(lines[-1])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(base: list, new: list, direction: str, bound: float | None, pairs: list, more_failures: bool) -> str:
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins = sum(better(n, b, direction) for b, n in pairs)
    won = bool(pairs) and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > bq3 - bq1
    if won and not more_failures:
        return f"improved ({wins}/{len(pairs)} pairs)"
    if bound is None:
        return f"not improved{': more ops fail' if won else ''} ({wins}/{len(pairs)} pairs)"
    worse_by = (nmed - bmed) / bmed if direction == "lower" else (bmed - nmed) / bmed
    all_better = all(better(n, b, direction) for n in new for b in base)
    if (bq3 - bq1) / bmed > bound and not all_better:
        return "unresolved (parent spread exceeds bound)"
    if worse_by <= bound:
        return f"no worse ({100 * worse_by:+.1f}% vs bound {100 * bound:.0f}%)"
    return f"worse ({100 * worse_by:+.1f}% vs bound {100 * bound:.0f}%)"


def fail_ratio(results: dict) -> tuple[int, int]:
    return sum(r["failed"] for r in results.values()), sum(r["attempted"] for r in results.values())


def fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    base_runs = load_runs(args.parent)
    new_runs = load_runs(args.change) if args.change else {}
    if not base_runs:
        print(f"no runs in {args.parent}", file=sys.stderr)
        return 2
    for key in sorted(base_runs):
        workload, trace = key
        base = base_runs[key]
        new = new_runs.get(key, {})
        kind = "per-layer" if trace else "end-to-end"
        print(f"\n== {workload} ({kind}; {len(base)} parent runs" + (f", {len(new)} change runs)" if args.change else ")"))
        failed, attempted = fail_ratio(base)
        line = f"   fail_ratio parent {failed}/{attempted} = {failed / attempted:.4f}"
        more_failures = False
        if new:
            nf, na = fail_ratio(new)
            more_failures = nf / na > failed / attempted
            change = "more failures" if more_failures else "no more failures"
            line += f"; change {nf}/{na} = {nf / na:.4f} ({change})"
        print(line)
        incorrect = [s for s, r in {**base, **new}.items() if not r["correct"]]
        if incorrect:
            print(f"   runs with unexpected failures (correct=false): seeds {sorted(incorrect)}")
        seeds = sorted(set(base) & set(new))
        for metric in metrics[trace]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base.values()]
            if not args.change:
                q1, med, q3 = quartiles(b)
                spread = (q3 - q1) / med if med else float("nan")
                bound = metric.get("bound")
                note = "" if bound is None else f"  spread {100 * spread:5.2f}% (bound {100 * bound:.0f}%, a third {100 * bound / 3:.1f}%)"
                print(f"   {name:48s} {fmt(b)} {metric['unit']}{note}")
                continue
            if not new:
                continue
            n = [r["metrics"][name]["value"] for r in new.values()]
            pairs = [(base[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"]) for s in seeds]
            if not pairs:
                pairs = list(zip(b, n))
            print(f"   {name:48s} parent {fmt(b)}  change {fmt(n)} {metric['unit']}")
            print(f"   {'':48s} -> {verdict(b, n, metric['better'], metric.get('bound'), pairs, more_failures)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
