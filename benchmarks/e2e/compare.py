"""Compare two commits' benchmark runs, pair by pair, against the bounds.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--trace 1]

Each file holds ``run.py --json`` records of one commit.  Run the two
commits in alternating pairs (parent first on odd pairs, change first on
even ones), at least ten pairs per workload; record *i* of the parent
pairs with record *i* of the change, per workload.

One row per workload x metric: each side's median and quartiles, the
change in the median, pairs won by the change, the metric's bound and a
verdict:

* ``regressed``  - the change's median is worse than the parent's by
  more than the bound;
* ``improved``   - the change won at least 9/10 of >= 10 pairs (ties
  count for neither) and the medians differ by more than the parent's
  own quartile spread;
* ``unresolved`` - neither of the above, but the parent's quartile
  spread is wider than the bound and not every change run beats every
  parent run, so "unchanged" cannot be told from noise;
* ``unchanged``  - none of the above.

The verdicts are tried in this order: a regression larger than the
bound is reported however noisy the parent was.

Per-layer metrics (``--trace 1``) have no bound: their rows say
``improved``, ``worsened`` (the same win rule, the other way) or
``unchanged``.  A gain does not count when the change failed more
operations than the parent.  Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Row:
    parent: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    change_frac: float  # change median / parent median - 1
    wins: int
    pairs: int
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, statistics.median(values), q3)


def judge(
    parent: list[float], change: list[float], better: str, bound: float | None
) -> Row:
    """The verdict for one metric from paired runs of two commits."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = min(len(parent), len(change))
    p, c = quartiles(parent), quartiles(change)
    worse = sign * (c[1] - p[1]) / p[1]
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    spread = p[2] - p[0]
    every_run_better = all(sign * (b - a) < 0 for a in parent for b in change)
    resolved = pairs >= MIN_PAIRS_FOR_GAIN and abs(p[1] - c[1]) > spread
    if bound is not None and worse > bound:
        verdict = "regressed"
    elif resolved and wins >= WIN_SHARE * pairs and worse < 0:
        verdict = "improved"
    elif bound is None and resolved and losses >= WIN_SHARE * pairs and worse > 0:
        verdict = "worsened"
    elif bound is not None and spread / p[1] > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Row(p, c, c[1] / p[1] - 1.0, wins, pairs, verdict)


def load(path: Path, trace: int) -> dict[str, list[dict]]:
    """Workload -> its results in file order (runs of other sizes skipped)."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == trace and record["size"] == "bench":
                    runs[record["workload"]].append(record["result"])
    return runs


def compare(
    parent_path: Path, change_path: Path, trace: int, spec: dict
) -> tuple[list[str], int]:
    """The table's lines and the number of regressed rows."""
    parent, change = load(parent_path, trace), load(change_path, trace)
    metrics = spec["per_layer" if trace else "end_to_end"]
    lines = [
        f"{'workload':16} {'metric':34} {'parent median [q1, q3]':30} "
        f"{'change median [q1, q3]':30} {'change':>8} {'wins':>6} {'bound':>6}  verdict"
    ]
    regressed = 0
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        n = min(len(a_runs), len(b_runs))
        more_failures = sum(r["failed"] for r in b_runs[:n]) > sum(r["failed"] for r in a_runs[:n])
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[:n] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs[:n] if name in r["metrics"]]
            if not a or not b or quartiles(a)[1] == 0:
                continue
            bound = metric.get("bound")
            row = judge(a, b, metric["better"], bound)
            verdict = row.verdict
            if verdict == "improved" and more_failures:
                verdict = "unchanged (more failures)"
            regressed += verdict == "regressed"
            lines.append(
                f"{workload:16} {name:34} "
                f"{_fmt(row.parent):30} {_fmt(row.change):30} "
                f"{row.change_frac:+8.1%} {row.wins:>3}/{row.pairs:<2} "
                f"{'-' if bound is None else f'{bound:.2f}':>6}  {verdict}"
            )
    return lines, regressed


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="run.py --json records of the parent")
    parser.add_argument("change", type=Path, help="run.py --json records of the change")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="compare per-layer (1) instead of end-to-end (0) metrics")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regressed = compare(args.parent, args.change, args.trace, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
