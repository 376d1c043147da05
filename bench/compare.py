"""``python3 -m bench compare BASE.json HEAD.json``: the A/B verdict.

Both files are ``bench run --out`` lists.  Runs of one workload pair up
in file order (base run i against head run i), so record them alternating
which side runs first.  Every workload x end-to-end metric gets one
verdict, with the bounds of BENCHMARK.json:

* **unresolved** when either side's spread (quartile distance over
  median) exceeds the bound, unless every head run beats every base run;
* **improved** when head wins at least 9 in 10 pairs and the medians
  differ by more than the base quartile distance;
* **regressed** when the head median is worse than the base median by
  more than the bound;
* **within bound** otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.runner import ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """(label, pairs won by head, pairs formed)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    h1, hmed, h3 = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    spread = max((b3 - b1) / abs(bmed), (h3 - h1) / abs(hmed))
    all_better = all(sign * (h - b) > 0 for b in base for h in head)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (hmed - bmed) > b3 - b1:
        return "improved", wins, len(pairs)
    if sign * (bmed - hmed) / abs(bmed) > bound:
        return "regressed", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _runs(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for record in json.loads(path.read_text()):
        if record.get("trace") or record.get("smoke"):
            continue
        by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def compare(base_path: Path, head_path: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = _runs(base_path), _runs(head_path)
    header = (f"{'workload':<13} {'metric':<15} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} {'change':>8} {'won':>6}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for workload in [w for w in base if w in head]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            h = [r["metrics"][name]["value"] for r in head[workload]]
            label, wins, pairs = judge(b, h, metric["better"], metric["bound"])
            regressed = regressed or label == "regressed"
            bq, hq = quartiles(b), quartiles(h)
            print(
                f"{workload:<13} {name:<15} "
                f"{bq[1]:>10.4g} [{bq[0]:>7.4g}, {bq[2]:>7.4g}] "
                f"{hq[1]:>10.4g} [{hq[0]:>7.4g}, {hq[2]:>7.4g}] "
                f"{(hq[1] - bq[1]) / bq[1]:>+8.1%} {wins:>2}/{pairs:<3}  {label}"
            )
    return 1 if regressed else 0
