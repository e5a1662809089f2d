"""Compare two sets of benchmark results written with ``run.py --out``.

Usage::

    python3 perfbench/compare.py --base base/*.json --head head/*.json

Results are grouped by workload and trace mode.  For each metric the
tool prints both sides' median and quartiles and the head's change
against the base median; an end-to-end metric whose head median is worse
than the base median by more than its bound in ``BENCHMARK.json`` is
flagged, and the exit code is 1.  Files measured on different hosts
(``environment.host``) are refused, as are sets mixing hosts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: List[Path]) -> List[dict]:
    return [json.loads(path.read_text()) for path in paths]


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, middle, high


def group(rows: List[dict]) -> Dict[tuple, Dict[str, List[float]]]:
    groups: Dict[tuple, Dict[str, List[float]]] = {}
    for row in rows:
        metrics = groups.setdefault((row["workload"], row["trace"]), {})
        for name, metric in row["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--head", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    hosts = {json.dumps(row["environment"]["host"], sort_keys=True)
             for row in base + head}
    if len(hosts) != 1:
        print("refusing to compare results from different environments:",
              file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"] + spec["per_layer"]}
    base_groups, head_groups = group(base), group(head)
    regressions = 0
    for key in sorted(set(base_groups) & set(head_groups)):
        workload, trace = key
        runs = {side: len(next(iter(groups[key].values())))
                for side, groups in (("base", base_groups),
                                     ("head", head_groups))}
        print(f"\n{workload} (trace {trace}): {runs['base']} base runs, "
              f"{runs['head']} head runs")
        print(f"{'metric':<32}{'base median [q1, q3]':>34}"
              f"{'head median [q1, q3]':>34}{'change':>9}")
        for name in base_groups[key]:
            if name not in head_groups[key]:
                continue
            b_low, b_mid, b_high = quartiles(base_groups[key][name])
            h_low, h_mid, h_high = quartiles(head_groups[key][name])
            change = (h_mid - b_mid) / b_mid if b_mid else float("nan")
            worse = change if better.get(name) == "lower" else -change
            flag = ""
            if trace == 0 and name in bounds and worse > bounds[name]["bound"]:
                flag = "  REGRESSION"
                regressions += 1
            print(f"{name:<32}{b_mid:>14.5g} [{b_low:.4g}, {b_high:.4g}]"
                  f"{h_mid:>14.5g} [{h_low:.4g}, {h_high:.4g}]"
                  f"{change:>+9.1%}{flag}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
