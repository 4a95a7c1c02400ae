"""Compare two sets of E23 result files: parent runs against change runs.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` document.  For every workload × end-to-end
metric (and ``failed_share``) it prints both sets' medians and quartiles
and one verdict, by the bounds in ``BENCHMARK.json`` and the rules of the
``choosing-metrics`` guide (§6.5, §8):

- ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound (``failed_share``: any increase);
- ``improved`` — there are at least ten pairs (i-th file against i-th
  file), the change wins at least nine tenths of them (ties counting for
  neither) *and* the medians differ by more than the parent's own spread
  (its interquartile range);
- ``unresolved`` — neither, and a set's spread is wider than the bound,
  so "no regression" cannot be told from noise — unless every run of the
  change reads better than every run of the parent;
- ``unchanged`` — otherwise.

Exit code 1 when anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10  # fewer cannot claim a gain, whatever they show
SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: "list[str]") -> "dict[tuple[str, str], list[float]]":
    """``(workload, metric) -> values`` in file order; failed runs of a
    metric (``None``) are dropped."""
    values: "dict[tuple[str, str], list[float]]" = {}
    for path in paths:
        with open(path) as handle:
            for result in json.load(handle)["results"]:
                rows = {name: metric["value"]
                        for name, metric in result["end_to_end"].items()}
                rows["failed_share"] = result["failed_share"]
                for name, value in rows.items():
                    if value is not None:
                        values.setdefault((result["workload"], name), []).append(value)
    return values


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(parent: "list[float]", change: "list[float]", better: str,
            bound: float) -> str:
    """One verdict for one workload × metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 means worse
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    worse_by = sign * (c_med - p_med)
    if worse_by > bound * abs(p_med):
        return "regressed"
    pairs = [(a, b) for a, b in zip(parent, change) if a != b]
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if (min(len(parent), len(change)) >= MIN_PAIRS and pairs
            and wins >= 0.9 * len(pairs) and -worse_by > p3 - p1):
        return "improved"
    spread = max((p3 - p1) / abs(p_med) if p_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    clear = all(sign * (b - a) < 0 for a in parent for b in change)
    if spread > bound and not clear:
        return "unresolved"
    return "unchanged"


def compare(parent_paths: "list[str]", change_paths: "list[str]") -> "list[dict]":
    spec = json.loads(SPEC.read_text())
    gates = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    gates["failed_share"] = ("lower", 0.0)  # any increase is a regression
    parent, change = load(parent_paths), load(change_paths)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric, (better, bound) in gates.items():
            a, b = parent.get((workload, metric)), change.get((workload, metric))
            if not a or not b:
                continue
            rows.append({
                "workload": workload, "metric": metric, "bound": bound,
                "parent": quartiles(a), "change": quartiles(b),
                "runs": (len(a), len(b)),
                "verdict": verdict(a, b, better, bound)})
    return rows


def main(argv: "list[str]") -> int:
    if "--" not in argv or argv[0] == "--" or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    rows = compare(argv[:split], argv[split + 1:])
    print(f"{'workload':16s} {'metric':14s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s}  verdict")
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.5g}" for v in q)  # noqa: E731
        print(f"{row['workload']:16s} {row['metric']:14s} "
              f"{fmt(row['parent']):>34s} {fmt(row['change']):>34s}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
