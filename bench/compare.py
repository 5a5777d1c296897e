"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE NEW

BASE and NEW are ``results.jsonl`` files written by ``bench/run.py`` (or
directories holding one), typically from the parent commit and from a
change, each with several seeds per workload.  For every workload and
end-to-end metric it prints each side's median and quartiles and a
verdict:

- ``unresolved``: either side's quartile spread exceeds the bound, unless
  every NEW run beats every BASE run, which is ``better``;
- ``worse``: NEW's median is worse than BASE's by more than the bound;
- ``better``: NEW wins at least nine tenths of all (NEW, BASE) pairs and
  the medians differ by more than BASE's own quartile spread;
- ``unchanged``: otherwise.

The exit status is 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[dict, dict]:
    """End-to-end values by workload and metric, and the machine facts."""
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    values: dict[str, dict[str, list[float]]] = {}
    machine: dict = {}
    for line in p.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        info = record["info"]
        if info["trace"]:
            continue
        machine = info["machine"]
        per_metric = values.setdefault(info["workload"], {})
        for name, metric in record["result"]["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values, machine


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    wins = [sign * (n - b) < 0 for n in new for b in base]
    if max(spread(base), spread(new)) > bound:
        return "better" if all(wins) else "unresolved"
    if worse_by > bound:
        return "worse"
    if sum(wins) >= 0.9 * len(wins) and -worse_by > spread(base):
        return "better"
    return "unchanged"


def _summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (base, base_machine), (new, new_machine) = load(argv[0]), load(argv[1])
    if base_machine != new_machine:
        print(f"note: machines differ\n  base {base_machine}\n  new  {new_machine}")
    worse = False
    for workload in sorted(set(base) & set(new)):
        print(f"\n{workload}")
        print(f"  {'metric':14s} {'bound':>5s}  {'base median [q1, q3]':>36s}  "
              f"{'new median [q1, q3]':>36s}  {'change':>7s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            word = verdict(b, n, metric["better"], metric["bound"])
            worse |= word == "worse"
            change = statistics.median(n) / statistics.median(b) - 1.0
            print(f"  {name:14s} {metric['bound']:5.2f}  {_summary(b):>36s}  "
                  f"{_summary(n):>36s}  {change:+7.1%}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
