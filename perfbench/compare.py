"""Compare two sets of benchmark results; refuse when their environments differ.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records as run.py writes them to
`.perfbench/results/`. Records are comparable only when they agree on every
field of run.COMPARABLE_ENV (CPU count and model, Python, numpy, kernel
backend); the commit and source digest are expected to differ. For every
workload and metric present on both sides it prints each side's median,
quartiles and sample count, and the ratio of the medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import COMPARABLE_ENV


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result records in {directory}")
    return records


def summary(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    envs = {
        tuple((key, r["environment"][key]) for key in COMPARABLE_ENV)
        for r in base + new
    }
    if len(envs) != 1:
        print("refusing to compare results from different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {dict(env)}", file=sys.stderr)
        return 2
    grouped: dict[tuple[str, str], dict[str, list[float]]] = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for metric, m in r["metrics"].items():
                sides = grouped.setdefault((r["workload"], metric), {"base": [], "new": []})
                sides[side].append(m["value"])
    print(f"environment: {dict(envs.pop())}")
    for (workload, metric), sides in sorted(grouped.items()):
        if not sides["base"] or not sides["new"]:
            continue
        b, n = statistics.median(sides["base"]), statistics.median(sides["new"])
        ratio = f"{n / b:.3f}x" if b else "-"
        print(f"{workload} {metric}: base {summary(sides['base'])}  "
              f"new {summary(sides['new'])}  new/base {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
