"""Compare two perfbench run records (``.perfbench/results/*.json``)::

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both runs with its relative change, marking an
end-to-end metric that got worse by more than its bound in BENCHMARK.json.
Refuses (exit 2) to compare runs of different workloads or trace modes, or
whose environment differs: CPU count, worker count, kernel availability or
Python version.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(base: dict, new: dict, spec: dict) -> list:
    """Report lines; raises ValueError when the runs are not comparable."""
    for key in ("workload", "trace", "env"):
        if base.get(key) != new.get(key):
            raise ValueError(f"runs differ in {key}: {base.get(key)!r} vs "
                             f"{new.get(key)!r}")
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    directions = {m["name"]: m["better"] for m in spec.get("per_layer", [])}
    directions.update({name: m["better"] for name, m in bounds.items()})
    lines = [f"{base['workload']} trace={base['trace']} env={base['env']}"]
    old_metrics = base["result"]["metrics"]
    new_metrics = new["result"]["metrics"]
    for name, old in old_metrics.items():
        if name not in new_metrics:
            lines.append(f"  {name}: missing from the new run")
            continue
        a, b = old["value"], new_metrics[name]["value"]
        change = (b - a) / a if a else 0.0
        worse = -change if directions.get(name) == "higher" else change
        flag = ""
        if name in bounds and worse > bounds[name]["bound"]:
            flag = f"  WORSE than bound {bounds[name]['bound']}"
        lines.append(f"  {name:<32} {a:14.6g} -> {b:14.6g} "
                     f"{change:+8.2%}{flag}")
    return lines


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    try:
        lines = compare(base, new, spec)
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
