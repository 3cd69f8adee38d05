"""Pin the expected outputs of full-size simulation runs.  Run from the root
of a checkout::

    python3 perfbench/pin.py --seeds 0-99,101-110

For every seed and simulation workload this computes the expected record
with the ``array`` engine, after a shortened run of the same spec agreed on
the ``reference``, ``array`` and timed engines, and writes the sha256 of each
operation's canonical JSON to ``expected/records.json``.  The timed runs are
then checked against these digests, so a change to any layer the engines
share (DSS, renaming, bank mapping, fabric, traffic planning, result
building) shows as a failed operation instead of moving the expected record
with it.  Pin on code whose outputs are right; a change that alters the
simulated results on purpose re-pins and says so.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List

import run

SIMULATED = ("rads-stream", "cfds-switch")


def parse_seeds(text: str) -> List[int]:
    seeds = set()
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def pin(workload: str, seed: int) -> List[str]:
    found = run.expected_record(workload, seed, None)
    if not found["crosscheck"]:
        raise SystemExit(f"{workload} seed {seed}: the reference and array "
                         "engines disagree on the shortened run")
    return run.operation_digests(workload, found["record"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds and ranges, e.g. 0-99,123")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    source = run.source_digest()
    pins = (json.loads(run.PINNED.read_text()) if run.PINNED.is_file()
            else {})
    if pins.get("source_digest") != source:
        # Every pin in the file belongs to one version of the program.
        pins = {"workloads": {}}
    tasks = [(w, s) for w in SIMULATED for s in seeds]
    with ThreadPoolExecutor(run.worker_count()) as pool:
        digests = list(pool.map(lambda task: pin(*task), tasks))
    for (workload, seed), found in zip(tasks, digests):
        pins["workloads"].setdefault(workload, {})[str(seed)] = found
    for workload, table in pins["workloads"].items():
        pins["workloads"][workload] = dict(
            sorted(table.items(), key=lambda item: int(item[0])))
    run.PINNED.write_text(json.dumps(
        {"source_digest": source, "workloads": pins["workloads"]},
        indent=1) + "\n")
    print(f"pinned {len(seeds)} seeds of {', '.join(SIMULATED)} "
          f"in {run.PINNED.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
