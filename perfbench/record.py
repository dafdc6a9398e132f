"""Record the expected simulated outputs that ``child.py`` checks against.

    python3 perfbench/record.py --seeds 0-31,42,1042,2042,3042,4042,5042,6042,7042

For each workload and seed this runs one untraced replay (unchecked
against earlier records) and stores its trace SHA-256 and ``sim_*``
values in ``perfbench/expected.json``, merged with what is already there.
Re-record only when a change is meant to alter the simulation's output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import WORKLOADS  # noqa: E402
from run import Runner  # noqa: E402


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="42")
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS), default=None
    )
    parser.add_argument("--out-dir", type=Path, default=HERE.parent / ".perfbench_out")
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    # No deadline, and a records file that does not exist: nothing to
    # check the new values against.
    runner = Runner(args.out_dir, args.out_dir / "no-records.json", None)
    for workload in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            record = runner.spawn(workload, seed, "untraced")
            if not record["ok"]:
                return 1
            table.setdefault(workload, {})[str(seed)] = record["sim"]
            print(workload, seed, record["sim"]["trace_sha256"][:16], flush=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
