"""Record the output digests that ``run.py`` checks for the default seeds.

    python3 perfbench/bless.py --seeds 0-20

Runs each workload once per seed (untraced, in a fresh interpreter) and
rewrites ``digests.json``.  Re-bless only when a change to the program is
meant to change a workload's output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import FUZZ_JOBS, HERE, WORKLOADS, run_rep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range, e.g. 0-20")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    low, high = (int(part) for part in args.seeds.split("-"))
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    for workload in args.workload or WORKLOADS:
        jobs = FUZZ_JOBS if workload == "fuzz-oracle" else 1
        for seed in range(low, high + 1):
            rep = run_rep(workload, seed, trace=0, jobs=jobs, timeout=170.0)
            if not rep.ran or not rep.data["ok"]:
                print(f"{workload} seed {seed}: {rep.problems or rep.data['problem']}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = rep.data["digest"]
            print(f"{workload} seed {seed}: {rep.data['digest']}", flush=True)
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
