"""Record bench/expected.json: every job's output, run once with seed 0.

    python3 bench/record.py

Run this only on a commit whose outputs are trusted; the benchmark then
fails any later commit whose outputs differ.  Outputs do not depend on
the seed (see workloads.py), which the benchmark's tests check.
"""

import json
import sys

import workloads
from run import import_program


def main() -> int:
    import_program()
    expected = {}
    for name in workloads.WORKLOADS:
        jobs = sorted(workloads.prepared(name, 0), key=lambda j: j.id)
        expected[name] = {job.id: job.run() for job in jobs}
        print(f"{name}: {len(expected[name])} jobs", file=sys.stderr)
    with open(workloads.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
