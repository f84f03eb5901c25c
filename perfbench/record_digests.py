"""Record the stdout sha256 of every invocation of the default seed.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Covers every workload at full and smoke
size and writes perfbench/digests.json.  An invocation is recorded only if
its exit code and output structure pass the checks; byte-identical output
is a project guarantee, so this is rerun only when output changes on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads
from run import Run


def main() -> int:
    digests = {}
    for size in ("full", "tiny"):
        for name in workloads.WORKLOADS:
            run = Run(Path.cwd(), name, workloads.DEFAULT_SEED, size)
            try:
                invs = workloads.build(name, run.seed, size, run.work)
                for i, inv in enumerate(invs):
                    row = run.spawn(inv, str(i))
                    problem = workloads.check(inv, row["exit"], row["stdout"], "", {})
                    if problem:
                        print(f"{name}: {' '.join(inv.argv)}: {problem}", file=sys.stderr)
                        return 1
                    key = workloads.digest_key(inv, run.work)
                    digests[key] = hashlib.sha256(row["stdout"]).hexdigest()
                    print(f"{digests[key][:12]}  {key}")
            finally:
                run.close()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
