"""Record bench/reference.json: the answers of each workload's fixed
checksum operations, as summarised by invariants computed in the benchmark.

    python3 bench/reference.py

Run it only when a change to the benchmark alters those operations.  Items
that were not certified when recording are left out, so a later fix that
certifies them does not count as a mismatch.
"""

import json
import sys

import worker


def main() -> int:
    W = worker.import_wittloc()
    from workloads import WORKLOADS

    out = {}
    for name in WORKLOADS:
        _, _, got, bad = worker.reference_check(W, name)
        out[name] = {i: v for i, v in got.items() if not v.startswith(("fail", "undecided"))}
        if bad:
            print(f"{name}: {len(bad)} checksum operations fail: {bad[:3]}", file=sys.stderr)
            return 1
        print(f"{name}: {len(out[name])} of {len(got)} operations recorded")
    with open(worker.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
