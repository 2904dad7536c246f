#!/usr/bin/env python3
"""Holds the repository benchmark (perfbench) to its committed fingerprints.

Usage (from the repository root):
  ci/perfbench_fingerprint.py BASELINE           check every workload in BASELINE
  ci/perfbench_fingerprint.py --write BASELINE   record the current fingerprints

Each workload runs once as `python3 perfbench/run.py --workload W --seed 1
--seconds 1 --trace 0`. perfbench's fingerprint hashes everything the run
computes on the virtual clock (end-to-end and per-layer metrics, the
telemetry snapshot, attempted/failed counts), so a change that should not
alter behaviour leaves it exactly equal to the baseline. Regenerate the
baseline only when the behaviour change is intended, and say why in
CHANGES.md.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["bulk", "rpc_tenants", "tcp_fallback", "connect_churn"]
SEED = 1
SECONDS = 1


def fingerprint(workload):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    # First result line: "workload W  seed N  reps R  fingerprint F  inputs D".
    fields = out.split()
    return fields[fields.index("fingerprint") + 1]


def main(argv):
    if len(argv) == 3 and argv[1] == "--write":
        result = {w: fingerprint(w) for w in WORKLOADS}
        with open(argv[2], "w") as f:
            json.dump({"seed": SEED, "seconds": SECONDS, "fingerprints": result}, f, indent=2)
            f.write("\n")
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        want = json.load(f)["fingerprints"]
    ok = True
    for workload, expected in want.items():
        got = fingerprint(workload)
        if got == expected:
            print(f"fingerprint perfbench/{workload}: identical")
        else:
            print(f"fingerprint perfbench/{workload}: {got} (baseline {expected})")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
