#!/usr/bin/env python3
"""Behaviour fingerprint: holds deterministic benches to their baselines.

Usage:
  ci/fingerprint.py RESULT BASELINE [RESULT BASELINE ...]
  ci/fingerprint.py --digest RESULT KEY  print the digest of RESULT's KEY

Every bench compared here runs on the virtual clock from a fixed seed, so
the same code reproduces its JSON byte for byte. A change that should not
alter behaviour (a refactor) must therefore leave each bench's whole JSON —
its `metrics` and every telemetry snapshot it exports — exactly equal to
the committed baseline; no tolerance applies. Host-time benches (sim_core)
do not belong here: their numbers are gated with a tolerance by
ci/perf_gate.py.

Where a snapshot is too big to commit, the baseline carries `<key>_sha256`
in place of `<key>`: the SHA-256 of the snapshot serialized by canonical()
below. A mismatch lists the differing fields (for a digest, only that it
differs); regenerate a baseline only when the behaviour change is
intended, and say why in CHANGES.md.
"""

import hashlib
import json
import sys

MAX_LISTED = 20
DIGEST_SUFFIX = "_sha256"


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value):
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


MISSING = object()


def show(value):
    return "<absent>" if value is MISSING else json.dumps(value)


def diff(fresh, base, label):
    """Returns one line per differing leaf of two JSON values."""
    a = {} if fresh is MISSING else dict(leaves(fresh, label))
    b = {} if base is MISSING else dict(leaves(base, label))
    lines = []
    for key in sorted(a.keys() | b.keys()):
        got, want = a.get(key, MISSING), b.get(key, MISSING)
        if got != want or type(got) is not type(want):
            lines.append(f"  {key}: {show(got)} (baseline {show(want)})")
    return lines


def compare(result_path, baseline_path):
    with open(result_path) as f:
        fresh = json.load(f)
    with open(baseline_path) as f:
        base = json.load(f)
    problems = []
    for key in sorted(fresh.keys() | base.keys()):
        if key.endswith(DIGEST_SUFFIX) and key in base:
            continue  # checked against the snapshot it stands for
        want = base.get(key + DIGEST_SUFFIX)
        if want is None:
            problems += diff(fresh.get(key, MISSING), base.get(key, MISSING), key)
        elif (got := digest(fresh.get(key))) != want:
            problems.append(f"  {key} digest {got} (baseline {want})")
    name = base.get("bench", baseline_path)
    if not problems:
        print(f"fingerprint {name}: identical")
        return True
    print(f"fingerprint {name}: {len(problems)} field(s) differ from {baseline_path}")
    print("\n".join(problems[:MAX_LISTED]))
    if len(problems) > MAX_LISTED:
        print(f"  ... and {len(problems) - MAX_LISTED} more")
    return False


def main(argv):
    if len(argv) == 4 and argv[1] == "--digest":
        with open(argv[2]) as f:
            print(digest(json.load(f)[argv[3]]))
        return 0
    pairs = argv[1:]
    if not pairs or len(pairs) % 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = [compare(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
