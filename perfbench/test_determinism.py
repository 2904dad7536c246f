#!/usr/bin/env python3
"""The benchmark's own tests: determinism fingerprint, seed sensitivity and
the traced run, for every workload.

  python3 perfbench/test_determinism.py        (from the repository root)

Each perfbench process already checks that all of its reps share one
fingerprint (virtual-clock end-to-end metrics, per-layer counts and the
telemetry snapshot); these tests check the same across processes, that a
different seed changes the generated inputs, and that the held-out seed
runs clean.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: build + spec helpers)

WORKLOADS = ["bulk", "rpc_tenants", "tcp_fallback", "connect_churn"]
TUNING_SEED = 7
# Never used while tuning the benchmark: gain claims are re-checked on it.
HELD_OUT_SEED = 90210
# Host-clock metrics; every other end-to-end metric is on the virtual clock.
HOST_METRICS = {"setup_s", "run_s", "peak_rss_mb"}


def perfbench(workload, seed, trace=0, extra=()):
    """Runs the binary for the minimum of three reps and parses its result."""
    cmd = [os.path.join(run.build_dir(), "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    line = [l for l in out.splitlines() if l.startswith("PERFBENCH_RESULT ")][-1]
    return json.loads(line.split(" ", 1)[1])


def virtual(result):
    return {k: v for k, v in result["end_to_end"].items() if k not in HOST_METRICS}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        assert run.build(run.build_dir()), "perfbench build failed"

    def test_same_seed_repeats_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = perfbench(w, TUNING_SEED)
                b = perfbench(w, TUNING_SEED)
                self.assertTrue(a["deterministic"] and b["deterministic"])
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertEqual(a["input_digest"], b["input_digest"])
                self.assertEqual(virtual(a), virtual(b))

    def test_other_seed_changes_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = perfbench(w, TUNING_SEED)
                b = perfbench(w, TUNING_SEED + 1)
                self.assertNotEqual(a["input_digest"], b["input_digest"])
                self.assertNotEqual(a["fingerprint"], b["fingerprint"])

    def test_held_out_seed_runs_clean(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = perfbench(w, HELD_OUT_SEED)
                self.assertEqual(r["failed"], 0, r["failures"])
                self.assertGreater(r["attempted"], 0)

    def test_traced_run_reports_every_layer(self):
        spec = run.load_spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = perfbench(w, TUNING_SEED, trace=1)
                for m in spec["per_layer"]:
                    self.assertIn(m["name"], r["per_layer"])
                # Tracing must not change what the simulation does.
                self.assertTrue(r["deterministic"])

    # Known defect at HEAD: an RDMA death or a 100 us link flap on one host
    # leaves sock_connect calls in flight at that moment with no callback,
    # ever. connect_churn therefore runs without NIC faults; this test turns
    # them on and starts passing (flag it, then drop expectedFailure and
    # restore the faults in the workload) once the wedge is fixed.
    @unittest.expectedFailure
    def test_connect_churn_survives_nic_faults(self):
        r = perfbench("connect_churn", 11, extra=("--faults", "1"))
        self.assertEqual(r["failed"], 0, r["failures"])


if __name__ == "__main__":
    unittest.main()
