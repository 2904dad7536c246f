#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
prints every metric with its unit, and ends with one JSON result line.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

  --trace 0  end-to-end metrics (BENCHMARK.json "end_to_end")
  --trace 1  per-layer metrics (BENCHMARK.json "per_layer"), a Chrome trace
             written beside the build, checked with ci/validate_trace.py

The build lands in $CARGO_TARGET_DIR/perfbench (default .bench_build/);
build output goes to stderr so the last stdout line stays the result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each per-layer metric should move, and where.
# ("-" = a host-cost or bookkeeping value every workload reports.)
LAYER_TARGETS = {
    "sim.events": ("run_s", "all; most on rpc_tenants, tcp_fallback"),
    "sim.host_ns_per_event": ("run_s", "all; most on rpc_tenants, tcp_fallback"),
    "sim.allocs_per_event": ("run_s", "all; least per byte on bulk"),
    "fabric.nic_tx_util_max": ("goodput_gbps", "bulk"),
    "fabric.nic_proc_util_max": ("goodput_gbps", "bulk"),
    "fabric.latency_queue_depth_max": ("rpc_p99_us", "rpc_tenants (~0 on bulk)"),
    "fabric.drops": ("failed_frac, goodput_gbps", "tcp_fallback, connect_churn"),
    "fabric.host_cpu_cores": ("vcpu_ns_per_kb", "all"),
    "shm.byte_share": ("goodput_gbps", "bulk"),
    "shm.membus_util_max": ("goodput_gbps", "bulk"),
    "rdma.wire_bytes_per_payload_byte": ("goodput_gbps", "bulk"),
    "tcpstack.wire_bytes_per_payload_byte": ("goodput_gbps, rpc_p99_us", "tcp_fallback (bypassed on bulk)"),
    "overlay.router_vns_per_kb": ("vcpu_ns_per_kb, goodput_gbps", "tcp_fallback (0 on bulk)"),
    "overlay.converge_host_ms": ("setup_s", "all"),
    "agent.records_relayed": ("rpc_p50_us, goodput_gbps", "rpc_tenants, bulk"),
    "agent.vns_per_record": ("rpc_p50_us, goodput_gbps", "rpc_tenants, bulk"),
    "agent.trunk_setup_p99_us": ("connect_p99_us, failed_frac", "connect_churn"),
    "agent.setup_retries": ("connect_p99_us, failed_frac", "connect_churn"),
    "agent.setup_races_resolved": ("connect_p99_us, failed_frac", "connect_churn"),
    "agent.lanes_failed": ("connect_p99_us, failed_frac", "connect_churn"),
    "core.conduit_blocked_ms": ("goodput_gbps, rpc_p99_us", "bulk, rpc_tenants"),
    "core.window_full": ("goodput_gbps, rpc_p99_us", "bulk, rpc_tenants"),
    "core.retransmits": ("failed_frac, connect_p99_us", "connect_churn with NIC faults (0 at HEAD)"),
    "core.rebinds": ("failed_frac, connect_p99_us", "connect_churn with NIC faults (0 at HEAD)"),
    "core.blackout_ms": ("failed_frac, connect_p99_us", "connect_churn with NIC faults (0 at HEAD)"),
    "core.selector_hit_ratio": ("connect_p50_us", "connect_churn (~1 on rpc_tenants)"),
    "core.selector_lookups": ("-", "base of core.selector_hit_ratio"),
    "core.attach_host_us": ("setup_s", "all"),
    "stream.rdma_byte_share": ("goodput_gbps", "bulk"),
    "stream.upgrades": ("failed_frac", "bulk, tcp_fallback (streams splice in set-up; 0 at HEAD)"),
    "stream.fallbacks": ("failed_frac", "bulk, tcp_fallback (0 at HEAD)"),
    "orchestrator.shard_rpcs": ("connect_p99_us", "connect_churn"),
    "orchestrator.cross_shard_forwards": ("connect_p99_us", "connect_churn"),
    "orchestrator.deploy_host_us": ("setup_s", "all"),
    "workloads.send_lag_p99_us": ("rpc_p99_us", "rpc_tenants, tcp_fallback"),
    "workloads.gateway_queue_depth_max": ("rpc_max_krps", "rpc_tenants"),
    "workloads.scale_ups": ("rpc_max_krps", "rpc_tenants"),
    "trace.overhead_s": ("-", "traced minus untraced run_s"),
    "trace.host_spans": ("-", "host-clock spans in the trace"),
    "trace.message_spans": ("-", "sampled virtual-clock message spans"),
    "trace.snapshots": ("-", "phase-boundary counter snapshots"),
}

# Printed beside the gated end-to-end metrics, not gated: connect latency
# exists only where the workload opens connections while measuring
# (connect_churn), and failed_frac is 0 on every correct run.
EXTRA_E2E = {"connect_p50_us": "us", "connect_p99_us": "us", "failed_frac": "ratio"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds the perfbench target (a no-op when fresh)."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def validate_trace(path):
    """Runs the repository's trace validator on the exported trace."""
    validator = os.path.join(ROOT, "ci", "validate_trace.py")
    if not os.path.exists(validator):
        log("perfbench: ci/validate_trace.py not found; trace unchecked")
        return False
    res = subprocess.run([sys.executable, validator, path], stdout=sys.stderr,
                         stderr=sys.stderr)
    return res.returncode == 0


def fmt(v):
    return f"{v:.6g}" if isinstance(v, (int, float)) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload!r}")
        return 2

    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 1

    trace_path = os.path.join(bdir, f"trace-{args.workload}-{args.seed}.json")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded its time limit")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: exited with {proc.returncode}")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        log("perfbench: no result line")
        return 1
    res = json.loads(lines[-1].split(" ", 1)[1])

    correct = bool(res["deterministic"]) and res["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  reps {res['reps']}  "
          f"fingerprint {res['fingerprint']}  inputs {res['input_digest']}")
    print(f"attempted {res['attempted']}  failed {res['failed']}  "
          f"{json.dumps(res['failures'])}")
    print(f"samples: rpc {res['rpc_samples']}  connect {res['connect_samples']}")
    for step in res["steps"]:
        print("  step offered {:>9.0f}/s achieved {:>9.0f}/s  p50 {:>8.1f} us  p99 {:>8.1f} us"
              "  n={}{}{}".format(step["offered_per_s"], step["achieved_per_s"],
                                  step["p50_us"], step["p99_us"], step["samples"],
                                  "  backlog-grew" if step["backlog_grew"] else "",
                                  "  pass" if step["passed"] else "  FAIL"))

    e2e = res["end_to_end"]
    print("end-to-end:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18} {fmt(e2e[m['name']]):>14} {m['unit']}")
    for name, unit in EXTRA_E2E.items():
        print(f"  {name:<18} {fmt(e2e[name]):>14} {unit}")

    if args.trace:
        layers = res["per_layer"]
        print(f"{'per-layer':<38} {'value':>14}  moves / on")
        for m in spec["per_layer"]:
            target, where = LAYER_TARGETS.get(m["name"], ("?", "?"))
            print(f"  {m['name']:<36} {fmt(layers[m['name']]):>14}  {target} / {where}")
        if res.get("trace_file"):
            print(f"trace: {res['trace_file']}")
            correct = correct and validate_trace(res["trace_file"])
        else:
            correct = False
        source, wanted = layers, spec["per_layer"]
    else:
        source, wanted = e2e, spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            log(f"perfbench: metric {m['name']} missing")
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
