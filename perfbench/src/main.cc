// perfbench: the repository benchmark binary. Runs one workload for a host
// time budget as a series of identical reps (fresh deployment each), and
// reports the end-to-end metrics on both clocks and, with --trace 1, the
// per-layer metrics plus a Chrome trace. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--faults 1]
// The last stdout line is "PERFBENCH_RESULT <json>" (run.py formats it).
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

using namespace perfbench;
using namespace freeflow;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool nic_faults = false;
  std::string trace_out;
};

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  double converge_ms = 0;
  double attach_us = 0;
  double deploy_us = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
  LayerValues e2e;     ///< virtual-clock end-to-end values
  LayerValues layers;  ///< virtual-clock per-layer values
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;
  std::vector<StepResult> steps;
  std::size_t rpc_samples = 0;
  std::size_t connect_samples = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t input_digest = 0;
};

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001B3ULL;
  return h;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

double family(const std::map<std::string, double>& f, const std::string& name) {
  const auto it = f.find(name);
  return it == f.end() ? 0.0 : it->second;
}

Rep run_rep(const Args& args, TraceLog& trace, bool traced) {
  Rep rep;
  rep.traced = traced;
  TraceLog::Span rep_span(trace, "rep");
  auto w = make_workload(args.workload, args.seed, trace, args.nic_faults);
  const double t0 = cpu_now_s();
  {
    TraceLog::Span span(trace, "phase:setup");
    w->setup();
  }
  const double t1 = cpu_now_s();
  Env& env = w->env();
  if (trace.on()) trace.phase_snapshot("setup", LayerProbe::families_json(env));

  LayerProbe probe(env);
  probe.begin();
  Tally& tally = w->tally();
  tally.measuring = true;
  w->start_sampler();
  const double t2 = cpu_now_s();
  {
    TraceLog::Span span(trace, "phase:measure");
    w->measure();
  }
  const double t3 = cpu_now_s();
  tally.measuring = false;
  probe.end();
  std::string snapshot;
  {
    TraceLog::Span span(trace, "MetricRegistry::snapshot_json");
    snapshot = env.cluster().telemetry().metrics().snapshot_json();
  }
  if (trace.on()) trace.phase_snapshot("measure", LayerProbe::families_json(env));
  {
    TraceLog::Span span(trace, "phase:finish");
    w->finish();
    // Decision-cache audit: a hit whose epoch lagged ground truth.
    ++tally.attempted;
    if (const auto stale = env.cluster().telemetry().metrics().counter_value(
            "selector/stale_served")) {
      tally.fail("selector_stale_served", stale);
    }
  }
  if (trace.on()) trace.phase_snapshot("finish", LayerProbe::families_json(env));

  rep.setup_s = t1 - t0;
  rep.run_s = t3 - t2;
  rep.converge_ms = env.converge_s * 1e3;
  rep.attach_us = ratio(env.attach_s, static_cast<double>(env.attaches)) * 1e6;
  rep.deploy_us = ratio(env.deploy_s, static_cast<double>(env.deploys)) * 1e6;

  const auto& r = probe.reading();
  rep.events = r.events;
  rep.allocs_per_event = ratio(static_cast<double>(r.allocs), static_cast<double>(r.events));
  const double secs = static_cast<double>(r.elapsed) / 1e9;
  const double kib = static_cast<double>(tally.payload_bytes) / 1024.0;
  const double bytes = static_cast<double>(tally.payload_bytes);
  const auto by = [&](orch::Transport t) {
    return static_cast<double>(tally.bytes_by_transport[static_cast<int>(t)]);
  };
  const auto& f = r.families;

  rep.attempted = tally.attempted;
  rep.failed = tally.failed;
  rep.failures = tally.failures;
  rep.steps = w->steps;
  rep.rpc_samples = w->rpc_reference.size();
  rep.connect_samples = tally.connect_us.size();

  rep.e2e = {
      {"goodput_gbps", secs > 0 ? bytes * 8.0 / secs / 1e9 : 0.0},
      {"rpc_p50_us", w->rpc_reference.quantile(0.50)},
      {"rpc_p99_us", w->rpc_reference.quantile(0.99)},
      {"rpc_max_krps", w->rpc_max_krps},
      {"connect_p50_us", tally.connect_us.quantile(0.50)},
      {"connect_p99_us", tally.connect_us.quantile(0.99)},
      {"vcpu_ns_per_kb", ratio(r.cpu_busy_ns, kib)},
      {"failed_frac", ratio(static_cast<double>(tally.failed),
                            static_cast<double>(tally.attempted))},
  };

  const double rdma_wire = family(f, "nic/*/tx_bytes/rdma_chunk");
  const double tcp_wire = family(f, "nic/*/tx_bytes/tcp_frame");
  const double tcp_payload = by(orch::Transport::tcp_host) + by(orch::Transport::tcp_overlay);
  const double stream_rdma = family(f, "stream/*/*/bytes_rdma");
  const double stream_total = stream_rdma + family(f, "stream/*/*/bytes_tcp");
  rep.layers = {
      {"sim.events", static_cast<double>(r.events)},
      {"fabric.nic_tx_util_max", r.nic_tx_util_max},
      {"fabric.nic_proc_util_max", r.nic_proc_util_max},
      {"fabric.latency_queue_depth_max", w->latency_queue_depth_max},
      {"fabric.drops", static_cast<double>(r.drops)},
      {"fabric.host_cpu_cores", r.cpu_cores},
      {"shm.byte_share", ratio(by(orch::Transport::shm), bytes)},
      {"shm.membus_util_max", r.membus_util_max},
      {"rdma.wire_bytes_per_payload_byte", ratio(rdma_wire, by(orch::Transport::rdma))},
      {"tcpstack.wire_bytes_per_payload_byte", ratio(tcp_wire, tcp_payload)},
      {"overlay.router_vns_per_kb", ratio(r.router_busy_ns, kib)},
      {"agent.records_relayed", static_cast<double>(r.records_relayed)},
      {"agent.vns_per_record", ratio(r.agent_busy_ns, static_cast<double>(r.records_relayed))},
      {"agent.trunk_setup_p99_us", trunk_setup_p99_us(env)},
      {"agent.setup_retries", family(f, "agent/*/trunk/setup_retries")},
      {"agent.setup_races_resolved", family(f, "agent/*/trunk/setup_races_resolved")},
      {"agent.lanes_failed", family(f, "agent/*/lanes_failed")},
      {"core.conduit_blocked_ms", family(f, "conduit/*/*/blocked_ns") / 1e6},
      {"core.window_full", family(f, "conduit/*/*/window_full")},
      {"core.retransmits", family(f, "conduit/*/*/retransmits")},
      {"core.rebinds", family(f, "conduit/*/*/rebinds")},
      {"core.blackout_ms", family(f, "conduit/*/*/blackout_ns") / 1e6},
      {"core.selector_hit_ratio",
       ratio(static_cast<double>(r.selector_hits),
             static_cast<double>(r.selector_hits + r.selector_misses))},
      {"core.selector_lookups", static_cast<double>(r.selector_hits + r.selector_misses)},
      {"stream.rdma_byte_share", ratio(stream_rdma, stream_total)},
      {"stream.upgrades", family(f, "stream/upgrades")},
      {"stream.fallbacks", family(f, "stream/fallbacks")},
      {"orchestrator.shard_rpcs", static_cast<double>(r.shard_rpcs)},
      {"orchestrator.cross_shard_forwards", static_cast<double>(r.cross_shard_forwards)},
      {"workloads.send_lag_p99_us", tally.send_lag_us.quantile(0.99)},
      {"workloads.gateway_queue_depth_max", w->gateway_queue_depth_max},
      {"workloads.scale_ups", w->scale_ups},
  };

  // Everything virtual must repeat exactly for a seed.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto& [name, v] : rep.e2e) h = fnv(h, name + "=" + num(v));
  for (const auto& [name, v] : rep.layers) h = fnv(h, name + "=" + num(v));
  h = fnv(h, snapshot);
  h = fnv(h, std::to_string(tally.attempted) + "/" + std::to_string(tally.failed));
  rep.fingerprint = h;
  rep.input_digest = w->inputs().digest();

  {
    TraceLog::Span span(trace, "phase:teardown");
    w.reset();
  }
  return rep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median over the reps after the first: rep 0 warms the allocator and
/// the caches, like a process that has already served a while.
template <typename F>
double median_of(const std::vector<Rep>& reps, bool traced, F get) {
  std::vector<double> v;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].traced == traced) v.push_back(get(reps[i]));
  }
  return median(v);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--faults") a.nic_faults = std::atoi(v) != 0;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>] [--faults 1]\n");
    return 2;
  }
  if (std::find(workload_names().begin(), workload_names().end(), args.workload) ==
      workload_names().end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Fault and failover paths log per-chunk warnings by design.
  set_log_level(LogLevel::error);
  // Keep freed memory in the heap (no trimming, no per-block mmap up to
  // 32 MiB): later reps reuse what the first one faulted in, so page-fault
  // time, which swings with the machine's memory state, stays out of the
  // host-clock metrics.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  // Reps repeat until the host-time budget is spent (at least three; with
  // tracing they alternate untraced / traced so the overhead is measured
  // in the same process).
  TraceLog off(false);
  TraceLog on(true);
  std::vector<Rep> reps;
  const double start = wall_now_s();
  while (reps.size() < 3 || wall_now_s() - start < args.seconds) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    if (traced) on.clear();
    reps.push_back(run_rep(args, traced ? on : off, traced));
    if (reps.size() >= 200) break;
  }

  const Rep& first = reps.front();
  bool deterministic = true;
  for (const auto& r : reps) deterministic = deterministic && r.fingerprint == first.fingerprint;
  std::uint64_t failed = first.failed;
  auto failures = first.failures;
  if (!deterministic) {
    ++failed;
    failures["nondeterministic_rep"] += 1;
  }

  const double run_s = median_of(reps, false, [](const Rep& r) { return r.run_s; });
  const double setup_s = median_of(reps, false, [](const Rep& r) { return r.setup_s; });

  std::string json = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                     std::to_string(args.seed) + ",\"reps\":" + std::to_string(reps.size()) +
                     ",\"deterministic\":" + (deterministic ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(first.attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"failures\":{";
  bool comma = false;
  for (const auto& [cause, n] : failures) {
    json += (comma ? ",\"" : "\"") + cause + "\":" + std::to_string(n);
    comma = true;
  }
  char fp[64];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, first.fingerprint);
  json += std::string("},\"fingerprint\":\"") + fp + "\"";
  std::snprintf(fp, sizeof fp, "%016" PRIx64, first.input_digest);
  json += std::string(",\"input_digest\":\"") + fp + "\"";
  json += ",\"rep_setup_s\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) json += (i ? "," : "") + num(reps[i].setup_s);
  json += "],\"rep_run_s\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) json += (i ? "," : "") + num(reps[i].run_s);
  json += "]";
  json += ",\"rpc_samples\":" + std::to_string(first.rpc_samples) +
          ",\"connect_samples\":" + std::to_string(first.connect_samples);

  json += ",\"end_to_end\":{";
  comma = false;
  for (const auto& [name, v] : first.e2e) {
    json += (comma ? ",\"" : "\"") + name + "\":" + num(v);
    comma = true;
  }
  json += ",\"setup_s\":" + num(setup_s) + ",\"run_s\":" + num(run_s) +
          ",\"peak_rss_mb\":" + num(peak_rss_mb()) + "}";

  json += ",\"steps\":[";
  for (std::size_t i = 0; i < first.steps.size(); ++i) {
    const auto& s = first.steps[i];
    json += std::string(i == 0 ? "" : ",") + "{\"offered_per_s\":" + num(s.offered_per_s) +
            ",\"achieved_per_s\":" + num(s.achieved_per_s) + ",\"p50_us\":" + num(s.p50_us) +
            ",\"p99_us\":" + num(s.p99_us) + ",\"samples\":" + std::to_string(s.samples) +
            ",\"backlog_grew\":" + (s.backlog_grew ? "true" : "false") +
            ",\"passed\":" + (s.passed ? "true" : "false") + "}";
  }
  json += "]";

  if (args.trace) {
    const double traced_run_s = median_of(reps, true, [](const Rep& r) { return r.run_s; });
    LayerValues layers = first.layers;
    layers.insert(layers.begin() + 1,
                  {{"sim.host_ns_per_event", run_s * 1e9 / static_cast<double>(
                                                              std::max<std::uint64_t>(first.events, 1))},
                   {"sim.allocs_per_event",
                    median_of(reps, false, [](const Rep& r) { return r.allocs_per_event; })}});
    layers.push_back({"overlay.converge_host_ms",
                      median_of(reps, false, [](const Rep& r) { return r.converge_ms; })});
    layers.push_back({"core.attach_host_us",
                      median_of(reps, false, [](const Rep& r) { return r.attach_us; })});
    layers.push_back({"orchestrator.deploy_host_us",
                      median_of(reps, false, [](const Rep& r) { return r.deploy_us; })});
    layers.push_back({"trace.overhead_s", traced_run_s - run_s});
    layers.push_back({"trace.host_spans", static_cast<double>(on.host_spans())});
    layers.push_back({"trace.message_spans", static_cast<double>(on.message_spans())});
    layers.push_back({"trace.snapshots", static_cast<double>(on.snapshots())});
    json += ",\"per_layer\":{";
    comma = false;
    for (const auto& [name, v] : layers) {
      json += (comma ? ",\"" : "\"") + name + "\":" + num(v);
      comma = true;
    }
    json += "}";
    if (!args.trace_out.empty()) {
      const bool wrote = on.write(args.trace_out);
      json += std::string(",\"trace_file\":") + (wrote ? "\"" + args.trace_out + "\"" : "null");
    }
  }
  json += "}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return 0;
}
