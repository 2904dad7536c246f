// Decision storm: every flow in a 64-host cluster asks the control plane
// for a transport decision on the same tick, at 1 / 4 / 16 orchestrator
// shards. This regenerates the scaling argument behind §4.1: the
// orchestrator is cheap because it is off the data path, but only if
// decision *setup* throughput scales — one serial decision service caps
// the whole cluster. Three phases per shard count:
//
//   cold   every (src, dst) missing: miss batching collapses the storm
//          into one RPC per agent; shard queueing bounds the tail.
//   warm   the same flows again: all hits, zero new RPCs.
//   churn  (16 shards) NIC faults + migrations, quiesce, re-decide:
//          every answer must match orchestrator ground truth, with zero
//          stale serves — the precise-invalidation acceptance bar.
#include "bench_common.h"

#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "faults/fault_injector.h"

using namespace freeflow;
using namespace freeflow::bench;

namespace {

constexpr int k_hosts = 64;
constexpr int k_containers = 2048;

struct Pair {
  std::size_t src;
  std::size_t dst;
};

/// The same seeded flow list for every shard count: identical offered load,
/// so throughput differences are the sharding, not the workload.
std::vector<Pair> make_pairs(int flows) {
  Rng rng(0xDEC15105ULL);
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::size_t>(rng.next_below(k_containers));
    auto dst = static_cast<std::size_t>(rng.next_below(k_containers));
    if (dst == src) dst = (dst + 1) % k_containers;
    pairs.push_back({src, dst});
  }
  return pairs;
}

struct StormResult {
  double cold_dps = 0;            ///< decisions per sim-second, cold caches
  std::int64_t cold_p50_ns = 0;
  std::int64_t cold_p99_ns = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_rpc_rounds = 0;  ///< must be 0: warm storms pay no RPC
  std::uint64_t shard_rpcs = 0;
  std::uint64_t cross_shard_forwards = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t epoch_rejects = 0;
  std::uint64_t ground_truth_mismatches = 0;
  std::uint64_t decide_errors = 0;
  std::string telemetry_json;
};

StormResult run_storm(int shards, const std::vector<Pair>& pairs, bool churn) {
  BenchEnv env(k_hosts);
  agent::AgentConfig config;
  config.control_plane_shards = shards;
  auto& ff = env.freeflow(config);

  std::vector<orch::ContainerPtr> containers;
  containers.reserve(k_containers);
  for (int i = 0; i < k_containers; ++i) {
    containers.push_back(env.deploy("c" + std::to_string(i), 1,
                                    static_cast<fabric::HostId>(i % k_hosts)));
  }

  StormResult r;
  auto decide_all = [&](Histogram* latency, std::uint64_t* mismatches) {
    int done = 0;
    const SimTime start = env.loop().now();
    for (const Pair& p : pairs) {
      const orch::ContainerPtr& src = containers[p.src];
      const orch::ContainerPtr& dst = containers[p.dst];
      ff.selector_on(src->host())
          .decide(src->id(), dst->id(),
                  [&, start, src, dst](Result<orch::TransportDecision> d) {
                    ++done;
                    if (!d.is_ok()) {
                      ++r.decide_errors;
                      return;
                    }
                    if (latency != nullptr) {
                      latency->record(
                          static_cast<std::int64_t>(env.loop().now() - start));
                    }
                    if (mismatches != nullptr) {
                      // Ground truth at delivery time: after quiesce nothing
                      // races, so every served answer must match a fresh
                      // orchestrator decision for the same pair.
                      auto truth = env.net_orch->decide(src->id(), dst->id());
                      if (!truth.is_ok() || truth->transport != d->transport) {
                        ++*mismatches;
                      }
                    }
                  });
    }
    FF_CHECK(env.cluster.loop().spin_until(
        [&]() { return done == static_cast<int>(pairs.size()); }, 600 * k_second));
    return env.loop().now() - start;
  };

  // ---- cold storm: every pair misses, all on one tick -------------------
  Histogram cold;
  const SimDuration cold_ns = decide_all(&cold, nullptr);
  FF_CHECK(cold_ns > 0);
  r.cold_dps = static_cast<double>(pairs.size()) /
               (static_cast<double>(cold_ns) / 1e9);
  r.cold_p50_ns = cold.p50();
  r.cold_p99_ns = cold.p99();

  // ---- warm storm: the same flows again, straight from the caches -------
  auto& metrics = env.cluster.telemetry().metrics();
  const std::uint64_t rounds_before = metrics.counter_value("selector/decide_rpc_rounds");
  std::uint64_t hits_before = 0;
  for (int h = 0; h < k_hosts; ++h) {
    hits_before += ff.selector_on(static_cast<fabric::HostId>(h)).cache_hits();
  }
  decide_all(nullptr, nullptr);
  r.warm_rpc_rounds = metrics.counter_value("selector/decide_rpc_rounds") - rounds_before;
  for (int h = 0; h < k_hosts; ++h) {
    r.warm_hits += ff.selector_on(static_cast<fabric::HostId>(h)).cache_hits();
  }
  r.warm_hits -= hits_before;

  // ---- churn: NIC faults + migrations against the warm caches -----------
  if (churn) {
    faults::FaultInjector injector(*env.net_orch, ff.agents());
    for (fabric::HostId victim : {fabric::HostId{1}, fabric::HostId{5},
                                  fabric::HostId{9}, fabric::HostId{13}}) {
      injector.apply({env.loop().now(), faults::FaultKind::rdma_down, victim});
    }
    Rng rng(0xC4112ULL);
    for (int m = 0; m < 16; ++m) {
      const auto id =
          containers[static_cast<std::size_t>(rng.next_below(k_containers))]->id();
      const auto dst = static_cast<fabric::HostId>(rng.next_below(k_hosts));
      (void)env.cluster_orch->migrate(id, dst, /*downtime=*/1 * k_millisecond);
    }
    // Quiesce: past fault detection and migration downtime, every epoch
    // bump and cache flush has landed.
    env.loop().run_for(5 * k_millisecond);
    decide_all(nullptr, &r.ground_truth_mismatches);
  }

  // ---- stats + telemetry cross-check ------------------------------------
  r.shard_rpcs = ff.control_plane().shard_rpcs();
  r.cross_shard_forwards = ff.control_plane().cross_shard_forwards();
  std::uint64_t invalidations = 0;
  for (int h = 0; h < k_hosts; ++h) {
    auto& sel = ff.selector_on(static_cast<fabric::HostId>(h));
    r.cache_evictions += sel.evictions();
    r.stale_served += sel.stale_served();
    r.epoch_rejects += sel.epoch_rejects();
    invalidations += sel.invalidations();
  }
  // The registry aggregates what the objects counted — any drift means a
  // path bumped one side and not the other.
  FF_CHECK(metrics.counter_value("orch/shard_rpcs") == r.shard_rpcs);
  FF_CHECK(metrics.counter_value("orch/cross_shard_forwards") == r.cross_shard_forwards);
  FF_CHECK(metrics.counter_value("selector/cache_evictions") == r.cache_evictions);
  FF_CHECK(metrics.counter_value("selector/stale_served") == r.stale_served);
  FF_CHECK(metrics.counter_value("selector/epoch_rejects") == r.epoch_rejects);
  FF_CHECK(metrics.counter_value("selector/invalidations") == invalidations);
  r.telemetry_json = metrics.snapshot_json();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  int flows = 100000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--flows") == 0) flows = std::atoi(argv[i + 1]);
  }

  banner("Decision storm: control-plane scaling across orchestrator shards",
         "perf extension: §4.1 decision throughput off the data path");
  JsonReport json(argc, argv, "decision_storm");

  const std::vector<Pair> pairs = make_pairs(flows);

  std::printf("%7s %14s %12s %12s %10s %10s %10s\n", "shards", "decisions/s",
              "cold p50", "cold p99", "warm hits", "rpcs", "forwards");
  StormResult results[3];
  const int shard_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    const bool churn = shard_counts[i] == 16;  // fault phase at full fan-out
    results[i] = run_storm(shard_counts[i], pairs, churn);
    const StormResult& r = results[i];
    std::printf("%7d %14.3g %12s %12s %10llu %10llu %10llu\n", shard_counts[i],
                r.cold_dps, format_ns(static_cast<double>(r.cold_p50_ns)).c_str(),
                format_ns(static_cast<double>(r.cold_p99_ns)).c_str(),
                static_cast<unsigned long long>(r.warm_hits),
                static_cast<unsigned long long>(r.shard_rpcs),
                static_cast<unsigned long long>(r.cross_shard_forwards));
  }

  const double speedup = results[0].cold_dps > 0
                             ? results[2].cold_dps / results[0].cold_dps
                             : 0.0;
  std::uint64_t stale = 0, rejects = 0, warm_rounds = 0, errors = 0;
  for (const StormResult& r : results) {
    stale += r.stale_served;
    rejects += r.epoch_rejects;
    warm_rounds += r.warm_rpc_rounds;
    errors += r.decide_errors;
  }
  std::printf("\n16-shard speedup over single orchestrator: %.1fx (floor 5x)\n",
              speedup);
  std::printf("coherence: %llu stale serves, %llu ground-truth mismatches, "
              "%llu epoch rejects\n",
              static_cast<unsigned long long>(stale),
              static_cast<unsigned long long>(results[2].ground_truth_mismatches),
              static_cast<unsigned long long>(rejects));

  json.add("flows", flows);
  json.add("dps_1shard", results[0].cold_dps);
  json.add("dps_4shards", results[1].cold_dps);
  json.add("dps_16shards", results[2].cold_dps);
  json.add("speedup_16v1", speedup);
  json.add("cold_p50_ns_16shards", static_cast<double>(results[2].cold_p50_ns));
  json.add("cold_p99_ns_1shard", static_cast<double>(results[0].cold_p99_ns));
  json.add("cold_p99_ns_4shards", static_cast<double>(results[1].cold_p99_ns));
  json.add("cold_p99_ns_16shards", static_cast<double>(results[2].cold_p99_ns));
  json.add("warm_hits", static_cast<double>(results[2].warm_hits));
  json.add("warm_rpc_rounds", static_cast<double>(warm_rounds));
  json.add("stale_served", static_cast<double>(stale));
  json.add("ground_truth_mismatches",
           static_cast<double>(results[2].ground_truth_mismatches));
  json.add("epoch_rejects", static_cast<double>(rejects));
  json.add("decide_errors", static_cast<double>(errors));
  json.add("shard_rpcs_16", static_cast<double>(results[2].shard_rpcs));
  json.add("cross_shard_forwards_16",
           static_cast<double>(results[2].cross_shard_forwards));
  json.add("cache_evictions_16", static_cast<double>(results[2].cache_evictions));
  json.add_raw("telemetry", results[2].telemetry_json);

  footer();
  std::printf("sharding is what keeps \"off the data path\" true at scale: the\n"
              "same storm that saturates one orchestrator rides 16 shards with\n"
              "a flat tail — and precise flushes keep every warm cache honest.\n");
  const bool ok = stale == 0 && results[2].ground_truth_mismatches == 0 &&
                  errors == 0 && warm_rounds == 0;
  return ok ? 0 : 1;
}
