// Connect storm: every container in the cluster declares a flow on the
// same tick. This is the control-plane worst case — thousands of
// simultaneous decide RPCs funnelling into a handful of per-host-pair
// trunk setups — and the scenario the race-free establishment machinery
// plus selector batching exist for. The gate is strict: zero failed
// establishments, and a p99 setup latency held to the committed baseline.
#include "bench_common.h"

#include <cstdlib>
#include <cstring>

using namespace freeflow;
using namespace freeflow::bench;

int main(int argc, char** argv) {
  int flows = 1000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--flows") == 0) flows = std::atoi(argv[i + 1]);
  }

  banner("Connect storm: simultaneous flow declarations",
         "robustness extension: §4.1 control plane under fan-in");
  JsonReport json(argc, argv, "connect_storm");

  constexpr int k_hosts = 16;
  BenchEnv env(k_hosts);
  // The storm measures the control plane, not bulk transfer: small lane
  // rings keep thousands of idle channels from dominating wall time with
  // allocation churn without touching the setup path under test.
  agent::AgentConfig config;
  config.lane_ring_bytes = 64 * 1024;
  config.fragment_bytes = 16 * 1024;
  auto& ff = env.freeflow(config);

  // One container per flow, round-robin over hosts: container i dials
  // container i+1, so every host pair (h, h+1) funnels ~flows/16 setups
  // into ONE trunk — maximum contention on the establishment path.
  std::vector<orch::ContainerPtr> containers;
  std::vector<core::ContainerNetPtr> nets;
  containers.reserve(static_cast<std::size_t>(flows));
  nets.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    containers.push_back(env.deploy("c" + std::to_string(i), 1,
                                    static_cast<fabric::HostId>(i % k_hosts)));
    nets.push_back(ff.attach(containers.back()->id()).value());
  }
  std::vector<core::FlowSocketPtr> accepted;
  accepted.reserve(static_cast<std::size_t>(flows));
  for (auto& net : nets) {
    FF_CHECK(net->sock_listen(9000, [&accepted](core::FlowSocketPtr s) {
      accepted.push_back(std::move(s));
    }).is_ok());
  }

  // Declare every flow before the loop steps: all of them see the cold
  // cache, all of them race on the same trunks, all on one tick. Even
  // flows dial forward (host h -> h+1) while odd flows dial backward
  // (h -> h-1), so every adjacent host pair gets same-tick setups in BOTH
  // directions — the bidirectional-race schedule, a thousand times over.
  Histogram setup_latency;
  std::vector<core::FlowSocketPtr> socks(static_cast<std::size_t>(flows));
  int connected = 0;
  int failed = 0;
  const SimTime storm_start = env.loop().now();
  for (int i = 0; i < flows; ++i) {
    const auto dst = static_cast<std::size_t>(
        (i % 2 == 0 ? i + 1 : i - 1 + flows) % flows);
    nets[static_cast<std::size_t>(i)]->sock_connect(
        containers[dst]->ip(), 9000,
        [&, i](Result<core::FlowSocketPtr> s) {
          if (!s.is_ok()) {
            ++failed;
            std::fprintf(stderr, "flow %d failed: %s\n", i,
                         s.status().to_string().c_str());
            return;
          }
          socks[static_cast<std::size_t>(i)] = *s;
          setup_latency.record(
              static_cast<std::int64_t>(env.loop().now() - storm_start));
          ++connected;
        });
  }
  FF_CHECK(env.cluster.loop().spin_until([&]() { return connected + failed == flows; },
                                         600 * k_second));

  auto& metrics = env.cluster.telemetry().metrics();
  // Selector stats are per-agent now: sum over every host's cache.
  std::uint64_t selector_misses = 0;
  std::uint64_t selector_rounds = 0;
  for (int h = 0; h < k_hosts; ++h) {
    const auto& sel = ff.selector_on(static_cast<fabric::HostId>(h));
    selector_misses += sel.cache_misses();
    selector_rounds += sel.rpc_rounds();
  }

  std::printf("%8s %10s %12s %12s %12s %12s\n", "flows", "failed", "p50", "p99",
              "p999", "max");
  std::printf("%8d %10d %12s %12s %12s %12s\n", flows, failed,
              format_ns(static_cast<double>(setup_latency.p50())).c_str(),
              format_ns(static_cast<double>(setup_latency.p99())).c_str(),
              format_ns(static_cast<double>(setup_latency.p999())).c_str(),
              format_ns(static_cast<double>(setup_latency.max())).c_str());
  std::printf("\nselectors: %llu misses collapsed into %llu shard RPC rounds "
              "(%llu coalesced) across %d agents\n",
              static_cast<unsigned long long>(selector_misses),
              static_cast<unsigned long long>(selector_rounds),
              static_cast<unsigned long long>(
                  metrics.counter_value("selector/decide_coalesced")),
              k_hosts);
  std::uint64_t retries = 0;
  std::uint64_t races = 0;
  for (int h = 0; h < k_hosts; ++h) {
    const std::string prefix = "agent/" + std::to_string(h) + "/trunk/";
    retries += metrics.counter_value(prefix + "setup_retries");
    races += metrics.counter_value(prefix + "setup_races_resolved");
  }
  std::printf("trunks: %llu setup races resolved, %llu retries across %d agents\n",
              static_cast<unsigned long long>(races),
              static_cast<unsigned long long>(retries), k_hosts);

  json.add("flows", flows);
  json.add("failed", failed);
  json.add("setup_p50_ns", static_cast<double>(setup_latency.p50()));
  json.add("setup_p99_ns", static_cast<double>(setup_latency.p99()));
  json.add("setup_p999_ns", static_cast<double>(setup_latency.p999()));
  json.add("setup_max_ns", static_cast<double>(setup_latency.max()));
  json.add("decide_rpc_rounds", static_cast<double>(selector_rounds));
  json.add("decide_coalesced",
           static_cast<double>(metrics.counter_value("selector/decide_coalesced")));
  json.add("trunk_setup_races_resolved", static_cast<double>(races));
  json.add("trunk_setup_retries", static_cast<double>(retries));
  json.add_raw("telemetry", metrics.snapshot_json());

  footer();
  std::printf("every declaration must land: the storm is survivable precisely\n"
              "because opposite-direction setups merge instead of clobbering.\n");
  return failed == 0 ? 0 : 1;
}
