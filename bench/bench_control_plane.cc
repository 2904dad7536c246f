// E14 (extension beyond the paper's figures): control-plane costs — the
// part of FreeFlow the paper argues is cheap because it is off the data
// path. Measures (1) overlay route convergence vs cluster size, (2)
// FreeFlow channel setup latency per transport, (3) what the library's
// location/decision cache saves per connection setup.
#include "bench_common.h"

using namespace freeflow;
using namespace freeflow::bench;

int main(int argc, char** argv) {
  banner("Control plane: convergence, setup latency, cache effectiveness",
         "extension: §4.1 'centralized control-plane' costs quantified");

  JsonReport json(argc, argv, "control_plane");

  // ---- 1. BGP-lite route convergence vs cluster size ---------------------
  std::printf("route convergence (announce one container, all routers learn):\n");
  std::printf("%8s %16s\n", "hosts", "convergence");
  for (int hosts : {2, 8, 32, 128}) {
    fabric::Cluster cluster;
    cluster.add_hosts(hosts);
    overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
    for (int h = 0; h < hosts; ++h) {
      overlay.attach_host(static_cast<fabric::HostId>(h));
    }
    auto ip = overlay.add_container(0, nullptr);
    FF_CHECK(ip.is_ok());
    const SimTime start = cluster.loop().now();
    const bool converged = cluster.loop().spin_until([&]() {
      for (int h = 1; h < hosts; ++h) {
        if (!overlay.router(static_cast<fabric::HostId>(h))->route(*ip).has_value()) {
          return false;
        }
      }
      return true;
    }, k_second);
    FF_CHECK(converged);
    json.add("convergence_ns_" + std::to_string(hosts) + "hosts",
             static_cast<double>(cluster.loop().now() - start));
    std::printf("%8d %16s\n", hosts,
                format_ns(static_cast<double>(cluster.loop().now() - start)).c_str());
  }

  // ---- 2. FreeFlow channel setup latency per transport -------------------
  std::printf("\nchannel setup latency (sock_connect -> connected), cold cache:\n");
  std::printf("%-14s %16s\n", "transport", "setup");
  struct Case {
    const char* name;
    bool inter_host;
    fabric::NicCapabilities caps;
  };
  for (const Case& c : {Case{"shm", false, {}},
                        Case{"rdma", true, {}},
                        Case{"dpdk", true, {.rdma = false, .dpdk = true}},
                        Case{"tcp-host", true, {.rdma = false, .dpdk = false}}}) {
    FreeFlowRig rig(c.inter_host, sim::CostModel{}, c.caps);
    FF_CHECK(rig.net_b->sock_listen(5000, [](core::FlowSocketPtr s) {
      static std::vector<core::FlowSocketPtr> keep;
      keep.push_back(std::move(s));
    }).is_ok());
    core::FlowSocketPtr sock;
    const SimTime start = rig.env.loop().now();
    rig.net_a->sock_connect(rig.b->ip(), 5000, [&](Result<core::FlowSocketPtr> s) {
      FF_CHECK(s.is_ok());
      sock = *s;
    });
    FF_CHECK(rig.env.cluster.loop().spin_until([&]() { return sock != nullptr; }, 10 * k_second));
    json.add(std::string(c.name) + "_setup_ns",
             static_cast<double>(rig.env.loop().now() - start));
    std::printf("%-14s %16s   (via %s)\n", c.name,
                format_ns(static_cast<double>(rig.env.loop().now() - start)).c_str(),
                orch::transport_name(sock->transport()).data());
  }

  // ---- 3. selector cache: first vs subsequent connects -------------------
  std::printf("\nlocation/decision cache (second connect reuses the cached\n"
              "orchestrator answer AND the established trunk):\n");
  {
    FreeFlowRig rig(true);
    FF_CHECK(rig.net_b->sock_listen(5000, [](core::FlowSocketPtr s) {
      static std::vector<core::FlowSocketPtr> keep;
      keep.push_back(std::move(s));
    }).is_ok());
    for (int attempt = 1; attempt <= 3; ++attempt) {
      core::FlowSocketPtr sock;
      const SimTime start = rig.env.loop().now();
      rig.net_a->sock_connect(rig.b->ip(), 5000, [&](Result<core::FlowSocketPtr> s) {
        FF_CHECK(s.is_ok());
        sock = *s;
      });
      FF_CHECK(rig.env.cluster.loop().spin_until([&]() { return sock != nullptr; }, 10 * k_second));
      std::printf("  connect #%d: %10s   (cache hits=%llu misses=%llu)\n", attempt,
                  format_ns(static_cast<double>(rig.env.loop().now() - start)).c_str(),
                  static_cast<unsigned long long>(rig.env.ff->selector().cache_hits()),
                  static_cast<unsigned long long>(rig.env.ff->selector().cache_misses()));
    }
  }

  footer();
  std::printf("the control plane stays in the microsecond-to-millisecond range\n"
              "and off the per-message path — the paper's premise for making the\n"
              "orchestrator (conceptually) centralized.\n");
  return 0;
}
