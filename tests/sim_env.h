// Shared test scaffolding: standard cluster/orchestrator/FreeFlow setups
// and small helpers for driving the event loop until a condition holds.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/freeflow.h"
#include "fabric/cluster.h"
#include "orchestrator/cluster_orchestrator.h"
#include "orchestrator/network_orchestrator.h"
#include "overlay/overlay.h"

namespace freeflow::testing {

/// EventLoop::spin_until with the integration tests' default budget.
inline bool run_until(sim::EventLoop& loop, const std::function<bool()>& pred,
                      SimDuration budget = 10 * k_second) {
  return loop.spin_until(pred, budget);
}

/// A full-stack environment: cluster + overlay + orchestrators (+ FreeFlow
/// on demand). Most integration tests start here.
struct Env {
  explicit Env(int hosts = 2, sim::CostModel model = {},
               fabric::NicCapabilities caps = {})
      : cluster(model),
        overlay_net(cluster, tcp::Subnet{tcp::Ipv4Addr(10, 244, 0, 0), 16}) {
    cluster.add_hosts(hosts, "host", caps);
    for (int h = 0; h < hosts; ++h) {
      overlay_net.attach_host(static_cast<fabric::HostId>(h));
    }
    cluster_orch = std::make_unique<orch::ClusterOrchestrator>(cluster, overlay_net);
    net_orch = std::make_unique<orch::NetworkOrchestrator>(*cluster_orch);
  }

  orch::ContainerPtr deploy(const std::string& name, orch::TenantId tenant,
                            fabric::HostId host) {
    orch::ContainerSpec spec;
    spec.name = name;
    spec.tenant = tenant;
    spec.pinned_host = host;
    auto c = cluster_orch->deploy(std::move(spec));
    EXPECT_TRUE(c.is_ok()) << c.status();
    return c.value();
  }

  core::FreeFlow& freeflow(agent::AgentConfig config = {}) {
    if (ff == nullptr) ff = std::make_unique<core::FreeFlow>(*net_orch, config);
    return *ff;
  }

  sim::EventLoop& loop() { return cluster.loop(); }

  bool wait(const std::function<bool()>& pred, SimDuration budget = 10 * k_second) {
    return run_until(loop(), pred, budget);
  }

  fabric::Cluster cluster;
  overlay::OverlayNetwork overlay_net;
  std::unique_ptr<orch::ClusterOrchestrator> cluster_orch;
  std::unique_ptr<orch::NetworkOrchestrator> net_orch;
  std::unique_ptr<core::FreeFlow> ff;
};

}  // namespace freeflow::testing
