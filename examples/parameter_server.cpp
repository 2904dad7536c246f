// Distributed ML training with a parameter server (the paper's "machine
// learning" motivation), written directly against FreeFlow's verbs API:
// workers push gradients with one-sided WRITE and pull the model with READ
// — no server CPU in the data path, whatever transport backs each worker.
//
//   ./build/examples/parameter_server
#include <cstdio>

#include "common/histogram.h"
#include "core/freeflow.h"
#include "orchestrator/cluster_orchestrator.h"
#include "workloads/param_server.h"

using namespace freeflow;
using workloads::ParamServer;
using workloads::PsWorker;

int main() {
  fabric::Cluster cluster;
  cluster.add_hosts(3);
  overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
  for (fabric::HostId h = 0; h < 3; ++h) overlay.attach_host(h);
  orch::ClusterOrchestrator cluster_orch(cluster, overlay);
  orch::NetworkOrchestrator net_orch(cluster_orch);
  core::FreeFlow freeflow(net_orch);

  auto deploy = [&](const std::string& name, fabric::HostId host) {
    orch::ContainerSpec spec;
    spec.name = name;
    spec.tenant = 1;
    spec.pinned_host = host;
    return cluster_orch.deploy(spec).value();
  };

  ParamServer::Config cfg;
  cfg.model_floats = 512 * 1024;  // 2 MiB model
  cfg.iterations = 5;

  auto server_c = deploy("ps-server", 0);
  auto server_net = freeflow.attach(server_c->id()).value();
  ParamServer server(server_net, cfg);
  FF_CHECK(server.start().is_ok());
  std::printf("parameter server up: model = %zu floats (%zu KiB), MR id %u\n",
              cfg.model_floats, cfg.model_floats * sizeof(float) / 1024,
              server.model_mr_id());

  // One worker co-located with the server, two on other hosts.
  struct Rig {
    std::unique_ptr<PsWorker> worker;
    SimDuration elapsed = 0;
    std::string name;
  };
  std::vector<std::shared_ptr<Rig>> rigs;
  int h = 0;
  for (const char* name : {"worker-local", "worker-far-1", "worker-far-2"}) {
    auto c = deploy(name, static_cast<fabric::HostId>(h == 0 ? 0 : h));
    ++h;
    auto net = freeflow.attach(c->id()).value();
    auto rig = std::make_shared<Rig>();
    rig->name = name;
    rig->worker = std::make_unique<PsWorker>(net, server_c->ip(), cfg);
    rig->worker->run(server.model_mr_id(), [rig](Result<SimDuration> e) {
      FF_CHECK(e.is_ok());
      rig->elapsed = *e;
    });
    rigs.push_back(std::move(rig));
  }

  FF_CHECK(cluster.loop().spin_until([&]() {
    for (const auto& r : rigs) {
      if (r->elapsed == 0) return false;
    }
    return true;
  }, 600 * k_second));

  const double bytes_per_iter = 2.0 * static_cast<double>(cfg.model_floats) *
                                sizeof(float);  // push + pull
  std::printf("\n%-14s %-10s %14s %16s\n", "worker", "transport", "per-iteration",
              "effective rate");
  for (const auto& r : rigs) {
    const double per_iter = static_cast<double>(r->elapsed) / cfg.iterations;
    std::printf("%-14s %-10s %14s %12.1f Gb/s\n", r->name.c_str(),
                orch::transport_name(r->worker->transport()).data(),
                format_ns(per_iter).c_str(), bytes_per_iter * 8.0 / per_iter);
  }
  std::printf("\nthe co-located worker iterates fastest (shm); far workers ride\n"
              "RDMA; the server posted nothing after setup (one-sided verbs).\n");
  return 0;
}
