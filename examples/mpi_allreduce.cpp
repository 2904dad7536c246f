// Data-parallel training with MPI collectives over FreeFlow (paper §6:
// "the same concepts are applicable for MPI run-time libraries... by
// layering the MPI implementation on top of FreeFlow"). Four ranks spread
// over two hosts run synchronous SGD steps: local gradient computation,
// allreduce to average, barrier between epochs.
//
//   ./build/examples/mpi_allreduce
#include <cmath>
#include <cstdio>

#include "common/histogram.h"
#include "core/freeflow.h"
#include "core/mpi.h"
#include "orchestrator/cluster_orchestrator.h"

using namespace freeflow;

int main() {
  constexpr int k_ranks = 4;
  constexpr int k_epochs = 3;
  constexpr std::size_t k_params = 64 * 1024;  // 512 KiB of doubles

  fabric::Cluster cluster;
  cluster.add_hosts(2);
  overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
  overlay.attach_host(0);
  overlay.attach_host(1);
  orch::ClusterOrchestrator cluster_orch(cluster, overlay);
  orch::NetworkOrchestrator net_orch(cluster_orch);
  core::FreeFlow freeflow(net_orch);

  std::vector<orch::ContainerPtr> containers;
  std::vector<core::ContainerNetPtr> nets;
  std::vector<tcp::Ipv4Addr> ips;
  for (int r = 0; r < k_ranks; ++r) {
    orch::ContainerSpec spec;
    spec.name = "rank" + std::to_string(r);
    spec.tenant = 1;
    spec.pinned_host = static_cast<fabric::HostId>(r % 2);
    containers.push_back(cluster_orch.deploy(spec).value());
    nets.push_back(freeflow.attach(containers.back()->id()).value());
    ips.push_back(containers.back()->ip());
  }
  std::vector<core::MpiEndpointPtr> ranks;
  for (int r = 0; r < k_ranks; ++r) {
    ranks.push_back(std::make_shared<core::MpiEndpoint>(nets[static_cast<std::size_t>(r)],
                                                        r, ips));
    FF_CHECK(ranks.back()->start().is_ok());
  }
  std::printf("MPI world: %d ranks on 2 hosts (intra-host pairs ride shm,\n"
              "cross-host pairs ride RDMA — the MPI layer never knows)\n\n",
              k_ranks);

  // Synchronous SGD: each rank contributes rank-dependent "gradients"; the
  // allreduce result must equal the sum on every rank, every epoch.
  for (int epoch = 0; epoch < k_epochs; ++epoch) {
    const SimTime t0 = cluster.loop().now();
    int done = 0;
    double checksum = 0;
    for (int r = 0; r < k_ranks; ++r) {
      std::vector<double> grad(k_params);
      for (std::size_t i = 0; i < k_params; ++i) {
        grad[i] = static_cast<double>(r + 1) * 0.001;
      }
      ranks[static_cast<std::size_t>(r)]->allreduce_sum(
          std::move(grad), [&, r](std::vector<double> sum) {
            if (r == 0) checksum = sum[0];
            ++done;
          });
    }
    FF_CHECK(cluster.loop().spin_until([&]() { return done == k_ranks; }, 300 * k_second));

    // Expected: sum over ranks of (r+1)*0.001 = (1+2+3+4)*0.001.
    const double expected = 10.0 * 0.001;
    FF_CHECK(std::abs(checksum - expected) < 1e-12);

    int through = 0;
    for (auto& ep : ranks) ep->barrier([&]() { ++through; });
    FF_CHECK(cluster.loop().spin_until([&]() { return through == k_ranks; }, 300 * k_second));

    std::printf("epoch %d: allreduce(%zu params) + barrier in %s (checksum ok)\n",
                epoch, k_params,
                format_ns(static_cast<double>(cluster.loop().now() - t0)).c_str());
  }

  // Show the transports the MPI layer ended up on.
  std::printf("\nrank 0's connections:\n");
  for (const auto& conn : nets[0]->connections()) {
    std::printf("  -> %-12s via %s\n", conn.peer_ip.to_string().c_str(),
                orch::transport_name(conn.transport).data());
  }
  std::printf("\nMPI programs port to FreeFlow with zero changes: collectives\n"
              "decompose to point-to-point sends that each take the best path.\n");
  return 0;
}
