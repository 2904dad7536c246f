// Live migration (paper §7): a long-lived connection keeps flowing while
// the orchestrator moves one container between hosts — twice. The overlay
// IP never changes; the conduit re-binds to whatever data plane is now
// optimal (rdma <-> shm).
//
//   ./build/examples/live_migration
#include <cstdio>

#include "core/freeflow.h"
#include "orchestrator/cluster_orchestrator.h"

using namespace freeflow;

int main() {
  fabric::Cluster cluster;
  cluster.add_hosts(2);
  overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
  overlay.attach_host(0);
  overlay.attach_host(1);
  orch::ClusterOrchestrator cluster_orch(cluster, overlay);
  orch::NetworkOrchestrator net_orch(cluster_orch);
  core::FreeFlow freeflow(net_orch);

  orch::ContainerSpec spec;
  spec.name = "producer";
  spec.tenant = 1;
  spec.pinned_host = 0u;
  auto producer = cluster_orch.deploy(spec).value();
  spec.name = "consumer";
  spec.pinned_host = 1u;
  auto consumer = cluster_orch.deploy(spec).value();

  auto producer_net = freeflow.attach(producer->id()).value();
  auto consumer_net = freeflow.attach(consumer->id()).value();

  core::FlowSocketPtr rx, tx;
  std::uint64_t received = 0, integrity_errors = 0;
  std::uint64_t expected_seed = 0;
  FF_CHECK(consumer_net->sock_listen(9000, [&](core::FlowSocketPtr s) {
    rx = s;
    s->set_on_data([&](Buffer&& chunk) {
      // 64 KiB chunks, each patterned with its sequence number.
      if (!check_pattern(chunk.view(), expected_seed)) ++integrity_errors;
      ++expected_seed;
      received += chunk.size();
    });
  }).is_ok());
  producer_net->sock_connect(consumer->ip(), 9000, [&](Result<core::FlowSocketPtr> s) {
    FF_CHECK(s.is_ok());
    tx = *s;
  });
  FF_CHECK(cluster.loop().spin_until([&]() { return tx && rx; }, 5 * k_second));

  std::uint64_t sent_seed = 0;
  auto send_burst = [&](int chunks) {
    for (int i = 0; i < chunks; ++i) {
      Buffer chunk(64 * 1024);
      fill_pattern(chunk.mutable_view(), sent_seed++);
      FF_CHECK(tx->send(std::move(chunk)).is_ok());
    }
  };
  auto drain = [&]() {
    FF_CHECK(cluster.loop().spin_until([&]() { return expected_seed == sent_seed; },
                                       60 * k_second));
  };
  auto report = [&](const char* phase) {
    std::printf("%-28s transport=%-5s  received=%6llu KiB  integrity_errors=%llu\n",
                phase, orch::transport_name(tx->transport()).data(),
                static_cast<unsigned long long>(received / 1024),
                static_cast<unsigned long long>(integrity_errors));
  };

  send_burst(256);
  drain();
  report("phase 1: apart (host0/host1)");

  // Migrate the consumer next to the producer. The stream is quiesced
  // (bursts are drained) so no in-flight data straddles the blackout.
  FF_CHECK(cluster_orch.migrate(consumer->id(), 0).is_ok());
  FF_CHECK(cluster.loop().spin_until([&]() {
    return consumer->host() == 0 && tx->transport() == orch::Transport::shm;
  }, 10 * k_second));
  send_burst(256);
  drain();
  report("phase 2: co-located (host0)");

  // And move it back: shm -> rdma again.
  FF_CHECK(cluster_orch.migrate(consumer->id(), 1).is_ok());
  FF_CHECK(cluster.loop().spin_until([&]() {
    return consumer->host() == 1 && tx->transport() == orch::Transport::rdma;
  }, 10 * k_second));
  send_burst(256);
  drain();
  report("phase 3: apart again");

  std::printf("\nconduit re-binds: %llu; overlay IP stayed %s throughout.\n",
              static_cast<unsigned long long>(tx->conduit()->rebinds()),
              consumer->ip().to_string().c_str());
  return integrity_errors == 0 ? 0 : 1;
}
