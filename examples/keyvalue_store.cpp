// A containerized key-value service (the latency-sensitive workload class
// from the paper's introduction): one server container, three client
// containers spread over two hosts. The same KvServer/KvClient code runs
// whether a client reaches the server over shared memory (co-located) or
// RDMA (remote) — FreeFlow decides per pair.
//
//   ./build/examples/keyvalue_store
#include <cstdio>

#include "core/freeflow.h"
#include "orchestrator/cluster_orchestrator.h"
#include "workloads/kv_store.h"

using namespace freeflow;
using workloads::FlowSocketStream;
using workloads::KvClient;
using workloads::KvServer;
using workloads::KvStatus;

int main() {
  fabric::Cluster cluster;
  cluster.add_hosts(2);
  overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
  overlay.attach_host(0);
  overlay.attach_host(1);
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
  auto server_c = deploy("kv-server", 0);
  auto local_client_c = deploy("client-local", 0);    // co-located -> shm
  auto remote1_c = deploy("client-remote-1", 1);      // remote     -> rdma
  auto remote2_c = deploy("client-remote-2", 1);

  auto server_net = freeflow.attach(server_c->id()).value();
  KvServer kv;
  FF_CHECK(server_net->sock_listen(6379, [&kv](core::FlowSocketPtr s) {
    kv.serve(std::make_shared<FlowSocketStream>(s));
  }).is_ok());

  struct ClientRig {
    std::shared_ptr<KvClient> client;
    core::FlowSocketPtr sock;
    std::string name;
  };
  std::vector<ClientRig> clients;
  for (auto& c : {local_client_c, remote1_c, remote2_c}) {
    auto net = freeflow.attach(c->id()).value();
    auto rig = std::make_shared<ClientRig>();
    rig->name = c->name();
    net->sock_connect(server_c->ip(), 6379, [&, rig](Result<core::FlowSocketPtr> s) {
      FF_CHECK(s.is_ok());
      rig->sock = *s;
      rig->client = std::make_shared<KvClient>(std::make_shared<FlowSocketStream>(*s));
      rig->client->set_clock([&cluster]() { return cluster.loop().now(); });
    });
    FF_CHECK(cluster.loop().spin_until([&]() { return rig->client != nullptr; }, 5 * k_second));
    std::printf("%-16s connected via %s\n", rig->name.c_str(),
                orch::transport_name(rig->sock->transport()).data());
    clients.push_back(*rig);
  }

  // Each client writes its own keyspace, then everyone cross-reads.
  int outstanding = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (int k = 0; k < 50; ++k) {
      ++outstanding;
      Buffer value(256);
      fill_pattern(value.mutable_view(), i * 1000 + static_cast<std::uint64_t>(k));
      clients[i].client->put("c" + std::to_string(i) + "/k" + std::to_string(k),
                             std::move(value), [&](KvStatus) { --outstanding; });
    }
  }
  FF_CHECK(cluster.loop().spin_until([&]() { return outstanding == 0; }, 30 * k_second));
  std::printf("loaded 150 keys\n");

  int mismatches = 0;
  for (std::size_t reader = 0; reader < clients.size(); ++reader) {
    for (std::size_t owner = 0; owner < clients.size(); ++owner) {
      for (int k = 0; k < 50; k += 7) {
        ++outstanding;
        const auto seed = owner * 1000 + static_cast<std::uint64_t>(k);
        clients[reader].client->get(
            "c" + std::to_string(owner) + "/k" + std::to_string(k),
            [&, seed](KvStatus st, Buffer&& v) {
              if (st != KvStatus::ok || !check_pattern(v.view(), seed)) ++mismatches;
              --outstanding;
            });
      }
    }
  }
  FF_CHECK(cluster.loop().spin_until([&]() { return outstanding == 0; }, 30 * k_second));
  std::printf("cross-read complete, mismatches: %d\n", mismatches);

  for (auto& rig : clients) {
    std::printf("%-16s %llu ops, median latency %s (%s)\n", rig.name.c_str(),
                static_cast<unsigned long long>(rig.client->completed()),
                format_ns(static_cast<double>(rig.client->latency().p50())).c_str(),
                orch::transport_name(rig.sock->transport()).data());
  }
  std::printf("\nnote how the co-located client's latency beats the remote ones:\n"
              "same application code, different data plane per pair.\n");
  return mismatches == 0 ? 0 : 1;
}
