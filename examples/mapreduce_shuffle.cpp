// The shuffle phase of a MapReduce job (the paper's "big data analytics"
// motivation): 3 mappers stream partitions to 3 reducers across a 4-host
// cluster, once over the overlay baseline and once over FreeFlow, printing
// the completion-time gap.
//
//   ./build/examples/mapreduce_shuffle
#include <cstdio>

#include "common/histogram.h"
#include "core/freeflow.h"
#include "orchestrator/cluster_orchestrator.h"
#include "workloads/shuffle.h"
#include "workloads/stream_adapter.h"

using namespace freeflow;
using workloads::FlowSocketStream;
using workloads::Shuffle;
using workloads::StreamPtr;
using workloads::TcpStream;

namespace {

Shuffle::Config make_config() {
  Shuffle::Config cfg;
  cfg.mappers = 3;
  cfg.reducers = 3;
  cfg.bytes_per_flow = 16 * 1024 * 1024;
  return cfg;
}
}  // namespace

int main() {
  const Shuffle::Config cfg = make_config();
  std::printf("shuffle: %d mappers x %d reducers, %llu MiB per flow (%llu MiB total)\n",
              cfg.mappers, cfg.reducers,
              static_cast<unsigned long long>(cfg.bytes_per_flow >> 20),
              static_cast<unsigned long long>(
                  (cfg.bytes_per_flow * static_cast<std::uint64_t>(cfg.mappers) *
                   static_cast<std::uint64_t>(cfg.reducers)) >> 20));

  SimDuration overlay_time = 0;
  SimDuration freeflow_time = 0;

  // ---- Baseline: docker-overlay-style networking ------------------------
  {
    fabric::Cluster cluster;
    cluster.add_hosts(4);
    overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
    for (fabric::HostId h = 0; h < 4; ++h) overlay.attach_host(h);

    std::vector<tcp::Ipv4Addr> mappers, reducers;
    for (int i = 0; i < cfg.mappers; ++i) {
      mappers.push_back(*overlay.add_container(static_cast<fabric::HostId>(i % 4), nullptr));
    }
    for (int i = 0; i < cfg.reducers; ++i) {
      reducers.push_back(
          *overlay.add_container(static_cast<fabric::HostId>((i + 2) % 4), nullptr));
    }
    cluster.loop().run();  // converge routes

    tcp::TcpNetwork net(cluster.loop(), cluster.cost_model(), overlay.path_builder());
    Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
      net.connect({mappers[static_cast<std::size_t>(m)], 0},
                  {reducers[static_cast<std::size_t>(r)], 8000},
                  [cb = std::move(cb)](Result<tcp::TcpConnection::Ptr> c) {
                    if (!c.is_ok()) return cb(c.status());
                    cb(StreamPtr(std::make_shared<TcpStream>(*c)));
                  });
    });
    auto sink = shuffle.reducer_sink();
    for (auto r : reducers) {
      FF_CHECK(net.listen({r, 8000}, [sink](tcp::TcpConnection::Ptr c) {
        sink(std::make_shared<TcpStream>(c));
      }).is_ok());
    }
    shuffle.run([&]() { return cluster.loop().now(); },
                [&](Result<SimDuration> e) {
                  FF_CHECK(e.is_ok());
                  overlay_time = *e;
                });
    FF_CHECK(cluster.loop().spin_until([&]() { return overlay_time != 0; }, 600 * k_second));
  }

  // ---- FreeFlow ----------------------------------------------------------
  {
    fabric::Cluster cluster;
    cluster.add_hosts(4);
    overlay::OverlayNetwork overlay(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16});
    for (fabric::HostId h = 0; h < 4; ++h) overlay.attach_host(h);
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
    std::vector<orch::ContainerPtr> ms, rs;
    std::vector<core::ContainerNetPtr> mnets, rnets;
    for (int i = 0; i < cfg.mappers; ++i) {
      ms.push_back(deploy("map" + std::to_string(i), static_cast<fabric::HostId>(i % 4)));
      mnets.push_back(freeflow.attach(ms.back()->id()).value());
    }
    for (int i = 0; i < cfg.reducers; ++i) {
      rs.push_back(
          deploy("red" + std::to_string(i), static_cast<fabric::HostId>((i + 2) % 4)));
      rnets.push_back(freeflow.attach(rs.back()->id()).value());
    }

    Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
      mnets[static_cast<std::size_t>(m)]->sock_connect(
          rs[static_cast<std::size_t>(r)]->ip(), 8000,
          [cb = std::move(cb)](Result<core::FlowSocketPtr> s) {
            if (!s.is_ok()) return cb(s.status());
            cb(StreamPtr(std::make_shared<FlowSocketStream>(*s)));
          });
    });
    auto sink = shuffle.reducer_sink();
    for (auto& rn : rnets) {
      FF_CHECK(rn->sock_listen(8000, [sink](core::FlowSocketPtr s) {
        sink(std::make_shared<FlowSocketStream>(s));
      }).is_ok());
    }
    shuffle.run([&]() { return cluster.loop().now(); },
                [&](Result<SimDuration> e) {
                  FF_CHECK(e.is_ok());
                  freeflow_time = *e;
                });
    FF_CHECK(cluster.loop().spin_until([&]() { return freeflow_time != 0; }, 600 * k_second));
  }

  std::printf("\n%-18s %12s\n", "network", "completion");
  std::printf("%-18s %12s\n", "overlay",
              format_ns(static_cast<double>(overlay_time)).c_str());
  std::printf("%-18s %12s   (%.2fx faster)\n", "FreeFlow",
              format_ns(static_cast<double>(freeflow_time)).c_str(),
              static_cast<double>(overlay_time) / static_cast<double>(freeflow_time));
  std::printf("\nmapper->reducer flows that land on a shared host ride shared\n"
              "memory; cross-host flows ride RDMA — no shuffle code changed.\n");
  return 0;
}
