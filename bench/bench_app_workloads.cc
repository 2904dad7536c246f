// E10 / §1 motivation: application-level gains. A key-value store (GET-
// heavy, latency-sensitive) and a MapReduce shuffle (throughput-bound) run
// unchanged over the overlay baseline and over FreeFlow.
#include "bench_common.h"

#include "workloads/kv_store.h"
#include "workloads/shuffle.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

struct KvResult {
  double kops = 0;
  SimDuration p50 = 0;
  SimDuration p99 = 0;
};

KvResult run_kv(StreamPtr client_stream, fabric::Cluster& cluster, int ops) {
  KvServer unused_server;  // server side is wired by the caller
  (void)unused_server;
  auto client = std::make_shared<KvClient>(std::move(client_stream));
  client->set_clock([&cluster]() { return cluster.loop().now(); });

  // Load phase.
  int loaded = 0;
  for (int i = 0; i < 100; ++i) {
    client->put("key" + std::to_string(i), Buffer(512), [&](KvStatus) { ++loaded; });
  }
  FF_CHECK(cluster.loop().spin_until([&]() { return loaded == 100; }, 30 * k_second));

  // GET-heavy closed loop with pipeline depth 8.
  const SimTime start = cluster.loop().now();
  int completed = 0;
  int issued = 0;
  std::function<void()> issue = [&]() {
    while (issued - completed < 8 && issued < ops) {
      ++issued;
      client->get("key" + std::to_string(issued % 100), [&](KvStatus, Buffer&&) {
        ++completed;
        issue();
      });
    }
  };
  issue();
  FF_CHECK(cluster.loop().spin_until([&]() { return completed == ops; }, 300 * k_second));
  const double secs = static_cast<double>(cluster.loop().now() - start) / 1e9;

  KvResult out;
  out.kops = static_cast<double>(ops) / secs / 1e3;
  out.p50 = client->latency().p50();
  out.p99 = client->latency().p99();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Application workloads: KV store + MapReduce shuffle",
         "§1 motivation (key-value stores, big-data analytics)");

  JsonReport json(argc, argv, "app_workloads");

  constexpr int k_ops = 20000;

  // ---- KV store over the overlay baseline ------------------------------
  {
    OverlayRig rig(2, 1, /*inter_host=*/true);
    KvServer server;
    FF_CHECK(rig.net->listen({rig.endpoints[0].second.ip, 7000},
                             [&](tcp::TcpConnection::Ptr c) {
                               server.serve(std::make_shared<TcpStream>(c));
                             })
                 .is_ok());
    tcp::TcpConnection::Ptr conn;
    rig.net->connect(rig.endpoints[0].first, {rig.endpoints[0].second.ip, 7000},
                     [&](Result<tcp::TcpConnection::Ptr> c) {
                       FF_CHECK(c.is_ok());
                       conn = *c;
                     });
    FF_CHECK(rig.env.cluster.loop().spin_until([&]() { return conn != nullptr; }, 10 * k_second));
    auto r = run_kv(std::make_shared<TcpStream>(conn), rig.env.cluster, k_ops);
    json.add("kv_overlay_kops", r.kops);
    json.add("kv_overlay_p99_ns", static_cast<double>(r.p99));
    std::printf("%-26s %8.1f kops/s   p50 %-10s p99 %s\n", "KV over overlay",
                r.kops, format_ns(static_cast<double>(r.p50)).c_str(),
                format_ns(static_cast<double>(r.p99)).c_str());
  }

  // ---- KV store over FreeFlow ------------------------------------------
  {
    FreeFlowRig rig(/*inter_host=*/true);
    KvServer server;
    FF_CHECK(rig.net_b->sock_listen(7000, [&](core::FlowSocketPtr s) {
      server.serve(std::make_shared<FlowSocketStream>(s));
    }).is_ok());
    core::FlowSocketPtr sock;
    rig.net_a->sock_connect(rig.b->ip(), 7000, [&](Result<core::FlowSocketPtr> s) {
      FF_CHECK(s.is_ok());
      sock = *s;
    });
    FF_CHECK(rig.env.cluster.loop().spin_until([&]() { return sock != nullptr; }, 10 * k_second));
    auto r = run_kv(std::make_shared<FlowSocketStream>(sock), rig.env.cluster, k_ops);
    json.add("kv_freeflow_kops", r.kops);
    json.add("kv_freeflow_p99_ns", static_cast<double>(r.p99));
    std::printf("%-26s %8.1f kops/s   p50 %-10s p99 %s   (via %s)\n",
                "KV over FreeFlow", r.kops,
                format_ns(static_cast<double>(r.p50)).c_str(),
                format_ns(static_cast<double>(r.p99)).c_str(),
                orch::transport_name(sock->transport()).data());
  }

  // ---- Shuffle: 2 mappers x 2 reducers, 8 MiB per flow, 4 hosts ---------
  Shuffle::Config cfg;
  cfg.mappers = 2;
  cfg.reducers = 2;
  cfg.bytes_per_flow = 8 * 1024 * 1024;

  {
    // Overlay: mappers on hosts 0/1, reducers on hosts 2/3.
    OverlayRig rig(4, 0, false);
    std::vector<tcp::Ipv4Addr> mappers, reducers;
    for (int i = 0; i < cfg.mappers; ++i) {
      mappers.push_back(*rig.env.overlay_net.add_container(
          static_cast<fabric::HostId>(i), nullptr));
    }
    for (int i = 0; i < cfg.reducers; ++i) {
      reducers.push_back(*rig.env.overlay_net.add_container(
          static_cast<fabric::HostId>(2 + i), nullptr));
    }
    rig.env.loop().run();  // converge

    Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
      rig.net->connect({mappers[static_cast<std::size_t>(m)], 0},
                       {reducers[static_cast<std::size_t>(r)], 8000},
                       [cb = std::move(cb)](Result<tcp::TcpConnection::Ptr> c) {
                         if (!c.is_ok()) {
                           cb(c.status());
                           return;
                         }
                         cb(StreamPtr(std::make_shared<TcpStream>(*c)));
                       });
    });
    auto sink = shuffle.reducer_sink();
    for (auto r : reducers) {
      FF_CHECK(rig.net->listen({r, 8000}, [sink](tcp::TcpConnection::Ptr c) {
        sink(std::make_shared<TcpStream>(c));
      }).is_ok());
    }
    SimDuration elapsed = 0;
    shuffle.run([&]() { return rig.env.loop().now(); },
                [&](Result<SimDuration> e) {
                  FF_CHECK(e.is_ok());
                  elapsed = *e;
                });
    FF_CHECK(rig.env.cluster.loop().spin_until([&]() { return elapsed != 0; }, 600 * k_second));
    json.add("shuffle_overlay_ns", static_cast<double>(elapsed));
    std::printf("%-26s completion %-10s (%.1f Gb/s aggregate)\n",
                "shuffle over overlay", format_ns(static_cast<double>(elapsed)).c_str(),
                throughput_gbps(shuffle.bytes_expected_total(), elapsed));
  }
  {
    // FreeFlow: same placement.
    BenchEnv env(4);
    std::vector<orch::ContainerPtr> ms, rs;
    std::vector<core::ContainerNetPtr> mnets, rnets;
    env.freeflow();
    for (int i = 0; i < cfg.mappers; ++i) {
      ms.push_back(env.deploy("m" + std::to_string(i), 1, static_cast<fabric::HostId>(i)));
      mnets.push_back(env.ff->attach(ms.back()->id()).value());
    }
    for (int i = 0; i < cfg.reducers; ++i) {
      rs.push_back(env.deploy("r" + std::to_string(i), 1,
                              static_cast<fabric::HostId>(2 + i)));
      rnets.push_back(env.ff->attach(rs.back()->id()).value());
    }
    Shuffle shuffle(cfg, [&](int m, int r, std::function<void(Result<StreamPtr>)> cb) {
      mnets[static_cast<std::size_t>(m)]->sock_connect(
          rs[static_cast<std::size_t>(r)]->ip(), 8000,
          [cb = std::move(cb)](Result<core::FlowSocketPtr> s) {
            if (!s.is_ok()) {
              cb(s.status());
              return;
            }
            cb(StreamPtr(std::make_shared<FlowSocketStream>(*s)));
          });
    });
    auto sink = shuffle.reducer_sink();
    for (auto& rn : rnets) {
      FF_CHECK(rn->sock_listen(8000, [sink](core::FlowSocketPtr s) {
        sink(std::make_shared<FlowSocketStream>(s));
      }).is_ok());
    }
    SimDuration elapsed = 0;
    shuffle.run([&]() { return env.loop().now(); }, [&](Result<SimDuration> e) {
      FF_CHECK(e.is_ok());
      elapsed = *e;
    });
    FF_CHECK(env.cluster.loop().spin_until([&]() { return elapsed != 0; }, 600 * k_second));
    json.add("shuffle_freeflow_ns", static_cast<double>(elapsed));
    std::printf("%-26s completion %-10s (%.1f Gb/s aggregate)\n",
                "shuffle over FreeFlow", format_ns(static_cast<double>(elapsed)).c_str(),
                throughput_gbps(shuffle.bytes_expected_total(), elapsed));
  }

  footer();
  std::printf("paper shape: FreeFlow lifts both the latency-sensitive KV and the\n"
              "bandwidth-bound shuffle well past the overlay baseline.\n");
  return 0;
}
