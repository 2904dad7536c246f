// E11 / §7 Discussion ("Live migration"): connection-preserving live
// migration as a planned protocol. A server container with TWO live
// streaming connections — a FlowSocket and a sockets-over-RDMA stream —
// ping-pongs between hosts under the MigrationCoordinator while both
// receivers pattern-verify every byte. The bench reports the planned
// blackout distribution (receiver-silence p50/p99/max), one reactive
// stop-and-copy blackout measured in the SAME run for comparison, and the
// loss/reorder counters the perf gate holds at hard zero. The finale
// migrates the server onto the client's host: the resumed conduits must
// re-decide onto shm.
#include "bench_common.h"

#include "common/logging.h"
#include "migration/migration.h"
#include "stream/stream_net.h"

using namespace freeflow;
using namespace freeflow::bench;
using namespace freeflow::workloads;

namespace {

constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

/// One pattern-verified receiver with a receiver-silence gap tracker (the
/// bench_failover blackout idiom): while armed, the longest stretch without
/// a verified byte is the app-visible blackout.
struct Rx {
  sim::EventLoop* loop = nullptr;
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  SimTime last_rx = 0;
  SimDuration max_gap = 0;
  bool track = false;

  void feed(const Buffer& b) {
    const auto* bytes = b.data();
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(verified + i)) {
        ++mismatches;
        return;
      }
    }
    verified += b.size();
    const SimTime now = loop->now();
    if (track && now - last_rx > max_gap) max_gap = now - last_rx;
    last_rx = now;
  }
  void arm() {
    last_rx = loop->now();
    max_gap = 0;
    track = true;
  }
  SimDuration disarm() {
    track = false;
    return max_gap;
  }
};

Buffer pattern_chunk(std::uint64_t offset, std::size_t n) {
  Buffer msg(n);
  auto* out = msg.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(pattern_byte(offset + i));
  }
  return msg;
}

}  // namespace

int main(int argc, char** argv) {
  banner("Live migration: planned, connection-preserving moves",
         "§7 Discussion (FreeFlow as a live-migration enabler)");

  JsonReport json(argc, argv, "live_migration");
  std::string trace_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--trace") trace_path = argv[i + 1];
  }

  BenchEnv env(3);
  auto& cluster = env.cluster;
  auto a = env.deploy("client", 1, 0);
  auto b = env.deploy("server", 1, 1);
  auto& ff = env.freeflow();
  auto na = ff.attach(a->id());
  auto nb = ff.attach(b->id());
  FF_CHECK(na.is_ok() && nb.is_ok());
  migration::MigrationCoordinator coord(ff);

  // ---- connection 1: FlowSocket, client -> server, pattern-verified ----
  Rx sock_rx;
  sock_rx.loop = &cluster.loop();
  core::FlowSocketPtr sock_client, sock_server;
  std::uint64_t sock_sent = 0;
  FF_CHECK((*nb)->sock_listen(5000, [&](core::FlowSocketPtr s) {
    sock_server = s;
    s->set_on_data([&](Buffer&& buf) { sock_rx.feed(buf); });
  }).is_ok());
  (*na)->sock_connect(b->ip(), 5000, [&](Result<core::FlowSocketPtr> s) {
    FF_CHECK(s.is_ok());
    sock_client = *s;
  });
  FF_CHECK(cluster.loop().spin_until([&]() { return sock_client && sock_server; }, 10 * k_second));

  // ---- connection 2: stream adapter (TSoR), client -> server ----
  auto stream_a = stream::StreamNet::make(*na);
  auto stream_b = stream::StreamNet::make(*nb);
  Rx tsor_rx;
  tsor_rx.loop = &cluster.loop();
  stream::StreamSocketPtr tsor_client, tsor_server;
  std::uint64_t tsor_sent = 0;
  FF_CHECK(stream_b->listen(5001, [&](stream::StreamSocketPtr s) {
    tsor_server = s;
    s->set_on_data([&](Buffer&& buf) { tsor_rx.feed(buf); });
  }).is_ok());
  stream_a->connect(b->ip(), 5001, [&](Result<stream::StreamSocketPtr> s) {
    FF_CHECK(s.is_ok());
    tsor_client = *s;
  });
  FF_CHECK(cluster.loop().spin_until([&]() { return tsor_client && tsor_server; }, 10 * k_second));

  // Writable-paced pumps plus the periodic re-pump that rides out the
  // pause/resume windows (on_space is silent across a splice). `pumping`
  // shuts the firehose off for the final drain-and-account phase.
  auto pumping = std::make_shared<bool>(true);
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&, pumping]() {
    if (!*pumping) return;
    while (sock_client->writable()) {
      const std::size_t n = 64 * 1024;
      FF_CHECK(sock_client->send(pattern_chunk(sock_sent, n)).is_ok());
      sock_sent += n;
    }
    while (tsor_client->writable()) {
      const std::size_t n = 32 * 1024;
      FF_CHECK(tsor_client->send(pattern_chunk(tsor_sent, n)).is_ok());
      tsor_sent += n;
    }
  };
  sock_client->set_on_space([pump]() { (*pump)(); });
  tsor_client->set_on_space([pump]() { (*pump)(); });
  (*pump)();
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&cluster, pump, pumping, tick]() {
    if (!*pumping) return;
    (*pump)();
    cluster.loop().schedule(50 * k_microsecond, [tick]() { (*tick)(); });
  };
  (*tick)();

  // Warm up: both streams flowing, the TSoR stream upgraded onto its RC QP.
  FF_CHECK(cluster.loop().spin_until([&]() {
    return sock_rx.verified > 8ull * 1024 * 1024 &&
           tsor_rx.verified > 2ull * 1024 * 1024 && stream_a->upgrades() >= 1;
  }, 10 * k_second));
  std::printf("streams up: socket %s, stream adapter via RC QP\n",
              orch::transport_name(sock_client->transport()).data());

  // ---- planned ping-pong: 6 coordinated moves host1 <-> host2 ----------
  Histogram planned_gap_ns;   // receiver-silence blackout per move
  Histogram report_blackout_ns;  // coordinator's pause->live span
  std::uint64_t image_bytes_total = 0;
  std::uint64_t conduits_moved_total = 0;
  int planned_moves = 0;
  bool all_drained = true;
  for (int i = 0; i < 6; ++i) {
    const fabric::HostId dst = (b->host() == 1) ? 2 : 1;
    sock_rx.arm();
    tsor_rx.arm();
    bool done = false;
    migration::MigrationReport report;
    coord.migrate(b->id(), dst, [&](Result<migration::MigrationReport> r) {
      FF_CHECK(r.is_ok());
      report = *r;
      done = true;
    });
    FF_CHECK(cluster.loop().spin_until([&]() { return done; }, 10 * k_second));
    // Let both receivers verify fresh post-move bytes so the silence window
    // brackets the whole outage, then read the gaps.
    const SimTime resumed = cluster.loop().now();
    FF_CHECK(cluster.loop().spin_until([&]() {
      return sock_rx.last_rx > resumed && tsor_rx.last_rx > resumed;
    }, 10 * k_second));
    const SimDuration gap = std::max(sock_rx.disarm(), tsor_rx.disarm());
    planned_gap_ns.record(gap);
    report_blackout_ns.record(report.blackout_ns);
    image_bytes_total += report.image_bytes;
    conduits_moved_total += report.conduits_moved;
    all_drained = all_drained && report.drained;
    ++planned_moves;
    std::printf("planned move %d: host%u, %zu conns, image %zu B, "
                "blackout %s (receiver gap %s)%s\n",
                i + 1, dst, report.conduits_moved, report.image_bytes,
                format_ns(static_cast<double>(report.blackout_ns)).c_str(),
                format_ns(static_cast<double>(gap)).c_str(),
                report.drained ? "" : " [quiesce timeout]");
  }

  // ---- one reactive stop-and-copy move, same run, same metric ----------
  sock_rx.arm();
  tsor_rx.arm();
  const fabric::HostId reactive_dst = (b->host() == 1) ? 2 : 1;
  FF_CHECK(env.cluster_orch->migrate(b->id(), reactive_dst).is_ok());
  FF_CHECK(cluster.loop().spin_until([&]() {
    return b->state() == orch::ContainerState::running && b->host() == reactive_dst;
  }, 10 * k_second));
  const SimTime reactive_done = cluster.loop().now();
  FF_CHECK(cluster.loop().spin_until([&]() {
    return sock_rx.last_rx > reactive_done && tsor_rx.last_rx > reactive_done;
  }, 30 * k_second));
  const SimDuration reactive_gap = std::max(sock_rx.disarm(), tsor_rx.disarm());
  std::printf("reactive move: receiver gap %s (50 ms stop-and-copy default)\n",
              format_ns(static_cast<double>(reactive_gap)).c_str());

  // ---- finale: co-locate with the client; resumed conduits pick shm ----
  bool done = false;
  coord.migrate(b->id(), 0, [&](Result<migration::MigrationReport> r) {
    FF_CHECK(r.is_ok());
    done = true;
  });
  FF_CHECK(cluster.loop().spin_until([&]() { return done; }, 10 * k_second));
  ++planned_moves;
  const bool colocated_shm = cluster.loop().spin_until([&]() {
    return sock_client->transport() == orch::Transport::shm;
  }, 10 * k_second);
  std::printf("co-located: socket conduit now rides %s\n",
              orch::transport_name(sock_client->transport()).data());

  // ---- drain both streams and account for every byte ------------------
  *pumping = false;
  sock_client->set_on_space(nullptr);
  tsor_client->set_on_space(nullptr);
  const std::uint64_t sock_target = sock_sent;
  const std::uint64_t tsor_target = tsor_sent;
  cluster.loop().spin_until([&]() {
    return sock_rx.verified >= sock_target && tsor_rx.verified >= tsor_target;
  }, 30 * k_second);
  const std::uint64_t sock_lost =
      sock_target > sock_rx.verified ? sock_target - sock_rx.verified : 0;
  const std::uint64_t tsor_lost =
      tsor_target > tsor_rx.verified ? tsor_target - tsor_rx.verified : 0;

  const double ms = static_cast<double>(k_millisecond);
  json.add("migrations", planned_moves);
  json.add("conduits_moved", static_cast<double>(conduits_moved_total));
  json.add("planned_blackout_p50_ms", static_cast<double>(planned_gap_ns.p50()) / ms);
  json.add("planned_blackout_p99_ms", static_cast<double>(planned_gap_ns.p99()) / ms);
  json.add("planned_blackout_max_ms", static_cast<double>(planned_gap_ns.max()) / ms);
  json.add("coordinator_blackout_max_ms",
           static_cast<double>(report_blackout_ns.max()) / ms);
  json.add("reactive_blackout_ms", static_cast<double>(reactive_gap) / ms);
  json.add("image_bytes", static_cast<double>(image_bytes_total));
  json.add("all_drained", all_drained ? 1 : 0);
  json.add("quiesce_timeouts", static_cast<double>(coord.quiesce_timeouts()));
  json.add("lost_bytes", static_cast<double>(sock_lost));
  json.add("pattern_mismatches", static_cast<double>(sock_rx.mismatches));
  json.add("stream_lost_bytes", static_cast<double>(tsor_lost));
  json.add("stream_pattern_mismatches", static_cast<double>(tsor_rx.mismatches));
  json.add("colocated_shm", colocated_shm ? 1 : 0);
  json.add_raw("telemetry", cluster.telemetry().metrics().snapshot_json());

  footer();
  std::printf("planned blackout p50/p99/max: %s / %s / %s vs reactive %s\n",
              format_ns(static_cast<double>(planned_gap_ns.p50())).c_str(),
              format_ns(static_cast<double>(planned_gap_ns.p99())).c_str(),
              format_ns(static_cast<double>(planned_gap_ns.max())).c_str(),
              format_ns(static_cast<double>(reactive_gap)).c_str());
  std::printf("socket: %llu/%llu bytes verified (%llu mismatches); "
              "stream: %llu/%llu (%llu mismatches)\n",
              static_cast<unsigned long long>(sock_rx.verified),
              static_cast<unsigned long long>(sock_target),
              static_cast<unsigned long long>(sock_rx.mismatches),
              static_cast<unsigned long long>(tsor_rx.verified),
              static_cast<unsigned long long>(tsor_target),
              static_cast<unsigned long long>(tsor_rx.mismatches));
  FF_CHECK(sock_lost == 0 && tsor_lost == 0);
  FF_CHECK(sock_rx.mismatches == 0 && tsor_rx.mismatches == 0);

  if (!trace_path.empty()) {
    FF_CHECK(cluster.telemetry().tracer().export_to_file(trace_path));
    std::printf("trace: %s\n", trace_path.c_str());
  }
  return 0;
}
