// Stream adapter (sockets-over-RDMA) acceptance: the StreamSocket surface
// must deliver a byte-exact, in-order stream while StreamNet splices the
// conduit between the overlay-TCP fallback and a per-stream RC QP — across
// the initial upgrade, forced mid-transfer failover, and re-upgrade.
#include <gtest/gtest.h>

#include "core/freeflow.h"
#include "faults/fault_injector.h"
#include "sim_env.h"
#include "stream/stream_net.h"

namespace freeflow::stream {
namespace {

using freeflow::testing::Env;

/// Deterministic byte pattern keyed by absolute stream offset (the
/// test_faults idiom): one check catches loss, duplication and reordering.
constexpr std::uint8_t pattern_byte(std::uint64_t offset) {
  return static_cast<std::uint8_t>((offset * 131 + 17) & 0xFF);
}

struct Pair {
  orch::ContainerPtr a, b;
  StreamNetPtr net_a, net_b;
};

Pair attach_pair(Env& env, fabric::HostId ha, fabric::HostId hb,
                 orch::TenantId tenant_b = 1) {
  Pair p;
  p.a = env.deploy("a", 1, ha);
  p.b = env.deploy("b", tenant_b, hb);
  auto& ff = env.freeflow();
  auto na = ff.attach(p.a->id());
  auto nb = ff.attach(p.b->id());
  EXPECT_TRUE(na.is_ok());
  EXPECT_TRUE(nb.is_ok());
  p.net_a = StreamNet::make(*na);
  p.net_b = StreamNet::make(*nb);
  return p;
}

/// A pattern-checked one-way transfer over StreamSockets, paced on
/// writability with the periodic re-pump that rides out failovers.
struct Xfer {
  StreamSocketPtr client, server;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t verified = 0;
  bool corrupt = false;
  std::shared_ptr<std::function<void()>> pump;
  std::shared_ptr<std::function<void()>> tick;

  [[nodiscard]] bool done() const { return !corrupt && verified >= target; }
};

std::shared_ptr<Xfer> start_xfer(Env& env, Pair& p, std::uint16_t port,
                                 std::uint64_t target) {
  auto st = std::make_shared<Xfer>();
  st->target = target;

  EXPECT_TRUE(p.net_b->listen(port, [st](StreamSocketPtr s) {
    st->server = s;
    s->set_on_data([st](Buffer&& b) {
      const auto* bytes = b.data();
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(st->verified + i)) {
          st->corrupt = true;
          return;
        }
      }
      st->verified += b.size();
    });
  }).is_ok());
  p.net_a->connect(p.b->ip(), port, [st](Result<StreamSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    st->client = *s;
  });
  EXPECT_TRUE(env.wait([&]() { return st->client != nullptr && st->server != nullptr; }));

  st->pump = std::make_shared<std::function<void()>>();
  std::weak_ptr<Xfer> w = st;
  *st->pump = [w]() {
    auto xfer = w.lock();
    if (xfer == nullptr) return;
    while (xfer->sent < xfer->target && xfer->client->writable()) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(64 * 1024, xfer->target - xfer->sent));
      Buffer msg(n);
      auto* out = msg.data();
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::byte>(pattern_byte(xfer->sent + i));
      }
      ASSERT_TRUE(xfer->client->send(std::move(msg)).is_ok());
      xfer->sent += n;
    }
  };
  st->client->set_on_space([pump = st->pump]() { (*pump)(); });
  (*st->pump)();

  // Splices don't always fire on_space; the periodic re-pump keeps the
  // stream moving through upgrade and failover windows.
  st->tick = std::make_shared<std::function<void()>>();
  sim::EventLoop* loop = &env.loop();
  *st->tick = [loop, w, wt = std::weak_ptr<std::function<void()>>(st->tick)]() {
    auto xfer = w.lock();
    auto t = wt.lock();
    if (xfer == nullptr || t == nullptr) return;
    (*xfer->pump)();
    if (xfer->sent >= xfer->target) return;
    loop->schedule(50 * k_microsecond, [t]() { (*t)(); });
  };
  (*st->tick)();
  return st;
}

// ------------------------------------------------------------- acceptance

// The stream starts on the fallback, upgrades to a per-stream RC QP, and an
// echo round-trip is byte-exact; nearly all payload bytes ride RDMA.
TEST(StreamAdapter, UpgradesToRdmaAndEchoesByteExact) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);

  StreamSocketPtr server;
  std::uint64_t echoed = 0;
  ASSERT_TRUE(p.net_b->listen(9000, [&](StreamSocketPtr s) {
    server = s;
    s->set_on_data([&, s](Buffer&& b) {
      echoed += b.size();
      ASSERT_TRUE(s->send(std::move(b)).is_ok());
    });
  }).is_ok());

  StreamSocketPtr client;
  std::uint64_t back = 0;
  bool corrupt = false;
  p.net_a->connect(p.b->ip(), 9000, [&](Result<StreamSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    client = *s;
    client->set_on_data([&](Buffer&& b) {
      const auto* bytes = b.data();
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (static_cast<std::uint8_t>(bytes[i]) != pattern_byte(back + i)) corrupt = true;
      }
      back += b.size();
    });
  });
  ASSERT_TRUE(env.wait([&]() { return client != nullptr && server != nullptr; }));

  // The upgrade is transparent; it must land without any traffic flowing.
  ASSERT_TRUE(env.wait([&]() { return client->transport() == orch::Transport::rdma &&
                                       server->transport() == orch::Transport::rdma; }));
  EXPECT_EQ(p.net_a->upgrades(), 1u);

  const std::uint64_t total = 4ull * 1024 * 1024;
  std::uint64_t sent = 0;
  while (sent < total) {
    const auto n = std::min<std::uint64_t>(64 * 1024, total - sent);
    Buffer msg(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg.data()[i] = static_cast<std::byte>(pattern_byte(sent + i));
    }
    ASSERT_TRUE(client->send(std::move(msg)).is_ok());
    sent += n;
    env.wait([&]() { return client->writable(); });
  }
  ASSERT_TRUE(env.wait([&]() { return back >= total; }))
      << "echoed " << echoed << " back " << back;
  EXPECT_FALSE(corrupt);
  // The byte split proves the stream actually rode RDMA, not just claimed to.
  EXPECT_GT(client->bytes_rdma(), client->bytes_tcp());
}

// Kill the NIC's RDMA engine mid-transfer: the stream must fail over to a
// fresh fallback connection with zero loss and in-order delivery.
TEST(StreamAdapter, KillRdmaMidTransferFailsOverByteExact) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9001, 32ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 2 * 1024 * 1024 &&
                                       st->client->transport() == orch::Transport::rdma; }));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target
      << (st->corrupt ? " CORRUPT" : "");
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->verified, st->target);
  EXPECT_NE(st->client->transport(), orch::Transport::rdma);
  EXPECT_GE(p.net_a->fallbacks(), 1u);
}

// Heal the engine after the failover: the stream re-upgrades mid-stream and
// the re-upgraded QP actually carries bytes.
TEST(StreamAdapter, ReupgradesMidStreamAfterRecovery) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9002, 16ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());

  ASSERT_TRUE(env.wait([&]() { return st->verified > 1024 * 1024 &&
                                       st->client->transport() == orch::Transport::rdma; }));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_down, 1});
  ASSERT_TRUE(env.wait([&]() { return st->client->transport() != orch::Transport::rdma; },
                       60 * k_second));

  injector.apply({env.loop().now(), faults::FaultKind::rdma_up, 1});
  ASSERT_TRUE(env.wait([&]() { return st->client->transport() == orch::Transport::rdma; },
                       60 * k_second));
  EXPECT_GE(p.net_a->upgrades(), 2u);  // initial + re-upgrade

  const std::uint64_t rdma_before = st->client->conduit()->token() != 0
                                        ? st->server->bytes_rdma()
                                        : 0;
  st->target += 4ull * 1024 * 1024;
  (*st->pump)();
  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second))
      << "verified " << st->verified << "/" << st->target;
  EXPECT_FALSE(st->corrupt);
  EXPECT_GT(st->server->bytes_rdma(), rdma_before);
}

// Several streams between the same pair, pumping both directions at once:
// per-stream QPs must not cross bytes, and every stream stays byte-exact.
TEST(StreamAdapter, ConcurrentBidirectionalStreams) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);

  constexpr int k_streams = 3;
  constexpr std::uint64_t k_bytes = 4ull * 1024 * 1024;
  std::vector<std::shared_ptr<Xfer>> forward;
  forward.reserve(k_streams);
  for (int i = 0; i < k_streams; ++i) {
    forward.push_back(start_xfer(env, p, static_cast<std::uint16_t>(9100 + i), k_bytes));
  }
  // Reverse direction: b connects back to a over the same trunk pair.
  Pair reversed{p.b, p.a, p.net_b, p.net_a};
  auto backward = start_xfer(env, reversed, 9200, k_bytes);

  ASSERT_TRUE(env.wait(
      [&]() {
        if (!backward->done()) return false;
        for (auto& st : forward) {
          if (!st->done()) return false;
        }
        return true;
      },
      120 * k_second));
  for (auto& st : forward) {
    EXPECT_FALSE(st->corrupt);
    EXPECT_EQ(st->verified, k_bytes);
    EXPECT_EQ(st->client->transport(), orch::Transport::rdma);
  }
  EXPECT_FALSE(backward->corrupt);
  EXPECT_EQ(p.net_a->stream_count(), static_cast<std::size_t>(k_streams + 1));
}

// Untrusted (cross-tenant) pair: the selector answers tcp_overlay, so the
// stream simply never upgrades — it still works, end to end.
TEST(StreamAdapter, UntrustedPairStaysOnFallback) {
  Env env(2);
  auto p = attach_pair(env, 0, 1, /*tenant_b=*/2);
  auto st = start_xfer(env, p, 9300, 4ull * 1024 * 1024);

  ASSERT_TRUE(env.wait([&]() { return st->done(); }, 60 * k_second));
  EXPECT_FALSE(st->corrupt);
  EXPECT_EQ(st->client->transport(), orch::Transport::tcp_overlay);
  EXPECT_EQ(p.net_a->upgrades(), 0u);
  EXPECT_EQ(st->client->bytes_rdma(), 0u);
}

// The received-byte split is also exported per stream: the registry's
// stream/<token>/c<id>/bytes_{rdma,tcp} counters (read by perfbench's
// stream.rdma_byte_share) must equal the socket's own accessors on a stream
// that carried bytes over both transports.
TEST(StreamAdapter, ByteSplitCountersMatchSocket) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  StreamSocketPtr server;
  ASSERT_TRUE(p.net_b->listen(9500, [&](StreamSocketPtr s) { server = s; }).is_ok());
  StreamSocketPtr client;
  p.net_a->connect(p.b->ip(), 9500, [&](Result<StreamSocketPtr> s) {
    ASSERT_TRUE(s.is_ok()) << s.status();
    client = *s;
    // Sent before the upgrade lands: rides the overlay-TCP fallback.
    ASSERT_TRUE(client->send(Buffer(256 * 1024)).is_ok());
  });
  ASSERT_TRUE(env.wait([&]() {
    return server != nullptr && server->bytes_received() == 256 * 1024 &&
           client->transport() == orch::Transport::rdma &&
           server->transport() == orch::Transport::rdma;
  }));
  ASSERT_TRUE(client->send(Buffer(1024 * 1024)).is_ok());
  ASSERT_TRUE(env.wait([&]() { return server->bytes_received() == 1280 * 1024; }));

  const auto& metrics = env.cluster.telemetry().metrics();
  for (const auto& [sock, id] : {std::pair{server, p.b->id()}, std::pair{client, p.a->id()}}) {
    const std::string prefix = "stream/" + std::to_string(sock->conduit()->token()) + "/c" +
                               std::to_string(id) + "/";
    EXPECT_EQ(metrics.counter_value(prefix + "bytes_rdma"), sock->bytes_rdma());
    EXPECT_EQ(metrics.counter_value(prefix + "bytes_tcp"), sock->bytes_tcp());
    EXPECT_EQ(sock->bytes_rdma() + sock->bytes_tcp(), sock->bytes_received());
  }
  EXPECT_GT(server->bytes_rdma(), 0u);
  EXPECT_GT(server->bytes_tcp(), 0u);
}

// ------------------------------------------- the socket surface, twice

// ContainerNet and StreamNet hand out the same socket class through the same
// open handshake, so the socket-surface contract is checked on both.
enum class Surface { container_net, stream_net };

struct SocketSurface : ::testing::TestWithParam<Surface> {
  using AcceptFn = std::function<void(core::FlowSocketPtr)>;
  using ConnectFn = std::function<void(Result<core::FlowSocketPtr>)>;

  SocketSurface() : env(2), p(attach_pair(env, 0, 1)) {}

  Status listen(std::uint16_t port, AcceptFn on_accept) {
    if (GetParam() == Surface::container_net) {
      return p.net_b->net().sock_listen(port, std::move(on_accept));
    }
    return p.net_b->listen(port, [fn = std::move(on_accept)](StreamSocketPtr s) { fn(s); });
  }

  void connect(std::uint16_t port, ConnectFn done) {
    if (GetParam() == Surface::container_net) {
      p.net_a->net().sock_connect(p.b->ip(), port, std::move(done));
      return;
    }
    p.net_a->connect(p.b->ip(), port, [fn = std::move(done)](Result<StreamSocketPtr> s) {
      if (s.is_ok()) {
        fn(core::FlowSocketPtr(*s));
      } else {
        fn(s.status());
      }
    });
  }

  /// An established socket pair, on RDMA (StreamNet: once upgraded).
  std::pair<core::FlowSocketPtr, core::FlowSocketPtr> socket_pair(std::uint16_t port) {
    core::FlowSocketPtr client, server;
    EXPECT_TRUE(listen(port, [&](core::FlowSocketPtr s) { server = s; }).is_ok());
    connect(port, [&](Result<core::FlowSocketPtr> s) {
      ASSERT_TRUE(s.is_ok()) << s.status();
      client = *s;
    });
    EXPECT_TRUE(env.wait([&]() {
      return client != nullptr && server != nullptr &&
             client->transport() == orch::Transport::rdma &&
             server->transport() == orch::Transport::rdma;
    }));
    return {client, server};
  }

  Env env;
  Pair p;
};

TEST_P(SocketSurface, ConnectToMissingPortRefused) {
  Status result;
  bool done = false;
  connect(1234, [&](Result<core::FlowSocketPtr> s) {
    result = s.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::connection_refused);
}

TEST_P(SocketSurface, DoubleListenOnPortFails) {
  ASSERT_TRUE(listen(5000, [](core::FlowSocketPtr) {}).is_ok());
  EXPECT_EQ(listen(5000, [](core::FlowSocketPtr) {}).code(), Errc::already_exists);
}

TEST_P(SocketSurface, CloseReachesPeerAsPeerBye) {
  auto [client, server] = socket_pair(5000);
  bool closed = false;
  core::CloseReason reason{};
  server->set_on_close([&](core::CloseReason r) {
    reason = r;
    closed = true;
  });
  client->close();
  EXPECT_TRUE(env.wait([&]() { return closed; }));
  EXPECT_EQ(reason, core::CloseReason::peer_bye);
  EXPECT_FALSE(server->is_open());
}

TEST_P(SocketSurface, SendAfterCloseFails) {
  auto [client, server] = socket_pair(5000);
  client->close();
  EXPECT_EQ(client->send(Buffer(1)).code(), Errc::failed_precondition);
  EXPECT_TRUE(env.wait([&]() { return !server->is_open(); }));
  EXPECT_EQ(server->send(Buffer(1)).code(), Errc::failed_precondition);
}

INSTANTIATE_TEST_SUITE_P(Surfaces, SocketSurface,
                         ::testing::Values(Surface::container_net, Surface::stream_net),
                         [](const ::testing::TestParamInfo<Surface>& param_info) {
                           return param_info.param == Surface::container_net
                                      ? "ContainerNet"
                                      : "StreamNet";
                         });

// --------------------------------------------------------- determinism

struct StreamRun {
  std::string transitions;
  std::uint64_t verified = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t fallbacks = 0;
  bool corrupt = false;
};

StreamRun run_scripted(std::uint64_t seed) {
  Env env(2);
  auto p = attach_pair(env, 0, 1);
  auto st = start_xfer(env, p, 9400, 16ull * 1024 * 1024);
  faults::FaultInjector injector(*env.net_orch, env.freeflow().agents());
  faults::FaultPlan plan = faults::FaultPlan::random(seed, 2, 20 * k_millisecond, 2);
  plan.rdma_outage(1, 2 * k_millisecond, 10 * k_millisecond);
  injector.arm(plan);

  StreamRun run;
  orch::Transport last = st->client->transport();
  run.transitions += std::string(orch::transport_name(last)) + "\n";
  env.wait(
      [&]() {
        const orch::Transport t = st->client->transport();
        if (t != last) {
          last = t;
          run.transitions += "t=" + std::to_string(env.loop().now()) + " " +
                             std::string(orch::transport_name(t)) + "\n";
        }
        return st->done() && injector.faults_applied() >= plan.size();
      },
      200 * k_millisecond);
  run.verified = st->verified;
  run.upgrades = p.net_a->upgrades();
  run.fallbacks = p.net_a->fallbacks();
  run.corrupt = st->corrupt;
  return run;
}

// Same seed => identical splice timeline, identical bytes. Stream failures
// under chaos stay replayable, like the conduit-level chaos matrix.
TEST(StreamDeterminism, SameSeedIsByteIdentical) {
  const StreamRun first = run_scripted(1337);
  const StreamRun second = run_scripted(1337);
  EXPECT_EQ(first.transitions, second.transitions);
  EXPECT_EQ(first.verified, second.verified);
  EXPECT_EQ(first.upgrades, second.upgrades);
  EXPECT_EQ(first.fallbacks, second.fallbacks);
  EXPECT_FALSE(first.corrupt);
  EXPECT_FALSE(second.corrupt);
}

}  // namespace
}  // namespace freeflow::stream
