#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "fabric/cluster.h"
#include "tcpstack/modes.h"
#include "tcpstack/network.h"
#include "tcpstack/routing.h"

namespace freeflow::tcp {
namespace {

TEST(Ipv4Addr, ParseAndFormat) {
  auto a = Ipv4Addr::parse("10.244.1.2");
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a->to_string(), "10.244.1.2");
  EXPECT_EQ(a->value(), 0x0AF40102u);
  EXPECT_FALSE(Ipv4Addr::parse("10.244.1").is_ok());
  EXPECT_FALSE(Ipv4Addr::parse("10.244.1.300").is_ok());
  EXPECT_FALSE(Ipv4Addr::parse("garbage").is_ok());
}

TEST(Subnet, Containment) {
  Subnet s{Ipv4Addr(10, 0, 1, 0), 24};
  EXPECT_TRUE(s.contains(Ipv4Addr(10, 0, 1, 200)));
  EXPECT_FALSE(s.contains(Ipv4Addr(10, 0, 2, 1)));
  Subnet host_route{Ipv4Addr(10, 0, 1, 7), 32};
  EXPECT_TRUE(host_route.contains(Ipv4Addr(10, 0, 1, 7)));
  EXPECT_FALSE(host_route.contains(Ipv4Addr(10, 0, 1, 8)));
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable<int> table;
  table.add_route({Ipv4Addr(10, 0, 0, 0), 8}, 1);
  table.add_route({Ipv4Addr(10, 1, 0, 0), 16}, 2);
  table.add_route({Ipv4Addr(10, 1, 2, 3), 32}, 3);
  EXPECT_EQ(table.lookup(Ipv4Addr(10, 9, 9, 9)).value(), 1);
  EXPECT_EQ(table.lookup(Ipv4Addr(10, 1, 9, 9)).value(), 2);
  EXPECT_EQ(table.lookup(Ipv4Addr(10, 1, 2, 3)).value(), 3);
  EXPECT_FALSE(table.lookup(Ipv4Addr(11, 0, 0, 1)).has_value());
}

TEST(RoutingTable, ReplaceAndRemove) {
  RoutingTable<int> table;
  table.add_route({Ipv4Addr(10, 0, 0, 0), 8}, 1);
  table.add_route({Ipv4Addr(10, 0, 0, 0), 8}, 9);  // replace
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Addr(10, 1, 1, 1)).value(), 9);
  table.remove_route({Ipv4Addr(10, 0, 0, 0), 8});
  EXPECT_FALSE(table.lookup(Ipv4Addr(10, 1, 1, 1)).has_value());
}

TEST(Segment, WireBytesIncludePerMtuHeaders) {
  Segment seg;
  seg.payload.resize(1448);
  EXPECT_EQ(seg.wire_bytes(), 1448u + 78u);
  seg.payload.resize(64 * 1024);
  // 46 MTU packets worth of headers.
  EXPECT_EQ(seg.wire_bytes(), 64u * 1024 + 46 * 78);
  Segment empty;
  EXPECT_EQ(empty.wire_bytes(), 78u);
}

// ------------------------------------------------------------ stack fixture

struct TcpFixture : ::testing::Test {
  TcpFixture()
      : builder(cluster.cost_model()),
        net(cluster.loop(), cluster.cost_model(), builder) {
    cluster.add_hosts(2);
    WireHop::install_rx(cluster.host(0));
    WireHop::install_rx(cluster.host(1));
    EXPECT_TRUE(builder.addresses().add(ip_a, cluster.host(0), nullptr).is_ok());
    EXPECT_TRUE(builder.addresses().add(ip_b, cluster.host(1), nullptr).is_ok());
  }

  bool run_until(const std::function<bool()>& pred, SimDuration budget = 5 * k_second) {
    return cluster.loop().spin_until(pred, budget);
  }

  std::pair<TcpConnection::Ptr, TcpConnection::Ptr> connect_pair(std::uint16_t port) {
    TcpConnection::Ptr client, server;
    EXPECT_TRUE(net.listen({ip_b, port}, [&](TcpConnection::Ptr c) { server = c; }).is_ok());
    net.connect({ip_a, 0}, {ip_b, port}, [&](Result<TcpConnection::Ptr> c) {
      ASSERT_TRUE(c.is_ok()) << c.status();
      client = *c;
    });
    EXPECT_TRUE(run_until([&]() { return client != nullptr && server != nullptr; }));
    return {client, server};
  }

  fabric::Cluster cluster;
  HostModeBuilder builder;
  TcpNetwork net;
  Ipv4Addr ip_a{192, 168, 0, 1};
  Ipv4Addr ip_b{192, 168, 0, 2};
};

TEST_F(TcpFixture, HandshakeEstablishesBothEnds) {
  auto [client, server] = connect_pair(80);
  EXPECT_EQ(client->state(), ConnState::established);
  EXPECT_EQ(server->state(), ConnState::established);
  EXPECT_EQ(net.connection_count(), 2u);
}

TEST_F(TcpFixture, PortConflictIsTheHostModeProblem) {
  // The paper: "there can be only one container bound to port 80 per
  // server" — our stack surfaces exactly that.
  EXPECT_TRUE(net.listen({ip_b, 80}, [](TcpConnection::Ptr) {}).is_ok());
  const Status second = net.listen({ip_b, 80}, [](TcpConnection::Ptr) {});
  EXPECT_EQ(second.code(), Errc::already_exists);
}

TEST_F(TcpFixture, ConnectionRefusedWithoutListener) {
  Status got;
  bool done = false;
  net.connect({ip_a, 0}, {ip_b, 9999}, [&](Result<TcpConnection::Ptr> c) {
    got = c.status();
    done = true;
  });
  EXPECT_TRUE(run_until([&]() { return done; }));
  EXPECT_EQ(got.code(), Errc::connection_refused);
}

TEST_F(TcpFixture, ConnectToUnboundIpFails) {
  Status got;
  bool done = false;
  net.connect({ip_a, 0}, {Ipv4Addr(1, 2, 3, 4), 80}, [&](Result<TcpConnection::Ptr> c) {
    got = c.status();
    done = true;
  });
  EXPECT_TRUE(run_until([&]() { return done; }));
  EXPECT_EQ(got.code(), Errc::not_found);
}

TEST_F(TcpFixture, DataIntegrityAcrossHosts) {
  auto [client, server] = connect_pair(80);
  Buffer received;
  server->set_on_data([&](Buffer&& b) { received.append(b.view()); });

  Buffer payload(777777);
  fill_pattern(payload.mutable_view(), 99);
  const std::uint32_t sent_crc = crc32(payload.view());
  ASSERT_TRUE(client->send(std::move(payload)).is_ok());

  EXPECT_TRUE(run_until([&]() { return received.size() == 777777; }));
  EXPECT_EQ(crc32(received.view()), sent_crc);
  EXPECT_TRUE(check_pattern(received.view(), 99));
  // The final ack is still in flight when the data lands; let it drain.
  EXPECT_TRUE(run_until([&]() { return client->bytes_acked() == 777777u; }));
}

TEST_F(TcpFixture, BidirectionalTransfer) {
  auto [client, server] = connect_pair(80);
  Buffer at_server, at_client;
  server->set_on_data([&](Buffer&& b) { at_server.append(b.view()); });
  client->set_on_data([&](Buffer&& b) { at_client.append(b.view()); });
  Buffer a(100000), b(50000);
  fill_pattern(a.mutable_view(), 1);
  fill_pattern(b.mutable_view(), 2);
  ASSERT_TRUE(client->send(std::move(a)).is_ok());
  ASSERT_TRUE(server->send(std::move(b)).is_ok());
  EXPECT_TRUE(
      run_until([&]() { return at_server.size() == 100000 && at_client.size() == 50000; }));
  EXPECT_TRUE(check_pattern(at_server.view(), 1));
  EXPECT_TRUE(check_pattern(at_client.view(), 2));
}

TEST_F(TcpFixture, SendBufferBackpressure) {
  auto [client, server] = connect_pair(80);
  client->set_send_buffer_limit(100 * 1024);
  server->set_on_data([](Buffer&&) {});
  Buffer big(200 * 1024);
  EXPECT_EQ(client->send(std::move(big)).code(), Errc::would_block);
  bool writable_seen = false;
  client->set_on_writable([&]() { writable_seen = true; });
  Buffer ok_size(90 * 1024);
  EXPECT_TRUE(client->send(std::move(ok_size)).is_ok());
  EXPECT_TRUE(run_until([&]() { return client->bytes_acked() == 90 * 1024; }));
  EXPECT_TRUE(writable_seen);
}

TEST_F(TcpFixture, GracefulClose) {
  auto [client, server] = connect_pair(80);
  bool server_closed = false;
  server->set_on_close([&]() { server_closed = true; });
  client->close();
  EXPECT_TRUE(run_until([&]() { return server_closed; }));
  server->close();
  EXPECT_TRUE(run_until([&]() { return net.connection_count() == 0; }));
}

TEST_F(TcpFixture, CloseFlushesPendingData) {
  auto [client, server] = connect_pair(80);
  Buffer received;
  bool closed = false;
  server->set_on_data([&](Buffer&& b) { received.append(b.view()); });
  server->set_on_close([&]() { closed = true; });
  Buffer payload(300000);
  fill_pattern(payload.mutable_view(), 5);
  ASSERT_TRUE(client->send(std::move(payload)).is_ok());
  client->close();
  EXPECT_TRUE(run_until([&]() { return closed; }));
  EXPECT_EQ(received.size(), 300000u);  // FIN ordered after all data
  EXPECT_TRUE(check_pattern(received.view(), 5));
}

TEST_F(TcpFixture, EphemeralPortsAreDistinct) {
  std::vector<TcpConnection::Ptr> clients;
  EXPECT_TRUE(net.listen({ip_b, 80}, [](TcpConnection::Ptr) {}).is_ok());
  for (int i = 0; i < 5; ++i) {
    net.connect({ip_a, 0}, {ip_b, 80}, [&](Result<TcpConnection::Ptr> c) {
      ASSERT_TRUE(c.is_ok());
      clients.push_back(*c);
    });
  }
  EXPECT_TRUE(run_until([&]() { return clients.size() == 5; }));
  std::set<std::uint16_t> ports;
  for (const auto& c : clients) ports.insert(c->flow().local.port);
  EXPECT_EQ(ports.size(), 5u);
}

TEST_F(TcpFixture, IntraHostFasterThanInterHost) {
  Ipv4Addr ip_c{192, 168, 0, 3};
  ASSERT_TRUE(builder.addresses().add(ip_c, cluster.host(0), nullptr).is_ok());

  auto transfer_time = [&](Ipv4Addr from, Ipv4Addr to, std::uint16_t port) {
    std::uint64_t got = 0;
    EXPECT_TRUE(net.listen({to, port}, [&](TcpConnection::Ptr c) {
      c->set_on_data([&got](Buffer&& b) { got += b.size(); });
    }).is_ok());
    const SimTime start = cluster.loop().now();
    net.connect({from, 0}, {to, port}, [&](Result<TcpConnection::Ptr> c) {
      ASSERT_TRUE(c.is_ok());
      Buffer payload(1 << 20);
      ASSERT_TRUE((*c)->send(std::move(payload)).is_ok());
    });
    EXPECT_TRUE(run_until([&]() { return got == (1 << 20); }));
    return cluster.loop().now() - start;
  };

  const SimDuration intra = transfer_time(ip_a, ip_c, 81);
  const SimDuration inter = transfer_time(ip_a, ip_b, 82);
  EXPECT_LT(intra, inter);
}

class TcpSizeSweep : public TcpFixture,
                     public ::testing::WithParamInterface<std::size_t> {};

TEST_P(TcpSizeSweep, IntegrityAcrossSizes) {
  // Sizes straddling the GSO chunk boundary and the window.
  auto [client, server] = connect_pair(80);
  const std::size_t size = GetParam();
  Buffer received;
  server->set_on_data([&](Buffer&& b) { received.append(b.view()); });
  Buffer payload(size);
  fill_pattern(payload.mutable_view(), size);
  ASSERT_TRUE(client->send(std::move(payload)).is_ok());
  EXPECT_TRUE(run_until([&]() { return received.size() == size; }, 30 * k_second));
  EXPECT_TRUE(check_pattern(received.view(), size));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpSizeSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{1000},
                                           std::size_t{64} * 1024 - 1,
                                           std::size_t{64} * 1024,
                                           std::size_t{64} * 1024 + 1,
                                           std::size_t{8} * 64 * 1024,  // = window
                                           std::size_t{3} * 1024 * 1024 + 17));

TEST_F(TcpFixture, HandshakeCostsAboutOneControlRtt) {
  EXPECT_TRUE(net.listen({ip_b, 80}, [](TcpConnection::Ptr) {}).is_ok());
  const SimTime start = cluster.loop().now();
  SimTime connected_at = 0;
  net.connect({ip_a, 0}, {ip_b, 80}, [&](Result<TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok());
    connected_at = cluster.loop().now();
  });
  EXPECT_TRUE(run_until([&]() { return connected_at != 0; }));
  const SimDuration took = connected_at - start;
  // SYN + SYN-ACK: two control-path traversals across the wire.
  EXPECT_GT(took, 2 * cluster.cost_model().link_prop_ns);
  EXPECT_LT(took, 50 * k_microsecond);
}

TEST_F(TcpFixture, ConnectStormAllSucceed) {
  int accepted = 0;
  EXPECT_TRUE(net.listen({ip_b, 80}, [&](TcpConnection::Ptr) { ++accepted; }).is_ok());
  int connected = 0;
  for (int i = 0; i < 50; ++i) {
    net.connect({ip_a, 0}, {ip_b, 80}, [&](Result<TcpConnection::Ptr> c) {
      ASSERT_TRUE(c.is_ok());
      ++connected;
    });
  }
  EXPECT_TRUE(run_until([&]() { return connected == 50 && accepted == 50; },
                        30 * k_second));
  EXPECT_EQ(net.connection_count(), 100u);
}

TEST_F(TcpFixture, CrossConnectionsDoNotInterfere) {
  // Two independent connections, interleaved sends: each stream's bytes
  // stay whole and ordered.
  auto [c1, s1] = connect_pair(81);
  auto [c2, s2] = connect_pair(82);
  Buffer r1, r2;
  s1->set_on_data([&](Buffer&& b) { r1.append(b.view()); });
  s2->set_on_data([&](Buffer&& b) { r2.append(b.view()); });
  for (int i = 0; i < 5; ++i) {
    Buffer b1(50000), b2(70000);
    fill_pattern(b1.mutable_view(), static_cast<std::uint64_t>(i));
    fill_pattern(b2.mutable_view(), static_cast<std::uint64_t>(100 + i));
    ASSERT_TRUE(c1->send(std::move(b1)).is_ok());
    ASSERT_TRUE(c2->send(std::move(b2)).is_ok());
  }
  EXPECT_TRUE(run_until(
      [&]() { return r1.size() == 250000 && r2.size() == 350000; }, 30 * k_second));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(check_pattern(ByteSpan{r1.data() + i * 50000, 50000},
                              static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(check_pattern(ByteSpan{r2.data() + i * 70000, 70000},
                              static_cast<std::uint64_t>(100 + i)));
  }
}

TEST_F(TcpFixture, SrttConvergesAndShrinksRto) {
  auto [client, server] = connect_pair(80);
  server->set_on_data([](Buffer&&) {});
  EXPECT_EQ(client->srtt(), 0);
  EXPECT_EQ(client->rto(), cluster.cost_model().tcp_rto_ns);  // no sample yet

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->send(Buffer(64 * 1024)).is_ok());
    EXPECT_TRUE(run_until([&]() {
      return client->bytes_acked() == static_cast<std::uint64_t>(i + 1) * 64 * 1024;
    }));
  }
  // SRTT converged to the real chunk RTT (tens of microseconds), so the RTO
  // is now far below the conservative pre-sample default of 5 ms.
  EXPECT_GT(client->srtt(), 10 * k_microsecond);
  EXPECT_LT(client->srtt(), 200 * k_microsecond);
  EXPECT_LT(client->rto(), k_millisecond);
  EXPECT_GE(client->rto(), 200 * k_microsecond);  // floor
}

// --------------------------------------------------------- loss recovery

/// Wraps another builder, dropping 20 % of data segments (acks unharmed),
/// to exercise RTO/fast-retransmit recovery.
class LossyBuilder final : public PathBuilder {
 public:
  LossyBuilder(PathBuilder& inner, Rng& rng) : inner_(inner), rng_(rng) {}

  Result<PathPair> build(const Endpoint& src, const Endpoint& dst) override {
    auto pp = inner_.build(src, dst);
    if (!pp.is_ok()) return pp.status();

    struct PathHop final : Hop {
      explicit PathHop(Path inner) : inner_(std::move(inner)) {}
      void transit(const SegmentPtr& seg, sim::DoneFn next) override {
        // DoneFn is wider than DeliverFn's inline budget; box it (test-only path).
        auto boxed = std::make_shared<sim::DoneFn>(std::move(next));
        inner_.walk(seg, [boxed](SegmentPtr) { (*boxed)(); });
      }
      Path inner_;
    };

    PathPair out;
    out.data.add(std::make_shared<LossHop>(rng_, 0.2));
    out.data.add(std::make_shared<PathHop>(std::move(pp->data)));
    out.control = std::move(pp->control);
    return out;
  }

 private:
  PathBuilder& inner_;
  Rng& rng_;
};

TEST_F(TcpFixture, RetransmissionRecoversFromLoss) {
  Rng rng(123);
  LossyBuilder lossy(builder, rng);
  TcpNetwork lossy_net(cluster.loop(), cluster.cost_model(), lossy);

  TcpConnection::Ptr client;
  Buffer received;
  ASSERT_TRUE(lossy_net.listen({ip_b, 80}, [&](TcpConnection::Ptr c) {
    c->set_on_data([&received](Buffer&& b) { received.append(b.view()); });
  }).is_ok());
  lossy_net.connect({ip_a, 0}, {ip_b, 80}, [&](Result<TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok());
    client = *c;
  });
  ASSERT_TRUE(run_until([&]() { return client != nullptr; }, 60 * k_second));

  Buffer payload(512 * 1024);
  fill_pattern(payload.mutable_view(), 7);
  ASSERT_TRUE(client->send(std::move(payload)).is_ok());
  ASSERT_TRUE(run_until([&]() { return received.size() == 512 * 1024; }, 300 * k_second));
  EXPECT_TRUE(check_pattern(received.view(), 7));
  EXPECT_GT(client->retransmits(), 0u);
}

}  // namespace
}  // namespace freeflow::tcp
