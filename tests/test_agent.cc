#include <gtest/gtest.h>

#include "agent/agent.h"
#include "agent/relay.h"
#include "agent/trunk.h"
#include "sim_env.h"

namespace freeflow::agent {
namespace {

using freeflow::testing::Env;

TEST(Relay, HeaderRoundTrip) {
  RelayHeader h;
  h.src_container = 3;
  h.dst_container = 9;
  h.channel = 0xABCDEF12345ULL;
  h.msg_seq = 77;
  h.total_len = 1000;
  h.frag_offset = 256;
  std::byte buf[RelayHeader::k_size];
  h.encode(buf);
  const RelayHeader d = RelayHeader::decode(buf);
  EXPECT_EQ(d.src_container, 3u);
  EXPECT_EQ(d.dst_container, 9u);
  EXPECT_EQ(d.channel, 0xABCDEF12345ULL);
  EXPECT_EQ(d.msg_seq, 77u);
  EXPECT_EQ(d.total_len, 1000u);
  EXPECT_EQ(d.frag_offset, 256u);
  EXPECT_FALSE(d.last_fragment(100));
  EXPECT_TRUE(d.last_fragment(744));
}

TEST(Relay, RecordRoundTrip) {
  RelayHeader h;
  h.total_len = 5;
  Buffer payload = Buffer::from_string("hello");
  Buffer record = make_record(h, payload.view());
  auto parsed = parse_record(record.view());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->header.total_len, 5u);
  EXPECT_EQ(Buffer(parsed->fragment.data(), parsed->fragment.size()).to_string(), "hello");
}

TEST(Relay, ParseRejectsGarbage) {
  Buffer tiny(4);
  EXPECT_FALSE(parse_record(tiny.view()).is_ok());
  RelayHeader h;
  h.total_len = 1;  // fragment longer than message
  Buffer bad = make_record(h, Buffer(10).view());
  EXPECT_FALSE(parse_record(bad.view()).is_ok());
}

// ----------------------------------------------------- channel integration

struct AgentFixture : ::testing::Test {
  /// Opens a duplex channel between two deployed containers and returns
  /// both endpoints.
  static std::pair<ChannelPtr, ChannelPtr> open_channel(
      Env& env, AgentFabric& agents, orch::ContainerPtr a, orch::ContainerPtr b,
      orch::Transport transport) {
    ChannelPtr ep_a, ep_b;
    agents.agent_on(b->host()).register_container(
        b->id(), [&](orch::ContainerId, ChannelPtr ch) { ep_b = std::move(ch); });
    agents.agent_on(a->host()).register_container(a->id(),
                                                  [](orch::ContainerId, ChannelPtr) {});
    agents.agent_on(a->host()).establish(a->id(), b->id(), transport,
                                         [&](Result<ChannelPtr> ch) {
      ASSERT_TRUE(ch.is_ok()) << ch.status();
      ep_a = std::move(ch.value());
    });
    EXPECT_TRUE(env.wait([&]() { return ep_a != nullptr && ep_b != nullptr; }));
    return {ep_a, ep_b};
  }
};

TEST_F(AgentFixture, ShmChannelDelivers) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  ASSERT_NE(ep_a, nullptr);

  Buffer got;
  ep_b->set_on_message([&](Buffer&& m) { got = std::move(m); });
  Buffer msg(4096);
  fill_pattern(msg.mutable_view(), 17);
  ASSERT_TRUE(ep_a->send(std::move(msg)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got.size() == 4096; }));
  EXPECT_TRUE(check_pattern(got.view(), 17));
  EXPECT_EQ(ep_a->transport(), orch::Transport::shm);
}

TEST_F(AgentFixture, ShmChannelIsDuplex) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  Buffer at_a, at_b;
  ep_a->set_on_message([&](Buffer&& m) { at_a = std::move(m); });
  ep_b->set_on_message([&](Buffer&& m) { at_b = std::move(m); });
  ASSERT_TRUE(ep_a->send(Buffer::from_string("ping")).is_ok());
  ASSERT_TRUE(ep_b->send(Buffer::from_string("pong")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_a.empty() && !at_b.empty(); }));
  EXPECT_EQ(at_b.to_string(), "ping");
  EXPECT_EQ(at_a.to_string(), "pong");
}

TEST_F(AgentFixture, TrustEnforcedAtAgent) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 2, 0);  // different tenant, no trust
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(0).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::permission_denied);
}

TEST_F(AgentFixture, ShmRequiresColocation) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(1).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::failed_precondition);
}

class TrunkTransportTest : public AgentFixture,
                           public ::testing::WithParamInterface<orch::Transport> {};

TEST_P(TrunkTransportTest, RemoteChannelDeliversWithIntegrity) {
  // Both directions, each in a fresh deployment: from the higher host id
  // only that side starts a setup, so for TCP this is the dial-back path
  // on its own.
  for (const auto& [from, to] : {std::pair<fabric::HostId, fabric::HostId>{0, 1}, {1, 0}}) {
    SCOPED_TRACE("host " + std::to_string(from) + " -> host " + std::to_string(to));
    Env env(2);
    AgentFabric agents(*env.net_orch);
    auto a = env.deploy("a", 1, from);
    auto b = env.deploy("b", 1, to);
    auto [ep_a, ep_b] = open_channel(env, agents, a, b, GetParam());
    ASSERT_NE(ep_a, nullptr);
    EXPECT_EQ(ep_a->transport(), GetParam());

    // Multiple messages, one larger than the fragment size, both directions.
    std::vector<Buffer> at_b;
    Buffer at_a;
    ep_b->set_on_message([&](Buffer&& m) { at_b.push_back(std::move(m)); });
    ep_a->set_on_message([&](Buffer&& m) { at_a = std::move(m); });

    Buffer small(1000), big(1500 * 1000);
    fill_pattern(small.mutable_view(), 1);
    fill_pattern(big.mutable_view(), 2);
    ASSERT_TRUE(ep_a->send(std::move(small)).is_ok());
    ASSERT_TRUE(ep_a->send(std::move(big)).is_ok());
    Buffer reply(5000);
    fill_pattern(reply.mutable_view(), 3);
    ASSERT_TRUE(ep_b->send(std::move(reply)).is_ok());

    EXPECT_TRUE(env.wait([&]() { return at_b.size() == 2 && at_a.size() == 5000; },
                         30 * k_second));
    ASSERT_EQ(at_b.size(), 2u);
    EXPECT_EQ(at_b[0].size(), 1000u);
    EXPECT_TRUE(check_pattern(at_b[0].view(), 1));
    EXPECT_EQ(at_b[1].size(), 1500u * 1000);
    EXPECT_TRUE(check_pattern(at_b[1].view(), 2));
    EXPECT_TRUE(check_pattern(at_a.view(), 3));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTrunks, TrunkTransportTest,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) == "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

struct Refusal {
  orch::Transport transport;
  bool peer_lacks;  ///< false: the local (establishing) host's NIC lacks it
};

class TrunkRefusal : public AgentFixture, public ::testing::WithParamInterface<Refusal> {};

TEST_P(TrunkRefusal, RefusedWithoutCapableNic) {
  const auto [transport, peer_lacks] = GetParam();
  fabric::NicCapabilities lacking;
  (transport == orch::Transport::rdma ? lacking.rdma : lacking.dpdk) = false;
  Env env(peer_lacks ? std::vector{fabric::NicCapabilities{}, lacking}
                     : std::vector{lacking, fabric::NicCapabilities{}});
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(1).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), transport, [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  // Refused by whichever end lacks the capability, on the first attempt: a
  // missing capability is not worth a retry.
  EXPECT_EQ(result.code(), Errc::failed_precondition);
  EXPECT_NE(result.message().find(peer_lacks ? "peer NIC" : "local NIC"), std::string::npos)
      << result;
  EXPECT_NE(result.message().find("after 1 attempt(s)"), std::string::npos) << result;
  auto& metrics = env.cluster.telemetry().metrics();
  for (const fabric::HostId host : {0u, 1u}) {
    SCOPED_TRACE("agent " + std::to_string(host));
    EXPECT_EQ(metrics.counter("agent/" + std::to_string(host) + "/trunk/setup_retries").value(),
              0u);
    EXPECT_FALSE(agents.agent_on(host).trunk_established(1 - host, transport));
    EXPECT_FALSE(agents.agent_on(host).setup_in_flight(1 - host, transport));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapableNic, TrunkRefusal,
    ::testing::Values(Refusal{orch::Transport::rdma, false}, Refusal{orch::Transport::rdma, true},
                      Refusal{orch::Transport::dpdk, false}, Refusal{orch::Transport::dpdk, true}),
    [](const ::testing::TestParamInfo<Refusal>& pinfo) {
      return std::string(orch::transport_name(pinfo.param.transport)) +
             (pinfo.param.peer_lacks ? "_peer" : "_local");
    });

TEST_F(AgentFixture, ManyChannelsShareOneTrunk) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a1 = env.deploy("a1", 1, 0);
  auto a2 = env.deploy("a2", 1, 0);
  auto b1 = env.deploy("b1", 1, 1);
  auto b2 = env.deploy("b2", 1, 1);

  auto [c1a, c1b] = open_channel(env, agents, a1, b1, orch::Transport::rdma);
  auto [c2a, c2b] = open_channel(env, agents, a2, b2, orch::Transport::rdma);
  ASSERT_NE(c1a, nullptr);
  ASSERT_NE(c2a, nullptr);

  Buffer got1, got2;
  c1b->set_on_message([&](Buffer&& m) { got1 = std::move(m); });
  c2b->set_on_message([&](Buffer&& m) { got2 = std::move(m); });
  Buffer m1(2222), m2(3333);
  fill_pattern(m1.mutable_view(), 5);
  fill_pattern(m2.mutable_view(), 6);
  ASSERT_TRUE(c1a->send(std::move(m1)).is_ok());
  ASSERT_TRUE(c2a->send(std::move(m2)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got1.size() == 2222 && got2.size() == 3333; }));
  EXPECT_TRUE(check_pattern(got1.view(), 5));
  EXPECT_TRUE(check_pattern(got2.view(), 6));
  EXPECT_GE(agents.agent_on(0).records_relayed(), 2u);
}

class FragmentBoundary : public AgentFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(FragmentBoundary, MessageSizesAroundFragmentEdgeSurvive) {
  // Exactly at, one below and one above the relay fragment size, plus
  // multi-fragment sizes — all must reassemble byte-exact.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::rdma);
  ASSERT_NE(ep_a, nullptr);

  const std::size_t size = GetParam();
  Buffer got;
  ep_b->set_on_message([&](Buffer&& m) { got = std::move(m); });
  Buffer msg(size);
  fill_pattern(msg.mutable_view(), size);
  ASSERT_TRUE(ep_a->send(std::move(msg)).is_ok());
  EXPECT_TRUE(env.wait([&]() { return got.size() == size; }, 30 * k_second));
  EXPECT_TRUE(check_pattern(got.view(), size));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentBoundary,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{256} * 1024 - 1,
                                           std::size_t{256} * 1024,
                                           std::size_t{256} * 1024 + 1,
                                           std::size_t{3} * 256 * 1024 + 7));

class TrunkCongestion : public AgentFixture,
                        public ::testing::WithParamInterface<orch::Transport> {};

TEST_P(TrunkCongestion, CongestionGatesWritableThenRecovers) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, GetParam());
  ASSERT_NE(ep_a, nullptr);
  ep_b->set_on_message([](Buffer&&) {});

  EXPECT_TRUE(ep_a->writable());
  // Flood without letting the loop run: the trunk queue must eventually
  // report congestion through writable().
  int sent = 0;
  while (ep_a->writable() && sent < 8192) {
    ASSERT_TRUE(ep_a->send(Buffer(256 * 1024)).is_ok());
    ++sent;
  }
  EXPECT_LT(sent, 8192) << "writable() never went false under flood";

  // Draining restores writability (the on_drained notification path).
  EXPECT_TRUE(env.wait([&]() { return ep_a->writable(); }, 120 * k_second));
}

INSTANTIATE_TEST_SUITE_P(AllTrunkKinds, TrunkCongestion,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) ==
                                          "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

TEST_F(AgentFixture, ConcurrentBidirectionalChannelsBetweenSameHosts) {
  // a->b and b->a channels opened from both sides share one trunk pair.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ab_a, ab_b] = open_channel(env, agents, a, b, orch::Transport::rdma);

  ChannelPtr ba_b, ba_a;
  agents.agent_on(0).register_container(
      a->id(), [&](orch::ContainerId, ChannelPtr ch) { ba_a = std::move(ch); });
  agents.agent_on(1).establish(b->id(), a->id(), orch::Transport::rdma,
                               [&](Result<ChannelPtr> ch) {
    ASSERT_TRUE(ch.is_ok()) << ch.status();
    ba_b = std::move(ch.value());
  });
  EXPECT_TRUE(env.wait([&]() { return ba_b != nullptr && ba_a != nullptr; }));

  Buffer at_b, at_a;
  ab_b->set_on_message([&](Buffer&& m) { at_b = std::move(m); });
  ba_a->set_on_message([&](Buffer&& m) { at_a = std::move(m); });
  ASSERT_TRUE(ab_a->send(Buffer::from_string("forward")).is_ok());
  ASSERT_TRUE(ba_b->send(Buffer::from_string("backward")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_b.empty() && !at_a.empty(); }));
  EXPECT_EQ(at_b.to_string(), "forward");
  EXPECT_EQ(at_a.to_string(), "backward");
}

TEST_F(AgentFixture, EstablishToUnregisteredContainerFails) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  // b never registered with the agent.
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::unavailable);
}

TEST_F(AgentFixture, UnknownContainerRejected) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), 9999, orch::Transport::shm,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::not_found);
}

TEST_F(AgentFixture, ClosedEndpointDropsTraffic) {
  Env env(1);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 0);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::shm);
  int delivered = 0;
  ep_b->set_on_message([&](Buffer&&) { ++delivered; });
  ep_b->close();
  ASSERT_TRUE(ep_a->send(Buffer(100)).is_ok());
  env.loop().run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ep_a->send(Buffer(1)).is_ok(), true);  // sender side still open
  ep_a->close();
  EXPECT_EQ(ep_a->send(Buffer(1)).code(), Errc::failed_precondition);
}

// ------------------------------------------------- tenants on one RDMA trunk

/// Two tenants' container pairs across hosts 0 -> 1, both riding the one
/// RDMA trunk between the hosts.
struct SharedTrunk {
  static constexpr orch::TenantId k_bulk = 1;
  static constexpr orch::TenantId k_latency = 2;

  explicit SharedTrunk(AgentFixture& fx) : agents(*env.net_orch) {
    auto bulk_a = env.deploy("bulk-a", k_bulk, 0);
    auto bulk_b = env.deploy("bulk-b", k_bulk, 1);
    auto lat_a = env.deploy("lat-a", k_latency, 0);
    auto lat_b = env.deploy("lat-b", k_latency, 1);
    std::tie(bulk_tx, bulk_rx) =
        fx.open_channel(env, agents, bulk_a, bulk_b, orch::Transport::rdma);
    std::tie(lat_tx, lat_rx) = fx.open_channel(env, agents, lat_a, lat_b, orch::Transport::rdma);
  }

  /// Time `bytes` of records occupy the host NIC's tx link.
  static SimDuration record_stream_ns(Env& e, std::size_t bytes) {
    const double gbps = e.cluster.host(0).nic().capabilities().line_rate_gbps;
    return static_cast<SimDuration>(static_cast<double>(bytes) * 8.0 / gbps);
  }

  Env env{2};
  AgentFabric agents;
  ChannelPtr bulk_tx, bulk_rx, lat_tx, lat_rx;
};

TEST_F(AgentFixture, LatencyRecordOvertakesQueuedBulkOnSharedTrunk) {
  // The trunk's RC send queue is FIFO. With tenant A's 64 KiB records
  // posted up to every send slot, a tenant-B record waited behind all of
  // them (about 220 us here). Scheduled per tenant over a shallow send
  // queue it waits for at most the record streaming now and the one
  // posted behind it.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  constexpr std::size_t k_bulk_bytes = 64 * 1024;
  constexpr int k_bulk_msgs = 64;
  const SimDuration stream_ns = SharedTrunk::record_stream_ns(t.env, k_bulk_bytes);

  int bulk_seen = 0;
  bool bulk_in_order = true;
  t.bulk_rx->set_on_message([&](Buffer&& m) {
    bulk_in_order = bulk_in_order && m.size() == k_bulk_bytes &&
                    check_pattern(m.view(), 1000 + static_cast<std::uint64_t>(bulk_seen));
    ++bulk_seen;
  });
  SimTime lat_arrived = -1;
  t.lat_rx->set_on_message([&](Buffer&&) { lat_arrived = t.env.loop().now(); });

  // Unloaded latency of a 256 B record on the idle trunk.
  SimTime sent_at = t.env.loop().now();
  ASSERT_TRUE(t.lat_tx->send(Buffer(256)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return lat_arrived >= 0; }));
  const SimDuration unloaded = lat_arrived - sent_at;

  for (int i = 0; i < k_bulk_msgs; ++i) {
    Buffer m(k_bulk_bytes);
    fill_pattern(m.mutable_view(), 1000 + static_cast<std::uint64_t>(i));
    ASSERT_TRUE(t.bulk_tx->send(std::move(m)).is_ok());
  }
  const SimTime bulk_start = t.env.loop().now();
  t.env.wait([&]() { return t.env.loop().now() >= bulk_start + 100 * k_microsecond; });
  ASSERT_LT(bulk_seen, k_bulk_msgs - 8) << "tenant A must still have 8+ records queued";

  lat_arrived = -1;
  sent_at = t.env.loop().now();
  ASSERT_TRUE(t.lat_tx->send(Buffer(256)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return lat_arrived >= 0; }));
  EXPECT_LT(bulk_seen, k_bulk_msgs - 8) << "tenant B arrived only after the bulk drained";
  EXPECT_LE(lat_arrived - sent_at, unloaded + 2 * stream_ns)
      << "unloaded " << unloaded << " ns, one bulk record streams in " << stream_ns << " ns";

  ASSERT_TRUE(t.env.wait([&]() { return bulk_seen == k_bulk_msgs; }, 30 * k_second));
  EXPECT_TRUE(bulk_in_order);
}

TEST_F(AgentFixture, SingleTenantTrunkDeliversInOrderAtLineRate) {
  // One tenant alone: the shallow send queue must not idle the NIC between
  // a completion and the agent's next post, and records stay in order.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::rdma);
  ASSERT_NE(ep_a, nullptr);

  // 64 KiB records interleaved with small ones (acks, RPCs).
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (int i = 0; i < 192; ++i) {
    sizes.push_back(i % 4 == 3 ? 200 : 64 * 1024);
    total += sizes.back();
  }
  std::size_t seen = 0;
  bool in_order = true;
  ep_b->set_on_message([&](Buffer&& m) {
    in_order = in_order && seen < sizes.size() && m.size() == sizes[seen] &&
               check_pattern(m.view(), seen);
    ++seen;
  });
  const SimTime t0 = env.loop().now();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Buffer m(sizes[i]);
    fill_pattern(m.mutable_view(), i);
    ASSERT_TRUE(ep_a->send(std::move(m)).is_ok());
  }
  ASSERT_TRUE(env.wait([&]() { return seen == sizes.size(); }, 30 * k_second));
  EXPECT_TRUE(in_order);
  const double secs = static_cast<double>(env.loop().now() - t0) / 1e9;
  const double gbps = static_cast<double>(total) * 8.0 / secs / 1e9;
  // The link carries RDMA and relay headers on top of the payload.
  EXPECT_GE(gbps, 0.9 * env.cluster.host(0).nic().capabilities().line_rate_gbps)
      << "goodput " << gbps << " Gb/s";
}

TEST_F(AgentFixture, TrunkSplitsPostedBytesByNicWeights) {
  // Both tenants saturate the trunk; the host NIC's TenantQos weights 8:1
  // must split what the trunk posts (and so what arrives) 8:1.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  auto& nic = t.env.cluster.host(0).nic();
  nic.set_tenant_qos(SharedTrunk::k_latency, fabric::TenantQos{.weight = 8});
  nic.set_tenant_qos(SharedTrunk::k_bulk, fabric::TenantQos{.weight = 1});

  constexpr std::size_t k_bytes = 16 * 1024;
  constexpr int k_msgs = 400;
  std::uint64_t heavy = 0, light = 0;
  t.lat_rx->set_on_message([&](Buffer&& m) { heavy += m.size(); });
  t.bulk_rx->set_on_message([&](Buffer&& m) { light += m.size(); });
  for (int i = 0; i < k_msgs; ++i) {
    ASSERT_TRUE(t.bulk_tx->send(Buffer(k_bytes)).is_ok());
    ASSERT_TRUE(t.lat_tx->send(Buffer(k_bytes)).is_ok());
  }
  // Measure between 10% and 90% of the heavy tenant's transfer, while both
  // tenants still have records queued.
  ASSERT_TRUE(t.env.wait([&]() { return heavy >= k_msgs * k_bytes / 10; }, 30 * k_second));
  const std::uint64_t heavy0 = heavy, light0 = light;
  ASSERT_TRUE(t.env.wait([&]() { return heavy >= k_msgs * k_bytes * 9 / 10; }, 30 * k_second));
  ASSERT_LT(light, k_msgs * k_bytes) << "the light tenant ran dry inside the window";
  const double ratio =
      static_cast<double>(heavy - heavy0) / static_cast<double>(light - light0);
  EXPECT_NEAR(ratio, 8.0, 0.8);
  ASSERT_TRUE(t.env.wait([&]() { return light == k_msgs * k_bytes; }, 30 * k_second));
}

TEST_F(AgentFixture, CongestedTenantLeavesOtherTenantWritable) {
  // Backpressure is per tenant: one tenant's deep trunk queue pauses its
  // own channels, not every channel between the two hosts.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  t.bulk_rx->set_on_message([](Buffer&&) {});
  t.lat_rx->set_on_message([](Buffer&&) {});
  Agent& agent = t.agents.agent_on(0);
  for (int i = 0; i < 128; ++i) ASSERT_TRUE(t.bulk_tx->send(Buffer(64 * 1024)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() {
    return !agent.trunk_writable(1, orch::Transport::rdma, SharedTrunk::k_bulk);
  }));
  EXPECT_FALSE(t.bulk_tx->writable());
  EXPECT_TRUE(agent.trunk_writable(1, orch::Transport::rdma, SharedTrunk::k_latency));
  EXPECT_TRUE(t.lat_tx->writable());
  const auto* depth = t.env.cluster.telemetry().metrics().find_gauge(
      "agent/0/trunk/1/tenant/" + std::to_string(SharedTrunk::k_bulk) + "/queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->value(), static_cast<std::int64_t>(Trunk::k_congestion_records));
  // The congested tenant recovers once its queue drains.
  EXPECT_TRUE(t.env.wait([&]() { return t.bulk_tx->writable(); }, 30 * k_second));
}

TEST_F(AgentFixture, SmallRecordOvertakesStreamingBulkRecordOnSharedTrunk) {
  // A record never preempts a WR already streaming on its QP. Each tenant
  // rides its own QP of the trunk, and the NIC processor interleaves their
  // chunks, so a 256 B record posted while a 256 KiB bulk record streams
  // arrives before the bulk record does.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  SimTime bulk_arrived = -1, lat_arrived = -1;
  t.bulk_rx->set_on_message([&](Buffer&&) { bulk_arrived = t.env.loop().now(); });
  t.lat_rx->set_on_message([&](Buffer&&) { lat_arrived = t.env.loop().now(); });
  // Both tenants' QPs are wired before the race.
  ASSERT_TRUE(t.bulk_tx->send(Buffer(256)).is_ok());
  ASSERT_TRUE(t.lat_tx->send(Buffer(256)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return bulk_arrived >= 0 && lat_arrived >= 0; }));
  bulk_arrived = lat_arrived = -1;

  const std::size_t bulk_bytes = t.agents.config().fragment_bytes;
  const fabric::Nic& nic = t.env.cluster.host(0).nic();
  const std::uint64_t bulk_tx0 = nic.tenant_tx_bytes(SharedTrunk::k_bulk);
  ASSERT_TRUE(t.bulk_tx->send(Buffer(bulk_bytes)).is_ok());
  // Wait until a quarter of the bulk record is on the wire.
  ASSERT_TRUE(t.env.wait([&]() {
    return nic.tenant_tx_bytes(SharedTrunk::k_bulk) >= bulk_tx0 + bulk_bytes / 4;
  }));
  ASSERT_LT(bulk_arrived, 0);
  const SimTime sent_at = t.env.loop().now();
  ASSERT_TRUE(t.lat_tx->send(Buffer(256)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return bulk_arrived >= 0 && lat_arrived >= 0; }));
  EXPECT_LT(lat_arrived, bulk_arrived);
  EXPECT_LT(lat_arrived - sent_at, SharedTrunk::record_stream_ns(t.env, bulk_bytes) / 2)
      << "the small record waited for most of the bulk record";
}

TEST_F(AgentFixture, ChannelStaysInOrderWhileItsTenantQpOpens) {
  // The second tenant's first records wait in the trunk while its QP is
  // wired; both directions open it at once (each half asks), and every
  // record, single- and multi-fragment, still arrives once and in order.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  bool bulk_seen = false;
  t.bulk_rx->set_on_message([&](Buffer&&) { bulk_seen = true; });
  ASSERT_TRUE(t.bulk_tx->send(Buffer(64)).is_ok());  // the first tenant: base QP
  ASSERT_TRUE(t.env.wait([&]() { return bulk_seen; }));

  const std::size_t frag = t.agents.config().fragment_bytes;
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 24; ++i) sizes.push_back(i % 5 == 4 ? frag + 1000 : 200 + 700 * i);
  std::size_t at_rx = 0, at_tx = 0;
  bool rx_in_order = true, tx_in_order = true;
  t.lat_rx->set_on_message([&](Buffer&& m) {
    rx_in_order = rx_in_order && at_rx < sizes.size() && m.size() == sizes[at_rx] &&
                  check_pattern(m.view(), at_rx);
    ++at_rx;
  });
  t.lat_tx->set_on_message([&](Buffer&& m) {
    tx_in_order = tx_in_order && at_tx < sizes.size() && m.size() == sizes[at_tx] &&
                  check_pattern(m.view(), 100 + at_tx);
    ++at_tx;
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Buffer fwd(sizes[i]), back(sizes[i]);
    fill_pattern(fwd.mutable_view(), i);
    fill_pattern(back.mutable_view(), 100 + i);
    ASSERT_TRUE(t.lat_tx->send(std::move(fwd)).is_ok());
    ASSERT_TRUE(t.lat_rx->send(std::move(back)).is_ok());
  }
  ASSERT_TRUE(t.env.wait([&]() { return at_rx == sizes.size() && at_tx == sizes.size(); },
                         30 * k_second));
  EXPECT_TRUE(rx_in_order);
  EXPECT_TRUE(tx_in_order);
  t.env.loop().run_for(k_millisecond);
  EXPECT_EQ(at_rx, sizes.size());
  EXPECT_EQ(at_tx, sizes.size());
}

TEST_F(AgentFixture, TenantQpWiringLostToALinkFlapIsAskedAgain) {
  // A tenant QP's wiring exchange is one control round trip. A link flap
  // drops its request here, and nothing RDMA crosses the link meanwhile,
  // so the lane stays up; a later heartbeat asks again and the record flows.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  bool bulk_seen = false;
  SimTime lat_arrived = -1;
  t.bulk_rx->set_on_message([&](Buffer&&) { bulk_seen = true; });
  t.lat_rx->set_on_message([&](Buffer&&) { lat_arrived = t.env.loop().now(); });
  ASSERT_TRUE(t.bulk_tx->send(Buffer(64)).is_ok());  // the first tenant: base QP
  ASSERT_TRUE(t.env.wait([&]() { return bulk_seen; }));

  fabric::Nic& nic = t.env.cluster.host(0).nic();
  const std::uint64_t drops0 = nic.dropped_packets();
  nic.set_link_up(false);
  ASSERT_TRUE(t.lat_tx->send(Buffer(256)).is_ok());
  t.env.loop().run_for(50 * k_microsecond);
  nic.set_link_up(true);
  ASSERT_GT(nic.dropped_packets(), drops0) << "the exchange left during the flap";
  EXPECT_LT(lat_arrived, 0);
  ASSERT_TRUE(t.env.wait([&]() { return lat_arrived >= 0; }, 10 * k_millisecond));
  EXPECT_EQ(t.agents.agent_on(0).lanes_failed(), 0u);
  EXPECT_TRUE(t.agents.agent_on(0).trunk_established(1, orch::Transport::rdma));
}

TEST_F(AgentFixture, TenantQpRegistersNoMemory) {
  // A tenant's QP shares the trunk's slot MRs and receive queue: the bytes
  // registered on either host stay what the first tenant's trunk took.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  int bulk_seen = 0, lat_seen = 0;
  t.bulk_rx->set_on_message([&](Buffer&&) { ++bulk_seen; });
  t.lat_rx->set_on_message([&](Buffer&&) { ++lat_seen; });
  ASSERT_TRUE(t.bulk_tx->send(Buffer(64)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return bulk_seen == 1; }));
  rdma::RdmaDevice& dev0 = t.agents.agent_on(0).rdma_device();
  rdma::RdmaDevice& dev1 = t.agents.agent_on(1).rdma_device();
  const std::size_t registered0 = dev0.registered_bytes();
  const std::size_t registered1 = dev1.registered_bytes();
  const AgentConfig& cfg = t.agents.config();
  EXPECT_EQ(registered0, 2 * cfg.rdma_slots * (cfg.fragment_bytes + RelayHeader::k_size));

  ASSERT_TRUE(t.lat_tx->send(Buffer(64)).is_ok());
  ASSERT_TRUE(t.env.wait([&]() { return lat_seen == 1; }));
  // The latency tenant's record crossed a QP pair of its own: each device's
  // second QP (its first is the trunk's base QP), wired to the other's.
  const auto tenant_qp0 = dev0.qp(2);
  const auto tenant_qp1 = dev1.qp(2);
  ASSERT_NE(tenant_qp0, nullptr);
  ASSERT_NE(tenant_qp1, nullptr);
  EXPECT_EQ(tenant_qp0->state(), rdma::QpState::ready);
  EXPECT_EQ(tenant_qp0->remote_qp(), tenant_qp1->num());
  EXPECT_EQ(tenant_qp1->remote_qp(), tenant_qp0->num());
  EXPECT_EQ(dev0.qp(1)->remote_qp(), dev1.qp(1)->num());
  EXPECT_EQ(dev0.registered_bytes(), registered0);
  EXPECT_EQ(dev1.registered_bytes(), registered1);
}

TEST_F(AgentFixture, RdmaDeathFailsTheWholeTrunkOnce) {
  // Chunks of both tenants' QPs drop when the engine dies; the trunk is one
  // lane, so each end counts one failure.
  SharedTrunk t(*this);
  ASSERT_NE(t.bulk_tx, nullptr);
  ASSERT_NE(t.lat_tx, nullptr);
  t.bulk_rx->set_on_message([](Buffer&&) {});
  t.lat_rx->set_on_message([](Buffer&&) {});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(t.bulk_tx->send(Buffer(64 * 1024)).is_ok());
    ASSERT_TRUE(t.lat_tx->send(Buffer(64 * 1024)).is_ok());
  }
  const SimTime start = t.env.loop().now();
  t.env.wait([&]() { return t.env.loop().now() >= start + 20 * k_microsecond; });
  t.env.cluster.host(0).nic().set_rdma_up(false);
  t.env.loop().run_for(k_millisecond);
  EXPECT_EQ(t.agents.agent_on(0).lanes_failed(), 1u);
  EXPECT_EQ(t.agents.agent_on(1).lanes_failed(), 1u);
  EXPECT_FALSE(t.agents.agent_on(0).trunk_established(1, orch::Transport::rdma));
}

TEST_F(AgentFixture, TcpTrunkStackCpuIsBilledToTheAgent) {
  // Every host-CPU ns a TCP-trunk transfer burns belongs to a container or
  // to the agent: the agents' kernel stack work included.
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  auto [ep_a, ep_b] = open_channel(env, agents, a, b, orch::Transport::tcp_host);
  ASSERT_NE(ep_a, nullptr);
  std::size_t got = 0;
  ep_b->set_on_message([&](Buffer&& m) { got += m.size(); });
  const auto billed = [&]() {
    return a->account().busy_ns + b->account().busy_ns + agents.agent_on(0).account().busy_ns +
           agents.agent_on(1).account().busy_ns;
  };
  const auto burned = [&]() {
    return env.cluster.host(0).cpu().busy_ns_total() + env.cluster.host(1).cpu().busy_ns_total();
  };
  const double agents0 =
      agents.agent_on(0).account().busy_ns + agents.agent_on(1).account().busy_ns;
  const double billed0 = billed(), burned0 = burned();
  constexpr std::size_t k_bytes = 4 * 1024 * 1024;
  for (std::size_t sent = 0; sent < k_bytes; sent += 64 * 1024) {
    ASSERT_TRUE(ep_a->send(Buffer(64 * 1024)).is_ok());
  }
  ASSERT_TRUE(env.wait([&]() { return got == k_bytes; }, 30 * k_second));
  env.loop().run();
  const double agents_grew =
      agents.agent_on(0).account().busy_ns + agents.agent_on(1).account().busy_ns - agents0;
  EXPECT_GT(agents_grew, 0.0);
  EXPECT_NEAR(billed() - billed0, burned() - burned0, 1e-6 * (burned() - burned0))
      << "host CPU billed to nobody";
}

}  // namespace
}  // namespace freeflow::agent
