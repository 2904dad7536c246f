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
  Env env(2);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
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

INSTANTIATE_TEST_SUITE_P(AllTrunks, TrunkTransportTest,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& pinfo) {
                           return std::string(orch::transport_name(pinfo.param)) == "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(pinfo.param));
                         });

TEST_F(AgentFixture, RdmaTrunkRefusedWithoutCapableNic) {
  fabric::NicCapabilities caps;
  caps.rdma = false;
  Env env(2, sim::CostModel{}, caps);
  AgentFabric agents(*env.net_orch);
  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(1).register_container(b->id(), [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::rdma,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }));
  EXPECT_EQ(result.code(), Errc::failed_precondition);
}

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

}  // namespace
}  // namespace freeflow::agent
