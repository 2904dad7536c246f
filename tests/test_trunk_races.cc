// Regression tests for trunk-establishment races. The schedule that used to
// kill mapreduce_shuffle is reproduced deterministically here: both hosts
// start a setup toward each other on the same tick, so each side's attempt
// finds the peer's half-trunk mid-handshake. Pre-fix, the second adoption
// clobbered the first and the zombie guard reported "lane died during trunk
// setup"; post-fix the sides merge onto one trunk and both channels open.
// A fault-injected variant kills the lane mid-handshake and requires the
// RetryPolicy to carry the setup through the outage.
#include <gtest/gtest.h>

#include "agent/agent.h"
#include "faults/fault_injector.h"
#include "sim_env.h"

namespace freeflow::agent {
namespace {

using freeflow::testing::Env;

struct BiDirRig {
  orch::ContainerPtr a, b;
  ChannelPtr ab_a, ab_b;  ///< a->b channel, both endpoints
  ChannelPtr ba_b, ba_a;  ///< b->a channel, both endpoints
  Status ab_error, ba_error;

  [[nodiscard]] bool complete() const {
    return ab_a && ab_b && ba_b && ba_a;
  }
};

/// Starts a->b and b->a setups WITHOUT stepping the loop in between: both
/// agents enter setup for the same (host pair, transport) key on the same
/// tick, which is the exact schedule of the historical clobber bug.
BiDirRig start_bidirectional(Env& env, AgentFabric& agents,
                             orch::Transport transport) {
  BiDirRig rig;
  rig.a = env.deploy("a", 1, 0);
  rig.b = env.deploy("b", 1, 1);
  agents.agent_on(0).register_container(
      rig.a->id(), [&rig](orch::ContainerId, ChannelPtr ch) {
        rig.ba_a = std::move(ch);
      });
  agents.agent_on(1).register_container(
      rig.b->id(), [&rig](orch::ContainerId, ChannelPtr ch) {
        rig.ab_b = std::move(ch);
      });
  agents.agent_on(0).establish(rig.a->id(), rig.b->id(), transport,
                               [&rig](Result<ChannelPtr> ch) {
    if (!ch.is_ok()) {
      rig.ab_error = ch.status();
      return;
    }
    rig.ab_a = std::move(ch.value());
  });
  agents.agent_on(1).establish(rig.b->id(), rig.a->id(), transport,
                               [&rig](Result<ChannelPtr> ch) {
    if (!ch.is_ok()) {
      rig.ba_error = ch.status();
      return;
    }
    rig.ba_b = std::move(ch.value());
  });
  return rig;
}

class TrunkRace : public ::testing::TestWithParam<orch::Transport> {};

TEST_P(TrunkRace, BidirectionalSameTickSetupConverges) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  BiDirRig rig = start_bidirectional(env, agents, GetParam());

  EXPECT_TRUE(env.wait([&]() { return rig.complete(); }, 30 * k_second))
      << "a->b error: " << rig.ab_error << "; b->a error: " << rig.ba_error;
  ASSERT_TRUE(rig.complete());

  // Both directions must actually carry traffic over whatever trunk won.
  Buffer at_b, at_a;
  rig.ab_b->set_on_message([&](Buffer&& m) { at_b = std::move(m); });
  rig.ba_a->set_on_message([&](Buffer&& m) { at_a = std::move(m); });
  ASSERT_TRUE(rig.ab_a->send(Buffer::from_string("forward")).is_ok());
  ASSERT_TRUE(rig.ba_b->send(Buffer::from_string("backward")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_b.empty() && !at_a.empty(); }));
  EXPECT_EQ(at_b.to_string(), "forward");
  EXPECT_EQ(at_a.to_string(), "backward");
}

INSTANTIATE_TEST_SUITE_P(AllTrunkKinds, TrunkRace,
                         ::testing::Values(orch::Transport::rdma,
                                           orch::Transport::dpdk,
                                           orch::Transport::tcp_host),
                         [](const ::testing::TestParamInfo<orch::Transport>& p) {
                           return std::string(orch::transport_name(p.param)) ==
                                          "tcp-host"
                                      ? "tcp_host"
                                      : std::string(orch::transport_name(p.param));
                         });

TEST(TrunkRaceTelemetry, SimultaneousSetupsResolveOntoOneTrunk) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  BiDirRig rig = start_bidirectional(env, agents, orch::Transport::rdma);
  ASSERT_TRUE(env.wait([&]() { return rig.complete(); }, 30 * k_second));

  auto& metrics = env.cluster.telemetry().metrics();
  const std::uint64_t races =
      metrics.counter("agent/0/trunk/setup_races_resolved").value() +
      metrics.counter("agent/1/trunk/setup_races_resolved").value();
  EXPECT_GE(races, 1u) << "same-tick opposite setups did not detect the race";
}

TEST(TrunkRaceFaults, LaneDeathMidHandshakeIsRetriedToSuccess) {
  Env env(2);
  // A retry schedule guaranteed to span the outage below even if attempts
  // fail instantly: backoffs alone cover 1+2+4+5*6 ms > 20ms.
  AgentConfig config;
  config.trunk_retry.max_attempts = 10;
  config.trunk_retry.attempt_timeout_ns = 5 * k_millisecond;
  config.trunk_retry.initial_backoff_ns = 1 * k_millisecond;
  AgentFabric agents(*env.net_orch, config);
  faults::FaultInjector injector(*env.net_orch, agents);

  // The whole link on host 0 goes dark NOW and heals after 20ms: handshake
  // control messages in flight are eaten, so in-progress attempts die by
  // watchdog (or by drop-indicted lane death), and the setup must ride its
  // backoff schedule through the heal and still come up.
  faults::FaultPlan plan;
  plan.link_flap(0, env.loop().now(), 20 * k_millisecond);
  injector.arm(plan);

  BiDirRig rig = start_bidirectional(env, agents, orch::Transport::rdma);
  EXPECT_TRUE(env.wait([&]() { return rig.complete(); }, 120 * k_second))
      << "a->b error: " << rig.ab_error << "; b->a error: " << rig.ba_error;
  ASSERT_TRUE(rig.complete());

  Buffer at_b;
  rig.ab_b->set_on_message([&](Buffer&& m) { at_b = std::move(m); });
  ASSERT_TRUE(rig.ab_a->send(Buffer::from_string("survived")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_b.empty(); }));
  EXPECT_EQ(at_b.to_string(), "survived");

  // The outage must have cost at least one attempt on some agent.
  auto& metrics = env.cluster.telemetry().metrics();
  const std::uint64_t retries =
      metrics.counter("agent/0/trunk/setup_retries").value() +
      metrics.counter("agent/1/trunk/setup_retries").value();
  EXPECT_GE(retries, 1u) << "outage overlapped no attempt — timing drifted?";
}

TEST(TrunkRaceFaults, StaleRdmaHalfIsReplacedOnRetry) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  faults::FaultInjector injector(*env.net_orch, agents);

  // Host 0's link flaps after its setup request has left but before the
  // peer's reply lands: the peer builds its half and connects its QP to
  // ours, and the reply is lost. One control message's flight, from the
  // cost model: NIC processing at each end, two link hops and the ToR.
  const sim::CostModel& m = env.cluster.cost_model();
  const auto one_way = static_cast<SimDuration>(2 * m.nic_pkt_cost(160)) +
                       2 * m.link_prop_ns + m.switch_fwd_ns;
  faults::FaultPlan plan;
  plan.link_flap(0, env.loop().now() + one_way, 2 * one_way);
  injector.arm(plan);

  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  ChannelPtr ep_a, ep_b;
  agents.agent_on(1).register_container(
      b->id(), [&](orch::ContainerId, ChannelPtr ch) { ep_b = std::move(ch); });
  agents.agent_on(0).register_container(a->id(), [](orch::ContainerId, ChannelPtr) {});
  Status error;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::rdma,
                               [&](Result<ChannelPtr> ch) {
    if (ch.is_ok()) {
      ep_a = std::move(ch.value());
    } else {
      error = ch.status();
    }
  });
  // The watchdog abandons the first attempt; the retry finds the peer's
  // half wired to the abandoned QP, and the peer must replace it (a wired
  // QP cannot be re-pointed) rather than join it.
  ASSERT_TRUE(env.wait([&]() { return ep_a != nullptr && ep_b != nullptr; }, 30 * k_second))
      << error;
  auto& metrics = env.cluster.telemetry().metrics();
  EXPECT_GE(metrics.counter("agent/0/trunk/setup_retries").value(), 1u)
      << "the flap missed the reply — timing drifted?";
  EXPECT_GE(metrics.counter("agent/1/trunk/retired").value(), 1u)
      << "the peer joined a half wired to an abandoned QP";

  Buffer at_b, at_a;
  ep_b->set_on_message([&](Buffer&& msg) { at_b = std::move(msg); });
  ep_a->set_on_message([&](Buffer&& msg) { at_a = std::move(msg); });
  ASSERT_TRUE(ep_a->send(Buffer::from_string("ping")).is_ok());
  ASSERT_TRUE(ep_b->send(Buffer::from_string("pong")).is_ok());
  EXPECT_TRUE(env.wait([&]() { return !at_b.empty() && !at_a.empty(); }));
  EXPECT_EQ(at_b.to_string(), "ping");
  EXPECT_EQ(at_a.to_string(), "pong");
}

TEST(TrunkRaceFaults, TerminalErrorAfterRetryBudgetExhausted) {
  Env env(2);
  AgentFabric agents(*env.net_orch);
  faults::FaultInjector injector(*env.net_orch, agents);

  // Link outage far longer than the whole retry budget: the setup must
  // fail loudly with an annotated terminal error, not hang.
  faults::FaultPlan plan;
  plan.link_flap(0, env.loop().now(), 600 * k_second);
  injector.arm(plan);

  auto a = env.deploy("a", 1, 0);
  auto b = env.deploy("b", 1, 1);
  agents.agent_on(1).register_container(b->id(),
                                        [](orch::ContainerId, ChannelPtr) {});
  agents.agent_on(0).register_container(a->id(),
                                        [](orch::ContainerId, ChannelPtr) {});
  Status result;
  bool done = false;
  agents.agent_on(0).establish(a->id(), b->id(), orch::Transport::rdma,
                               [&](Result<ChannelPtr> ch) {
    result = ch.status();
    done = true;
  });
  EXPECT_TRUE(env.wait([&]() { return done; }, 300 * k_second));
  EXPECT_FALSE(result.is_ok());
  EXPECT_NE(result.message().find("attempt"), std::string::npos)
      << "terminal error should carry the attempt count: " << result;
}

}  // namespace
}  // namespace freeflow::agent
