#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "fabric/cluster.h"
#include "fabric/control.h"

namespace freeflow::fabric {
namespace {

TEST(Cluster, BuildsHostsWithIds) {
  Cluster cluster;
  cluster.add_hosts(3);
  EXPECT_EQ(cluster.host_count(), 3u);
  EXPECT_EQ(cluster.host(0).id(), 0u);
  EXPECT_EQ(cluster.host(2).name(), "host2");
  EXPECT_EQ(cluster.host(1).cpu().servers(), cluster.cost_model().cores_per_host);
}

TEST(Cluster, MixedNicCapabilities) {
  Cluster cluster;
  cluster.add_host("rdma-host", NicCapabilities{.rdma = true, .dpdk = true});
  cluster.add_host("plain-host", NicCapabilities{.rdma = false, .dpdk = false});
  EXPECT_TRUE(cluster.host(0).nic().capabilities().rdma);
  EXPECT_FALSE(cluster.host(1).nic().capabilities().rdma);
}

TEST(Host, VmMapping) {
  Cluster cluster;
  cluster.add_hosts(2);
  EXPECT_FALSE(cluster.host(0).is_vm());
  cluster.host(1).set_physical_machine(0);
  EXPECT_TRUE(cluster.host(1).is_vm());
  EXPECT_EQ(cluster.host(1).physical_machine().value(), 0u);
}

PacketPtr make_test_packet(HostId dst, std::uint32_t bytes, PacketKind kind) {
  auto p = std::make_shared<Packet>();
  p->dst_host = dst;
  p->wire_bytes = bytes;
  p->kind = kind;
  p->body = std::make_shared<ControlBody>();
  return p;
}

TEST(Nic, DeliversAcrossSwitch) {
  Cluster cluster;
  cluster.add_hosts(2);
  int arrived = 0;
  cluster.host(1).nic().set_rx_handler(PacketKind::control,
                                       [&](PacketPtr) { ++arrived; });
  cluster.host(0).nic().send(make_test_packet(1, 1500, PacketKind::control));
  cluster.loop().run();
  EXPECT_EQ(arrived, 1);
  EXPECT_EQ(cluster.host(0).nic().tx_packets(), 1u);
  EXPECT_EQ(cluster.host(1).nic().rx_packets(), 1u);
  EXPECT_EQ(cluster.tor().forwarded(), 1u);
}

TEST(Nic, LoopbackSkipsSwitch) {
  Cluster cluster;
  cluster.add_hosts(1);
  int arrived = 0;
  cluster.host(0).nic().set_rx_handler(PacketKind::control,
                                       [&](PacketPtr) { ++arrived; });
  cluster.host(0).nic().send(make_test_packet(0, 1000, PacketKind::control));
  cluster.loop().run();
  EXPECT_EQ(arrived, 1);
  EXPECT_EQ(cluster.tor().forwarded(), 0u);
}

TEST(Nic, EndToEndLatencyMatchesModel) {
  // serialization(tx) + prop + switch fwd + serialization(port) + prop.
  sim::CostModel m;
  Cluster cluster(m);
  cluster.add_hosts(2);
  SimTime arrival = -1;
  cluster.host(1).nic().set_rx_handler(PacketKind::control,
                                       [&](PacketPtr) { arrival = cluster.loop().now(); });
  const std::uint32_t bytes = 4096;
  cluster.host(0).nic().send(make_test_packet(1, bytes, PacketKind::control));
  cluster.loop().run();
  const SimDuration ser = transmission_time(bytes, m.nic_line_gbps * 1e9);
  const SimDuration expected = ser + m.link_prop_ns + m.switch_fwd_ns + ser + m.link_prop_ns;
  EXPECT_EQ(arrival, expected);
}

TEST(Nic, LineRateBoundsThroughput) {
  // 1000 x 64 KiB packets over a 40 Gb/s link take >= 13.1 ms.
  Cluster cluster;
  cluster.add_hosts(2);
  int arrived = 0;
  cluster.host(1).nic().set_rx_handler(PacketKind::control,
                                       [&](PacketPtr) { ++arrived; });
  const std::uint32_t bytes = 64 * 1024;
  for (int i = 0; i < 1000; ++i) {
    cluster.host(0).nic().send(make_test_packet(1, bytes, PacketKind::control));
  }
  cluster.loop().run();
  EXPECT_EQ(arrived, 1000);
  const double gbps = throughput_gbps(1000ull * bytes, cluster.loop().now());
  EXPECT_LE(gbps, 40.5);
  EXPECT_GT(gbps, 38.0);
}

TEST(Nic, UnhandledKindIsDroppedSafely) {
  Cluster cluster;
  cluster.add_hosts(2);
  cluster.host(0).nic().send(make_test_packet(1, 100, PacketKind::dpdk_frame));
  cluster.loop().run();  // no handler installed: warn + drop, no crash
  EXPECT_EQ(cluster.host(1).nic().rx_packets(), 1u);
}

TEST(Nic, ByteCountersTrackWireBytes) {
  Cluster cluster;
  cluster.add_hosts(2);
  cluster.host(1).nic().set_rx_handler(PacketKind::control, [](PacketPtr) {});
  cluster.host(0).nic().send(make_test_packet(1, 1111, PacketKind::control));
  cluster.host(0).nic().send(make_test_packet(1, 2222, PacketKind::control));
  cluster.loop().run();
  EXPECT_EQ(cluster.host(0).nic().tx_bytes(), 3333u);
  EXPECT_EQ(cluster.host(1).nic().rx_bytes(), 3333u);
}

TEST(Control, InstallIsIdempotent) {
  Cluster cluster;
  cluster.add_hosts(1);
  install_control_rx(cluster.host(0));
  install_control_rx(cluster.host(0));  // re-install must not break dispatch
  int fired = 0;
  send_control(cluster.host(0), 0, 64, [&]() { ++fired; });
  cluster.loop().run();
  EXPECT_EQ(fired, 1);
}

TEST(Control, RoundTripAcrossHosts) {
  Cluster cluster;
  cluster.add_hosts(2);
  install_control_rx(cluster.host(0));
  install_control_rx(cluster.host(1));
  bool there = false, back = false;
  send_control(cluster.host(0), 1, 128, [&]() {
    there = true;
    send_control(cluster.host(1), 0, 128, [&]() { back = true; });
  });
  cluster.loop().run();
  EXPECT_TRUE(there);
  EXPECT_TRUE(back);
}

TEST(Control, SameHostDeliveryStillAsync) {
  Cluster cluster;
  cluster.add_hosts(1);
  install_control_rx(cluster.host(0));
  bool fired = false;
  send_control(cluster.host(0), 0, 64, [&]() { fired = true; });
  EXPECT_FALSE(fired);  // never synchronous
  cluster.loop().run();
  EXPECT_TRUE(fired);
}

TEST(Switch, IncastQueuesOnOutputPort) {
  // Two senders to one receiver share the receiver's 40 Gb/s port: total
  // delivery time is bounded by the port, not the senders.
  Cluster cluster;
  cluster.add_hosts(3);
  std::uint64_t bytes_rx = 0;
  cluster.host(2).nic().set_rx_handler(
      PacketKind::control, [&](PacketPtr p) { bytes_rx += p->wire_bytes; });
  const std::uint32_t sz = 64 * 1024;
  const int per_sender = 200;
  for (int i = 0; i < per_sender; ++i) {
    cluster.host(0).nic().send(make_test_packet(2, sz, PacketKind::control));
    cluster.host(1).nic().send(make_test_packet(2, sz, PacketKind::control));
  }
  cluster.loop().run();
  EXPECT_EQ(bytes_rx, 2ull * per_sender * sz);
  const double gbps = throughput_gbps(bytes_rx, cluster.loop().now());
  EXPECT_LE(gbps, 40.5);  // receiver port is the bottleneck
  EXPECT_GT(gbps, 35.0);
}

PacketPtr make_tenant_packet(HostId dst, std::uint32_t bytes, std::uint32_t tenant) {
  auto p = make_test_packet(dst, bytes, PacketKind::control);
  p->tenant = tenant;
  return p;
}

TEST(WdrrTenantQos, WeightedShareConvergesToRatio) {
  // Two tenants saturate one tx link with an 8:1 weight split; the byte
  // split observed mid-drain must converge to the weights within +/-10%.
  Cluster cluster;
  cluster.add_hosts(2);
  cluster.host(1).nic().set_rx_handler(PacketKind::control, [](PacketPtr) {});
  cluster.host(0).nic().set_tenant_qos(1, TenantQos{.weight = 8});
  cluster.host(0).nic().set_tenant_qos(2, TenantQos{.weight = 1});
  const std::uint32_t sz = 64 * 1024;
  for (int i = 0; i < 400; ++i) {
    cluster.host(0).nic().send(make_tenant_packet(1, sz, 1));
    cluster.host(0).nic().send(make_tenant_packet(1, sz, 2));
  }
  // Half the drain time: both queues are still backlogged at the deadline,
  // so the split reflects scheduling, not work conservation.
  cluster.loop().run_for(5 * k_millisecond);
  const auto t1 = cluster.host(0).nic().tenant_tx_bytes(1);
  const auto t2 = cluster.host(0).nic().tenant_tx_bytes(2);
  ASSERT_GT(t2, 0u);  // the weight-1 tenant must not be starved
  const double ratio = static_cast<double>(t1) / static_cast<double>(t2);
  EXPECT_GE(ratio, 8.0 * 0.9);
  EXPECT_LE(ratio, 8.0 * 1.1);
  EXPECT_GT(cluster.host(0).nic().tenant_queue_depth(1), 0u);
  EXPECT_GT(cluster.host(0).nic().tenant_queue_depth(2), 0u);
}

TEST(WdrrTenantQos, Weight1NotStarvedUnderWeight8Saturation) {
  // A single weight-1 packet enqueued behind a saturating weight-8 burst
  // must be transmitted after at most a few quanta of the heavy tenant,
  // not after the whole burst drains.
  Cluster cluster;
  cluster.add_hosts(2);
  SimTime lone_arrival = -1;
  cluster.host(1).nic().set_rx_handler(PacketKind::control, [&](PacketPtr p) {
    if (p->tenant == 2) lone_arrival = cluster.loop().now();
  });
  cluster.host(0).nic().set_tenant_qos(1, TenantQos{.weight = 8});
  cluster.host(0).nic().set_tenant_qos(2, TenantQos{.weight = 1});
  const std::uint32_t sz = 64 * 1024;
  for (int i = 0; i < 200; ++i) {
    cluster.host(0).nic().send(make_tenant_packet(1, sz, 1));
  }
  cluster.host(0).nic().send(make_tenant_packet(1, sz, 2));
  cluster.loop().run();
  // Full drain takes ~2.6 ms at 40 Gb/s; WDRR interleaving must deliver
  // the lone packet within the first ~1 MiB of heavy traffic (~0.25 ms).
  ASSERT_GE(lone_arrival, 0);
  EXPECT_LT(lone_arrival, 1 * k_millisecond);
}

TEST(WdrrTenantQos, RateCapThrottlesTenantOnIdleLink) {
  // A 5 Gb/s token-bucket cap must bound the tenant even though the
  // 40 Gb/s link is otherwise idle (the cap is not work-conserving).
  Cluster cluster;
  cluster.add_hosts(2);
  std::uint64_t bytes_rx = 0;
  cluster.host(1).nic().set_rx_handler(
      PacketKind::control, [&](PacketPtr p) { bytes_rx += p->wire_bytes; });
  cluster.host(0).nic().set_tenant_qos(3, TenantQos{.weight = 4, .rate_bps = 5e9});
  const std::uint32_t sz = 64 * 1024;
  for (int i = 0; i < 100; ++i) {
    cluster.host(0).nic().send(make_tenant_packet(1, sz, 3));
  }
  cluster.loop().run();
  EXPECT_EQ(bytes_rx, 100ull * sz);
  const double gbps = throughput_gbps(bytes_rx, cluster.loop().now());
  EXPECT_LE(gbps, 5.5);
  EXPECT_GT(gbps, 4.0);
}

// A 4 KiB RDMA chunk's wire size (payload plus RoCE headers): what the
// processor's WDRR charges a job for it.
constexpr std::uint32_t k_chunk_wire_bytes = 4096 + 58;

TEST(WdrrNicProcessor, Weight8JobWaitsAFewJobsBehindSaturatingWeight1Tenant) {
  // A FIFO processor would run the weight-8 job after the whole burst
  // queued ahead of it; per-tenant WDRR runs it after the job in service
  // and at most the rest of the weight-1 tenant's quantum (16 KiB: 3 jobs).
  Cluster cluster;
  cluster.add_hosts(1);
  Nic& nic = cluster.host(0).nic();
  nic.set_tenant_qos(1, TenantQos{.weight = 1});
  nic.set_tenant_qos(2, TenantQos{.weight = 8});
  const double job_ns = cluster.cost_model().nic_pkt_cost(4096);
  int bulk_done = 0;
  for (int i = 0; i < 200; ++i) {
    nic.process(1, job_ns, k_chunk_wire_bytes, [&bulk_done]() { ++bulk_done; });
  }
  cluster.loop().run_for(static_cast<SimDuration>(10.5 * job_ns));
  const SimTime queued = cluster.loop().now();
  SimTime done_at = -1;
  nic.process(2, job_ns, k_chunk_wire_bytes,
              [&done_at, &cluster]() { done_at = cluster.loop().now(); });
  cluster.loop().run();
  ASSERT_GE(done_at, 0);
  EXPECT_LE(done_at - queued, static_cast<SimDuration>(5 * job_ns));
  EXPECT_EQ(bulk_done, 200);
}

TEST(WdrrNicProcessor, StreamingTenantsSplitTheProcessorByWeight) {
  // An RC QP streams a message one chunk at a time: each job's completion
  // queues the next. Such a tenant keeps its turn while its deficit lasts,
  // so two streaming tenants share the processor 8:1.
  Cluster cluster;
  cluster.add_hosts(1);
  Nic& nic = cluster.host(0).nic();
  nic.set_tenant_qos(1, TenantQos{.weight = 8});
  nic.set_tenant_qos(2, TenantQos{.weight = 1});
  const double job_ns = cluster.cost_model().nic_pkt_cost(4096);
  std::array<std::uint64_t, 3> jobs{};
  bool streaming = true;
  std::function<void(std::uint32_t)> stream = [&](std::uint32_t tenant) {
    nic.process(tenant, job_ns, k_chunk_wire_bytes, [&, tenant]() {
      ++jobs[tenant];
      if (streaming) stream(tenant);
    });
  };
  stream(1);
  stream(2);
  cluster.loop().run_for(static_cast<SimDuration>(2000 * job_ns));
  ASSERT_GT(jobs[2], 0u);
  EXPECT_NEAR(static_cast<double>(jobs[1]) / static_cast<double>(jobs[2]), 8.0, 0.8);
  EXPECT_NEAR(static_cast<double>(jobs[1] + jobs[2]), 2000.0, 2.0) << "the processor idled";
  streaming = false;
  cluster.loop().run();
}

TEST(WdrrNicProcessor, LoneTenantRunsFifoBackToBack) {
  Cluster cluster;
  cluster.add_hosts(1);
  Nic& nic = cluster.host(0).nic();
  std::vector<int> order;
  double work = 0;
  for (int i = 0; i < 20; ++i) {
    const double job_ns = 100.0 + 37.0 * i;
    work += job_ns;
    nic.process(3, job_ns, 64 + 100 * static_cast<std::uint32_t>(i),
                [&order, i]() { order.push_back(i); });
  }
  cluster.loop().run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_NEAR(static_cast<double>(cluster.loop().now()), work, 20.0);
  EXPECT_NEAR(nic.processor().busy_ns_total(), work, 20.0);
}

}  // namespace
}  // namespace freeflow::fabric
