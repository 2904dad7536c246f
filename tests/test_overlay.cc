#include <gtest/gtest.h>

#include "fabric/cluster.h"
#include "overlay/ipam.h"
#include "overlay/overlay.h"
#include "tcpstack/network.h"

namespace freeflow::overlay {
namespace {

// ------------------------------------------------------------------- IPAM

TEST(Ipam, AllocatesUniqueAddressesFromPool) {
  Ipam ipam({tcp::Ipv4Addr(10, 244, 0, 0), 24});
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 50; ++i) {
    auto ip = ipam.allocate();
    ASSERT_TRUE(ip.is_ok());
    EXPECT_TRUE(seen.insert(ip->value()).second) << "duplicate " << ip->to_string();
    EXPECT_TRUE(ipam.pool().contains(*ip));
  }
  EXPECT_EQ(ipam.allocated(), 50u);
}

TEST(Ipam, HonorsRequestedAddress) {
  Ipam ipam({tcp::Ipv4Addr(10, 244, 0, 0), 24});
  auto want = tcp::Ipv4Addr(10, 244, 0, 42);
  auto got = ipam.allocate(want);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, want);
  EXPECT_EQ(ipam.allocate(want).status().code(), Errc::already_exists);
}

TEST(Ipam, RejectsOutOfPoolRequest) {
  Ipam ipam({tcp::Ipv4Addr(10, 244, 0, 0), 24});
  EXPECT_EQ(ipam.allocate(tcp::Ipv4Addr(10, 245, 0, 1)).status().code(),
            Errc::invalid_argument);
}

TEST(Ipam, ExhaustionAndRelease) {
  Ipam ipam({tcp::Ipv4Addr(10, 0, 0, 0), 30});  // 2 usable addresses
  auto a = ipam.allocate();
  auto b = ipam.allocate();
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(ipam.allocate().status().code(), Errc::resource_exhausted);
  EXPECT_TRUE(ipam.release(*a).is_ok());
  EXPECT_TRUE(ipam.allocate().is_ok());
  EXPECT_EQ(ipam.release(tcp::Ipv4Addr(9, 9, 9, 9)).code(), Errc::not_found);
}

TEST(Ipam, PropertyReleaseRestoresFullCapacity) {
  Ipam ipam({tcp::Ipv4Addr(10, 0, 0, 0), 26});
  std::vector<tcp::Ipv4Addr> held;
  for (std::size_t i = 0; i < ipam.capacity(); ++i) {
    auto ip = ipam.allocate();
    ASSERT_TRUE(ip.is_ok());
    held.push_back(*ip);
  }
  for (auto ip : held) ASSERT_TRUE(ipam.release(ip).is_ok());
  EXPECT_EQ(ipam.allocated(), 0u);
  for (std::size_t i = 0; i < ipam.capacity(); ++i) {
    ASSERT_TRUE(ipam.allocate().is_ok());
  }
}

// -------------------------------------------------------------- routing

struct OverlayFixture : ::testing::Test {
  OverlayFixture() : net(cluster, {tcp::Ipv4Addr(10, 244, 0, 0), 16}) {
    cluster.add_hosts(3);
    for (fabric::HostId h = 0; h < 3; ++h) net.attach_host(h);
  }

  bool run_until(const std::function<bool()>& pred, SimDuration budget = k_second) {
    return cluster.loop().spin_until(pred, budget);
  }

  fabric::Cluster cluster;
  OverlayNetwork net;
};

TEST_F(OverlayFixture, AnnouncementsConverge) {
  auto ip = net.add_container(0, nullptr);
  ASSERT_TRUE(ip.is_ok());
  // Local router learns instantly; remote routers after propagation.
  EXPECT_TRUE(net.router(0)->route(*ip).has_value());
  EXPECT_FALSE(net.router(1)->route(*ip).has_value());
  cluster.loop().run();
  ASSERT_TRUE(net.router(1)->route(*ip).has_value());
  EXPECT_EQ(net.router(1)->route(*ip).value(), 0u);
  EXPECT_EQ(net.router(2)->route(*ip).value(), 0u);
}

TEST_F(OverlayFixture, WithdrawRemovesRoutesEverywhere) {
  auto ip = net.add_container(0, nullptr);
  ASSERT_TRUE(ip.is_ok());
  cluster.loop().run();
  ASSERT_TRUE(net.remove_container(*ip).is_ok());
  cluster.loop().run();
  EXPECT_FALSE(net.router(1)->route(*ip).has_value());
  EXPECT_FALSE(net.router(0)->route(*ip).has_value());
}

TEST_F(OverlayFixture, MovePreservesIpAndReroutes) {
  auto ip = net.add_container(0, nullptr);
  ASSERT_TRUE(ip.is_ok());
  cluster.loop().run();
  ASSERT_TRUE(net.move_container(*ip, 2, nullptr).is_ok());
  cluster.loop().run();
  EXPECT_EQ(net.router(1)->route(*ip).value(), 2u);
  EXPECT_EQ(net.binding(*ip)->host, 2u);
}

TEST_F(OverlayFixture, PathBuildFailsBeforeConvergence) {
  auto a = net.add_container(0, nullptr);
  auto b = net.add_container(1, nullptr);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  // Route from host0 to b not yet learned: build must fail cleanly.
  auto paths = net.path_builder().build({*a, 1000}, {*b, 80});
  EXPECT_EQ(paths.status().code(), Errc::unavailable);
  cluster.loop().run();
  EXPECT_TRUE(net.path_builder().build({*a, 1000}, {*b, 80}).is_ok());
}

TEST_F(OverlayFixture, EndToEndTcpOverOverlay) {
  auto a = net.add_container(0, nullptr);
  auto b = net.add_container(1, nullptr);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  cluster.loop().run();  // converge routes

  tcp::TcpNetwork tcp_net(cluster.loop(), cluster.cost_model(), net.path_builder());
  Buffer received;
  ASSERT_TRUE(tcp_net.listen({*b, 80}, [&](tcp::TcpConnection::Ptr c) {
    c->set_on_data([&received](Buffer&& d) { received.append(d.view()); });
  }).is_ok());

  tcp::TcpConnection::Ptr client;
  tcp_net.connect({*a, 0}, {*b, 80}, [&](Result<tcp::TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok()) << c.status();
    client = *c;
    Buffer payload(300000);
    fill_pattern(payload.mutable_view(), 11);
    ASSERT_TRUE(client->send(std::move(payload)).is_ok());
  });
  EXPECT_TRUE(run_until([&]() { return received.size() == 300000; }, 5 * k_second));
  EXPECT_TRUE(check_pattern(received.view(), 11));
}

TEST_F(OverlayFixture, IntraHostOverlayStillTraversesRouter) {
  auto a = net.add_container(0, nullptr);
  auto b = net.add_container(0, nullptr);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  cluster.loop().run();

  Router* r = net.router(0);
  const double before = r->account().busy_ns;

  tcp::TcpNetwork tcp_net(cluster.loop(), cluster.cost_model(), net.path_builder());
  std::uint64_t got = 0;
  ASSERT_TRUE(tcp_net.listen({*b, 80}, [&](tcp::TcpConnection::Ptr c) {
    c->set_on_data([&got](Buffer&& d) { got += d.size(); });
  }).is_ok());
  tcp_net.connect({*a, 0}, {*b, 80}, [&](Result<tcp::TcpConnection::Ptr> c) {
    ASSERT_TRUE(c.is_ok());
    Buffer payload(1 << 20);
    ASSERT_TRUE((*c)->send(std::move(payload)).is_ok());
  });
  EXPECT_TRUE(run_until([&]() { return got == (1 << 20); }, 5 * k_second));
  // The software router burned CPU on every chunk: the overlay hairpin.
  EXPECT_GT(r->account().busy_ns, before + 100000.0);
}

TEST_F(OverlayFixture, ManyContainersConvergeEverywhere) {
  std::vector<tcp::Ipv4Addr> ips;
  for (int i = 0; i < 30; ++i) {
    auto ip = net.add_container(static_cast<fabric::HostId>(i % 3), nullptr);
    ASSERT_TRUE(ip.is_ok());
    ips.push_back(*ip);
  }
  cluster.loop().run();
  for (fabric::HostId h = 0; h < 3; ++h) {
    EXPECT_EQ(net.router(h)->route_count(), 30u);
    for (auto ip : ips) {
      EXPECT_TRUE(net.router(h)->route(ip).has_value());
    }
  }
}

TEST_F(OverlayFixture, BindingLookupErrors) {
  EXPECT_EQ(net.binding(tcp::Ipv4Addr(10, 244, 9, 9)).status().code(), Errc::not_found);
  EXPECT_EQ(net.move_container(tcp::Ipv4Addr(10, 244, 9, 9), 1, nullptr).code(),
            Errc::not_found);
}

}  // namespace
}  // namespace freeflow::overlay
