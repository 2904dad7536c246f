#include <gtest/gtest.h>

#include "fabric/cluster.h"
#include "rdma/cm.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"
#include "rdma/slot_lane.h"
#include "stream/rc_channel.h"

namespace freeflow::rdma {
namespace {

struct RdmaFixture : ::testing::Test {
  RdmaFixture() {
    cluster.add_hosts(2);
    dev_a = std::make_unique<RdmaDevice>(cluster.host(0));
    dev_b = std::make_unique<RdmaDevice>(cluster.host(1));
  }

  /// Creates a connected QP pair between the two devices.
  std::pair<std::shared_ptr<QueuePair>, std::shared_ptr<QueuePair>> qp_pair(
      RdmaDevice& da, RdmaDevice& db) {
    auto qa = da.create_qp(da.create_cq(), da.create_cq());
    auto qb = db.create_qp(db.create_cq(), db.create_cq());
    EXPECT_TRUE(connect_pair(*qa, *qb).is_ok());
    return {qa, qb};
  }

  bool run_until(const std::function<bool()>& pred, SimDuration budget = k_second) {
    return cluster.loop().spin_until(pred, budget);
  }

  static std::size_t drain(CompletionQueue& cq, std::vector<WorkCompletion>& out) {
    WorkCompletion wc;
    std::size_t n = 0;
    while (cq.poll({&wc, 1}) == 1) {
      out.push_back(wc);
      ++n;
    }
    return n;
  }

  fabric::Cluster cluster;
  std::unique_ptr<RdmaDevice> dev_a;
  std::unique_ptr<RdmaDevice> dev_b;
};

TEST_F(RdmaFixture, MrRegistrationAndBounds) {
  auto mr = dev_a->reg_mr(4096);
  EXPECT_EQ(mr->length(), 4096u);
  EXPECT_NE(mr->lkey(), mr->rkey());
  EXPECT_TRUE(mr->slice(0, 4096).is_ok());
  EXPECT_FALSE(mr->slice(1, 4096).is_ok());
  EXPECT_EQ(dev_a->mr_by_rkey(mr->rkey()), mr);
  EXPECT_EQ(dev_a->mr_by_rkey(0xDEAD), nullptr);
}

TEST_F(RdmaFixture, PostRequiresConnectedQp) {
  auto qp = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  auto mr = dev_a->reg_mr(128);
  SendWr wr;
  wr.local = {mr, 0, 128};
  EXPECT_EQ(qp->post_send(wr).code(), Errc::failed_precondition);
}

TEST_F(RdmaFixture, PostValidatesMrBounds) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto mr = dev_a->reg_mr(128);
  SendWr wr;
  wr.local = {mr, 64, 128};  // overruns
  EXPECT_EQ(qa->post_send(wr).code(), Errc::invalid_argument);
  RecvWr rwr;
  rwr.local = {mr, 100, 100};
  EXPECT_EQ(qa->post_recv(rwr).code(), Errc::invalid_argument);
}

TEST_F(RdmaFixture, SendRecvDeliversDataAndCompletions) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(64 * 1024);
  auto dst = dev_b->reg_mr(64 * 1024);
  fill_pattern(src->data().mutable_view(), 21);

  RecvWr rwr;
  rwr.wr_id = 7;
  rwr.local = {dst, 0, dst->length()};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());

  SendWr swr;
  swr.wr_id = 9;
  swr.opcode = Opcode::send;
  swr.local = {src, 0, src->length()};
  ASSERT_TRUE(qa->post_send(swr).is_ok());

  std::vector<WorkCompletion> send_wcs, recv_wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qa->send_cq(), send_wcs);
    drain(*qb->recv_cq(), recv_wcs);
    return !send_wcs.empty() && !recv_wcs.empty();
  }));
  EXPECT_EQ(send_wcs[0].wr_id, 9u);
  EXPECT_EQ(send_wcs[0].status, WcStatus::success);
  EXPECT_EQ(recv_wcs[0].wr_id, 7u);
  EXPECT_EQ(recv_wcs[0].byte_len, 64u * 1024);
  EXPECT_TRUE(check_pattern(dst->data().view(), 21));
}

TEST_F(RdmaFixture, SendBeforeRecvWaitsRnr) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(4096);
  auto dst = dev_b->reg_mr(4096);
  fill_pattern(src->data().mutable_view(), 3);

  SendWr swr;
  swr.local = {src, 0, 4096};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  cluster.loop().run();  // chunk arrives, no recv posted yet

  std::vector<WorkCompletion> recv_wcs;
  drain(*qb->recv_cq(), recv_wcs);
  EXPECT_TRUE(recv_wcs.empty());

  RecvWr rwr;
  rwr.local = {dst, 0, 4096};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  EXPECT_TRUE(run_until([&]() { return drain(*qb->recv_cq(), recv_wcs) > 0; }));
  EXPECT_TRUE(check_pattern(dst->data().view(), 3));
}

TEST_F(RdmaFixture, TwoQpsDrawFromOneSrqAndRnrBacklogDrainsOnRepost) {
  // Two QPs on host 1 draw their receives from one SRQ. Both senders' messages
  // arrive before any receive is posted and wait in their QPs' RNR backlogs;
  // each posted receive then completes exactly one of them.
  auto srq = dev_b->create_srq(8);
  auto recv_cq = dev_b->create_cq();
  QpAttr attr;
  attr.srq = srq;
  std::shared_ptr<QueuePair> rx[2];
  std::shared_ptr<QueuePair> tx[2];
  std::shared_ptr<MemoryRegion> src[2];
  for (int i = 0; i < 2; ++i) {
    rx[i] = dev_b->create_qp(dev_b->create_cq(), recv_cq, attr);
    tx[i] = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
    ASSERT_TRUE(connect_pair(*tx[i], *rx[i]).is_ok());
    src[i] = dev_a->reg_mr(4096);
    fill_pattern(src[i]->data().mutable_view(), 10 + static_cast<std::uint64_t>(i));
  }
  auto dst = dev_b->reg_mr(2 * 4096);
  RecvWr own;
  own.local = {dst, 0, 4096};
  EXPECT_EQ(rx[0]->post_recv(own).code(), Errc::failed_precondition);

  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.local = {src[i], 0, 4096};
    ASSERT_TRUE(tx[i]->post_send(wr).is_ok());
  }
  cluster.loop().run();
  std::vector<WorkCompletion> wcs;
  EXPECT_EQ(drain(*recv_cq, wcs), 0u);

  for (std::uint64_t slot = 0; slot < 2; ++slot) {
    RecvWr wr;
    wr.wr_id = slot;
    wr.local = {dst, slot * 4096, 4096};
    ASSERT_TRUE(srq->post_recv(wr).is_ok());
    cluster.loop().run();
    ASSERT_EQ(drain(*recv_cq, wcs), 1u) << "slot " << slot;
  }
  EXPECT_EQ(srq->depth(), 0u);
  EXPECT_NE(wcs[0].qp_num, wcs[1].qp_num);
  for (const WorkCompletion& wc : wcs) {
    EXPECT_EQ(wc.status, WcStatus::success);
    const int i = wc.qp_num == rx[0]->num() ? 0 : 1;
    EXPECT_EQ(wc.qp_num, rx[i]->num());
    EXPECT_TRUE(check_pattern(dst->data().view().subspan(wc.wr_id * 4096, 4096),
                              10 + static_cast<std::uint64_t>(i)));
  }
  // Both senders got their acks.
  for (auto& qp : tx) {
    std::vector<WorkCompletion> sent;
    EXPECT_EQ(drain(*qp->send_cq(), sent), 1u);
  }
}

TEST_F(RdmaFixture, RecvTooSmallYieldsLengthError) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(8192);
  auto dst = dev_b->reg_mr(1024);
  RecvWr rwr;
  rwr.local = {dst, 0, 1024};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  SendWr swr;
  swr.local = {src, 0, 8192};
  ASSERT_TRUE(qa->post_send(swr).is_ok());

  std::vector<WorkCompletion> recv_wcs, send_wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qb->recv_cq(), recv_wcs);
    drain(*qa->send_cq(), send_wcs);
    return !recv_wcs.empty() && !send_wcs.empty();
  }));
  EXPECT_EQ(recv_wcs[0].status, WcStatus::local_length_error);
  EXPECT_EQ(send_wcs[0].status, WcStatus::local_length_error);  // NAKed back
}

TEST_F(RdmaFixture, WritePlacesDataRemotelyWithoutRecv) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(128 * 1024);
  auto dst = dev_b->reg_mr(256 * 1024);
  fill_pattern(src->data().mutable_view(), 33);

  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::write;
  wr.local = {src, 0, src->length()};
  wr.remote = {dst->rkey(), 4096};
  ASSERT_TRUE(qa->post_send(wr).is_ok());

  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].status, WcStatus::success);
  EXPECT_TRUE(check_pattern(ByteSpan{dst->data().data() + 4096, 128 * 1024}, 33));
  // One-sided: no completion on the passive side.
  std::vector<WorkCompletion> passive;
  EXPECT_EQ(drain(*qb->recv_cq(), passive), 0u);
}

TEST_F(RdmaFixture, WriteBadRkeyFailsWithRemoteAccessError) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(4096);
  SendWr wr;
  wr.opcode = Opcode::write;
  wr.local = {src, 0, 4096};
  wr.remote = {0xBEEF, 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].status, WcStatus::remote_access_error);
  EXPECT_EQ(qa->state(), QpState::error);
}

TEST_F(RdmaFixture, ReadFetchesRemoteData) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto local = dev_a->reg_mr(64 * 1024);
  auto remote = dev_b->reg_mr(64 * 1024);
  fill_pattern(remote->data().mutable_view(), 55);

  SendWr wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::read;
  wr.local = {local, 0, local->length()};
  wr.remote = {remote->rkey(), 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());

  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  EXPECT_EQ(wcs[0].opcode, Opcode::read);
  EXPECT_EQ(wcs[0].status, WcStatus::success);
  EXPECT_TRUE(check_pattern(local->data().view(), 55));
}

TEST_F(RdmaFixture, ReadDoesNotBurnRemoteHostCpu) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto local = dev_a->reg_mr(1 << 20);
  auto remote = dev_b->reg_mr(1 << 20);
  const double remote_cpu_before = cluster.host(1).cpu().busy_ns_total();

  SendWr wr;
  wr.opcode = Opcode::read;
  wr.local = {local, 0, local->length()};
  wr.remote = {remote->rkey(), 0};
  ASSERT_TRUE(qa->post_send(wr).is_ok());
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() { return drain(*qa->send_cq(), wcs) > 0; }));
  // The defining RDMA property: the passive side's CPU did nothing.
  EXPECT_DOUBLE_EQ(cluster.host(1).cpu().busy_ns_total(), remote_cpu_before);
  // But its NIC processor worked hard.
  EXPECT_GT(cluster.host(1).nic().processor().busy_ns_total(), 0.0);
}

TEST_F(RdmaFixture, MessagesArriveInPostOrder) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(10 * 1024);
  auto dst = dev_b->reg_mr(10 * 1024);
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 10; ++i) {
    RecvWr rwr;
    rwr.wr_id = static_cast<std::uint64_t>(i);
    rwr.local = {dst, static_cast<std::size_t>(i) * 1024, 1024};
    ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  }
  for (int i = 0; i < 10; ++i) {
    SendWr swr;
    swr.wr_id = static_cast<std::uint64_t>(i);
    swr.local = {src, static_cast<std::size_t>(i) * 1024, 1024};
    ASSERT_TRUE(qa->post_send(swr).is_ok());
  }
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() {
    drain(*qb->recv_cq(), wcs);
    return wcs.size() == 10;
  }));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(wcs[i].wr_id, i);
}

TEST_F(RdmaFixture, SendQueueDepthEnforced) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(1024);
  SendWr wr;
  wr.local = {src, 0, 64};
  QpAttr attr;
  int accepted = 0;
  for (std::uint32_t i = 0; i < attr.max_send_wr + 50; ++i) {
    if (qa->post_send(wr).is_ok()) {
      ++accepted;
    } else {
      break;
    }
  }
  EXPECT_EQ(accepted, static_cast<int>(attr.max_send_wr));
}

TEST_F(RdmaFixture, ThroughputCappedAtLineRate) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  const std::size_t msg = 1 << 20;
  auto src = dev_a->reg_mr(msg);
  auto dst = dev_b->reg_mr(msg);

  std::uint64_t bytes_done = 0;
  const int total_msgs = 400;  // 400 MiB
  int inflight = 0, posted = 0;

  std::function<void()> pump = [&]() {
    while (inflight < 8 && posted < total_msgs) {
      SendWr wr;
      wr.opcode = Opcode::write;
      wr.local = {src, 0, msg};
      wr.remote = {dst->rkey(), 0};
      ASSERT_TRUE(qa->post_send(wr).is_ok());
      ++inflight;
      ++posted;
    }
  };
  qa->send_cq()->set_notify([&]() {
    WorkCompletion wc;
    while (qa->send_cq()->poll({&wc, 1}) == 1) {
      --inflight;
      bytes_done += msg;
    }
    pump();
  });
  const SimTime start = cluster.loop().now();
  pump();
  EXPECT_TRUE(run_until([&]() { return bytes_done == 400ull * msg; }, 600 * k_second));
  const double gbps = throughput_gbps(bytes_done, cluster.loop().now() - start);
  EXPECT_GT(gbps, 34.0);
  EXPECT_LE(gbps, 40.5);  // line rate is the binding constraint
}

TEST_F(RdmaFixture, IntraHostHairpinAlsoHitsLineRate) {
  // Two containers on ONE host, RDMA through the NIC (paper §2.3.1: RDMA
  // "only" improves intra-host throughput to 40 Gb/s).
  auto qa = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  auto qb = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  ASSERT_TRUE(connect_pair(*qa, *qb).is_ok());

  const std::size_t msg = 1 << 20;
  auto src = dev_a->reg_mr(msg);
  auto dst = dev_a->reg_mr(msg);
  std::uint64_t done = 0;
  int inflight = 0, posted = 0;
  const int total = 200;
  std::function<void()> pump = [&]() {
    while (inflight < 8 && posted < total) {
      SendWr wr;
      wr.opcode = Opcode::write;
      wr.local = {src, 0, msg};
      wr.remote = {dst->rkey(), 0};
      ASSERT_TRUE(qa->post_send(wr).is_ok());
      ++inflight;
      ++posted;
    }
  };
  qa->send_cq()->set_notify([&]() {
    WorkCompletion wc;
    while (qa->send_cq()->poll({&wc, 1}) == 1) {
      --inflight;
      done += msg;
    }
    pump();
  });
  const SimTime start = cluster.loop().now();
  pump();
  EXPECT_TRUE(run_until([&]() { return done == 200ull * msg; }, 600 * k_second));
  const double gbps = throughput_gbps(done, cluster.loop().now() - start);
  EXPECT_GT(gbps, 34.0);
  EXPECT_LE(gbps, 40.5);
}

TEST_F(RdmaFixture, CqOverflowLatches) {
  CompletionQueue cq(2);
  WorkCompletion wc;
  cq.push(wc);
  cq.push(wc);
  EXPECT_FALSE(cq.overflowed());
  cq.push(wc);  // over capacity
  EXPECT_TRUE(cq.overflowed());
  EXPECT_EQ(cq.depth(), 2u);  // the overflowing entry was dropped
}

TEST_F(RdmaFixture, CqNotifyFiresPerCompletion) {
  CompletionQueue cq(16);
  int notified = 0;
  cq.set_notify([&]() { ++notified; });
  WorkCompletion wc;
  cq.push(wc);
  cq.push(wc);
  EXPECT_EQ(notified, 2);
}

TEST_F(RdmaFixture, AsyncCmConnects) {
  auto qa = dev_a->create_qp(dev_a->create_cq(), dev_a->create_cq());
  auto qb = dev_b->create_qp(dev_b->create_cq(), dev_b->create_cq());
  Status result = internal_error("not called");
  connect_pair_async(qa, qb, [&](Status s) { result = s; });
  EXPECT_EQ(qa->state(), QpState::reset);  // not synchronous
  cluster.loop().run();
  EXPECT_TRUE(result.is_ok());
  EXPECT_EQ(qa->state(), QpState::ready);
  EXPECT_EQ(qb->state(), QpState::ready);
  EXPECT_EQ(qa->remote_qp(), qb->num());
}

TEST_F(RdmaFixture, ZeroLengthSend) {
  auto [qa, qb] = qp_pair(*dev_a, *dev_b);
  auto src = dev_a->reg_mr(64);
  auto dst = dev_b->reg_mr(64);
  RecvWr rwr;
  rwr.local = {dst, 0, 64};
  ASSERT_TRUE(qb->post_recv(rwr).is_ok());
  SendWr swr;
  swr.local = {src, 0, 0};
  ASSERT_TRUE(qa->post_send(swr).is_ok());
  std::vector<WorkCompletion> wcs;
  EXPECT_TRUE(run_until([&]() {
    WorkCompletion wc;
    while (qb->recv_cq()->poll({&wc, 1}) == 1) wcs.push_back(wc);
    return !wcs.empty();
  }));
  EXPECT_EQ(wcs[0].byte_len, 0u);
}

// ------------------------------------------------------------- SlotLane

struct SlotLaneFixture : RdmaFixture {
  static constexpr std::size_t k_slot_bytes = 1024;
  static constexpr std::uint32_t k_slots = 4;

  SlotLanePtr make_lane(RdmaDevice& dev) {
    return std::make_shared<SlotLane>(dev, nullptr, k_slot_bytes, k_slots, k_slots);
  }

  /// Two started lanes with connected QPs; `b` collects what it receives
  /// and `a` posts from `backlog` as its slots recycle.
  void wire() {
    a = make_lane(*dev_a);
    b = make_lane(*dev_b);
    ASSERT_TRUE(connect_pair(*a->qp(), *b->qp()).is_ok());
    a->start([this]() {
      ++a_wakeups;
      a->drain([](Buffer&&) { return true; }, [this]() { ++errors; });
      pump();
    });
    b->start([this]() {
      ++b_wakeups;
      b->drain(
          [this](Buffer&& m) {
            got.push_back(std::move(m));
            return true;
          },
          [this]() { ++errors; });
    });
  }

  void pump() {
    while (!backlog.empty() && a->has_free_slot()) {
      a->post(backlog.front().view());
      backlog.pop_front();
    }
  }

  SlotLanePtr a;
  SlotLanePtr b;
  std::deque<Buffer> backlog;
  std::vector<Buffer> got;
  int a_wakeups = 0;
  int b_wakeups = 0;
  int errors = 0;
};

TEST_F(SlotLaneFixture, MessagesArriveWholeInOrderAndSlotsRecycle) {
  wire();
  constexpr std::size_t k_messages = 4 * k_slots;
  for (std::size_t i = 0; i < k_messages; ++i) {
    Buffer m(1 + (i * 97) % k_slot_bytes);
    fill_pattern(m.mutable_view(), i);
    backlog.push_back(std::move(m));
  }
  pump();
  EXPECT_FALSE(a->has_free_slot());
  EXPECT_EQ(backlog.size(), k_messages - k_slots);
  ASSERT_TRUE(run_until([&]() { return got.size() == k_messages; }));
  for (std::size_t i = 0; i < k_messages; ++i) {
    EXPECT_EQ(got[i].size(), 1 + (i * 97) % k_slot_bytes) << i;
    EXPECT_TRUE(check_pattern(got[i].view(), i)) << i;
  }
  cluster.loop().run();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(a->qp()->send_queue_depth(), 0u);
  // Every slot came home, and every receive was reposted.
  int free_slots = 0;
  while (a->has_free_slot()) {
    a->post(Buffer(1).view());
    ++free_slots;
  }
  EXPECT_EQ(free_slots, static_cast<int>(k_slots));
  EXPECT_EQ(b->qp()->recv_queue_depth(), k_slots);
}

TEST_F(SlotLaneFixture, DroppingALaneWithAWakeupScheduledIsANoOp) {
  wire();
  backlog.push_back(Buffer(64));
  pump();
  // Step until the receive completion lands: its notify has scheduled b's
  // coalesced wakeup, which has not run yet.
  ASSERT_TRUE(run_until([&]() { return b->qp()->recv_cq()->depth() > 0; }));
  EXPECT_EQ(b_wakeups, 0);
  const std::weak_ptr<SlotLane> weak = b;
  b->close();
  b.reset();
  EXPECT_TRUE(weak.expired());
  cluster.loop().run();
  EXPECT_EQ(b_wakeups, 0);
  EXPECT_TRUE(got.empty());
}

TEST_F(SlotLaneFixture, ClosedLaneSchedulesNoWakeup) {
  wire();
  b->close();
  backlog.push_back(Buffer(64));
  pump();
  cluster.loop().run();
  EXPECT_EQ(b_wakeups, 0);
  EXPECT_GT(a_wakeups, 0);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(b->qp()->recv_cq()->depth(), 1u);
}

// ------------------------------------------------- RcStreamChannel credits

struct RcCreditFixture : RdmaFixture {
  using Rc = stream::RcStreamChannel;

  void wire() {
    a = std::make_shared<Rc>(*dev_a, nullptr, /*peer=*/2);
    b = std::make_shared<Rc>(*dev_b, nullptr, /*peer=*/1);
    a->start();
    b->start();
    a->set_on_message([this](Buffer&& m) { a_got.push_back(std::move(m)); });
    b->set_on_message([this](Buffer&& m) { b_got.push_back(std::move(m)); });
    ASSERT_TRUE(a->connect(1, b->qp_num()).is_ok());
    ASSERT_TRUE(b->connect(0, a->qp_num()).is_ok());
  }

  static Buffer message(std::uint64_t seed, std::size_t bytes = 4096) {
    Buffer m(bytes);
    fill_pattern(m.mutable_view(), seed);
    return m;
  }

  static void expect_in_order(const std::vector<Buffer>& got, std::uint64_t first,
                              std::size_t bytes = 4096) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].size(), bytes) << i;
      EXPECT_TRUE(check_pattern(got[i].view(), first + i)) << i;
    }
  }

  std::shared_ptr<Rc> a;
  std::shared_ptr<Rc> b;
  std::vector<Buffer> a_got;
  std::vector<Buffer> b_got;
};

TEST_F(RcCreditFixture, SenderWithoutCreditsBlocksUntilAGrantLands) {
  wire();
  for (std::uint32_t i = 0; i < Rc::k_slots; ++i) {
    EXPECT_TRUE(a->writable());
    ASSERT_TRUE(a->send(message(i)).is_ok());
  }
  EXPECT_EQ(a->credits(), 0u);
  EXPECT_FALSE(a->writable());
  // Queued, not dropped: the next message waits for the peer's grant.
  ASSERT_TRUE(a->send(message(Rc::k_slots)).is_ok());
  EXPECT_FALSE(a->writable());

  std::uint32_t first_grant = 0;
  ASSERT_TRUE(run_until([&]() {
    // A grant lands as credits; the queued message consumes one at once.
    if (a->credits() > 0 && first_grant == 0) first_grant = a->credits() + 1;
    return first_grant != 0;
  }));
  EXPECT_GE(first_grant, Rc::k_credit_batch);
  ASSERT_TRUE(run_until([&]() { return b_got.size() == Rc::k_slots + 1; }));
  cluster.loop().run();
  EXPECT_TRUE(a->writable());
  expect_in_order(b_got, 0);
  // Only deliveries short of a full batch are still owed to the sender.
  EXPECT_EQ(a->credits(), Rc::k_slots - (Rc::k_slots + 1) % Rc::k_credit_batch);
}

TEST_F(RcCreditFixture, SaturatedBothWaysStillMakesProgress) {
  wire();
  // Each side queues far more than its credits and data slots cover, so
  // every data slot is full in both directions and credit grants must
  // squeeze through the reserved receive buffers.
  constexpr std::uint32_t k_messages = 8 * Rc::k_slots;
  constexpr std::size_t k_bytes = Rc::k_slot_bytes;
  for (std::uint32_t i = 0; i < k_messages; ++i) {
    ASSERT_TRUE(a->send(message(1000 + i, k_bytes)).is_ok());
    ASSERT_TRUE(b->send(message(5000 + i, k_bytes)).is_ok());
  }
  EXPECT_FALSE(a->writable());
  EXPECT_FALSE(b->writable());
  ASSERT_TRUE(run_until(
      [&]() { return a_got.size() == k_messages && b_got.size() == k_messages; },
      10 * k_second));
  expect_in_order(b_got, 1000, k_bytes);
  expect_in_order(a_got, 5000, k_bytes);
  EXPECT_FALSE(a->closed());
  EXPECT_FALSE(b->closed());
}

TEST_F(RcCreditFixture, OnSpaceFiresOncePerBlockedToWritableTransition) {
  wire();
  int fired = 0;
  bool in_send = false;
  a->set_on_space([&]() {
    EXPECT_FALSE(in_send);
    EXPECT_TRUE(a->writable());
    ++fired;
  });
  std::uint64_t seed = 0;
  for (int round = 1; round <= 3; ++round) {
    while (a->writable()) {
      in_send = true;
      ASSERT_TRUE(a->send(message(seed++)).is_ok());
      in_send = false;
    }
    EXPECT_EQ(fired, round - 1);
    ASSERT_TRUE(run_until([&]() { return a->writable(); }));
    EXPECT_EQ(fired, round);
  }
  cluster.loop().run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(b_got.size(), seed);
  expect_in_order(b_got, 0);
}

TEST_F(RcCreditFixture, CloseAndDropWithAPollScheduledIsANoOp) {
  wire();
  ASSERT_TRUE(a->send(message(0)).is_ok());
  // Step until the message lands: its completion has scheduled b's poll.
  const CqPtr b_recv_cq = dev_b->qp(b->qp_num())->recv_cq();
  ASSERT_TRUE(run_until([&]() { return b_recv_cq->depth() > 0; }));
  const std::weak_ptr<Rc> weak = b;
  b->close();
  b.reset();
  EXPECT_TRUE(weak.expired());
  cluster.loop().run();
  EXPECT_TRUE(b_got.empty());
  EXPECT_EQ(b_recv_cq->depth(), 1u);
  EXPECT_FALSE(a->closed());
}

}  // namespace
}  // namespace freeflow::rdma
