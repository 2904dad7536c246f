// SlotLane: RC queue pairs over a registered ring of fixed-size slots, the
// primitive under both the agents' RdmaTrunk (one QP per tenant on a host
// pair) and the stream adapter's RcStreamChannel (one QP per upgraded
// stream). It owns the QPs, the send-slot MR and its free-slot list, one
// shared receive queue over the receive-slot MR, and two CQs: every QP of
// the lane shares all of them, so a QP added later registers no memory.
// CQ notifies coalesce into one wakeup per agent_wakeup_ns, which reaches
// the lane through a weak self-reference. Record queues, relay CPU charges
// and credit flow control belong to the owner.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "rdma/device.h"
#include "rdma/queue_pair.h"

namespace freeflow::rdma {

class SlotLane final : public std::enable_shared_from_this<SlotLane> {
 public:
  /// Returns false to stop a drain mid-batch (the owner closed).
  using DeliverFn = std::function<bool(Buffer&&)>;

  /// Creates the lane with its first QP (index 0). Receive slots beyond
  /// `send_slots` cover messages the owner sends outside its own flow
  /// control. `account` pays for verb posts and CQ polls; `tenant`
  /// classifies the QP for the NIC's per-tenant scheduler.
  SlotLane(RdmaDevice& device, sim::UsageAccount* account, std::size_t slot_bytes,
           std::uint32_t send_slots, std::uint32_t recv_slots, std::uint32_t tenant = 0);
  ~SlotLane() { close(); }
  SlotLane(const SlotLane&) = delete;
  SlotLane& operator=(const SlotLane&) = delete;

  /// Posts every receive slot and hooks the CQ notifies; `on_wakeup` runs
  /// once per coalesced wakeup and is expected to drain().
  void start(std::function<void()> on_wakeup);
  /// Unhooks the CQ notifies and the WR-start hook (a wakeup already
  /// scheduled still runs).
  void close() noexcept;

  /// Adds a QP that shares the lane's slots, receive queue, CQs and
  /// wakeup, and returns its index. Each QP connects on its own.
  std::size_t add_qp(std::uint32_t tenant);

  [[nodiscard]] const std::shared_ptr<QueuePair>& qp(std::size_t i = 0) const noexcept {
    return qps_[i];
  }
  [[nodiscard]] bool ready(std::size_t i = 0) const noexcept {
    return qps_[i]->state() == QpState::ready;
  }
  [[nodiscard]] bool has_free_slot() const noexcept { return !free_slots_.empty(); }
  [[nodiscard]] std::size_t slot_bytes() const noexcept { return slot_bytes_; }
  /// Posted bytes QP `i` has not started streaming (QueuePair backlog).
  [[nodiscard]] std::size_t send_queue_bytes(std::size_t i = 0) const noexcept {
    return qps_[i]->send_queue_bytes();
  }
  /// Hooks every QP's WR starts, later QPs' too (QueuePair::set_on_wr_start).
  void set_on_wr_start(QueuePair::WrStartFn fn);

  /// Copies `message` into a free slot and posts a signaled SEND on QP `i`.
  void post(ByteSpan message, std::uint32_t tenant = 0, std::size_t i = 0);

  /// Reaps both CQs, charging rdma_poll_ns per completion batch: send
  /// completions free their slots, then each receive is reposted before
  /// its bytes go to `deliver`. A failed completion calls `on_error` and
  /// delivers nothing. Returns false iff `deliver` stopped the drain.
  bool drain(const DeliverFn& deliver, const std::function<void()>& on_error);

 private:
  void repost_recv(std::uint32_t slot);

  RdmaDevice& device_;
  sim::UsageAccount* account_;
  std::size_t slot_bytes_;
  std::uint32_t send_slots_;
  std::uint32_t recv_slots_;
  MrPtr send_mr_;
  MrPtr recv_mr_;
  CqPtr send_cq_;
  CqPtr recv_cq_;
  SrqPtr srq_;
  std::vector<std::shared_ptr<QueuePair>> qps_;
  QueuePair::WrStartFn on_wr_start_;
  std::vector<std::uint32_t> free_slots_;
  std::function<void()> on_wakeup_;
  bool wakeup_scheduled_ = false;
};

using SlotLanePtr = std::shared_ptr<SlotLane>;

}  // namespace freeflow::rdma
