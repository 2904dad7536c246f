// SlotLane: one RC queue pair over a registered ring of fixed-size slots,
// the primitive under both the agents' RdmaTrunk (one QP per host pair) and
// the stream adapter's RcStreamChannel (one QP per upgraded stream). It owns
// the QP, its MRs and CQs, the free send slots and the posted receives; CQ
// notifies coalesce into one wakeup per agent_wakeup_ns, which reaches the
// lane through a weak self-reference. Record queues, relay CPU charges and
// credit flow control belong to the owner.
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

  /// Receive slots beyond `send_slots` cover messages the owner sends
  /// outside its own flow control. `account` pays for verb posts and CQ
  /// polls; `tenant` classifies the QP for the NIC's per-tenant scheduler.
  SlotLane(RdmaDevice& device, sim::UsageAccount* account, std::size_t slot_bytes,
           std::uint32_t send_slots, std::uint32_t recv_slots, std::uint32_t tenant = 0);
  ~SlotLane() { close(); }
  SlotLane(const SlotLane&) = delete;
  SlotLane& operator=(const SlotLane&) = delete;

  /// Posts every receive slot and hooks the CQ notifies; `on_wakeup` runs
  /// once per coalesced wakeup and is expected to drain().
  void start(std::function<void()> on_wakeup);
  /// Unhooks the CQ notifies (a wakeup already scheduled still runs).
  void close() noexcept;

  [[nodiscard]] const std::shared_ptr<QueuePair>& qp() const noexcept { return qp_; }
  [[nodiscard]] bool ready() const noexcept { return qp_->state() == QpState::ready; }
  [[nodiscard]] bool has_free_slot() const noexcept { return !free_slots_.empty(); }
  [[nodiscard]] std::size_t slot_bytes() const noexcept { return slot_bytes_; }
  /// Posted bytes the NIC has not started streaming (QueuePair backlog).
  [[nodiscard]] std::size_t send_queue_bytes() const noexcept {
    return qp_->send_queue_bytes();
  }

  /// Copies `message` into a free slot and posts a signaled SEND.
  void post(ByteSpan message, std::uint32_t tenant = 0);

  /// Reaps both CQs, charging rdma_poll_ns per completion batch: send
  /// completions free their slots, then each receive is reposted before
  /// its bytes go to `deliver`. A failed completion calls `on_error` and
  /// delivers nothing. Returns false iff `deliver` stopped the drain.
  bool drain(const DeliverFn& deliver, const std::function<void()>& on_error);

 private:
  void repost_recv(std::uint32_t slot);

  fabric::Host& host_;
  sim::UsageAccount* account_;
  std::size_t slot_bytes_;
  std::uint32_t recv_slots_;
  MrPtr send_mr_;
  MrPtr recv_mr_;
  CqPtr send_cq_;
  CqPtr recv_cq_;
  std::shared_ptr<QueuePair> qp_;
  std::vector<std::uint32_t> free_slots_;
  std::function<void()> on_wakeup_;
  bool wakeup_scheduled_ = false;
};

using SlotLanePtr = std::shared_ptr<SlotLane>;

}  // namespace freeflow::rdma
