// RcStreamChannel: a per-stream rdma::SlotLane wrapped in the
// agent::Channel interface — the TSoR data plane. Unlike the agents'
// shared RdmaTrunk (one QP per host pair, all containers multiplexed), the
// stream adapter carves one QP per upgraded stream directly out of the
// host NIC's device, so the socket byte stream rides RDMA end to end with
// no agent relay or per-record demux on the path.
//
// One conduit message maps to one RDMA SEND into a registered slot.
// Flow control is credit-based: the receiver grants k_slots credits up
// front and returns them in rc_credit batches as it drains deliveries; a
// sender out of credits queues (the conduit's writable() deasserts, so
// well-behaved apps pace). Credit messages themselves bypass the credit
// check and are covered by a reserved pool of extra receive buffers.
#pragma once

#include <deque>
#include <memory>

#include "agent/channel.h"
#include "rdma/slot_lane.h"

namespace freeflow::stream {

class RcStreamChannel final : public agent::Channel,
                              public std::enable_shared_from_this<RcStreamChannel> {
 public:
  /// Slot size: one 64 KiB socket chunk + wire header, rounded up.
  static constexpr std::size_t k_slot_bytes = 66 * 1024;
  /// Data credits granted to the peer (and local send slots).
  static constexpr std::uint32_t k_slots = 16;
  /// Extra receive buffers covering in-flight rc_credit messages: at most
  /// one credit grant per k_credit_batch deliveries can be outstanding.
  static constexpr std::uint32_t k_credit_reserve = 4;
  /// Deliveries per returned credit batch.
  static constexpr std::uint32_t k_credit_batch = 4;

  /// `tenant` classifies the QP's traffic for the NIC's per-tenant
  /// scheduler (per-stream QPs belong to exactly one container).
  RcStreamChannel(rdma::RdmaDevice& device, sim::UsageAccount* account,
                  orch::ContainerId peer, std::uint32_t tenant = 0);

  /// Posts receive buffers and hooks completion wakeups. Must be called
  /// once, immediately after construction.
  void start();

  /// Connects the QP to the peer's (out-of-band exchange rides the
  /// conduit's rc_offer / rc_answer handshake). Queued sends then flow.
  Status connect(fabric::HostId remote_host, rdma::QpNum remote_qp);

  [[nodiscard]] rdma::QpNum qp_num() const noexcept { return lane_->qp()->num(); }

  Status send(Buffer message) override;
  [[nodiscard]] bool writable() const noexcept override;
  void set_on_message(DeliverFn cb) override { on_message_ = std::move(cb); }
  void set_on_space(std::function<void()> cb) override { on_space_ = std::move(cb); }
  [[nodiscard]] orch::Transport transport() const noexcept override {
    return orch::Transport::rdma;
  }
  [[nodiscard]] orch::ContainerId peer() const noexcept override { return peer_; }
  void close() noexcept override;
  [[nodiscard]] bool closed() const noexcept override { return closed_; }

  [[nodiscard]] std::uint32_t credits() const noexcept { return credits_; }

 private:
  void pump();
  void poll();
  void return_credits();

  orch::ContainerId peer_;
  rdma::SlotLanePtr lane_;
  std::deque<Buffer> queue_;         ///< messages awaiting slot + credit
  std::uint32_t credits_ = k_slots;  ///< peer receive credits we may consume
  std::uint32_t since_credit_ = 0;   ///< deliveries since the last grant
  DeliverFn on_message_;
  std::function<void()> on_space_;
  bool closed_ = false;
  bool completion_error_ = false;
};

using RcStreamChannelPtr = std::shared_ptr<RcStreamChannel>;

}  // namespace freeflow::stream
