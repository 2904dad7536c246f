// Reliable-connected queue pair. Posting a work request costs the caller a
// small amount of host CPU (the verb syscall-free doorbell path); the NIC
// processor then chunks the message at the RDMA MTU and streams it, keeping
// everything pipelined without further host involvement.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "fabric/packet.h"
#include "rdma/verbs.h"

namespace freeflow::rdma {

class RdmaDevice;
struct RdmaChunk;

enum class QpState : std::uint8_t { reset, ready, error };

/// Shared receive queue (ibv_srq): receive buffers that any QP created with
/// it in QpAttr::srq draws from, in posting order. A SEND that finds it
/// empty waits in its QP's RNR backlog; each post retries the waiting QPs
/// in the order they ran dry.
class SharedReceiveQueue {
 public:
  SharedReceiveQueue(RdmaDevice& device, std::uint32_t max_wr)
      : device_(device), max_wr_(max_wr) {}

  SharedReceiveQueue(const SharedReceiveQueue&) = delete;
  SharedReceiveQueue& operator=(const SharedReceiveQueue&) = delete;

  /// Posts a receive buffer; charged rdma_post_ns like QueuePair::post_recv.
  Status post_recv(const RecvWr& wr, sim::UsageAccount* account = nullptr);

  [[nodiscard]] std::size_t depth() const noexcept { return rq_.size(); }

 private:
  friend class QueuePair;

  RdmaDevice& device_;
  std::uint32_t max_wr_;
  std::deque<RecvWr> rq_;
  /// QPs whose RNR backlog waits for a buffer, oldest first.
  std::deque<std::weak_ptr<QueuePair>> rnr_waiters_;
};

using SrqPtr = std::shared_ptr<SharedReceiveQueue>;

class QueuePair : public std::enable_shared_from_this<QueuePair> {
 public:
  QueuePair(RdmaDevice& device, QpNum num, CqPtr send_cq, CqPtr recv_cq, QpAttr attr);

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Connects to a remote QP (out-of-band exchange done by the CM/agent).
  Status connect(fabric::HostId remote_host, QpNum remote_qp);

  [[nodiscard]] QpState state() const noexcept { return state_; }
  [[nodiscard]] QpNum num() const noexcept { return num_; }
  [[nodiscard]] fabric::HostId remote_host() const noexcept { return remote_host_; }
  [[nodiscard]] QpNum remote_qp() const noexcept { return remote_qp_; }

  /// Posts a SEND/WRITE/READ. Charged rdma_post_ns on the caller's host
  /// CPU (`account`). Fails with resource_exhausted when the SQ is full.
  Status post_send(const SendWr& wr, sim::UsageAccount* account = nullptr);

  /// Posts a receive buffer for incoming SENDs (not on a QP with an SRQ).
  Status post_recv(const RecvWr& wr, sim::UsageAccount* account = nullptr);

  [[nodiscard]] std::size_t send_queue_depth() const noexcept { return sq_.size(); }
  /// Bytes of posted WRs the NIC has not started yet (the one streaming
  /// now and those awaiting their ack are not counted).
  [[nodiscard]] std::size_t send_queue_bytes() const noexcept { return sq_bytes_; }
  /// Receives posted and unclaimed: the SRQ's when the QP draws from one.
  [[nodiscard]] std::size_t recv_queue_depth() const noexcept {
    return srq_ != nullptr ? srq_->depth() : rq_.size();
  }

  /// Runs as each WR leaves the send queue, its first chunk handed to the
  /// NIC processor, with the time it waited there since post_send.
  using WrStartFn = std::function<void(const SendWr&, SimDuration)>;
  void set_on_wr_start(WrStartFn fn) { on_wr_start_ = std::move(fn); }

  [[nodiscard]] CqPtr send_cq() const noexcept { return send_cq_; }
  [[nodiscard]] CqPtr recv_cq() const noexcept { return recv_cq_; }
  [[nodiscard]] RdmaDevice& device() noexcept { return device_; }

  // ---- device-internal receive path ------------------------------------
  void rx_data_chunk(const std::shared_ptr<RdmaChunk>& chunk);
  void rx_ack(const std::shared_ptr<RdmaChunk>& chunk);
  void complete_send_error(std::uint64_t wr_id, Opcode op, WcStatus status);

 private:
  void pump();
  void emit_chunks(const SendWr& wr, std::uint64_t msg_id);
  void stream_chunk(std::uint64_t msg_id, std::uint32_t offset);
  void emit_read_request(const SendWr& wr, std::uint64_t msg_id);
  void finish_wr(const SendWr& wr, std::uint32_t byte_len, WcStatus status);
  void deliver_recv(const std::shared_ptr<RdmaChunk>& chunk);
  void send_ack(const std::shared_ptr<RdmaChunk>& chunk, WcStatus status);
  /// The receive queue a SEND claims from: the SRQ's, or the QP's own.
  [[nodiscard]] std::deque<RecvWr>& receives() noexcept {
    return srq_ != nullptr ? srq_->rq_ : rq_;
  }
  /// Re-delivers the RNR backlog in order; a chunk still lacking a buffer
  /// re-queues itself.
  void retry_rnr();

  RdmaDevice& device_;
  QpNum num_;
  CqPtr send_cq_;
  CqPtr recv_cq_;
  QpAttr attr_;
  QpState state_ = QpState::reset;
  fabric::HostId remote_host_ = fabric::k_invalid_host;
  QpNum remote_qp_ = 0;

  struct PostedWr {
    SendWr wr;
    SimTime posted_at = 0;
  };
  std::deque<PostedWr> sq_;
  std::size_t sq_bytes_ = 0;  ///< sum of local.length over sq_
  WrStartFn on_wr_start_;
  std::deque<RecvWr> rq_;
  SrqPtr srq_;
  bool tx_active_ = false;
  std::uint64_t next_msg_id_ = 1;

  /// WRs fully transmitted, awaiting the remote ack (or read response).
  std::unordered_map<std::uint64_t, SendWr> outstanding_;

  /// Receive-side reassembly state per in-flight message.
  struct RxProgress {
    bool claimed = false;
    std::unique_ptr<RecvWr> recv_wr;
    std::uint32_t received = 0;
    WcStatus error = WcStatus::success;
  };
  std::unordered_map<std::uint64_t, RxProgress> rx_progress_;

  /// Chunks that arrived before a RecvWr was posted (infinite RNR-retry
  /// semantics, a simplification of RC's NAK/retry loop).
  std::deque<std::shared_ptr<RdmaChunk>> rnr_backlog_;

  friend class RdmaDevice;
  friend class SharedReceiveQueue;
};

}  // namespace freeflow::rdma
