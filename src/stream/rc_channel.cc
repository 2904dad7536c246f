#include "stream/rc_channel.h"

#include "core/wire.h"

namespace freeflow::stream {

RcStreamChannel::RcStreamChannel(rdma::RdmaDevice& device, sim::UsageAccount* account,
                                 orch::ContainerId peer, std::uint32_t tenant)
    : peer_(peer),
      lane_(std::make_shared<rdma::SlotLane>(device, account, k_slot_bytes, k_slots,
                                             k_slots + k_credit_reserve, tenant)) {}

void RcStreamChannel::start() {
  std::weak_ptr<RcStreamChannel> self = weak_from_this();
  lane_->start([self]() {
    if (auto ch = self.lock()) ch->poll();
  });
}

Status RcStreamChannel::connect(fabric::HostId remote_host, rdma::QpNum remote_qp) {
  const Status s = lane_->qp()->connect(remote_host, remote_qp);
  if (s.is_ok()) pump();
  return s;
}

Status RcStreamChannel::send(Buffer message) {
  if (closed_) return failed_precondition("stream rc channel closed");
  FF_CHECK(message.size() <= k_slot_bytes);
  queue_.push_back(std::move(message));
  pump();
  return ok_status();
}

bool RcStreamChannel::writable() const noexcept {
  return !closed_ && lane_->ready() && queue_.empty() && lane_->has_free_slot() &&
         credits_ > 0;
}

void RcStreamChannel::pump() {
  if (closed_ || !lane_->ready()) return;
  while (!queue_.empty() && lane_->has_free_slot() && credits_ > 0) {
    Buffer message = std::move(queue_.front());
    queue_.pop_front();
    lane_->post(message.view());
    --credits_;
  }
}

void RcStreamChannel::return_credits() {
  if (since_credit_ == 0 || closed_) return;
  if (!lane_->has_free_slot() || !lane_->ready()) return;
  // Credit grants bypass the data-credit check (the peer reserves receive
  // buffers for them) but still occupy a local send slot; if none is free
  // the next poll's completions retry.
  core::WireHeader h;
  h.type = core::VMsg::rc_credit;
  h.id = since_credit_;
  lane_->post(core::make_message(h).view());
  since_credit_ = 0;
}

void RcStreamChannel::poll() {
  const bool was_writable = writable();
  const bool drained = lane_->drain(
      [this](Buffer&& message) {
        auto parsed = core::parse_message(message.view());
        if (parsed.is_ok() && parsed->header.type == core::VMsg::rc_credit &&
            parsed->header.seq == 0) {
          credits_ += static_cast<std::uint32_t>(parsed->header.id);
          return true;
        }
        ++since_credit_;
        // Re-read per delivery: an attach_channel (e.g. the rc_switch tap
        // routing this channel onto its conduit) re-wires us mid-batch.
        if (closed_) return false;
        if (on_message_) on_message_(std::move(message));
        return !closed_;
      },
      [this]() { completion_error_ = true; });
  if (!drained) return;
  if (since_credit_ >= k_credit_batch) return_credits();
  pump();
  if (!was_writable && writable() && on_space_) on_space_();
  if (completion_error_ && !closed_) {
    completion_error_ = false;
    // The QP errored (remote death, access fault): hand the stream back to
    // the conduit's failover path exactly like a failed agent lane.
    fail();
  }
}

void RcStreamChannel::close() noexcept {
  if (closed_) return;
  closed_ = true;
  queue_.clear();
  on_message_ = nullptr;
  on_space_ = nullptr;
  lane_->close();
}

}  // namespace freeflow::stream
