#include "rdma/slot_lane.h"

#include <cstring>

#include "fabric/host.h"

namespace freeflow::rdma {

SlotLane::SlotLane(RdmaDevice& device, sim::UsageAccount* account, std::size_t slot_bytes,
                   std::uint32_t send_slots, std::uint32_t recv_slots, std::uint32_t tenant)
    : device_(device),
      account_(account),
      slot_bytes_(slot_bytes),
      send_slots_(send_slots),
      recv_slots_(recv_slots) {
  send_mr_ = device.reg_mr(slot_bytes_ * send_slots);
  recv_mr_ = device.reg_mr(slot_bytes_ * recv_slots);
  send_cq_ = device.create_cq(send_slots * 4);
  recv_cq_ = device.create_cq(recv_slots * 4);
  srq_ = device.create_srq(recv_slots * 2);
  add_qp(tenant);
  free_slots_.reserve(send_slots);
  for (std::uint32_t s = 0; s < send_slots; ++s) free_slots_.push_back(s);
}

std::size_t SlotLane::add_qp(std::uint32_t tenant) {
  QpAttr attr;
  attr.max_send_wr = send_slots_ * 2;
  attr.tenant = tenant;
  attr.srq = srq_;
  qps_.push_back(device_.create_qp(send_cq_, recv_cq_, attr));
  qps_.back()->set_on_wr_start(on_wr_start_);
  return qps_.size() - 1;
}

void SlotLane::set_on_wr_start(QueuePair::WrStartFn fn) {
  on_wr_start_ = std::move(fn);
  for (auto& qp : qps_) qp->set_on_wr_start(on_wr_start_);
}

void SlotLane::start(std::function<void()> on_wakeup) {
  on_wakeup_ = std::move(on_wakeup);
  for (std::uint32_t s = 0; s < recv_slots_; ++s) repost_recv(s);
  // The CQs live in the device registry and can outlive the lane: both the
  // notify and the wakeup it schedules hold the lane only weakly.
  auto notify = [self = weak_from_this()]() {
    auto lane = self.lock();
    if (lane == nullptr || lane->wakeup_scheduled_) return;
    lane->wakeup_scheduled_ = true;
    fabric::Host& host = lane->device_.host();
    host.loop().schedule(host.cost_model().agent_wakeup_ns, [self]() {
      auto woken = self.lock();
      if (woken == nullptr) return;
      woken->wakeup_scheduled_ = false;
      if (woken->on_wakeup_) woken->on_wakeup_();
    });
  };
  send_cq_->set_notify(notify);
  recv_cq_->set_notify(notify);
}

void SlotLane::close() noexcept {
  send_cq_->set_notify(nullptr);
  recv_cq_->set_notify(nullptr);
  // The QPs live in the device registry and can outlive the lane.
  for (auto& qp : qps_) qp->set_on_wr_start(nullptr);
}

void SlotLane::repost_recv(std::uint32_t slot) {
  RecvWr wr;
  wr.wr_id = slot;
  wr.local = {recv_mr_, slot * slot_bytes_, slot_bytes_};
  FF_CHECK(srq_->post_recv(wr, account_).is_ok());
}

void SlotLane::post(ByteSpan message, std::uint32_t tenant, std::size_t i) {
  FF_CHECK(message.size() <= slot_bytes_ && !free_slots_.empty());
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  std::memcpy(send_mr_->data().data() + slot * slot_bytes_, message.data(), message.size());
  SendWr wr;
  wr.wr_id = slot;
  wr.opcode = Opcode::send;
  wr.local = {send_mr_, slot * slot_bytes_, message.size()};
  wr.signaled = true;
  wr.tenant = tenant;
  FF_CHECK(qps_[i]->post_send(wr, account_).is_ok());
}

bool SlotLane::drain(const DeliverFn& deliver, const std::function<void()>& on_error) {
  WorkCompletion wcs[16];
  // Reaps `cq` batch by batch until it is empty or `each` returns false.
  auto reap = [&](CompletionQueue& cq, auto&& each) {
    for (std::size_t n; (n = cq.poll(wcs)) != 0;) {
      fabric::Host& host = device_.host();
      host.cpu().submit(host.cost_model().rdma_poll_ns * static_cast<double>(n), nullptr,
                        account_);
      for (std::size_t i = 0; i < n; ++i) {
        if (!each(wcs[i])) return false;
      }
    }
    return true;
  };
  reap(*send_cq_, [&](const WorkCompletion& wc) {
    if (wc.status != WcStatus::success) on_error();
    free_slots_.push_back(static_cast<std::uint32_t>(wc.wr_id));
    return true;
  });
  return reap(*recv_cq_, [&](const WorkCompletion& wc) {
    const auto slot = static_cast<std::uint32_t>(wc.wr_id);
    Buffer message(recv_mr_->data().data() + slot * slot_bytes_, wc.byte_len);
    repost_recv(slot);
    if (wc.status == WcStatus::success) return deliver(std::move(message));
    on_error();
    return true;
  });
}

}  // namespace freeflow::rdma
