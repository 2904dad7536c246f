#include "agent/trunk.h"

#include <cstring>

#include "common/logging.h"

namespace freeflow::agent {

// ---------------------------------------------------------------- RdmaTrunk

RdmaTrunk::RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account,
                     const AgentConfig& cfg)
    : host_(device.host()),
      account_(account),
      zero_copy_(cfg.zero_copy),
      lane_(std::make_shared<rdma::SlotLane>(device, &account,
                                             cfg.fragment_bytes + RelayHeader::k_size,
                                             cfg.rdma_slots, cfg.rdma_slots)) {}

void RdmaTrunk::connect(fabric::HostId remote_host, rdma::QpNum remote_qp) {
  if (lane_->ready()) return;
  FF_CHECK(lane_->qp()->connect(remote_host, remote_qp).is_ok());
  // The lane is the trunk's alone: its wakeups stop when the trunk dies.
  lane_->start([this]() { poll(); });
  pump();
}

void RdmaTrunk::send(Buffer record, std::uint32_t tenant) {
  FF_CHECK(record.size() <= lane_->slot_bytes());
  queue_.push_back(QueuedRecord{std::move(record), tenant});
  pump();
}

void RdmaTrunk::pump() {
  if (!lane_->ready()) return;
  const auto& m = host_.cost_model();
  while (!queue_.empty() && lane_->has_free_slot()) {
    QueuedRecord queued = std::move(queue_.front());
    queue_.pop_front();
    // Zero-copy relay: the shm block doubles as the registered buffer, so
    // the agent pays only fixed per-record CPU. Copy mode is the ablation.
    double cpu = m.agent_record_ns;
    if (!zero_copy_) {
      cpu += m.agent_copy_ns_per_byte * static_cast<double>(queued.record.size());
    }
    host_.cpu().submit(cpu, nullptr, &account_);
    lane_->post(queued.record.view(), queued.tenant);
  }
}

void RdmaTrunk::poll() {
  lane_->drain(
      [this](Buffer&& record) {
        host_.cpu().submit(host_.cost_model().agent_record_ns, nullptr, &account_);
        if (on_record_) on_record_(std::move(record));
        return true;
      },
      []() { FF_LOG(warn, "agent") << "trunk completion error"; });
  pump();
  maybe_drained();
}

// ---------------------------------------------------------------- DpdkTrunk

DpdkTrunk::DpdkTrunk(dpdk::DpdkPort& port, fabric::HostId peer)
    : port_(port), peer_(peer) {}

void DpdkTrunk::send(Buffer record, std::uint32_t tenant) {
  const Status sent = port_.send(peer_, std::move(record), tenant);
  if (!sent.is_ok()) {
    FF_LOG(warn, "agent") << "dpdk trunk send failed: " << sent;
  }
}

// ----------------------------------------------------------------- TcpTrunk

void TcpTrunk::attach(tcp::TcpConnection::Ptr conn) {
  conn_ = std::move(conn);
  conn_->set_on_data([this](Buffer&& data) { on_bytes(std::move(data)); });
  conn_->set_on_writable([this]() { pump(); });
  pump();
}

void TcpTrunk::send(Buffer record, std::uint32_t tenant) {
  // A kernel TCP byte stream interleaves every container's records into one
  // connection: frames are not attributable to a tenant at the NIC, so the
  // class stays 0 (documented limitation; the kernel-bypass paths classify
  // precisely).
  (void)tenant;
  queue_.push_back(std::move(record));
  pump();
}

void TcpTrunk::pump() {
  if (conn_ == nullptr) return;
  while (!queue_.empty()) {
    const Buffer& record = queue_.front();
    Buffer framed(4 + record.size());
    const auto len = static_cast<std::uint32_t>(record.size());
    std::memcpy(framed.data(), &len, 4);
    std::memcpy(framed.data() + 4, record.data(), record.size());
    const Status s = conn_->send(std::move(framed));
    if (!s.is_ok()) return;  // would_block: resume from on_writable
    queue_.pop_front();
  }
  maybe_drained();
}

void TcpTrunk::on_bytes(Buffer&& data) {
  rx_accum_.append(data.view());
  std::size_t cursor = 0;
  while (rx_accum_.size() - cursor >= 4) {
    std::uint32_t len = 0;
    std::memcpy(&len, rx_accum_.data() + cursor, 4);
    if (rx_accum_.size() - cursor - 4 < len) break;
    Buffer record(rx_accum_.data() + cursor + 4, len);
    cursor += 4 + len;
    if (on_record_) on_record_(std::move(record));
  }
  if (cursor > 0) {
    Buffer rest(rx_accum_.data() + cursor, rx_accum_.size() - cursor);
    rx_accum_ = std::move(rest);
  }
}

}  // namespace freeflow::agent
