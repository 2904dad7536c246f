#include "agent/trunk.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace freeflow::agent {

// ---------------------------------------------------------------- RdmaTrunk

RdmaTrunk::RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account,
                     const AgentConfig& cfg)
    : host_(device.host()),
      account_(account),
      zero_copy_(cfg.zero_copy),
      backlog_bytes_(static_cast<std::size_t>(
          static_cast<double>(backlog_ns(host_.cost_model())) *
          host_.nic().capabilities().line_rate_gbps / 8.0)),
      lane_(std::make_shared<rdma::SlotLane>(device, &account,
                                             cfg.fragment_bytes + RelayHeader::k_size,
                                             cfg.rdma_slots, cfg.rdma_slots)),
      drr_(fabric::Nic::k_drr_quantum_bytes) {
  // The relay refills a QP as the NIC takes its posted WR. With one QP per
  // tenant, waiting for a completion to refill would let a tenant's QP run
  // dry and hand its share of the NIC processor to the other tenants. The
  // lane is the trunk's alone: closing it with the trunk unhooks this.
  lane_->set_on_wr_start([this](const rdma::SendWr& wr, SimDuration waited) {
    if (auto it = tenants_.find(wr.tenant); it != tenants_.end()) {
      it->second.hist_sq_wait->record(waited);
    }
    pump();
  });
}

Wiring RdmaTrunk::wiring(std::uint32_t tenant) const {
  Wiring w{lane_->qp()->num(), nullptr, tenant, 0};
  if (tenant != 0) w.tenant_qp = lane_->qp(tenant_qps_.at(tenant))->num();
  return w;
}

std::size_t RdmaTrunk::tenant_qp(std::uint32_t tenant) {
  auto [it, fresh] = tenant_qps_.try_emplace(tenant, 0);
  if (fresh) it->second = lane_->add_qp(tenant);
  return it->second;
}

void RdmaTrunk::connect(fabric::HostId remote_host, const Wiring& remote) {
  if (!lane_->ready()) {
    FF_CHECK(lane_->qp()->connect(remote_host, remote.qp).is_ok());
    // The lane is the trunk's alone: its wakeups stop when the trunk dies.
    lane_->start([this]() { poll(); });
  }
  if (remote.tenant != 0) {
    const std::size_t qp = tenant_qp(remote.tenant);
    if (!lane_->ready(qp)) {
      FF_CHECK(lane_->qp(qp)->connect(remote_host, remote.tenant_qp).is_ok());
    }
  }
  pump();
}

void RdmaTrunk::on_heartbeat() {
  for (auto it = unwired_.begin(); it != unwired_.end();) {
    if (lane_->ready(tenant_qps_.at(it->first))) {
      it = unwired_.erase(it);
      continue;
    }
    if (it->second) on_wire_(it->first);
    it->second = true;
    ++it;
  }
}

bool RdmaTrunk::wired_elsewhere(const Wiring& remote) const {
  return lane_->ready() && lane_->qp()->remote_qp() != remote.qp;
}

RdmaTrunk::TenantRecords& RdmaTrunk::records_of(std::uint32_t tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  TenantRecords& flow = it->second;
  if (inserted) {
    flow.tenant = tenant;
    if (metrics_ != nullptr) {
      const std::string prefix = prefix_ + "tenant/" + std::to_string(tenant) + "/";
      // One histogram per (trunk, tenant) adds up across a large deployment:
      // 1/8 sub-buckets (~6% error) keep each at 4 KiB instead of 16.
      flow.hist_wait = &metrics_->histogram(prefix + "wait_ns", 3);
      flow.hist_sq_wait = &metrics_->histogram(prefix + "sq_wait_ns", 3);
      flow.g_queue_depth = &metrics_->gauge(prefix + "queue_depth");
    }
    // The first tenant shares the base QP with the infrastructure class;
    // every later one gets its own, wired now unless the peer's half
    // already wired the pair for its own records of this tenant.
    if (tenant != 0 && base_claimed_) {
      const bool wired = tenant_qps_.contains(tenant);
      flow.qp = tenant_qp(tenant);
      if (!wired && on_wire_) {
        unwired_[tenant] = false;
        on_wire_(tenant);
      }
    }
    base_claimed_ = base_claimed_ || tenant != 0;
  }
  return flow;
}

void RdmaTrunk::set_telemetry(telemetry::MetricRegistry& metrics, std::string prefix) {
  // The agent wires a trunk as it adopts it, before any record: each tenant
  // picks up real sinks when its first record arrives.
  metrics_ = &metrics;
  prefix_ = std::move(prefix);
}

void RdmaTrunk::send(Buffer record, std::uint32_t tenant) {
  FF_CHECK(record.size() <= lane_->slot_bytes());
  TenantRecords& flow = records_of(tenant);
  flow.q.push_back(QueuedRecord{std::move(record), host_.loop().now()});
  flow.g_queue_depth->set(static_cast<std::int64_t>(flow.q.size()));
  if (!flow.active) flow.weight = host_.nic().tenant_qos(tenant).weight;
  drr_.activate(flow);
  pump();
}

bool RdmaTrunk::congested(std::uint32_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.q.size() > k_congestion_records;
}

bool RdmaTrunk::drained() const noexcept {
  if (tenants_.empty()) return true;
  return std::any_of(tenants_.begin(), tenants_.end(), [](const auto& entry) {
    return entry.second.q.size() <= k_congestion_records;
  });
}

void RdmaTrunk::pump() {
  const auto& m = host_.cost_model();
  while (lane_->has_free_slot()) {
    // A tenant whose QP is still being wired, or already holds backlog_ns()
    // of posted work, passes its turn to the others.
    TenantRecords* flow = drr_.pick(
        [](const TenantRecords& f) {
          return f.q.empty() ? -1.0 : static_cast<double>(f.q.front().record.size());
        },
        [this](const TenantRecords& f, double) {
          return !lane_->ready(f.qp) || lane_->send_queue_bytes(f.qp) >= backlog_bytes_;
        },
        [](const TenantRecords&) {});
    if (flow == nullptr) return;
    QueuedRecord queued = std::move(flow->q.front());
    flow->q.pop_front();
    drr_.consume(*flow, static_cast<double>(queued.record.size()), flow->q.empty());
    flow->hist_wait->record(host_.loop().now() - queued.queued_at);
    flow->g_queue_depth->set(static_cast<std::int64_t>(flow->q.size()));
    // Zero-copy relay: the shm block doubles as the registered buffer, so
    // the agent pays only fixed per-record CPU. Copy mode is the ablation.
    double cpu = m.agent_record_ns;
    if (!zero_copy_) {
      cpu += m.agent_copy_ns_per_byte * static_cast<double>(queued.record.size());
    }
    host_.cpu().submit(cpu, nullptr, &account_);
    lane_->post(queued.record.view(), flow->tenant, flow->qp);
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
  maybe_drained(drained());
}

// ---------------------------------------------------------------- DpdkTrunk

void DpdkTrunk::send(Buffer record, std::uint32_t tenant) {
  const Status sent = port_.send(peer_, std::move(record), tenant);
  if (!sent.is_ok()) {
    FF_LOG(warn, "agent") << "dpdk trunk send failed: " << sent;
  }
}

// ----------------------------------------------------------------- TcpTrunk

void TcpTrunk::connect(fabric::HostId /*remote_host*/, const Wiring& remote) {
  if (conn_ != nullptr || remote.conn == nullptr) return;
  conn_ = remote.conn;
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
  maybe_drained(!congested(0));
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
