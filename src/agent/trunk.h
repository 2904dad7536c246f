// Trunks: the agent-to-agent bulk transports. One trunk per (host pair,
// mechanism); all container channels between the two hosts share it. The
// RDMA trunk is the paper's primary inter-host data plane; DPDK and
// host-mode TCP are the fallbacks the orchestrator picks when NICs are
// less capable.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "agent/relay.h"
#include "common/bytes.h"
#include "common/drr.h"
#include "common/status.h"
#include "dpdk/pmd.h"
#include "fabric/host.h"
#include "rdma/slot_lane.h"
#include "sim/resource.h"
#include "tcpstack/network.h"
#include "telemetry/metrics.h"

namespace freeflow::agent {

class Trunk {
 public:
  using RecordFn = std::function<void(Buffer&&)>;

  virtual ~Trunk() = default;

  /// Queues one relay record toward the peer agent. Trunks buffer
  /// internally; delivery order is preserved. `tenant` classifies the
  /// record for the NIC's per-tenant scheduler on kernel-bypass paths
  /// (0 = infrastructure class; the TCP trunk's byte stream interleaves
  /// records and stays unclassified).
  virtual void send(Buffer record, std::uint32_t tenant = 0) = 0;

  /// True while `tenant`'s records queue deep in the trunk: that tenant's
  /// senders should pause (this is what backpressures containers to the
  /// NIC's actual rate). Trunks that do not classify records answer for
  /// all tenants together.
  [[nodiscard]] virtual bool congested(std::uint32_t tenant) const noexcept {
    (void)tenant;
    return false;
  }

  /// Points the trunk's metrics at `metrics` under `prefix`
  /// ("agent/<host>/trunk/<peer>/"); until then they are discard sinks.
  virtual void set_telemetry(telemetry::MetricRegistry& metrics, std::string prefix) {
    (void)metrics;
    (void)prefix;
  }

 protected:
  RecordFn on_record_;     ///< set by the owning agent pair
  std::function<void()> on_drained_;

  /// Re-signals paused senders when `drained` (some tenant may send again).
  void maybe_drained(bool drained) {
    if (drained && on_drained_) on_drained_();
  }

 public:
  void set_on_record(RecordFn cb) { on_record_ = std::move(cb); }
  void set_on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }

  static constexpr std::size_t k_congestion_records = 32;
};

/// RDMA trunk: an rdma::SlotLane (a connected RC QP over a ring of send
/// slots and pre-posted receives) plus per-tenant record queues feeding it.
/// Every container on the host pair shares the one QP, and its send queue is
/// FIFO, so the trunk keeps that queue shallow (see backlog_ns()) and picks
/// which tenant's record goes next by weighted deficit round-robin, with the
/// weights of the host NIC's TenantQos. In zero-copy mode the payload bytes
/// are charged no agent-CPU copy (the shm block itself is registered, as in
/// the paper's Fig. 6 flow); copy mode is the ablation baseline.
class RdmaTrunk final : public Trunk {
 public:
  /// One slot holds a full relay fragment plus its header.
  RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account, const AgentConfig& cfg);
  RdmaTrunk(const RdmaTrunk&) = delete;  ///< its lane's wakeup holds `this`
  RdmaTrunk& operator=(const RdmaTrunk&) = delete;

  [[nodiscard]] const std::shared_ptr<rdma::QueuePair>& qp() const noexcept {
    return lane_->qp();
  }
  /// Connects the QP to the peer's, posts receives and starts draining
  /// queued records. Only the first call on each side does anything: both
  /// setup handshakes of a bidirectional race converge on the same QPs.
  void connect(fabric::HostId remote_host, rdma::QpNum remote_qp);

  void send(Buffer record, std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested(std::uint32_t tenant) const noexcept override;
  void set_telemetry(telemetry::MetricRegistry& metrics, std::string prefix) override;

  /// How long the QP's posted-but-unstarted backlog should keep the NIC
  /// busy: a send completion's trip back to the agent and into the next
  /// post — the ack's two link hops, the coalesced CQ wakeup, the poll, the
  /// relay's per-record CPU and the verb post. Records wait in the trunk,
  /// where they can still be reordered, and not in the QP's FIFO; a backlog
  /// worth one such round trip at line rate (about 11 KiB at 40 Gb/s) keeps
  /// the NIC from idling between a completion and the agent's next post.
  [[nodiscard]] static SimDuration backlog_ns(const sim::CostModel& m) noexcept {
    return 2 * m.link_prop_ns + m.agent_wakeup_ns +
           static_cast<SimDuration>(m.rdma_poll_ns + m.agent_record_ns + m.rdma_post_ns);
  }

 private:
  struct QueuedRecord {
    Buffer record;
    SimTime queued_at = 0;
  };
  struct TenantRecords : DrrFlow {
    std::uint32_t tenant = 0;
    std::deque<QueuedRecord> q;
    Histogram* hist_wait = telemetry::discard_histogram();
    telemetry::Gauge* g_queue_depth = telemetry::Gauge::discard();
  };

  TenantRecords& records_of(std::uint32_t tenant);
  void pump();
  void poll();
  /// True unless every tenant that has used the trunk is congested.
  [[nodiscard]] bool drained() const noexcept;

  fabric::Host& host_;
  sim::UsageAccount& account_;
  bool zero_copy_;
  std::size_t backlog_bytes_;  ///< backlog_ns() at the NIC's line rate
  rdma::SlotLanePtr lane_;
  /// Keyed by tenant; std::map keeps telemetry names deterministic and
  /// pointers stable for the scheduler's rotation.
  std::map<std::uint32_t, TenantRecords> tenants_;
  DeficitRoundRobin<TenantRecords> drr_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  std::string prefix_;
};

/// DPDK trunk: records ride the shared per-host PMD port.
class DpdkTrunk final : public Trunk {
 public:
  DpdkTrunk(dpdk::DpdkPort& port, fabric::HostId peer);

  void send(Buffer record, std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested(std::uint32_t /*tenant*/) const noexcept override {
    return port_.tx_queue_depth() > k_congestion_records;
  }

  /// The owning agent routes port messages here.
  void deliver(Buffer&& record) {
    if (on_record_) on_record_(std::move(record));
  }

 private:
  dpdk::DpdkPort& port_;
  fabric::HostId peer_;
};

/// TCP trunk: a host-mode kernel TCP connection between the two agents,
/// with length-prefixed record framing on the byte stream.
class TcpTrunk final : public Trunk {
 public:
  explicit TcpTrunk(sim::EventLoop& loop) : loop_(loop) {}

  /// Attaches the established connection (either side).
  void attach(tcp::TcpConnection::Ptr conn);

  void send(Buffer record, std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested(std::uint32_t /*tenant*/) const noexcept override {
    return queue_.size() > k_congestion_records;
  }
  [[nodiscard]] bool connected() const noexcept { return conn_ != nullptr; }

 private:
  void pump();
  void on_bytes(Buffer&& data);

  sim::EventLoop& loop_;
  tcp::TcpConnection::Ptr conn_;
  std::deque<Buffer> queue_;  ///< records waiting for the connection/window
  Buffer rx_accum_;
};

}  // namespace freeflow::agent
