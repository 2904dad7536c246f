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

/// What a trunk half hands its peer during setup so the peer's half can be
/// wired to it. The agent's setup handshake only carries it across: an RDMA
/// half's QP number, or the TCP connection both ends share (nothing for DPDK).
/// An RDMA half wiring one tenant's QP later sends the same exchange with
/// `tenant` set and that QP's number in `tenant_qp`.
struct Wiring {
  rdma::QpNum qp = 0;
  tcp::TcpConnection::Ptr conn;
  std::uint32_t tenant = 0;
  rdma::QpNum tenant_qp = 0;
};

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

  // Setup hooks: the agent's one setup handshake wires every kind of trunk
  // through these three.
  /// What the peer's half needs to wire itself to this half (and, for a
  /// non-zero `tenant`, to this half's QP for that tenant).
  [[nodiscard]] virtual Wiring wiring(std::uint32_t /*tenant*/) const { return {}; }
  /// Wires this half to the peer's. Only the first call for each QP does
  /// anything: both handshakes of a bidirectional race converge on the same
  /// two halves.
  virtual void connect(fabric::HostId /*remote_host*/, const Wiring& /*remote*/) {}
  /// Stops a retired half from moving records: it sends what it already
  /// handed its transport, and nothing more.
  virtual void close() {}
  /// Runs at each of the agent's heartbeats on this lane.
  virtual void on_heartbeat() {}
  /// True when this half is already wired to something other than `remote`:
  /// a half left behind by an attempt the other end abandoned. A wired half
  /// cannot be re-pointed, so the agent replaces it.
  [[nodiscard]] virtual bool wired_elsewhere(const Wiring& /*remote*/) const { return false; }

 protected:
  RecordFn on_record_;     ///< set by the owning agent pair
  std::function<void()> on_drained_;
  /// Asks the agent to wire this half's new QP for a tenant to the peer's.
  std::function<void(std::uint32_t tenant)> on_wire_;

  /// Re-signals paused senders when `drained` (some tenant may send again).
  void maybe_drained(bool drained) {
    if (drained && on_drained_) on_drained_();
  }

 public:
  void set_on_record(RecordFn cb) { on_record_ = std::move(cb); }
  void set_on_drained(std::function<void()> cb) { on_drained_ = std::move(cb); }
  void set_on_wire(std::function<void(std::uint32_t)> cb) { on_wire_ = std::move(cb); }

  static constexpr std::size_t k_congestion_records = 32;
};

/// RDMA trunk: an rdma::SlotLane (connected RC QPs over one ring of send
/// slots and one shared receive queue) plus per-tenant record queues
/// feeding it. Each tenant's records ride their own QP, so a latency
/// record never waits in a bulk tenant's FIFO send queue: the first tenant
/// and the infrastructure class (heartbeats) ride the base QP, and each
/// later tenant gets a QP of its own at its first record, wired to a QP of
/// the peer's half through the agent's wiring exchange. A tenant's records
/// never change QP, so each channel's records stay in order. The QPs share
/// the lane's slots and memory, so a tenant QP registers nothing. The trunk
/// keeps each QP's send queue shallow (see backlog_ns()) and picks which
/// tenant takes the next free slot by weighted deficit round-robin, with
/// the weights of the host NIC's TenantQos. In zero-copy mode the payload
/// bytes are charged no agent-CPU copy (the shm block itself is registered,
/// as in the paper's Fig. 6 flow); copy mode is the ablation baseline.
class RdmaTrunk final : public Trunk {
 public:
  /// One slot holds a full relay fragment plus its header.
  RdmaTrunk(rdma::RdmaDevice& device, sim::UsageAccount& account, const AgentConfig& cfg);
  RdmaTrunk(const RdmaTrunk&) = delete;  ///< its lane's wakeup holds `this`
  RdmaTrunk& operator=(const RdmaTrunk&) = delete;

  /// The wiring is QP numbers: an RC connection is the pair of QP numbers
  /// its two ends exchange out of band. The base QP's number names the
  /// half; a tenant's adds that tenant's QP.
  [[nodiscard]] Wiring wiring(std::uint32_t tenant) const override;
  /// Connects the base QP to the peer's, posts receives and starts draining
  /// queued records; a tenant wiring also connects (creating it if need be)
  /// this half's QP for that tenant.
  void connect(fabric::HostId remote_host, const Wiring& remote) override;
  [[nodiscard]] bool wired_elsewhere(const Wiring& remote) const override;
  /// Closes the lane: no more polls and no more refills, so a dead engine's
  /// QPs drop only the WRs already posted to them.
  void close() override { lane_->close(); }
  /// Asks again for a tenant QP still unwired a full heartbeat after its
  /// exchange left: a link flap can drop its control messages, and the
  /// exchange is idempotent.
  void on_heartbeat() override;

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
    std::size_t qp = 0;  ///< the lane QP the tenant's records ride
    std::deque<QueuedRecord> q;
    Histogram* hist_wait = telemetry::discard_histogram();
    Histogram* hist_sq_wait = telemetry::discard_histogram();
    telemetry::Gauge* g_queue_depth = telemetry::Gauge::discard();
  };

  TenantRecords& records_of(std::uint32_t tenant);
  /// The lane QP for `tenant`'s own QP pair, created on first use.
  std::size_t tenant_qp(std::uint32_t tenant);
  void pump();
  void poll();
  /// True unless every tenant that has used the trunk is congested.
  [[nodiscard]] bool drained() const noexcept;

  fabric::Host& host_;
  sim::UsageAccount& account_;
  bool zero_copy_;
  std::size_t backlog_bytes_;  ///< backlog_ns() at the NIC's line rate
  rdma::SlotLanePtr lane_;
  /// Lane QP index of each tenant QP pair, wired for whichever end's
  /// tenant first needed it (the peer's first tenant may differ from ours).
  std::map<std::uint32_t, std::size_t> tenant_qps_;
  bool base_claimed_ = false;  ///< a tenant's records ride the base QP
  /// Tenant QPs this half asked the peer to wire, until a heartbeat finds
  /// them wired; true once a heartbeat has passed since the last ask.
  std::map<std::uint32_t, bool> unwired_;
  /// Keyed by tenant; std::map keeps telemetry names deterministic and
  /// pointers stable for the scheduler's rotation.
  std::map<std::uint32_t, TenantRecords> tenants_;
  DeficitRoundRobin<TenantRecords> drr_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  std::string prefix_;
};

/// DPDK trunk: records ride the shared per-host PMD port, which delivers
/// inbound records to the agent directly. Nothing is exchanged at setup.
class DpdkTrunk final : public Trunk {
 public:
  /// Starts the port (if it is not running yet): a half sends from birth.
  DpdkTrunk(dpdk::DpdkPort& port, fabric::HostId peer) : port_(port), peer_(peer) {
    port_.start();
  }

  void send(Buffer record, std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested(std::uint32_t /*tenant*/) const noexcept override {
    return port_.tx_queue_depth() > k_congestion_records;
  }

 private:
  dpdk::DpdkPort& port_;
  fabric::HostId peer_;
};

/// TCP trunk: a host-mode kernel TCP connection between the two agents,
/// with length-prefixed record framing on the byte stream.
class TcpTrunk final : public Trunk {
 public:
  void send(Buffer record, std::uint32_t tenant = 0) override;
  [[nodiscard]] bool congested(std::uint32_t /*tenant*/) const noexcept override {
    return queue_.size() > k_congestion_records;
  }
  /// Attaches the connection (dialed or accepted) carried in `remote`; the
  /// half stays connection-less until one arrives.
  void connect(fabric::HostId remote_host, const Wiring& remote) override;
  /// A connected half is stale against any other connection: the dialer
  /// only dials again after abandoning the old one.
  [[nodiscard]] bool wired_elsewhere(const Wiring& remote) const override {
    return conn_ != nullptr && conn_ != remote.conn;
  }

 private:
  void pump();
  void on_bytes(Buffer&& data);

  tcp::TcpConnection::Ptr conn_;
  std::deque<Buffer> queue_;  ///< records waiting for the connection/window
  Buffer rx_accum_;
};

}  // namespace freeflow::agent
