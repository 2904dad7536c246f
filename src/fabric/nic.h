// A physical NIC: line-rate serialization, an on-board processor (used by
// the RDMA engine), capability flags the network orchestrator reads, and a
// receive demultiplexer keyed by packet kind.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/drr.h"
#include "fabric/packet.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"
#include "sim/resource.h"
#include "telemetry/telemetry.h"

namespace freeflow::fabric {

class Switch;

struct NicCapabilities {
  bool rdma = true;
  bool dpdk = true;
  double line_rate_gbps = 40.0;
};

/// Live health of a NIC, mutated by the fault injector. Faults are modeled
/// per capability: an RDMA engine death drops only rdma_chunk packets, so
/// the kernel path (and the control plane) keeps working — which is exactly
/// what makes a transport fallback possible. A link-down drops everything.
struct NicHealth {
  bool link_up = true;
  bool rdma_up = true;
  bool dpdk_up = true;
  /// Fraction of line rate the NIC can still serialize at (degradation).
  double rate_fraction = 1.0;

  [[nodiscard]] bool healthy() const noexcept {
    return link_up && rdma_up && dpdk_up && rate_fraction >= 1.0;
  }
};

/// Per-tenant transmit QoS. The NIC schedules its tx link with weighted
/// deficit round-robin across tenants: each round a tenant's deficit grows
/// by `weight` quanta, so long-run bandwidth shares converge to the weight
/// ratio while any single tenant still gets the full line rate when alone
/// (work conservation). `rate_bps`, when non-zero, additionally caps the
/// tenant with a token bucket — its packets wait for tokens even when the
/// link is idle.
struct TenantQos {
  std::uint32_t weight = 1;
  double rate_bps = 0.0;  ///< 0 = uncapped
};

class Nic {
 public:
  Nic(sim::EventLoop& loop, const sim::CostModel& model, HostId host,
      NicCapabilities caps);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] HostId host() const noexcept { return host_; }
  [[nodiscard]] const NicCapabilities& capabilities() const noexcept { return caps_; }

  /// Fault-injection surface. Setters mutate live health; the injector is
  /// responsible for pushing the new state to the orchestrator (telemetry
  /// has its own detection latency — the NIC itself tells nobody).
  [[nodiscard]] const NicHealth& health() const noexcept { return health_; }
  void set_link_up(bool up) noexcept { health_.link_up = up; }
  void set_rdma_up(bool up) noexcept { health_.rdma_up = up; }
  void set_dpdk_up(bool up) noexcept { health_.dpdk_up = up; }
  /// Degrades serialization to `fraction` of line rate (1.0 restores).
  void set_rate_fraction(double fraction) noexcept;

  /// True if the current health state would discard a packet of `kind`.
  [[nodiscard]] bool would_drop(PacketKind kind) const noexcept;

  /// Observer for dropped packets (tx or rx side): the local agent uses
  /// this as its send-error signal for instant lane-failure detection.
  void set_on_drop(std::function<void(PacketKind)> cb) { on_drop_ = std::move(cb); }

  [[nodiscard]] std::uint64_t dropped_packets() const noexcept { return dropped_packets_; }

  /// The on-NIC processor; the RDMA engine charges per-packet work here
  /// through process(), which schedules it per tenant.
  [[nodiscard]] sim::Resource& processor() noexcept { return processor_; }
  [[nodiscard]] const sim::Resource& processor() const noexcept { return processor_; }

  /// Runs `work_ns` of packet processing for `tenant` on the processor.
  /// Jobs queue per tenant, and the tx link's WDRR (the same TenantQos
  /// weights and quantum, each job charged its packet's `bytes`) feeds the
  /// processor one job at a time, so a saturating tenant's chunks cannot
  /// queue another tenant's behind them. `done` runs when the job ends; a
  /// tenant whose `done` queues its next job (an RC QP streaming a message
  /// chunk by chunk) keeps its turn while its deficit lasts, so the weights
  /// hold for one-chunk-at-a-time streams too. A lone tenant runs FIFO.
  void process(std::uint32_t tenant, double work_ns, std::uint32_t bytes, sim::DoneFn done);

  /// Transmit queue (line-rate serialization).
  [[nodiscard]] sim::Resource& tx_link() noexcept { return tx_link_; }

  /// Attaches this NIC to the ToR switch. Must be called before send().
  void attach(Switch* tor) noexcept { tor_ = tor; }

  /// Serializes and hands the packet to the switch (or loops back if the
  /// destination is this host — e.g. an RDMA hairpin through the NIC).
  /// Packets enter per-tenant queues (keyed by `packet->tenant`) and a
  /// weighted deficit-round-robin scheduler feeds the tx link one packet at
  /// a time, so a saturating tenant cannot starve the others.
  void send(PacketPtr packet);

  /// Configures (or reconfigures) one tenant's scheduling weight and
  /// optional rate cap. Unconfigured tenants default to weight 1, uncapped.
  void set_tenant_qos(std::uint32_t tenant, TenantQos qos);
  /// One tenant's configured QoS (defaults if never configured). The
  /// agents' RDMA trunks schedule records with the same weights.
  [[nodiscard]] TenantQos tenant_qos(std::uint32_t tenant) const noexcept;

  /// Bytes this NIC transmitted for `tenant` (0 if never seen).
  [[nodiscard]] std::uint64_t tenant_tx_bytes(std::uint32_t tenant) const noexcept;
  /// Packets currently queued for `tenant` awaiting the scheduler.
  [[nodiscard]] std::size_t tenant_queue_depth(std::uint32_t tenant) const noexcept;

  /// DRR quantum per unit of weight, in bytes. Small enough that a weight-8
  /// tenant interleaves with a weight-1 tenant every few packets; deficits
  /// accumulate across rounds, so packets larger than one quantum still go
  /// out once the deficit catches up.
  static constexpr double k_drr_quantum_bytes = 16.0 * 1024;

  /// Registers the receive handler for one packet kind.
  void set_rx_handler(PacketKind kind, std::function<void(PacketPtr)> handler);

  /// Called by the switch (or loopback) when a packet arrives.
  void deliver(PacketPtr packet);

  [[nodiscard]] std::uint64_t tx_packets() const noexcept { return tx_packets_; }
  [[nodiscard]] std::uint64_t rx_packets() const noexcept { return rx_packets_; }
  [[nodiscard]] std::uint64_t tx_bytes() const noexcept { return tx_bytes_; }
  [[nodiscard]] std::uint64_t rx_bytes() const noexcept { return rx_bytes_; }

  /// Wires per-PacketKind byte/drop counters and a tx-utilization probe into
  /// the deployment hub ("nic/<host>/..."). Cluster::add_host calls this;
  /// the NIC lives as long as the cluster, so the probe capture is safe.
  void set_telemetry(telemetry::Telemetry* hub);

 private:
  /// One tenant's processor jobs; its WDRR weight mirrors `qos.weight`.
  struct ProcJob {
    sim::DoneFn done;
    double work_ns = 0;
    std::uint32_t bytes = 0;
    SimTime queued_at = 0;
  };
  struct ProcQueue : DrrFlow {
    std::deque<ProcJob> q;
    Histogram* hist_wait = telemetry::discard_histogram();
  };
  /// The WDRR weight lives in DrrFlow::weight; `qos.weight` mirrors it.
  struct TenantQueue : DrrFlow {
    std::deque<PacketPtr> q;
    TenantQos qos;
    double tokens = 0.0;   ///< rate-cap token bucket, in bytes
    SimTime tokens_at = 0;
    std::uint64_t tx_bytes = 0;
    telemetry::Counter* ctr_tx_bytes = telemetry::Counter::discard();
    telemetry::Gauge* g_queue_depth = telemetry::Gauge::discard();
    telemetry::Gauge* g_deficit = telemetry::Gauge::discard();
    ProcQueue proc;
  };

  sim::EventLoop& loop_;
  const sim::CostModel& model_;
  void drop(PacketKind kind);
  TenantQueue& tenant_queue(std::uint32_t tenant);
  /// "nic/<host>/tenant/<t>/", the tenant's telemetry prefix.
  [[nodiscard]] std::string tenant_prefix(std::uint32_t tenant) const;
  /// Points a tenant's tx-link telemetry at the hub's registry.
  void wire_tenant(std::uint32_t tenant, TenantQueue& tq);
  void refill_tokens(TenantQueue& tq) noexcept;
  /// Picks the next packet by WDRR and occupies the tx link with it; no-op
  /// while a packet is serializing or every queue is empty/rate-blocked
  /// (blocked queues arm a retry timer at the earliest token-ready time).
  /// Rate caps sit on top of the DRR as its `held` predicate.
  void dispatch_next();
  void transmit(PacketPtr packet);
  /// Starts the processor's next job by WDRR; no-op while one runs.
  void dispatch_proc();
  void finish_proc();

  HostId host_;
  NicCapabilities caps_;
  NicHealth health_;
  sim::Resource processor_;
  sim::Resource tx_link_;
  Switch* tor_ = nullptr;
  std::array<std::function<void(PacketPtr)>, 4> rx_handlers_{};
  std::function<void(PacketKind)> on_drop_;

  /// Keyed by tenant; std::map keeps round-robin admission order (and
  /// telemetry names) deterministic. Pointers into the map are stable.
  std::map<std::uint32_t, TenantQueue> tenants_;
  /// Rotation of tenants with queued packets.
  DeficitRoundRobin<TenantQueue> drr_{k_drr_quantum_bytes};
  bool tx_busy_ = false;
  bool retry_armed_ = false;
  /// Rotation of tenants with processor jobs queued (or one running).
  DeficitRoundRobin<ProcQueue> proc_drr_{k_drr_quantum_bytes};
  bool proc_busy_ = false;
  sim::DoneFn proc_done_;  ///< the running job's completion
  telemetry::Telemetry* hub_ = nullptr;

  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t dropped_packets_ = 0;

  // Per-PacketKind telemetry (discard sinks until set_telemetry wires them).
  std::array<telemetry::Counter*, k_packet_kinds> ctr_tx_bytes_{};
  std::array<telemetry::Counter*, k_packet_kinds> ctr_rx_bytes_{};
  std::array<telemetry::Counter*, k_packet_kinds> ctr_drops_{};
};

}  // namespace freeflow::fabric
