#include "fabric/nic.h"

#include <algorithm>

#include "common/logging.h"
#include "common/status.h"
#include "fabric/switch.h"

namespace freeflow::fabric {

Nic::Nic(sim::EventLoop& loop, const sim::CostModel& model, HostId host,
         NicCapabilities caps)
    : loop_(loop),
      model_(model),
      host_(host),
      caps_(caps),
      processor_(loop, "nic_proc", model.nic_proc_rate, 1),
      tx_link_(loop, "nic_tx", caps.line_rate_gbps * 1e9 / 8.0, 1) {
  ctr_tx_bytes_.fill(telemetry::Counter::discard());
  ctr_rx_bytes_.fill(telemetry::Counter::discard());
  ctr_drops_.fill(telemetry::Counter::discard());
}

void Nic::set_telemetry(telemetry::Telemetry* hub) {
  if (hub == nullptr) return;
  hub_ = hub;
  auto& m = hub->metrics();
  const std::string prefix = "nic/" + std::to_string(host_) + "/";
  for (std::size_t k = 0; k < k_packet_kinds; ++k) {
    const char* kind = packet_kind_name(static_cast<PacketKind>(k));
    ctr_tx_bytes_[k] = &m.counter(prefix + "tx_bytes/" + kind);
    ctr_rx_bytes_[k] = &m.counter(prefix + "rx_bytes/" + kind);
    ctr_drops_[k] = &m.counter(prefix + "drops/" + kind);
  }
  // Tenants seen before the hub was wired pick up real sinks now; tenants
  // seen later wire themselves lazily in tenant_queue().
  for (auto& [tenant, tq] : tenants_) {
    const std::string tprefix = prefix + "tenant/" + std::to_string(tenant) + "/";
    tq.ctr_tx_bytes = &m.counter(tprefix + "tx_bytes");
    tq.g_queue_depth = &m.gauge(tprefix + "queue_depth");
    tq.g_deficit = &m.gauge(tprefix + "sched_deficit");
  }
  // Sampled at snapshot time: fraction of the tx link's total capacity used
  // since t=0. The NIC outlives the registry's export calls (both die with
  // the cluster), so capturing `this` is safe.
  m.register_probe(prefix + "tx_utilization", [this]() {
    const double now = static_cast<double>(loop_.now());
    return now <= 0 ? 0.0 : tx_link_.busy_ns_total() / now;
  });
}

void Nic::set_rate_fraction(double fraction) noexcept {
  // A fully dead serializer is modeled as link-down, not as a divide-by-zero.
  health_.rate_fraction = fraction < 1e-3 ? 1e-3 : fraction;
}

bool Nic::would_drop(PacketKind kind) const noexcept {
  if (!health_.link_up) return true;
  if (!health_.rdma_up && kind == PacketKind::rdma_chunk) return true;
  if (!health_.dpdk_up && kind == PacketKind::dpdk_frame) return true;
  return false;
}

void Nic::drop(PacketKind kind) {
  ++dropped_packets_;
  ctr_drops_[static_cast<std::size_t>(kind)]->inc();
  if (on_drop_) on_drop_(kind);
}

Nic::TenantQueue& Nic::tenant_queue(std::uint32_t tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantQueue& tq = tenants_[tenant];
  if (hub_ != nullptr) {
    auto& m = hub_->metrics();
    const std::string prefix = "nic/" + std::to_string(host_) + "/tenant/" +
                               std::to_string(tenant) + "/";
    tq.ctr_tx_bytes = &m.counter(prefix + "tx_bytes");
    tq.g_queue_depth = &m.gauge(prefix + "queue_depth");
    tq.g_deficit = &m.gauge(prefix + "sched_deficit");
  }
  return tq;
}

void Nic::set_tenant_qos(std::uint32_t tenant, TenantQos qos) {
  FF_CHECK(qos.weight >= 1);
  TenantQueue& tq = tenant_queue(tenant);
  tq.qos = qos;
  tq.weight = qos.weight;
  // Any (re)configured cap starts earning tokens from now — an empty bucket,
  // so a tightened cap cannot spend a stale surplus.
  tq.tokens_at = loop_.now();
  tq.tokens = 0.0;
  dispatch_next();
}

TenantQos Nic::tenant_qos(std::uint32_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantQos{} : it->second.qos;
}

std::uint64_t Nic::tenant_tx_bytes(std::uint32_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.tx_bytes;
}

std::size_t Nic::tenant_queue_depth(std::uint32_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.q.size();
}

void Nic::refill_tokens(TenantQueue& tq) noexcept {
  const SimTime now = loop_.now();
  const double bytes_per_ns = tq.qos.rate_bps / 8.0e9;
  tq.tokens += static_cast<double>(now - tq.tokens_at) * bytes_per_ns;
  tq.tokens_at = now;
  // Burst allowance: one scheduling quantum or one max-sized chunk,
  // whichever is larger — enough that the cap shapes rate, not liveness.
  const double burst =
      std::max(k_drr_quantum_bytes * tq.qos.weight, 128.0 * 1024);
  if (tq.tokens > burst) tq.tokens = burst;
}

void Nic::send(PacketPtr packet) {
  FF_CHECK(packet != nullptr);
  packet->src_host = host_;
  if (would_drop(packet->kind)) {
    drop(packet->kind);
    return;
  }
  ++tx_packets_;
  tx_bytes_ += packet->wire_bytes;
  ctr_tx_bytes_[static_cast<std::size_t>(packet->kind)]->inc(packet->wire_bytes);

  TenantQueue& tq = tenant_queue(packet->tenant);
  tq.q.push_back(std::move(packet));
  tq.g_queue_depth->set(static_cast<std::int64_t>(tq.q.size()));
  drr_.activate(tq);
  dispatch_next();
}

void Nic::dispatch_next() {
  if (tx_busy_) return;
  SimTime earliest_ready = -1;
  TenantQueue* tq = drr_.pick(
      [](const TenantQueue& t) {
        return t.q.empty() ? -1.0 : static_cast<double>(t.q.front()->wire_bytes);
      },
      [this, &earliest_ready](TenantQueue& t, double head) {
        if (t.qos.rate_bps <= 0) return false;
        refill_tokens(t);
        if (t.tokens >= head) return false;
        // Rate-capped below its WDRR share: wait for tokens without
        // charging a quantum, and let the others use the idle link.
        const double bytes_per_ns = t.qos.rate_bps / 8.0e9;
        const auto wait = static_cast<SimTime>((head - t.tokens) / bytes_per_ns) + 1;
        const SimTime ready = loop_.now() + wait;
        if (earliest_ready < 0 || ready < earliest_ready) earliest_ready = ready;
        return true;
      },
      [](const TenantQueue& t) { t.g_deficit->set(static_cast<std::int64_t>(t.deficit)); });
  if (tq != nullptr) {
    // Dispatch the head: it owns the serializer until service completes.
    PacketPtr packet = std::move(tq->q.front());
    tq->q.pop_front();
    drr_.consume(*tq, packet->wire_bytes, tq->q.empty());
    if (tq->qos.rate_bps > 0) tq->tokens -= packet->wire_bytes;
    tq->tx_bytes += packet->wire_bytes;
    tq->ctr_tx_bytes->inc(packet->wire_bytes);
    tq->g_queue_depth->set(static_cast<std::int64_t>(tq->q.size()));
    tq->g_deficit->set(static_cast<std::int64_t>(tq->deficit));
    transmit(std::move(packet));
    return;
  }
  if (earliest_ready >= 0 && !retry_armed_) {
    retry_armed_ = true;
    loop_.schedule(earliest_ready - loop_.now(), [this]() {
      retry_armed_ = false;
      dispatch_next();
    });
  }
}

void Nic::transmit(PacketPtr packet) {
  tx_busy_ = true;
  // A degraded NIC serializes slower: the same bytes occupy the tx link for
  // 1/rate_fraction as long, which shows up as reduced goodput downstream.
  const double units =
      static_cast<double>(packet->wire_bytes) / health_.rate_fraction;
  if (packet->dst_host == host_) {
    // NIC-internal hairpin: serialization at line rate, no switch traversal.
    tx_link_.submit(units, [this, packet]() {
      tx_busy_ = false;
      dispatch_next();
      deliver(packet);
    });
    return;
  }
  FF_CHECK(tor_ != nullptr);
  tx_link_.submit(units, [this, packet]() {
    tx_busy_ = false;
    dispatch_next();
    // Propagation happens off the serializer: the next packet starts
    // serializing while this one is in flight, exactly as before WDRR.
    loop_.schedule(model_.link_prop_ns, [this, packet]() { tor_->forward(packet); });
  });
}

void Nic::set_rx_handler(PacketKind kind, std::function<void(PacketPtr)> handler) {
  rx_handlers_[static_cast<std::size_t>(kind)] = std::move(handler);
}

void Nic::deliver(PacketPtr packet) {
  if (would_drop(packet->kind)) {
    // Rx-side fault (e.g. the receiver's RDMA engine died while packets were
    // in flight): the bytes made it across the wire but nobody home.
    drop(packet->kind);
    return;
  }
  ++rx_packets_;
  rx_bytes_ += packet->wire_bytes;
  ctr_rx_bytes_[static_cast<std::size_t>(packet->kind)]->inc(packet->wire_bytes);
  auto& handler = rx_handlers_[static_cast<std::size_t>(packet->kind)];
  if (handler) {
    handler(std::move(packet));
  } else {
    FF_LOG(warn, "nic") << "host " << host_ << " dropped packet of kind "
                        << static_cast<int>(packet->kind) << " (no handler)";
  }
}

}  // namespace freeflow::fabric
