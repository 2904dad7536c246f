// Shared machinery of the repository benchmark: host clocks, seeded input
// draws, payload patterns, exact percentiles, the two-clock trace log, the
// deployment every workload builds, and the per-layer accounting read back
// from the library's public accessors and telemetry registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/freeflow.h"
#include "fabric/cluster.h"
#include "orchestrator/cluster_orchestrator.h"
#include "orchestrator/network_orchestrator.h"
#include "overlay/overlay.h"
#include "stream/stream_net.h"

namespace perfbench {

using freeflow::Buffer;
using freeflow::ByteSpan;
using freeflow::MutableByteSpan;
using freeflow::SimDuration;
using freeflow::SimTime;
using freeflow::k_microsecond;
using freeflow::k_millisecond;
using freeflow::k_second;

// ------------------------------------------------------------ host clocks

/// Process CPU seconds (the simulator is single-threaded, so this is the
/// CPU the benchmark burned, minus time the machine gave to others).
double cpu_now_s();
/// Monotonic wall seconds since process start.
double wall_now_s();
/// Calls to the global operator new so far (counting hook in harness.cc).
std::uint64_t allocs_total();
/// Peak resident set of the process in MiB.
double peak_rss_mb();

// ------------------------------------------------------------ inputs

/// The workload's only source of randomness. Every draw also folds into
/// `digest`, so two seeds can be shown to generate different inputs.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 1) {}

  std::uint64_t below(std::uint64_t bound) { return note(rng_.next_below(bound)); }
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return static_cast<std::int64_t>(note(static_cast<std::uint64_t>(rng_.uniform(lo, hi))));
  }
  /// Exponential inter-arrival gap in ns for `per_second` events.
  SimDuration gap(double per_second);
  /// Size in [lo, hi], log-uniform (small and large messages equally likely
  /// per octave).
  std::size_t log_uniform(std::size_t lo, std::size_t hi);
  bool chance(double p) { return note(rng_.chance(p) ? 1 : 0) == 1; }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t note(std::uint64_t v) {
    digest_ = (digest_ ^ v) * 0x100000001B3ULL;
    return v;
  }
  freeflow::Rng rng_;
  std::uint64_t digest_ = 0xCBF29CE484222325ULL;
};

// ------------------------------------------------------------ payloads

/// Writes the payload pattern of message `key` (word-at-a-time splitmix).
void fill_payload(std::uint64_t key, MutableByteSpan out);
/// True when `in` is exactly the pattern fill_payload writes for `key`.
bool check_payload(std::uint64_t key, ByteSpan in);

// ------------------------------------------------------------ samples

/// Raw samples with exact (interpolated) percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); sorted_ = false; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// q in [0, 1]; 0 when empty.
  double quantile(double q);

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// ------------------------------------------------------------ trace log

/// In-memory Chrome-trace log with two clocks, written once at the end:
///   pid 1: host-clock spans around every phase and every library call the
///          benchmark makes (nested on one row, each naming its parent);
///   pid 2: virtual-clock spans of sampled messages, one row per message,
///          from due/send through the receiver's on_data to the response;
///   pid 1 instants at each phase boundary carry the counter snapshot.
class TraceLog {
 public:
  /// 1-in-N message sampling for the virtual-clock spans.
  static constexpr std::uint64_t k_sample_every = 64;

  explicit TraceLog(bool on);
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// RAII host-clock span.
  class Span {
   public:
    Span(TraceLog& log, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TraceLog& log_;
    const char* name_;
  };

  void phase_snapshot(const std::string& phase, const std::string& args_json);

  /// Request ids are flow << 32 | seq; sampling mixes both halves so
  /// single-request flows are sampled too.
  [[nodiscard]] bool sampled(std::uint64_t req) const noexcept {
    return on_ && ((req >> 32) + (req & 0xFFFFFFFFu)) % k_sample_every == 0;
  }
  void msg_begin(std::uint64_t req, SimTime t, const char* name);
  void msg_mark(std::uint64_t req, SimTime t, const char* name);
  void msg_end(std::uint64_t req, SimTime t, const char* name);

  /// Drops everything recorded so far (keeps one rep's trace).
  void clear();
  [[nodiscard]] std::size_t host_spans() const noexcept { return host_spans_; }
  [[nodiscard]] std::size_t message_spans() const noexcept { return msg_spans_; }
  [[nodiscard]] std::size_t snapshots() const noexcept { return snapshots_; }
  bool write(const std::string& path) const;

 private:
  struct Event {
    char ph;
    std::uint32_t pid;
    std::uint64_t tid;
    double ts_us;
    std::string name;
    std::string args;
  };
  [[nodiscard]] double host_us() const;
  std::uint64_t row_of(std::uint64_t req);

  bool on_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Event> events_;
  std::vector<const char*> stack_;
  std::map<std::uint64_t, std::uint64_t> rows_;  ///< req id -> virtual row
  std::size_t host_spans_ = 0;
  std::size_t msg_spans_ = 0;
  std::size_t snapshots_ = 0;
};

// ------------------------------------------------------------ tally

/// Per-rep outcome accounting shared by every traffic generator.
struct Tally {
  /// Operations attempted / failed over the whole rep (warm-up included):
  /// connects, RPCs, streamed messages, audits.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< by cause

  /// Measured-phase observations; generators record only while `measuring`.
  bool measuring = false;
  std::uint64_t payload_bytes = 0;  ///< verified request + response payload
  std::uint64_t bytes_by_transport[5] = {};
  std::uint64_t requests_done = 0;
  Samples rpc_us;      ///< due -> verified response
  Samples connect_us;  ///< sock_connect -> first verified response byte
  Samples send_lag_us; ///< open loop: due -> handed to the socket
  /// When set, RPC latencies land here instead of rpc_us (open-loop steps).
  Samples* rpc_sink = nullptr;

  void fail(const std::string& cause, std::uint64_t n = 1) {
    failed += n;
    failures[cause] += n;
  }
  void delivered(freeflow::orch::Transport t, std::uint64_t bytes) {
    if (!measuring) return;
    payload_bytes += bytes;
    bytes_by_transport[static_cast<int>(t)] += bytes;
  }
};

// ------------------------------------------------------------ deployment

/// A container with the FreeFlow library attached.
struct Node {
  freeflow::orch::ContainerPtr container;
  freeflow::core::ContainerNetPtr net;
  freeflow::stream::StreamNetPtr streams;  ///< set by Env::with_streams

  [[nodiscard]] freeflow::tcp::Ipv4Addr ip() const { return container->ip(); }
  [[nodiscard]] freeflow::fabric::HostId host() const { return container->host(); }
};
using NodePtr = std::shared_ptr<Node>;

/// Cluster + overlay + orchestrators + FreeFlow, built through the public
/// API, with host-time accounting for the calls set-up is made of.
class Env {
 public:
  Env(int hosts, freeflow::fabric::NicCapabilities caps,
      freeflow::agent::AgentConfig config, TraceLog& trace);
  ~Env();

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// ClusterOrchestrator::deploy + FreeFlow::attach.
  NodePtr deploy(const std::string& name, freeflow::orch::TenantId tenant,
                 freeflow::fabric::HostId host);
  /// Gives `node` a stream-adapter instance (StreamNet::make).
  void with_streams(Node& node);
  /// Stops a container through the orchestrator.
  void stop(const Node& node);
  /// EventLoop::run until only maintenance remains: converges overlay routes.
  void converge();

  /// One denied cross-tenant shm attach on host 0, then audits every
  /// host's registry for foreign attaches. Counts violations as failures.
  void audit_isolation(Tally& tally, freeflow::orch::TenantId a,
                       freeflow::orch::TenantId b);

  [[nodiscard]] freeflow::fabric::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] freeflow::sim::EventLoop& loop() noexcept { return cluster_.loop(); }
  [[nodiscard]] freeflow::core::FreeFlow& ff() noexcept { return *ff_; }
  [[nodiscard]] freeflow::orch::NetworkOrchestrator& net_orch() noexcept { return *net_orch_; }
  [[nodiscard]] freeflow::overlay::OverlayNetwork& overlay() noexcept { return overlay_; }
  [[nodiscard]] int hosts() const noexcept { return hosts_; }
  /// True once a container on `host` attached (its agent and selector
  /// exist; reading them elsewhere would start new ones).
  [[nodiscard]] bool attached(int host) const {
    return attached_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] TraceLog& trace() noexcept { return trace_; }

  // Host time spent inside the set-up calls (seconds) and their counts.
  double deploy_s = 0, attach_s = 0, converge_s = 0;
  std::uint64_t deploys = 0, attaches = 0;

 private:
  int hosts_;
  TraceLog& trace_;
  freeflow::fabric::Cluster cluster_;
  freeflow::overlay::OverlayNetwork overlay_;
  std::vector<bool> attached_;
  std::unique_ptr<freeflow::orch::ClusterOrchestrator> cluster_orch_;
  std::unique_ptr<freeflow::orch::NetworkOrchestrator> net_orch_;
  std::unique_ptr<freeflow::core::FreeFlow> ff_;
};

// ------------------------------------------------------------ layers

/// Named per-layer values, in report order.
using LayerValues = std::vector<std::pair<std::string, double>>;

/// Reads every layer's counters at the start and end of the measured phase
/// (public accessors plus the telemetry registry, summed per metric family).
class LayerProbe {
 public:
  explicit LayerProbe(Env& env);
  /// Snapshot at measured-phase start.
  void begin();
  /// Snapshot at measured-phase end.
  void end();
  /// Counter families of the registry, summed ("conduit/*/*/retransmits").
  [[nodiscard]] static std::map<std::string, double> families(Env& env);
  /// Compact JSON of the family sums, for phase-boundary trace instants.
  [[nodiscard]] static std::string families_json(Env& env);

  /// Measured-phase deltas.
  struct Reading {
    SimDuration elapsed = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    double cpu_busy_ns = 0;      ///< modelled host CPU, all hosts
    double cpu_cores = 0;        ///< busy cores, summed over hosts
    double nic_tx_util_max = 0;
    double nic_proc_util_max = 0;
    double membus_util_max = 0;
    double router_busy_ns = 0;
    double agent_busy_ns = 0;
    std::uint64_t records_relayed = 0;
    std::uint64_t drops = 0;
    std::uint64_t selector_hits = 0;
    std::uint64_t selector_misses = 0;
    std::uint64_t shard_rpcs = 0;
    std::uint64_t cross_shard_forwards = 0;
    std::map<std::string, double> families;  ///< registry family deltas
  };
  [[nodiscard]] const Reading& reading() const noexcept { return delta_; }

 private:
  struct Raw {
    SimTime now = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::vector<double> cpu, tx, proc, membus;
    double router = 0, agent = 0;
    std::uint64_t records = 0, drops = 0, hits = 0, misses = 0, rpcs = 0, fwd = 0;
    std::map<std::string, double> families;
  };
  Raw take();

  Env& env_;
  Raw start_;
  Reading delta_;
};

/// p99 of every agent's trunk set-up latency histogram, in µs.
double trunk_setup_p99_us(Env& env);

}  // namespace perfbench
