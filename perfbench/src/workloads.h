// The four benchmark workloads. Each builds its own deployment in setup()
// (cluster, deploy, attach, route convergence, connects, warm-up), then
// does a fixed amount of virtual work in measure(), then drains and audits
// in finish(). Everything random comes from Inputs(seed).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "traffic.h"

namespace perfbench {

/// Tenant ids: the latency tenant's NIC queue depth is what
/// fabric.latency_queue_depth_max samples on every workload.
constexpr freeflow::orch::TenantId k_latency_tenant = 1;
constexpr freeflow::orch::TenantId k_bulk_tenant = 2;

/// Open-loop rate steps and the p99 limit that decides rpc_max_krps.
struct RateSteps {
  std::vector<double> per_second;  ///< offered rates, ascending
  std::vector<std::uint64_t> count;  ///< requests offered per step
  std::size_t reference = 0;       ///< step whose latency is rpc_p50/p99
  double p99_limit_us = 0;
};

/// One step's outcome.
struct StepResult {
  double offered_per_s = 0;
  double achieved_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
  bool backlog_grew = false;
  bool passed = false;
};

class Workload {
 public:
  Workload(std::uint64_t seed, TraceLog& trace) : inputs_(seed), trace_(trace) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() = 0;
  virtual void measure() = 0;
  /// Drains in-flight work and runs the end-of-run audits.
  virtual void finish() = 0;
  virtual Env& env() = 0;

  /// Queue sampling hook, called every k_sample_period while measuring.
  virtual void sample();
  void start_sampler();

  Tally& tally() noexcept { return tally_; }
  Inputs& inputs() noexcept { return inputs_; }

  // Workload-level results the metrics need beyond the tally.
  double rpc_max_krps = 0;      ///< open loop: best passing step; closed: achieved
  std::vector<StepResult> steps;
  Samples rpc_reference;        ///< latencies that define rpc_p50/p99
  double latency_queue_depth_max = 0;
  double gateway_queue_depth_max = 0;
  double scale_ups = 0;

  static constexpr SimDuration k_sample_period = 5 * k_microsecond;
  /// Host-time budget of one phase: a wedge becomes failed operations.
  static constexpr double k_phase_budget_s = 60.0;

 protected:
  /// Runs the loop until `done` holds, bounded by `budget` of virtual time
  /// and k_phase_budget_s of host time. False when a budget ran out.
  bool run_until(const std::function<bool()>& done, SimDuration budget);
  /// Open-loop steps over `loop`; fills steps/rpc_reference/rpc_max_krps.
  void run_steps(OpenLoop& loop, const RateSteps& plan, SimDuration budget);

  Inputs inputs_;
  TraceLog& trace_;
  Tally tally_;
  std::vector<Samples> step_samples_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Workload names in report order.
const std::vector<std::string>& workload_names();
/// `nic_faults`: connect_churn also injects RDMA death/heal and a link flap
/// (off in the benchmarked workloads; they wedge connects at HEAD).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        TraceLog& trace, bool nic_faults = false);

}  // namespace perfbench
