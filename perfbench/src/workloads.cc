#include "workloads.h"

#include <algorithm>

#include "common/logging.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "workloads/gateway.h"

namespace perfbench {

using namespace freeflow;

namespace {

constexpr std::uint16_t k_data_port = 9000;
constexpr std::uint16_t k_gateway_port = 8100;
constexpr std::uint16_t k_backend_port = 9200;
constexpr std::size_t k_churn_bytes = 4096;

std::string name_of(const char* prefix, int host, int index = 0) {
  return std::string(prefix) + "-h" + std::to_string(host) + "-" + std::to_string(index);
}

/// Opens a FlowSocket or stream-adapter connection; `out` receives the pipe.
void dial(Env& env, Tally& tally, Node& from, const Node& to, std::uint16_t port,
          bool stream_socket, std::shared_ptr<Pipe>& out) {
  ++tally.attempted;
  if (stream_socket) {
    TraceLog::Span span(env.trace(), "StreamNet::connect");
    from.streams->connect(to.ip(), port, [&tally, &out](Result<stream::StreamSocketPtr> s) {
      if (!s.is_ok()) {
        tally.fail("connect");
        return;
      }
      out = make_pipe(*s);
    });
  } else {
    TraceLog::Span span(env.trace(), "ContainerNet::sock_connect");
    from.net->sock_connect(to.ip(), port, [&tally, &out](Result<core::FlowSocketPtr> s) {
      if (!s.is_ok()) {
        tally.fail("connect");
        return;
      }
      out = make_pipe(*s);
    });
  }
}

/// A set of client flows under construction: dial them all, then wrap.
struct Flows {
  struct Spec {
    NodePtr from;
    NodePtr to;
    std::uint16_t port;
    bool stream;
    RpcClient::Options options;
  };
  std::vector<Spec> specs;
  std::vector<std::shared_ptr<Pipe>> pipes;
  std::vector<std::unique_ptr<RpcClient>> clients;

  void add(NodePtr from, NodePtr to, std::uint16_t port, bool stream,
           RpcClient::Options options = {}) {
    specs.push_back({std::move(from), std::move(to), port, stream, options});
  }
  void dial_all(Env& env, Tally& tally) {
    pipes.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      dial(env, tally, *specs[i].from, *specs[i].to, specs[i].port, specs[i].stream, pipes[i]);
    }
  }
  [[nodiscard]] bool connected() const {
    return std::all_of(pipes.begin(), pipes.end(), [](const auto& p) { return p != nullptr; });
  }
  /// Wraps every connected pipe in a client; flow ids start at `first_flow`.
  void wrap(Env& env, Tally& tally, std::uint32_t first_flow) {
    for (std::size_t i = 0; i < pipes.size(); ++i) {
      if (pipes[i] == nullptr) continue;
      clients.push_back(std::make_unique<RpcClient>(
          env, pipes[i], first_flow + static_cast<std::uint32_t>(i), tally, specs[i].options));
    }
  }
  [[nodiscard]] std::vector<RpcClient*> raw() const {
    std::vector<RpcClient*> out;
    for (const auto& c : clients) out.push_back(c.get());
    return out;
  }
  void fail_outstanding() {
    for (auto& c : clients) c->fail_outstanding("rpc_unanswered");
  }
};

/// Closed-loop sizes: fixed response, request seeded around a mean.
ClosedLoop::SizeFn bulk_sizes(Inputs& inputs, std::size_t lo, std::size_t hi,
                              std::size_t resp) {
  return [&inputs, lo, hi, resp]() {
    return std::pair<std::size_t, std::size_t>{
        static_cast<std::size_t>(inputs.uniform(static_cast<std::int64_t>(lo),
                                                static_cast<std::int64_t>(hi))),
        resp};
  };
}

}  // namespace

// ------------------------------------------------------------ Workload

void Workload::sample() {}

void Workload::start_sampler() {
  std::weak_ptr<bool> alive = alive_;
  env().loop().schedule(k_sample_period, [this, alive]() {
    if (alive.expired() || !tally_.measuring) return;
    for (int h = 0; h < env().hosts(); ++h) {
      latency_queue_depth_max = std::max(
          latency_queue_depth_max,
          static_cast<double>(env().cluster().host(static_cast<fabric::HostId>(h))
                                  .nic().tenant_queue_depth(k_latency_tenant)));
    }
    sample();
    start_sampler();
  });
}

bool Workload::run_until(const std::function<bool()>& done, SimDuration budget) {
  TraceLog::Span span(trace_, "EventLoop::step");
  auto& loop = env().loop();
  const SimTime deadline = loop.now() + budget;
  const double host_deadline = cpu_now_s() + k_phase_budget_s;
  std::uint64_t n = 0;
  while (!done()) {
    if (loop.now() >= deadline) return false;
    if (!loop.step()) return done();
    if ((++n & 0x3FFF) == 0 && cpu_now_s() > host_deadline) return false;
  }
  return true;
}

void Workload::run_steps(OpenLoop& open, const RateSteps& plan, SimDuration budget) {
  // Owned by the workload: a late response still finds its step's samples.
  std::vector<Samples>& samples = step_samples_;
  samples.assign(plan.per_second.size(), Samples{});
  auto& loop = env().loop();
  for (std::size_t i = 0; i < plan.per_second.size(); ++i) {
    tally_.rpc_sink = &samples[i];
    const SimTime t0 = loop.now();
    open.start(plan.per_second[i], plan.count[i]);
    const bool finished =
        run_until([&open]() { return open.issued_all() && open.outstanding() == 0; }, budget);
    const SimTime t1 = loop.now();
    StepResult r;
    r.offered_per_s = plan.per_second[i];
    r.achieved_per_s = static_cast<double>(samples[i].size()) /
                       (static_cast<double>(std::max<SimTime>(t1 - t0, 1)) / 1e9);
    r.p50_us = samples[i].quantile(0.50);
    r.p99_us = samples[i].quantile(0.99);
    r.samples = samples[i].size();
    // A stable queue holds the same backlog at the end of the offer as at
    // its midpoint; an overloaded one keeps growing.
    r.backlog_grew = static_cast<double>(open.backlog_at_end()) >
                     1.5 * static_cast<double>(open.backlog_at_half()) + 16.0;
    r.passed = finished && !r.backlog_grew && r.p99_us <= plan.p99_limit_us;
    if (r.passed) rpc_max_krps = std::max(rpc_max_krps, r.achieved_per_s / 1e3);
    steps.push_back(r);
  }
  tally_.rpc_sink = nullptr;
  rpc_reference = samples[plan.reference];
}

namespace {

// ------------------------------------------------------------ bulk

/// 8 RDMA hosts, closed-loop ~64 KiB request streams with 8 B acks: one
/// shm pair per host, and one cross-host pair per host alternating between
/// FlowSocket (agent-relayed RDMA trunk) and stream adapter (per-stream RC).
class Bulk final : public Workload {
 public:
  using Workload::Workload;
  Env& env() override { return *env_; }

  static constexpr int k_hosts = 8;
  static constexpr int k_depth = 4;
  /// Budgets per class. Co-located flows run about six times faster than
  /// cross-host ones, so the cross-host class sets the phase length (and
  /// goodput); giving shm twice its budget puts two thirds of the latency
  /// samples there, so rpc_p50 sits inside the shm mode, not on the edge
  /// between the two modes, and rpc_p99 in the cross-host tail.
  static constexpr std::uint64_t k_cross_requests = 8 * 480;
  static constexpr std::uint64_t k_shm_requests = 2 * k_cross_requests;

  void setup() override {
    env_ = std::make_unique<Env>(k_hosts, fabric::NicCapabilities{}, agent::AgentConfig{}, trace_);
    for (int h = 0; h < k_hosts; ++h) {
      a_.push_back(env_->deploy(name_of("bulk-a", h), k_bulk_tenant, h));
      b_.push_back(env_->deploy(name_of("bulk-b", h), k_bulk_tenant, h));
    }
    for (int h = 1; h < k_hosts; h += 2) {
      env_->with_streams(*a_[static_cast<std::size_t>(h)]);
      env_->with_streams(*b_[static_cast<std::size_t>((h + 1) % k_hosts)]);
    }
    env_->converge();
    for (auto& b : b_) {
      servers_.push_back(std::make_unique<RpcServer>(*env_, *b, k_data_port, tally_, true,
                                                     b->streams != nullptr));
    }
    for (int h = 0; h < k_hosts; ++h) {
      const auto i = static_cast<std::size_t>(h);
      const auto next = static_cast<std::size_t>((h + 1) % k_hosts);
      shm_flows_.add(a_[i], b_[i], k_data_port, false);
      cross_flows_.add(a_[i], b_[next], k_data_port, h % 2 == 1);
    }
    shm_flows_.dial_all(*env_, tally_);
    cross_flows_.dial_all(*env_, tally_);
    run_until([this]() { return shm_flows_.connected() && cross_flows_.connected(); },
              100 * k_millisecond);
    shm_flows_.wrap(*env_, tally_, 1);
    cross_flows_.wrap(*env_, tally_, 100);
    // The stream adapter starts on overlay TCP and splices onto its RC QP.
    run_until(
        [this]() {
          for (const auto& c : cross_flows_.clients) {
            if (c->pipe().transport() == orch::Transport::tcp_overlay) return false;
          }
          return true;
        },
        100 * k_millisecond);
    shm_loop_ = std::make_unique<ClosedLoop>(*env_, shm_flows_.raw(), k_depth,
                                             bulk_sizes(inputs_, 56 * 1024, 72 * 1024, 0));
    cross_loop_ = std::make_unique<ClosedLoop>(*env_, cross_flows_.raw(), k_depth,
                                               bulk_sizes(inputs_, 56 * 1024, 72 * 1024, 0));
    shm_loop_->run(4 * shm_flows_.clients.size());
    cross_loop_->run(4 * cross_flows_.clients.size());
    run_until([this]() { return shm_loop_->done() && cross_loop_->done(); },
              100 * k_millisecond);
  }

  void measure() override {
    const SimTime t0 = env_->loop().now();
    shm_loop_->run(k_shm_requests);
    cross_loop_->run(k_cross_requests);
    run_until([this]() { return shm_loop_->done() && cross_loop_->done(); }, 200 * k_millisecond);
    const double secs = static_cast<double>(env_->loop().now() - t0) / 1e9;
    rpc_reference = tally_.rpc_us;
    rpc_max_krps = static_cast<double>(tally_.requests_done) / secs / 1e3;
  }

  void finish() override {
    run_until([this]() { return shm_loop_->done() && cross_loop_->done(); }, 50 * k_millisecond);
    shm_flows_.fail_outstanding();
    cross_flows_.fail_outstanding();
    env_->audit_isolation(tally_, k_bulk_tenant, k_latency_tenant);
  }

 private:
  std::unique_ptr<Env> env_;
  std::vector<NodePtr> a_, b_;
  std::vector<std::unique_ptr<RpcServer>> servers_;
  Flows shm_flows_, cross_flows_;
  std::unique_ptr<ClosedLoop> shm_loop_, cross_loop_;
};

// ------------------------------------------------------------ rpc_tenants

/// A latency tenant's open-loop small RPCs through workloads::Gateway, with
/// a bulk tenant saturating the same NICs; WDRR weights 8:1.
class RpcTenants final : public Workload {
 public:
  using Workload::Workload;
  Env& env() override { return *env_; }

  static constexpr int k_hosts = 4;
  static constexpr int k_depth = 4;

  static RateSteps plan() {
    return {{100e3, 200e3, 400e3}, {6000, 4000, 4000}, 0, 650.0};
  }

  void setup() override {
    env_ = std::make_unique<Env>(k_hosts, fabric::NicCapabilities{}, agent::AgentConfig{}, trace_);
    for (int h = 0; h < k_hosts; ++h) {
      auto& nic = env_->cluster().host(static_cast<fabric::HostId>(h)).nic();
      nic.set_tenant_qos(k_latency_tenant, {.weight = 8, .rate_bps = 0.0});
      nic.set_tenant_qos(k_bulk_tenant, {.weight = 1, .rate_bps = 0.0});
    }
    gw_ = env_->deploy("gateway", k_latency_tenant, 0);
    bulk_srv_ = env_->deploy("bulk-srv", k_bulk_tenant, 0);
    for (int h = 1; h < k_hosts; ++h) {
      for (int k = 0; k < 2; ++k) lat_.push_back(env_->deploy(name_of("lat-c", h, k), k_latency_tenant, h));
      bulk_.push_back(env_->deploy(name_of("bulk-c", h), k_bulk_tenant, h));
    }
    spawn_backend();
    spawn_backend();
    // Converge before the gateway's scaler timer starts: it never quiesces.
    env_->converge();

    workloads::GatewayConfig cfg;
    cfg.listen_port = k_gateway_port;
    cfg.backend_port = k_backend_port;
    cfg.min_backends = 2;
    cfg.max_backends = 4;
    cfg.grow_queue_depth = 4.0;
    {
      TraceLog::Span span(trace_, "workloads::Gateway::start");
      gateway_ = std::make_unique<workloads::Gateway>(gw_->net, cfg);
      gateway_->set_pool_hooks([this]() { return spawn_backend(); },
                               [this](orch::ContainerId id) { retire_backend(id); });
      for (auto& b : backends_) gateway_->add_backend(b.first->net);
      FF_CHECK(gateway_->start().is_ok());
    }
    bulk_server_ = std::make_unique<RpcServer>(*env_, *bulk_srv_, k_data_port, tally_, true, false);

    for (auto& c : lat_) {
      lat_flows_.add(c, gw_, k_gateway_port, false,
                     RpcClient::Options{.open_loop = true, .library_pattern = true});
    }
    for (auto& c : bulk_) {
      bulk_flows_.add(c, bulk_srv_, k_data_port, false, RpcClient::Options{.record_rpc = false});
    }
    lat_flows_.dial_all(*env_, tally_);
    bulk_flows_.dial_all(*env_, tally_);
    run_until([this]() { return lat_flows_.connected() && bulk_flows_.connected(); },
              100 * k_millisecond);
    lat_flows_.wrap(*env_, tally_, 1);
    bulk_flows_.wrap(*env_, tally_, 100);

    open_ = std::make_unique<OpenLoop>(*env_, inputs_, lat_flows_.raw(), [this]() {
      return std::pair<std::size_t, std::size_t>{
          static_cast<std::size_t>(inputs_.uniform(64, 256)),
          static_cast<std::size_t>(inputs_.uniform(64, 256))};
    });
    closed_ = std::make_unique<ClosedLoop>(*env_, bulk_flows_.raw(), k_depth,
                                           bulk_sizes(inputs_, 60 * 1024, 68 * 1024, 64 * 1024));
    closed_->run(4 * bulk_flows_.clients.size());
    open_->start(50e3, 200);
    run_until([this]() { return closed_->done() && open_->issued_all() && open_->outstanding() == 0; },
              100 * k_millisecond);
  }

  void measure() override {
    closed_->run(1u << 30);  // saturate until the steps are done
    run_steps(*open_, plan(), 100 * k_millisecond);
    closed_->stop();
    run_until([this]() { return closed_->done(); }, 100 * k_millisecond);
  }

  void sample() override {
    gateway_queue_depth_max = std::max(gateway_queue_depth_max,
                                       static_cast<double>(gateway_->total_queue_depth()));
  }

  void finish() override {
    run_until([this]() { return closed_->done() && open_->outstanding() == 0; },
              50 * k_millisecond);
    lat_flows_.fail_outstanding();
    bulk_flows_.fail_outstanding();
    scale_ups = static_cast<double>(gateway_->scale_ups());
    env_->audit_isolation(tally_, k_bulk_tenant, k_latency_tenant);
  }

 private:
  core::ContainerNetPtr spawn_backend() {
    TraceLog::Span span(trace_, "workloads::GatewayBackend::start");
    auto node = env_->deploy("backend-" + std::to_string(backends_.size()), k_latency_tenant, 0);
    auto backend = std::make_unique<workloads::GatewayBackend>(node->net, 1 * k_microsecond);
    FF_CHECK(backend->start(k_backend_port).is_ok());
    backends_.emplace_back(node, std::move(backend));
    return node->net;
  }
  void retire_backend(orch::ContainerId id) {
    for (auto& [node, backend] : backends_) {
      if (node->container->id() == id) env_->stop(*node);
    }
  }

  std::unique_ptr<Env> env_;
  NodePtr gw_, bulk_srv_;
  std::vector<NodePtr> lat_, bulk_;
  std::vector<std::pair<NodePtr, std::unique_ptr<workloads::GatewayBackend>>> backends_;
  std::unique_ptr<workloads::Gateway> gateway_;
  std::unique_ptr<RpcServer> bulk_server_;
  Flows lat_flows_, bulk_flows_;
  std::unique_ptr<OpenLoop> open_;
  std::unique_ptr<ClosedLoop> closed_;
};

// ------------------------------------------------------------ tcp_fallback

/// NICs with neither RDMA nor DPDK: stream-adapter sockets ride overlay TCP,
/// FlowSockets ride agent host-mode TCP trunks. Open-loop RPCs of seeded
/// 64 B - 64 KiB sizes beside two closed-loop bulk streams.
class TcpFallback final : public Workload {
 public:
  using Workload::Workload;
  Env& env() override { return *env_; }

  static constexpr int k_hosts = 4;

  static RateSteps plan() {
    return {{20e3, 40e3, 80e3}, {1000, 6000, 1000}, 1, 400.0};
  }

  void setup() override {
    fabric::NicCapabilities caps;
    caps.rdma = false;
    caps.dpdk = false;
    env_ = std::make_unique<Env>(k_hosts, caps, agent::AgentConfig{}, trace_);
    srv_ = env_->deploy("rpc-srv", k_latency_tenant, 0);
    bulk_srv_ = env_->deploy("bulk-srv", k_bulk_tenant, 0);
    env_->with_streams(*srv_);
    env_->with_streams(*bulk_srv_);
    for (int h = 1; h < k_hosts; ++h) {
      for (int k = 0; k < 2; ++k) {
        auto c = env_->deploy(name_of("rpc-c", h, k), k_latency_tenant, h);
        if (k == 1) env_->with_streams(*c);
        rpc_.push_back(c);
      }
    }
    bulk_.push_back(env_->deploy("bulk-flow", k_bulk_tenant, 1));
    bulk_.push_back(env_->deploy("bulk-stream", k_bulk_tenant, 2));
    env_->with_streams(*bulk_[1]);
    env_->converge();
    servers_.push_back(std::make_unique<RpcServer>(*env_, *srv_, k_data_port, tally_, true, true));
    servers_.push_back(
        std::make_unique<RpcServer>(*env_, *bulk_srv_, k_data_port, tally_, true, true));
    for (auto& c : rpc_) {
      rpc_flows_.add(c, srv_, k_data_port, c->streams != nullptr,
                     RpcClient::Options{.open_loop = true});
    }
    for (auto& c : bulk_) {
      bulk_flows_.add(c, bulk_srv_, k_data_port, c->streams != nullptr,
                      RpcClient::Options{.record_rpc = false});
    }
    rpc_flows_.dial_all(*env_, tally_);
    bulk_flows_.dial_all(*env_, tally_);
    run_until([this]() { return rpc_flows_.connected() && bulk_flows_.connected(); },
              100 * k_millisecond);
    rpc_flows_.wrap(*env_, tally_, 1);
    bulk_flows_.wrap(*env_, tally_, 100);
    open_ = std::make_unique<OpenLoop>(*env_, inputs_, rpc_flows_.raw(), [this]() {
      return std::pair<std::size_t, std::size_t>{inputs_.log_uniform(64, 64 * 1024),
                                                 inputs_.log_uniform(64, 64 * 1024)};
    });
    closed_ = std::make_unique<ClosedLoop>(*env_, bulk_flows_.raw(), 2,
                                           bulk_sizes(inputs_, 56 * 1024, 72 * 1024, 0));
    closed_->run(4 * bulk_flows_.clients.size());
    open_->start(5e3, 60);
    run_until([this]() { return closed_->done() && open_->issued_all() && open_->outstanding() == 0; },
              100 * k_millisecond);
  }

  void measure() override {
    closed_->run(1u << 30);
    run_steps(*open_, plan(), 200 * k_millisecond);
    closed_->stop();
    run_until([this]() { return closed_->done(); }, 100 * k_millisecond);
  }

  void finish() override {
    run_until([this]() { return closed_->done() && open_->outstanding() == 0; },
              50 * k_millisecond);
    rpc_flows_.fail_outstanding();
    bulk_flows_.fail_outstanding();
    env_->audit_isolation(tally_, k_bulk_tenant, k_latency_tenant);
  }

 private:
  std::unique_ptr<Env> env_;
  NodePtr srv_, bulk_srv_;
  std::vector<NodePtr> rpc_, bulk_;
  std::vector<std::unique_ptr<RpcServer>> servers_;
  Flows rpc_flows_, bulk_flows_;
  std::unique_ptr<OpenLoop> open_;
  std::unique_ptr<ClosedLoop> closed_;
};

// ------------------------------------------------------------ connect_churn

/// 16 hosts, working sets beyond the 4096-entry per-agent decision cache.
/// Closed-loop short connections to a seeded hot/cold peer mix while
/// seeded container stop/start forces epoch flushes.
class ConnectChurnWorkload final : public Workload {
 public:
  /// `nic_faults` adds RDMA death/heal and a link flap (see on_progress()).
  ConnectChurnWorkload(std::uint64_t seed, TraceLog& trace, bool nic_faults)
      : Workload(seed, trace), nic_faults_(nic_faults) {}
  Env& env() override { return *env_; }

  static constexpr int k_hosts = 16;
  static constexpr int k_servers_per_host = 48;
  static constexpr int k_clients_per_host = 8;
  static constexpr int k_hot_peers = 4;
  static constexpr double k_hot_share = 0.8;
  static constexpr std::uint64_t k_connections = 6144;

  void setup() override {
    agent::AgentConfig config;
    // Thousands of short-lived channels: small lane rings keep set-up
    // memory proportional to traffic, not to channel count.
    config.lane_ring_bytes = 64 * 1024;
    config.fragment_bytes = 16 * 1024;
    env_ = std::make_unique<Env>(k_hosts, fabric::NicCapabilities{}, config, trace_);
    for (int h = 0; h < k_hosts; ++h) {
      for (int k = 0; k < k_servers_per_host; ++k) {
        pool_.push_back(env_->deploy(name_of("srv", h, k), k_latency_tenant, h));
      }
      for (int k = 0; k < k_clients_per_host; ++k) {
        clients_.push_back(env_->deploy(name_of("cli", h, k), k_latency_tenant, h));
      }
    }
    env_->converge();
    for (auto& s : pool_) {
      servers_.push_back(std::make_unique<RpcServer>(*env_, *s, k_data_port, tally_, true, false));
    }
    stopped_.assign(pool_.size(), false);
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      std::vector<std::size_t> hot;
      for (int k = 0; k < k_hot_peers; ++k) hot.push_back(inputs_.below(pool_.size()));
      hot_.push_back(std::move(hot));
    }
    churn_ = std::make_unique<ConnectChurn>(*env_, tally_, k_data_port, k_churn_bytes,
                                            k_churn_bytes, /*record_rpc=*/true);
    warm_caches();
    // Hot peers connect once each: trunks to them exist before measuring.
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      for (std::size_t p : hot_[c]) churn_->connect(*clients_[c], *pool_[p], {});
    }
    run_until([this]() { return churn_->in_flight() == 0; }, 200 * k_millisecond);
  }

  void measure() override {
    injector_ = std::make_unique<faults::FaultInjector>(env_->net_orch(), env_->ff().agents());
    issued_ = 0;
    for (std::size_t c = 0; c < clients_.size(); ++c) next(c);
    run_until([this]() { return issued_ >= k_connections && churn_->in_flight() == 0; },
              500 * k_millisecond);
    rpc_reference = tally_.rpc_us;
    rpc_max_krps = static_cast<double>(tally_.requests_done) /
                   (static_cast<double>(env_->loop().now() - started_) / 1e9) / 1e3;
  }

  void finish() override {
    run_until([this]() { return churn_->in_flight() == 0; }, 50 * k_millisecond);
    if (churn_->in_flight() != 0) tally_.fail("connection_unfinished", churn_->in_flight());
    env_->audit_isolation(tally_, k_latency_tenant, k_bulk_tenant);
  }

 private:
  /// Fills every host's decision cache past capacity through
  /// TransportSelector::decide, so measured lookups see a full LRU.
  void warm_caches() {
    TraceLog::Span span(trace_, "TransportSelector::decide(warm)");
    auto pending = std::make_shared<std::uint64_t>(0);
    std::weak_ptr<bool> alive = alive_;
    for (auto& c : clients_) {
      auto& selector = env_->ff().selector_on(c->host());
      for (auto& s : pool_) {
        ++*pending;
        ++tally_.attempted;
        selector.decide(c->container->id(), s->container->id(),
                        [this, alive, pending](Result<orch::TransportDecision> d) {
                          --*pending;
                          if (!alive.expired() && !d.is_ok()) tally_.fail("decide");
                        });
      }
    }
    run_until([pending]() { return *pending == 0; }, 200 * k_millisecond);
  }

  std::size_t pick(std::size_t client) {
    std::size_t p = inputs_.chance(k_hot_share) ? hot_[client][inputs_.below(k_hot_peers)]
                                                : inputs_.below(pool_.size());
    while (stopped_[p]) p = (p + 1) % pool_.size();
    return p;
  }

  void next(std::size_t client) {
    if (issued_ == 0) started_ = env_->loop().now();
    if (issued_ >= k_connections) return;
    ++issued_;
    on_progress();
    const std::size_t peer = pick(client);
    churn_->connect(*clients_[client], *pool_[peer], [this, client]() {
      retire_pending();
      next(client);
    });
  }

  /// Seeded container (and, with nic_faults, NIC) events at fixed
  /// fractions of the work. At HEAD the NIC faults wedge sock_connect calls
  /// in flight when they land (no callback ever fires), so they are off in
  /// the benchmarked workload; perfbench --faults 1 reproduces the wedge.
  void on_progress() {
    const std::uint64_t at = issued_;
    const auto frac = [](double f) { return static_cast<std::uint64_t>(f * k_connections); };
    const SimTime now = env_->loop().now();
    if (nic_faults_ && at == frac(0.25)) {
      rdma_host_ = static_cast<fabric::HostId>(inputs_.below(k_hosts));
      injector_->apply({now, faults::FaultKind::rdma_down, rdma_host_});
    } else if (nic_faults_ && at == frac(0.45)) {
      injector_->apply({now, faults::FaultKind::rdma_up, rdma_host_});
    } else if (nic_faults_ && at == frac(0.6)) {
      faults::FaultPlan plan;
      plan.link_flap(static_cast<fabric::HostId>(inputs_.below(k_hosts)), now,
                     100 * k_microsecond);
      injector_->arm(plan);
    } else if (at == frac(0.35)) {
      for (int k = 0; k < 2; ++k) {
        const std::size_t victim = inputs_.below(pool_.size());
        if (stopped_[victim]) continue;
        stopped_[victim] = true;
        to_stop_.push_back(victim);
      }
      retire_pending();
    } else if (at == frac(0.7)) {
      restart_stopped();
    }
  }

  /// Stops drained victims: no in-flight connection may target them.
  void retire_pending() {
    for (auto it = to_stop_.begin(); it != to_stop_.end();) {
      if (churn_->targeted(pool_[*it]->container->id())) {
        ++it;
        continue;
      }
      env_->stop(*pool_[*it]);
      down_.push_back(*it);
      it = to_stop_.erase(it);
    }
  }

  /// Starts a replacement container for every stopped server slot.
  void restart_stopped() {
    for (std::size_t slot : down_) {
      const fabric::HostId host = pool_[slot]->host();
      pool_[slot] = env_->deploy(name_of("srv-r", host, static_cast<int>(slot)),
                                 k_latency_tenant, host);
      servers_.push_back(
          std::make_unique<RpcServer>(*env_, *pool_[slot], k_data_port, tally_, true, false));
      stopped_[slot] = false;
    }
    down_.clear();
  }

  std::unique_ptr<Env> env_;
  std::vector<NodePtr> pool_, clients_;
  std::vector<std::vector<std::size_t>> hot_;
  std::vector<bool> stopped_;
  std::vector<std::size_t> to_stop_, down_;
  std::vector<std::unique_ptr<RpcServer>> servers_;
  std::unique_ptr<ConnectChurn> churn_;
  std::unique_ptr<faults::FaultInjector> injector_;
  bool nic_faults_;
  std::uint64_t issued_ = 0;
  SimTime started_ = 0;
  fabric::HostId rdma_host_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bulk", "rpc_tenants", "tcp_fallback",
                                                 "connect_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        TraceLog& trace, bool nic_faults) {
  if (name == "bulk") return std::make_unique<Bulk>(seed, trace);
  if (name == "rpc_tenants") return std::make_unique<RpcTenants>(seed, trace);
  if (name == "tcp_fallback") return std::make_unique<TcpFallback>(seed, trace);
  if (name == "connect_churn") {
    return std::make_unique<ConnectChurnWorkload>(seed, trace, nic_faults);
  }
  return nullptr;
}

}  // namespace perfbench
