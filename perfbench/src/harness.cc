#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>

#include "common/histogram.h"
#include "common/logging.h"

// ---- counting global operator new (sim.allocs_per_event) -----------------

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
  if (p == nullptr) std::abort();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

using namespace freeflow;

// ------------------------------------------------------------ host clocks

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

std::uint64_t allocs_total() { return g_allocs; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ inputs

SimDuration Inputs::gap(double per_second) {
  const double ns = rng_.exponential(1e9 / per_second);
  return static_cast<SimDuration>(note(static_cast<std::uint64_t>(ns) + 1));
}

std::size_t Inputs::log_uniform(std::size_t lo, std::size_t hi) {
  const double span = std::log(static_cast<double>(hi) / static_cast<double>(lo));
  const double v = static_cast<double>(lo) * std::exp(rng_.next_double() * span);
  return static_cast<std::size_t>(
      note(std::clamp<std::uint64_t>(static_cast<std::uint64_t>(v), lo, hi)));
}

// ------------------------------------------------------------ payloads

namespace {
inline std::uint64_t payload_word(std::uint64_t key, std::uint64_t i) {
  std::uint64_t z = key + (i + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

void fill_payload(std::uint64_t key, MutableByteSpan out) {
  const std::size_t words = out.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = payload_word(key, i);
    std::memcpy(out.data() + i * 8, &w, 8);
  }
  if (const std::size_t tail = out.size() % 8; tail != 0) {
    const std::uint64_t w = payload_word(key, words);
    std::memcpy(out.data() + words * 8, &w, tail);
  }
}

bool check_payload(std::uint64_t key, ByteSpan in) {
  const std::size_t words = in.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = payload_word(key, i);
    if (std::memcmp(in.data() + i * 8, &w, 8) != 0) return false;
  }
  if (const std::size_t tail = in.size() % 8; tail != 0) {
    const std::uint64_t w = payload_word(key, words);
    if (std::memcmp(in.data() + words * 8, &w, tail) != 0) return false;
  }
  return true;
}

// ------------------------------------------------------------ samples

double Samples::quantile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

// ------------------------------------------------------------ trace log

TraceLog::TraceLog(bool on) : on_(on), origin_(std::chrono::steady_clock::now()) {}

double TraceLog::host_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin_)
      .count();
}

TraceLog::Span::Span(TraceLog& log, const char* name) : log_(log), name_(name) {
  if (!log_.on_) return;
  std::string args = "{\"parent\":\"";
  args += log_.stack_.empty() ? "run" : log_.stack_.back();
  args += "\"}";
  log_.events_.push_back({'B', 1, 1, log_.host_us(), name_, std::move(args)});
  log_.stack_.push_back(name_);
  ++log_.host_spans_;
}

TraceLog::Span::~Span() {
  if (!log_.on_) return;
  log_.stack_.pop_back();
  log_.events_.push_back({'E', 1, 1, log_.host_us(), name_, {}});
}

void TraceLog::phase_snapshot(const std::string& phase, const std::string& args_json) {
  if (!on_) return;
  events_.push_back({'i', 1, 1, host_us(), "counters:" + phase, args_json});
  ++snapshots_;
}

std::uint64_t TraceLog::row_of(std::uint64_t req) {
  auto [it, fresh] = rows_.emplace(req, rows_.size() + 1);
  (void)fresh;
  return it->second;
}

void TraceLog::msg_begin(std::uint64_t req, SimTime t, const char* name) {
  if (!sampled(req)) return;
  events_.push_back({'B', 2, row_of(req), static_cast<double>(t) / 1e3, name,
                     "{\"req\":" + std::to_string(req) + "}"});
  ++msg_spans_;
}

void TraceLog::msg_mark(std::uint64_t req, SimTime t, const char* name) {
  if (!sampled(req)) return;
  events_.push_back({'i', 2, row_of(req), static_cast<double>(t) / 1e3, name,
                     "{\"req\":" + std::to_string(req) + "}"});
}

void TraceLog::msg_end(std::uint64_t req, SimTime t, const char* name) {
  if (!sampled(req)) return;
  events_.push_back({'E', 2, row_of(req), static_cast<double>(t) / 1e3, name, {}});
}

void TraceLog::clear() {
  events_.clear();
  rows_.clear();
  host_spans_ = msg_spans_ = snapshots_ = 0;
}

bool TraceLog::write(const std::string& path) const {
  // One global time order (the two clocks share the axis; each pid keeps
  // its own row order because every row was recorded in time order).
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const auto& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) { return a->ts_us < b->ts_us; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"host clock (benchmark calls)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":2,\"tid\":0,"
               "\"args\":{\"name\":\"virtual clock (sampled messages)\"}}");
  for (const Event* e : order) {
    std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"%c\",\"ts\":%.3f,"
                 "\"pid\":%u,\"tid\":%llu",
                 e->name.c_str(), e->ph, e->ts_us, e->pid,
                 static_cast<unsigned long long>(e->tid));
    if (e->ph == 'i') std::fprintf(f, ",\"s\":\"t\"");
    if (!e->args.empty()) std::fprintf(f, ",\"args\":%s", e->args.c_str());
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------ deployment

Env::Env(int hosts, fabric::NicCapabilities caps, agent::AgentConfig config,
         TraceLog& trace)
    : hosts_(hosts),
      trace_(trace),
      overlay_(cluster_, tcp::Subnet{tcp::Ipv4Addr(10, 244, 0, 0), 16}),
      attached_(static_cast<std::size_t>(hosts), false) {
  TraceLog::Span span(trace_, "Cluster::build");
  // The library's own tracer stays off: the benchmark's trace is the one
  // written, and traced and untraced runs must do the same library work.
  cluster_.telemetry().tracer().set_enabled(false);
  cluster_.add_hosts(hosts, "host", caps);
  for (int h = 0; h < hosts; ++h) overlay_.attach_host(static_cast<fabric::HostId>(h));
  cluster_orch_ = std::make_unique<orch::ClusterOrchestrator>(cluster_, overlay_);
  net_orch_ = std::make_unique<orch::NetworkOrchestrator>(*cluster_orch_);
  ff_ = std::make_unique<core::FreeFlow>(*net_orch_, config);
}

Env::~Env() = default;

NodePtr Env::deploy(const std::string& name, orch::TenantId tenant, fabric::HostId host) {
  auto node = std::make_shared<Node>();
  {
    TraceLog::Span span(trace_, "ClusterOrchestrator::deploy");
    const double t0 = cpu_now_s();
    orch::ContainerSpec spec;
    spec.name = name;
    spec.tenant = tenant;
    spec.pinned_host = host;
    auto c = cluster_orch_->deploy(std::move(spec));
    FF_CHECK(c.is_ok());
    node->container = c.value();
    deploy_s += cpu_now_s() - t0;
    ++deploys;
  }
  {
    TraceLog::Span span(trace_, "FreeFlow::attach");
    const double t0 = cpu_now_s();
    auto net = ff_->attach(node->container->id());
    FF_CHECK(net.is_ok());
    node->net = net.value();
    attach_s += cpu_now_s() - t0;
    ++attaches;
  }
  attached_[static_cast<std::size_t>(host)] = true;
  return node;
}

void Env::with_streams(Node& node) {
  TraceLog::Span span(trace_, "StreamNet::make");
  node.streams = stream::StreamNet::make(node.net);
}

void Env::stop(const Node& node) {
  TraceLog::Span span(trace_, "ClusterOrchestrator::stop");
  FF_CHECK(cluster_orch_->stop(node.container->id()).is_ok());
}

void Env::converge() {
  TraceLog::Span span(trace_, "EventLoop::run");
  const double t0 = cpu_now_s();
  loop().run();
  converge_s += cpu_now_s() - t0;
}

void Env::audit_isolation(Tally& tally, orch::TenantId a, orch::TenantId b) {
  TraceLog::Span span(trace_, "RegionRegistry::attach(cross-tenant probe)");
  auto& registry = ff_->agents().agent_on(0).shm_registry();
  auto region = registry.create(a, 4096);
  FF_CHECK(region.is_ok());
  tally.attempted += 1;
  if (registry.attach((*region)->id(), b).is_ok()) tally.fail("cross_tenant_attach");
  FF_CHECK(registry.destroy((*region)->id()).is_ok());
  for (int h = 0; h < hosts_; ++h) {
    if (!attached(h)) continue;
    const auto foreign =
        ff_->agents().agent_on(static_cast<fabric::HostId>(h)).shm_registry().foreign_attaches();
    if (foreign != 0) tally.fail("cross_tenant_attach", foreign);
  }
}

// ------------------------------------------------------------ layers

namespace {

/// Replaces numeric path segments ("17", "c42") with '*', so per-entity
/// counters fold into one family per metric.
std::string family_of(const std::string& name) {
  std::string out;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t end = name.find('/', start);
    if (end == std::string::npos) end = name.size();
    std::string seg = name.substr(start, end - start);
    const std::size_t digits_from = (!seg.empty() && seg[0] == 'c') ? 1 : 0;
    const bool numeric =
        seg.size() > digits_from &&
        std::all_of(seg.begin() + static_cast<std::ptrdiff_t>(digits_from), seg.end(),
                    [](char ch) { return ch >= '0' && ch <= '9'; });
    if (!out.empty()) out += '/';
    out += numeric ? "*" : seg;
    start = end + 1;
  }
  return out;
}

/// Parses one flat {"name":number,...} section of snapshot_json().
void sum_section(const std::string& json, const std::string& section,
                 std::map<std::string, double>& out) {
  const std::string key = "\"" + section + "\":{";
  std::size_t pos = json.find(key);
  if (pos == std::string::npos) return;
  pos += key.size();
  while (pos < json.size() && json[pos] == '"') {
    const std::size_t name_end = json.find('"', pos + 1);
    const std::string name = json.substr(pos + 1, name_end - pos - 1);
    const std::size_t num_start = name_end + 2;  // skip '":'
    char* num_end = nullptr;
    const double v = std::strtod(json.c_str() + num_start, &num_end);
    out[family_of(name)] += v;
    pos = static_cast<std::size_t>(num_end - json.c_str());
    if (json[pos] == ',') ++pos;
  }
}

}  // namespace

LayerProbe::LayerProbe(Env& env) : env_(env) {}

std::map<std::string, double> LayerProbe::families(Env& env) {
  TraceLog::Span span(env.trace(), "MetricRegistry::snapshot_json");
  std::map<std::string, double> out;
  const std::string json = env.cluster().telemetry().metrics().snapshot_json();
  sum_section(json, "counters", out);
  return out;
}

std::string LayerProbe::families_json(Env& env) {
  std::string out = "{\"sim_events\":" + std::to_string(env.loop().events_executed()) +
                    ",\"allocs\":" + std::to_string(allocs_total());
  for (const auto& [name, v] : families(env)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += ",\"" + name + "\":" + buf;
  }
  return out + "}";
}

LayerProbe::Raw LayerProbe::take() {
  TraceLog::Span span(env_.trace(), "Resource/Nic/Agent/TransportSelector accessors");
  Raw r;
  r.now = env_.loop().now();
  r.events = env_.loop().events_executed();
  r.allocs = allocs_total();
  auto& cluster = env_.cluster();
  for (int h = 0; h < env_.hosts(); ++h) {
    auto& host = cluster.host(static_cast<fabric::HostId>(h));
    r.cpu.push_back(host.cpu().busy_ns_total());
    r.tx.push_back(host.nic().tx_link().busy_ns_total());
    r.proc.push_back(host.nic().processor().busy_ns_total());
    r.membus.push_back(host.membus().busy_ns_total());
    r.drops += host.nic().dropped_packets();
    if (auto* router = env_.overlay().router(static_cast<fabric::HostId>(h))) {
      r.router += router->account().busy_ns;
    }
    if (!env_.attached(h)) continue;
    auto& agent = env_.ff().agents().agent_on(static_cast<fabric::HostId>(h));
    r.agent += agent.account().busy_ns;
    r.records += agent.records_relayed();
    const auto& sel = env_.ff().selector_on(static_cast<fabric::HostId>(h));
    r.hits += sel.cache_hits();
    r.misses += sel.cache_misses();
  }
  r.rpcs = env_.ff().control_plane().shard_rpcs();
  r.fwd = env_.ff().control_plane().cross_shard_forwards();
  r.families = families(env_);
  return r;
}

void LayerProbe::begin() { start_ = take(); }

void LayerProbe::end() {
  const Raw e = take();
  Reading& d = delta_;
  d = Reading{};
  d.elapsed = e.now - start_.now;
  d.events = e.events - start_.events;
  d.allocs = e.allocs - start_.allocs;
  const double span = static_cast<double>(std::max<SimDuration>(d.elapsed, 1));
  auto& cluster = env_.cluster();
  for (std::size_t h = 0; h < e.cpu.size(); ++h) {
    auto& host = cluster.host(static_cast<fabric::HostId>(h));
    const double cpu = e.cpu[h] - start_.cpu[h];
    d.cpu_busy_ns += cpu;
    d.cpu_cores += cpu / span;
    d.nic_tx_util_max = std::max(d.nic_tx_util_max, (e.tx[h] - start_.tx[h]) / span);
    d.nic_proc_util_max = std::max(
        d.nic_proc_util_max, (e.proc[h] - start_.proc[h]) /
                                 (span * static_cast<double>(host.nic().processor().servers())));
    d.membus_util_max = std::max(
        d.membus_util_max, (e.membus[h] - start_.membus[h]) /
                               (span * static_cast<double>(host.membus().servers())));
  }
  d.router_busy_ns = e.router - start_.router;
  d.agent_busy_ns = e.agent - start_.agent;
  d.records_relayed = e.records - start_.records;
  d.drops = e.drops - start_.drops;
  d.selector_hits = e.hits - start_.hits;
  d.selector_misses = e.misses - start_.misses;
  d.shard_rpcs = e.rpcs - start_.rpcs;
  d.cross_shard_forwards = e.fwd - start_.fwd;
  for (const auto& [name, v] : e.families) {
    const auto it = start_.families.find(name);
    d.families[name] = v - (it == start_.families.end() ? 0.0 : it->second);
  }
}

double trunk_setup_p99_us(Env& env) {
  Histogram all;
  const auto& metrics = env.cluster().telemetry().metrics();
  for (int h = 0; h < env.hosts(); ++h) {
    if (const Histogram* hist = metrics.find_histogram(
            "agent/" + std::to_string(h) + "/trunk/setup_latency_ns")) {
      all.merge(*hist);
    }
  }
  return static_cast<double>(all.p99()) / 1e3;
}

}  // namespace perfbench
