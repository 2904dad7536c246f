#include "traffic.h"

#include <cstring>

#include "common/logging.h"

namespace perfbench {

using namespace freeflow;

namespace {

constexpr std::size_t k_req_header = 8 + 4;  // id + resp_bytes
constexpr std::size_t k_resp_header = 8;     // id

template <typename Sock>
class SocketPipe final : public Pipe {
 public:
  explicit SocketPipe(std::shared_ptr<Sock> sock) : sock_(std::move(sock)) {}

  Status send(Buffer data) override { return sock_->send(std::move(data)); }
  void set_on_data(DataFn cb) override { sock_->set_on_data(std::move(cb)); }
  void set_on_writable(std::function<void()> cb) override {
    sock_->set_on_space(std::move(cb));
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept override {
    return sock_->bytes_sent();
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept override {
    return sock_->bytes_received();
  }
  [[nodiscard]] bool writable() const override { return sock_->writable(); }
  [[nodiscard]] orch::Transport transport() const override { return sock_->transport(); }
  void set_on_close(std::function<void()> cb) override {
    sock_->set_on_close([cb = std::move(cb)](core::CloseReason) { cb(); });
  }
  void close() override {
    if (sock_->is_open()) sock_->close();
  }

 private:
  std::shared_ptr<Sock> sock_;
};

}  // namespace

std::shared_ptr<Pipe> make_pipe(core::FlowSocketPtr sock) {
  return std::make_shared<SocketPipe<core::FlowSocket>>(std::move(sock));
}

std::shared_ptr<Pipe> make_pipe(stream::StreamSocketPtr sock) {
  return std::make_shared<SocketPipe<stream::StreamSocket>>(std::move(sock));
}

// ------------------------------------------------------------ RpcServer

RpcServer::RpcServer(Env& env, Node& node, std::uint16_t port, Tally& tally,
                     bool flow_sockets, bool stream_sockets)
    : env_(env), tally_(tally) {
  std::weak_ptr<bool> alive = alive_;
  if (flow_sockets) {
    TraceLog::Span span(env_.trace(), "ContainerNet::sock_listen");
    FF_CHECK(node.net->sock_listen(port, [this, alive](core::FlowSocketPtr s) {
      if (!alive.expired()) serve(make_pipe(std::move(s)));
    }).is_ok());
  }
  if (stream_sockets) {
    TraceLog::Span span(env_.trace(), "StreamNet::listen");
    FF_CHECK(node.streams != nullptr);
    FF_CHECK(node.streams->listen(port, [this, alive](stream::StreamSocketPtr s) {
      if (!alive.expired()) serve(make_pipe(std::move(s)));
    }).is_ok());
  }
}

RpcServer::~RpcServer() {
  *alive_ = false;
  for (auto& [raw, s] : sessions_) s->pipe->close();
}

void RpcServer::serve(std::shared_ptr<Pipe> pipe) {
  auto session = std::make_unique<Session>();
  Session* raw = session.get();
  session->pipe = std::move(pipe);
  std::weak_ptr<bool> alive = alive_;
  session->records = std::make_unique<workloads::RecordStream>(
      session->pipe, [this, alive, raw](ByteSpan record) {
        if (!alive.expired()) on_request(*raw, record);
      });
  session->pipe->set_on_close([this, alive, raw]() {
    if (alive.expired()) return;
    // Deferred: the close fires from inside the socket's own call chain.
    env_.loop().schedule(0, [this, alive, raw]() {
      if (!alive.expired()) sessions_.erase(raw);
    });
  });
  sessions_.emplace(raw, std::move(session));
}

void RpcServer::on_request(Session& s, ByteSpan record) {
  std::uint64_t id = 0;
  std::uint32_t resp_bytes = 0;
  if (record.size() < k_req_header) {
    tally_.fail("malformed_request");
    return;
  }
  std::memcpy(&id, record.data(), 8);
  std::memcpy(&resp_bytes, record.data() + 8, 4);
  env_.trace().msg_mark(id, env_.loop().now(), "server on_data");
  const ByteSpan payload = record.subspan(k_req_header);
  // Per-flow order: the same flow, next sequence number.
  const bool in_order = s.last_id == 0 ? (id & 0xFFFFFFFFu) == 1 : id == s.last_id + 1;
  if (!in_order) tally_.fail("stream_out_of_order");
  s.last_id = id;
  if (!check_payload(id, payload)) {
    tally_.fail("request_corrupt");
  } else {
    tally_.delivered(s.pipe->transport(), payload.size());
  }
  Buffer resp(k_resp_header + resp_bytes);
  std::memcpy(resp.data(), &id, 8);
  fill_payload(id, MutableByteSpan{resp.data() + k_resp_header, resp_bytes});
  if (!s.records->send_record(resp.view()).is_ok()) tally_.fail("response_send");
}

// ------------------------------------------------------------ RpcClient

RpcClient::RpcClient(Env& env, std::shared_ptr<Pipe> pipe, std::uint32_t flow,
                     Tally& tally, Options options)
    : env_(env), pipe_(std::move(pipe)), flow_(flow), tally_(tally), options_(options) {
  std::weak_ptr<bool> alive = alive_;
  records_ = std::make_unique<workloads::RecordStream>(pipe_, [this, alive](ByteSpan r) {
    if (!alive.expired()) on_response(r);
  });
  pipe_->set_on_writable([this, alive]() {
    if (!alive.expired()) flush();
  });
}

RpcClient::~RpcClient() {
  *alive_ = false;
  pipe_->close();
}

void RpcClient::close() { pipe_->close(); }

void RpcClient::request(std::size_t req_bytes, std::size_t resp_bytes, SimTime due) {
  const std::uint64_t id = (static_cast<std::uint64_t>(flow_) << 32) | next_seq_++;
  ++tally_.attempted;
  env_.trace().msg_begin(id, due, "rpc");
  backlog_.push_back({id, req_bytes, resp_bytes, due});
  flush();
}

void RpcClient::flush() {
  while (!backlog_.empty() && pipe_->writable()) {
    const Queued q = backlog_.front();
    backlog_.pop_front();
    send(q);
  }
}

void RpcClient::send(const Queued& q) {
  const SimTime now = env_.loop().now();
  if (options_.open_loop && tally_.measuring) {
    tally_.send_lag_us.add(static_cast<double>(now - q.due) / 1e3);
  }
  env_.trace().msg_mark(q.id, now, "send");
  Buffer record(k_req_header + q.req_bytes);
  const auto resp = static_cast<std::uint32_t>(q.resp_bytes);
  std::memcpy(record.data(), &q.id, 8);
  std::memcpy(record.data() + 8, &resp, 4);
  fill_payload(q.id, MutableByteSpan{record.data() + k_req_header, q.req_bytes});
  Samples* sink = nullptr;
  if (tally_.measuring && options_.record_rpc) {
    sink = tally_.rpc_sink != nullptr ? tally_.rpc_sink : &tally_.rpc_us;
  }
  pending_.emplace(q.id, Pending{q.due, q.resp_bytes, sink});
  if (!records_->send_record(record.view()).is_ok()) tally_.fail("request_send");
}

void RpcClient::on_response(ByteSpan record) {
  std::uint64_t id = 0;
  if (record.size() < k_resp_header) {
    tally_.fail("malformed_response");
    return;
  }
  std::memcpy(&id, record.data(), 8);
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    tally_.fail("response_unmatched");
    return;
  }
  const Pending p = it->second;
  pending_.erase(it);
  const ByteSpan payload = record.subspan(k_resp_header);
  const bool ok = payload.size() == p.resp_bytes &&
                  (options_.library_pattern ? check_pattern(payload, id)
                                            : check_payload(id, payload));
  const SimTime now = env_.loop().now();
  env_.trace().msg_end(id, now, "rpc");
  if (!ok) {
    tally_.fail("response_corrupt");
  } else {
    tally_.delivered(pipe_->transport(), payload.size());
    if (p.sink != nullptr) {
      p.sink->add(static_cast<double>(now - p.due) / 1e3);
      ++tally_.requests_done;
    }
  }
  if (on_response_) on_response_();
}

void RpcClient::fail_outstanding(const char* cause) {
  if (const std::size_t n = outstanding(); n > 0) tally_.fail(cause, n);
  pending_.clear();
  backlog_.clear();
}

// ------------------------------------------------------------ ClosedLoop

ClosedLoop::ClosedLoop(Env& env, std::vector<RpcClient*> clients, int depth, SizeFn sizes)
    : env_(env), clients_(std::move(clients)), depth_(depth), sizes_(std::move(sizes)) {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->set_on_response([this, i]() {
      --in_flight_;
      issue(i);
    });
  }
}

void ClosedLoop::run(std::uint64_t total) {
  to_issue_ += total;
  for (int k = 0; k < depth_; ++k) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->outstanding() < static_cast<std::size_t>(depth_)) issue(i);
    }
  }
}

void ClosedLoop::issue(std::size_t i) {
  if (to_issue_ == 0) return;
  --to_issue_;
  ++in_flight_;
  const auto [req, resp] = sizes_();
  clients_[i]->request(req, resp, env_.loop().now());
}

// ------------------------------------------------------------ OpenLoop

OpenLoop::OpenLoop(Env& env, Inputs& inputs, std::vector<RpcClient*> clients, SizeFn sizes)
    : env_(env), inputs_(inputs), clients_(std::move(clients)), sizes_(std::move(sizes)) {}

OpenLoop::~OpenLoop() { *alive_ = false; }

void OpenLoop::start(double per_second, std::uint64_t count) {
  rate_ = per_second;
  count_ = count;
  issued_ = 0;
  backlog_half_ = backlog_end_ = 0;
  arrive();
}

std::size_t OpenLoop::outstanding() const {
  std::size_t n = 0;
  for (const RpcClient* c : clients_) n += c->outstanding();
  return n;
}

void OpenLoop::arrive() {
  if (issued_ >= count_) return;
  const auto [req, resp] = sizes_();
  clients_[next_client_]->request(req, resp, env_.loop().now());
  next_client_ = (next_client_ + 1) % clients_.size();
  ++issued_;
  if (issued_ == count_ / 2) backlog_half_ = outstanding();
  if (issued_ == count_) {
    backlog_end_ = outstanding();
    return;
  }
  std::weak_ptr<bool> alive = alive_;
  env_.loop().schedule(inputs_.gap(rate_), [this, alive]() {
    if (!alive.expired()) arrive();
  });
}

// ------------------------------------------------------------ ConnectChurn

ConnectChurn::ConnectChurn(Env& env, Tally& tally, std::uint16_t port,
                           std::size_t req_bytes, std::size_t resp_bytes, bool record_rpc)
    : env_(env),
      tally_(tally),
      port_(port),
      req_bytes_(req_bytes),
      resp_bytes_(resp_bytes),
      record_rpc_(record_rpc) {}

ConnectChurn::~ConnectChurn() { *alive_ = false; }

bool ConnectChurn::targeted(orch::ContainerId id) const {
  for (const auto& [flow, c] : live_) {
    if (c.peer == id) return true;
  }
  return false;
}

void ConnectChurn::connect(Node& client, const Node& peer, std::function<void()> done) {
  const std::uint64_t flow = next_flow_++;
  ++tally_.attempted;  // the connect itself
  live_.emplace(flow, Conn{nullptr, peer.container->id(), env_.loop().now(), std::move(done)});
  std::weak_ptr<bool> alive = alive_;
  TraceLog::Span span(env_.trace(), "ContainerNet::sock_connect");
  client.net->sock_connect(
      peer.ip(), port_, [this, alive, flow](Result<core::FlowSocketPtr> sock) {
        if (alive.expired()) return;
        if (!sock.is_ok()) {
          tally_.fail("connect");
          finish(flow);
          return;
        }
        Conn& c = live_.at(flow);
        c.client = std::make_unique<RpcClient>(env_, make_pipe(*sock),
                                               static_cast<std::uint32_t>(flow), tally_,
                                               RpcClient::Options{.record_rpc = record_rpc_});
        c.client->set_on_response([this, alive, flow]() {
          if (alive.expired()) return;
          auto done_it = live_.find(flow);
          if (tally_.measuring) {
            tally_.connect_us.add(
                static_cast<double>(env_.loop().now() - done_it->second.start) / 1e3);
          }
          // Close and destroy outside the socket's own data callback.
          env_.loop().schedule(0, [this, alive, flow]() {
            if (alive.expired()) return;
            live_.at(flow).client->close();
            finish(flow);
          });
        });
        c.client->request(req_bytes_, resp_bytes_, env_.loop().now());
      });
}

void ConnectChurn::finish(std::uint64_t flow) {
  auto it = live_.find(flow);
  if (it == live_.end()) return;
  auto done = std::move(it->second.done);
  live_.erase(it);
  if (done) done();
}

}  // namespace perfbench
