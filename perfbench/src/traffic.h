// Traffic the workloads are made of, all through the library's socket
// surfaces (ContainerNet::sock_*, stream::StreamNet) and the u32-framed
// record protocol workloads::Gateway speaks:
//   request : [u64 id][u32 resp_bytes] + payload   (payload = pattern of id)
//   response: [u64 id] + resp_bytes of payload     (payload = pattern of id)
// where id = flow << 32 | seq and seq counts 1, 2, ... per flow, so a
// server can check that every flow arrives complete and in order.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "harness.h"
#include "workloads/kv_store.h"
#include "workloads/stream_adapter.h"

namespace perfbench {

/// One connected byte stream over either socket class.
class Pipe : public freeflow::workloads::StreamAdapter {
 public:
  [[nodiscard]] virtual bool writable() const = 0;
  [[nodiscard]] virtual freeflow::orch::Transport transport() const = 0;
  virtual void set_on_close(std::function<void()> cb) = 0;
  virtual void close() = 0;
};

std::shared_ptr<Pipe> make_pipe(freeflow::core::FlowSocketPtr sock);
std::shared_ptr<Pipe> make_pipe(freeflow::stream::StreamSocketPtr sock);

/// Serves the record protocol on a container: verifies each request's
/// payload and per-flow order, answers with the requested payload.
class RpcServer {
 public:
  RpcServer(Env& env, Node& node, std::uint16_t port, Tally& tally, bool flow_sockets,
            bool stream_sockets);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

 private:
  struct Session {
    std::shared_ptr<Pipe> pipe;
    std::unique_ptr<freeflow::workloads::RecordStream> records;
    std::uint64_t last_id = 0;
  };
  void serve(std::shared_ptr<Pipe> pipe);
  void on_request(Session& s, ByteSpan record);

  Env& env_;
  Tally& tally_;
  std::unordered_map<Session*, std::unique_ptr<Session>> sessions_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// One client flow. Requests queue locally while the socket is not
/// writable; each response is matched by id and checked for length and
/// content. Latency runs from the request's due time to its response.
class RpcClient {
 public:
  struct Options {
    bool open_loop = false;        ///< record send lag (due -> socket)
    bool library_pattern = false;  ///< responses carry freeflow::fill_pattern
    bool record_rpc = true;        ///< latencies count toward the rpc metrics
  };
  RpcClient(Env& env, std::shared_ptr<Pipe> pipe, std::uint32_t flow, Tally& tally,
            Options options);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issues one request due at `due` (<= now).
  void request(std::size_t req_bytes, std::size_t resp_bytes, SimTime due);
  /// Fires after every verified response.
  void set_on_response(std::function<void()> cb) { on_response_ = std::move(cb); }

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return pending_.size() + backlog_.size();
  }
  [[nodiscard]] Pipe& pipe() noexcept { return *pipe_; }
  /// Counts every unanswered request as failed (end of run).
  void fail_outstanding(const char* cause);
  void close();

 private:
  struct Pending {
    SimTime due;
    std::size_t resp_bytes;
    Samples* sink;
  };
  struct Queued {
    std::uint64_t id;
    std::size_t req_bytes;
    std::size_t resp_bytes;
    SimTime due;
  };
  void flush();
  void send(const Queued& q);
  void on_response(ByteSpan record);

  Env& env_;
  std::shared_ptr<Pipe> pipe_;
  std::uint32_t flow_;
  Tally& tally_;
  Options options_;
  std::unique_ptr<freeflow::workloads::RecordStream> records_;
  std::uint32_t next_seq_ = 1;
  std::deque<Queued> backlog_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::function<void()> on_response_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Closed loop: every client keeps `depth` requests in flight until the
/// loop's shared budget of requests is issued; faster flows issue more.
class ClosedLoop {
 public:
  using SizeFn = std::function<std::pair<std::size_t, std::size_t>()>;
  ClosedLoop(Env& env, std::vector<RpcClient*> clients, int depth, SizeFn sizes);
  /// Issues `total` more requests across the clients.
  void run(std::uint64_t total);
  /// Issues nothing more; requests in flight still complete.
  void stop() noexcept { to_issue_ = 0; }
  [[nodiscard]] bool done() const noexcept { return in_flight_ == 0 && to_issue_ == 0; }

 private:
  void issue(std::size_t i);

  Env& env_;
  std::vector<RpcClient*> clients_;
  int depth_;
  SizeFn sizes_;
  std::uint64_t to_issue_ = 0;
  std::uint64_t in_flight_ = 0;
};

/// Open loop: Poisson arrivals at a fixed offered rate, spread round-robin
/// over the clients, each request due at its arrival instant.
class OpenLoop {
 public:
  using SizeFn = std::function<std::pair<std::size_t, std::size_t>()>;
  OpenLoop(Env& env, Inputs& inputs, std::vector<RpcClient*> clients, SizeFn sizes);
  ~OpenLoop();

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Offers `count` requests at `per_second` (latencies land wherever
  /// Tally::rpc_sink points while they are sent).
  void start(double per_second, std::uint64_t count);
  [[nodiscard]] bool issued_all() const noexcept { return issued_ >= count_; }
  [[nodiscard]] std::size_t outstanding() const;
  /// Outstanding requests sampled when half the step had been offered.
  [[nodiscard]] std::size_t backlog_at_half() const noexcept { return backlog_half_; }
  [[nodiscard]] std::size_t backlog_at_end() const noexcept { return backlog_end_; }

 private:
  void arrive();

  Env& env_;
  Inputs& inputs_;
  std::vector<RpcClient*> clients_;
  SizeFn sizes_;
  double rate_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t issued_ = 0;
  std::size_t next_client_ = 0;
  std::size_t backlog_half_ = 0;
  std::size_t backlog_end_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Short connections: sock_connect, one request/response, close. Connect
/// latency runs from sock_connect to the verified response.
class ConnectChurn {
 public:
  /// `record_rpc`: the request on each connection counts as an RPC sample.
  ConnectChurn(Env& env, Tally& tally, std::uint16_t port, std::size_t req_bytes,
               std::size_t resp_bytes, bool record_rpc);
  ~ConnectChurn();

  ConnectChurn(const ConnectChurn&) = delete;
  ConnectChurn& operator=(const ConnectChurn&) = delete;

  /// One short connection from `client` to `peer`; `done` runs after close.
  void connect(Node& client, const Node& peer, std::function<void()> done);
  [[nodiscard]] std::size_t in_flight() const noexcept { return live_.size(); }
  /// Containers some in-flight connection targets (stop only the others).
  [[nodiscard]] bool targeted(freeflow::orch::ContainerId id) const;

 private:
  struct Conn {
    std::unique_ptr<RpcClient> client;
    freeflow::orch::ContainerId peer;
    SimTime start;
    std::function<void()> done;
  };
  void finish(std::uint64_t flow);

  Env& env_;
  Tally& tally_;
  std::uint16_t port_;
  std::size_t req_bytes_;
  std::size_t resp_bytes_;
  bool record_rpc_;
  std::uint32_t next_flow_ = 1u << 20;
  std::unordered_map<std::uint64_t, Conn> live_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace perfbench
