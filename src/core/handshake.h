// The connection-open handshake, written once for both socket surfaces:
// ContainerNet (verbs QPs and sockets over the agent's channels) and
// stream::StreamNet (sockets over overlay-TCP connections).
//
// Active side: request_open sends *_connect{port, token} on a fresh
// initiator conduit and waits for the peer's *_accept or *_reject.
//
// Passive side: route_first_frame routes an incoming channel on its first
// frame.
//   *_connect  find the listener; with none, reject and close. Otherwise
//              build the responder conduit, sync_rx, attach, build the
//              endpoint, adopt, accept, and hand it to the listener.
//   rebind     attach the channel to the known conduit it names.
//   bye        the peer tore its conduit down before the channel was
//              routed: reply bye_ack.
//   other      warn and close.
// A surface supplies only its listener tables, conduit ownership and rebind
// bookkeeping, through OpenResponder.
#pragma once

#include <functional>

#include "core/conduit.h"

namespace freeflow::core {

class ContainerNet;

/// Active side: installs the verdict handler on `conduit`, then sends
/// `connect` (cm_connect or sock_connect) with the conduit's service port
/// and token — queued until a channel attaches. On the peer's *_accept
/// `done` gets the conduit; on anything else the conduit closes and `done`
/// gets connection_refused.
void request_open(const ConduitPtr& conduit, VMsg connect,
                  std::function<void(Result<ConduitPtr>)> done);

/// One socket surface's side of the passive handshake.
class OpenResponder {
 public:
  /// Builds the accepted endpoint on its (attached) responder conduit and
  /// returns the call that hands the endpoint to the application's listener.
  using Acceptor = std::function<std::function<void()>(const ConduitPtr&)>;

  virtual ~OpenResponder() = default;

  /// The acceptor listening for `connect` on `port`; empty rejects the open.
  virtual Acceptor acceptor(VMsg connect, std::uint16_t port) = 0;
  /// Takes ownership of an accepted responder conduit riding `channel`.
  virtual void adopt_responder(const ConduitPtr& conduit,
                               const agent::ChannelPtr& channel) = 0;
  /// The conduit a rebind names, or nullptr.
  [[nodiscard]] virtual ConduitPtr rebind_target(std::uint64_t token) const = 0;
  /// Runs after a rebind attached `channel` to its conduit.
  virtual void rebound(std::uint64_t /*token*/, const agent::ChannelPtr& /*channel*/) {}
};

/// An Acceptor for the listener on `port` in `listeners` (port -> accept
/// callback), or empty when nothing listens there. `make` builds and binds
/// the endpoint on the responder conduit.
template <class Listeners, class Make>
OpenResponder::Acceptor listener_acceptor(Listeners& listeners, std::uint16_t port,
                                          Make make) {
  auto it = listeners.find(port);
  if (it == listeners.end()) return nullptr;
  return [&listener = it->second, make](const ConduitPtr& conduit) -> std::function<void()> {
    return [&listener, endpoint = make(conduit)]() { listener(endpoint); };
  };
}

/// Passive side: routes `channel`, opened by container `src` toward `net`'s
/// container, on its first frame `message` (see the file comment).
void route_first_frame(ContainerNet& net, OpenResponder& surface, orch::ContainerId src,
                       agent::ChannelPtr channel, const Buffer& message);

}  // namespace freeflow::core
