#include "core/handshake.h"

#include "common/logging.h"
#include "core/freeflow.h"

namespace freeflow::core {

namespace {

VMsg verdict_for(VMsg connect, bool accepted) {
  if (connect == VMsg::cm_connect) return accepted ? VMsg::cm_accept : VMsg::cm_reject;
  return accepted ? VMsg::sock_accept : VMsg::sock_reject;
}

}  // namespace

void request_open(const ConduitPtr& conduit, VMsg connect,
                  std::function<void(Result<ConduitPtr>)> done) {
  // The conduit owns this handler and the handler holds the conduit: the
  // endpoint's bind() replaces it on accept, close() unhooks it on reject,
  // so no cycle survives the verdict.
  conduit->set_on_message([conduit, accept = verdict_for(connect, true),
                           done = std::move(done)](const WireHeader& h, ByteSpan) {
    if (h.type == accept) {
      done(conduit);
      return;
    }
    conduit->close();
    done(connection_refused("peer rejected the connection on its port"));
  });
  WireHeader h;
  h.type = connect;
  h.port = conduit->service_port();
  h.token = conduit->token();
  conduit->send(h);
}

void route_first_frame(ContainerNet& net, OpenResponder& surface, orch::ContainerId src,
                       agent::ChannelPtr channel, const Buffer& message) {
  auto parsed = parse_message(message.view());
  if (!parsed.is_ok()) {
    FF_LOG(warn, "core") << "bad first message on incoming channel";
    channel->close();
    return;
  }
  const WireHeader& header = parsed->header;
  WireHeader reply;
  reply.token = header.token;
  switch (header.type) {
    case VMsg::cm_connect:
    case VMsg::sock_connect: {
      auto accept = surface.acceptor(header.type, header.port);
      if (!accept) {
        reply.type = verdict_for(header.type, false);
        channel->send(make_message(reply));
        channel->close();  // the reply is already in the lane; unhook and drop
        return;
      }
      auto c = net.freeflow().orchestrator().cluster_orch().container(src);
      auto conduit = std::make_shared<Conduit>(
          header.token, net.id(), src, c ? c->ip() : tcp::Ipv4Addr{}, header.port,
          /*initiator=*/false);
      // The routing tap consumed the peer's first sequenced message.
      conduit->sync_rx(header.seq);
      conduit->attach_channel(channel);
      auto hand_off = accept(conduit);
      surface.adopt_responder(conduit, channel);
      reply.type = verdict_for(header.type, true);
      conduit->send(reply);
      hand_off();
      return;
    }
    case VMsg::rebind: {
      auto conduit = surface.rebind_target(header.token);
      if (conduit == nullptr) {
        FF_LOG(warn, "core") << "rebind for unknown conduit " << header.token;
        channel->close();
        return;
      }
      conduit->attach_channel(channel);
      surface.rebound(header.token, channel);
      return;
    }
    case VMsg::bye:
      // Acknowledge so the peer's close handshake drains immediately.
      reply.type = VMsg::bye_ack;
      channel->send(make_message(reply));
      channel->close();
      return;
    default:
      FF_LOG(warn, "core") << "unexpected first message type "
                           << static_cast<int>(header.type);
      channel->close();
  }
}

}  // namespace freeflow::core
