#include "core/socket.h"

#include <algorithm>

namespace freeflow::core {

FlowSocket::FlowSocket(ConduitPtr conduit, telemetry::Counter* rx_rdma_bytes,
                       telemetry::Counter* rx_tcp_bytes)
    : conduit_(std::move(conduit)) {
  if (rx_rdma_bytes != nullptr) ctr_rx_rdma_ = rx_rdma_bytes;
  if (rx_tcp_bytes != nullptr) ctr_rx_tcp_ = rx_tcp_bytes;
}

void FlowSocket::bind() {
  auto self = weak_from_this();
  conduit_->set_on_message([self](const WireHeader& h, ByteSpan payload) {
    if (auto sock = self.lock()) sock->handle_message(h, payload);
  });
  conduit_->set_on_closed([self](CloseReason reason) {
    auto sock = self.lock();
    if (sock == nullptr) return;
    sock->open_ = false;
    // Move the handler out first: it fires at most once, even if the
    // conduit close races a sock_fin already seen by handle_message.
    auto handler = std::move(sock->on_close_);
    sock->release_callbacks();
    if (handler) handler(reason);
  });
}

void FlowSocket::release_callbacks() noexcept {
  on_data_ = nullptr;
  on_close_ = nullptr;
  on_control_ = nullptr;
}

Status FlowSocket::send(Buffer data) {
  if (!open_) return failed_precondition("socket closed");
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t n = std::min(k_chunk, data.size() - offset);
    WireHeader h;
    h.type = VMsg::sock_data;
    conduit_->send(h, ByteSpan{data.data() + offset, n});
    offset += n;
  }
  bytes_sent_ += data.size();
  return ok_status();
}

void FlowSocket::close() {
  if (!open_) return;
  WireHeader h;
  h.type = VMsg::sock_fin;
  conduit_->send(h);
  open_ = false;
  on_data_ = nullptr;
  on_control_ = nullptr;
  // The fin is queued ahead of the conduit's bye, so the peer sees an
  // orderly close before its side of the conduit is torn down. on_close_
  // stays armed: it reports the handshake's outcome (app_close once the
  // peer acks the bye, drain_timeout if it never does).
  conduit_->close();
}

void FlowSocket::handle_message(const WireHeader& h, ByteSpan payload) {
  switch (h.type) {
    case VMsg::sock_data:
      bytes_received_ += payload.size();
      // Split by the transport this chunk actually arrived on — the channel
      // currently attached is the one that just delivered it.
      if (conduit_->transport() == orch::Transport::rdma) {
        bytes_rdma_ += payload.size();
        ctr_rx_rdma_->inc(payload.size());
      } else {
        bytes_tcp_ += payload.size();
        ctr_rx_tcp_->inc(payload.size());
      }
      if (on_data_) on_data_(Buffer(payload.data(), payload.size()));
      return;
    case VMsg::sock_fin: {
      open_ = false;
      // Copy: the handler may reset callbacks or drop this socket.
      auto handler = on_close_;
      if (handler) handler(CloseReason::peer_bye);
      release_callbacks();
      return;
    }
    case VMsg::rc_offer:
    case VMsg::rc_answer:
      if (on_control_) on_control_(h);
      return;
    default:
      break;  // handshake leftovers are ignored
  }
}

}  // namespace freeflow::core
