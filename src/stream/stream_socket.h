// StreamSocket: the stream adapter's application-facing byte stream. It is a
// core::FlowSocket — same send / on_data / on_space / on_close — whose
// conduit StreamNet binds and splices between the overlay-TCP fallback and a
// per-stream RDMA RC channel at runtime; the unmodified socket app never
// observes the transport changing. StreamNet installs the socket's control
// tap (the RC upgrade handshake) and its per-transport rx byte counters.
//
// A distinct type, so code can tell the two socket surfaces apart (e.g. by
// overloading on the pointer type); it adds no state or behaviour.
#pragma once

#include <memory>

#include "core/socket.h"

namespace freeflow::stream {

class StreamSocket final : public core::FlowSocket {
 public:
  using FlowSocket::FlowSocket;
};

using StreamSocketPtr = std::shared_ptr<StreamSocket>;

}  // namespace freeflow::stream
