#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace freeflow {

std::string_view errc_name(Errc code) noexcept {
  switch (code) {
    case Errc::ok: return "ok";
    case Errc::invalid_argument: return "invalid_argument";
    case Errc::not_found: return "not_found";
    case Errc::already_exists: return "already_exists";
    case Errc::permission_denied: return "permission_denied";
    case Errc::resource_exhausted: return "resource_exhausted";
    case Errc::failed_precondition: return "failed_precondition";
    case Errc::unavailable: return "unavailable";
    case Errc::connection_reset: return "connection_reset";
    case Errc::connection_refused: return "connection_refused";
    case Errc::timed_out: return "timed_out";
    case Errc::out_of_range: return "out_of_range";
    case Errc::would_block: return "would_block";
    case Errc::aborted: return "aborted";
    case Errc::unimplemented: return "unimplemented";
    case Errc::internal: return "internal";
  }
  return "unknown";
}

std::string Status::to_string() const {
  if (is_ok()) return "ok";
  std::string out{errc_name(code_)};
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void abort_with(const char* what, const Status& status) {
  // abort() does not flush stdio: without this, everything a process printed
  // to a redirected (fully buffered) stdout before the failure is lost.
  std::fflush(stdout);
  std::fprintf(stderr, "[freeflow fatal] %s (%s)\n", what, status.to_string().c_str());
  std::abort();
}

}  // namespace freeflow
