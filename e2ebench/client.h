// A blocking loopback HTTP/1.1 client connection with its own incremental
// response reader over net::HttpParser (response mode). Unlike
// net::HttpClient, which returns only once a response is complete, the
// reader notes the moment a marker line (the first `"type":"mapping"`
// event, or the `"type":"generation"` acknowledgement) arrives.
#ifndef XSM_E2EBENCH_CLIENT_H_
#define XSM_E2EBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace xsm::e2e {

struct Exchange {
  int status_code = 0;
  std::string body;         ///< de-chunked response body
  size_t wire_bytes = 0;    ///< response bytes as received (framing included)
  double latency_ms = 0;    ///< send → last response byte
  double marker_ms = -1;    ///< send → first body byte of the marker; -1 if absent
};

class LoopbackConnection {
 public:
  LoopbackConnection() = default;
  ~LoopbackConnection();

  LoopbackConnection(const LoopbackConnection&) = delete;
  LoopbackConnection& operator=(const LoopbackConnection&) = delete;

  Status Connect(uint16_t port);

  /// Sends one keep-alive POST and reads its whole response. `marker`
  /// (may be empty) is searched for in the body as it streams in.
  Result<Exchange> Post(const std::string& target, const std::string& body,
                        std::string_view marker);

 private:
  int fd_ = -1;
};

}  // namespace xsm::e2e

#endif  // XSM_E2EBENCH_CLIENT_H_
