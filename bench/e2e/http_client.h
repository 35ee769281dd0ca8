// Blocking HTTP/1.1 keep-alive client over loopback — the load
// generator's only way into the service under test.

#ifndef NIDC_BENCH_E2E_HTTP_CLIENT_H_
#define NIDC_BENCH_E2E_HTTP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "nidc/util/status.h"

namespace nidc::e2e {

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One persistent connection to 127.0.0.1:port. Requests are sent one at
/// a time; the response is read by Content-Length so the socket can carry
/// the next request. A response marked `Connection: close` (or any socket
/// error) leaves the connection closed, and the next Send reconnects.
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and waits for its response. `traceparent` is sent
  /// as the W3C header when non-empty. IOError when the request could not
  /// be sent or no complete response came back.
  Result<HttpReply> Send(const std::string& method,
                         const std::string& target,
                         const std::string& body = "",
                         const std::string& traceparent = "");

  /// Opens the socket now (Send otherwise connects lazily), so the first
  /// timed request does not pay for the handshake.
  Status Connect();

  void Close();

 private:
  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous response
};

}  // namespace nidc::e2e

#endif  // NIDC_BENCH_E2E_HTTP_CLIENT_H_
