// Test helper: a minimal blocking HTTP/1.1 client for servers listening on
// the loopback interface. One request per connection; the client
// half-closes its write side and reads the response to EOF.

#ifndef NIDC_TESTS_HTTP_FETCH_H_
#define NIDC_TESTS_HTTP_FETCH_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace nidc {

struct FetchResult {
  bool ok = false;
  int status = 0;
  std::string headers;  // raw header block, status line included
  std::string body;
};

/// Connects to 127.0.0.1:`port`; returns the socket, or -1.
inline int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` verbatim and parses the response. The write side is
/// shut down after the request, so a server waiting for more body bytes
/// sees the hangup at once instead of waiting out its receive timeout.
inline FetchResult FetchRaw(uint16_t port, const std::string& request) {
  FetchResult result;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return result;
  (void)!::write(fd, request.data(), request.size());
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t space = response.find(' ');
  if (space == std::string::npos) return result;
  result.status = std::atoi(response.c_str() + space + 1);
  const size_t body_start = response.find("\r\n\r\n");
  if (body_start != std::string::npos) {
    result.headers = response.substr(0, body_start);
    result.body = response.substr(body_start + 4);
  }
  result.ok = true;
  return result;
}

/// One `method` request for `target` with Connection: close. A POST, or
/// any request with a body, carries Content-Length. `headers` holds extra
/// header lines, each ending in "\r\n".
inline FetchResult Request(uint16_t port, const std::string& method,
                           const std::string& target,
                           const std::string& body = "",
                           const std::string& headers = "") {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: localhost\r\nConnection: close\r\n" + headers;
  if (!body.empty() || method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  return FetchRaw(port, request);
}

inline FetchResult Fetch(uint16_t port, const std::string& target,
                         const std::string& method = "GET") {
  return Request(port, method, target);
}

inline FetchResult Post(uint16_t port, const std::string& target,
                        const std::string& body = "") {
  return Request(port, "POST", target, body);
}

}  // namespace nidc

#endif  // NIDC_TESTS_HTTP_FETCH_H_
