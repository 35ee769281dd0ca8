#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace nidc::e2e {

namespace {

// Value of header `name` (lowercase) in a raw response head, or "".
std::string HeaderValue(const std::string& head, const std::string& name) {
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t start = pos + 2;
    const size_t end = head.find("\r\n", start);
    const std::string line =
        head.substr(start, end == std::string::npos ? end : end - start);
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon == name.size()) {
      bool match = true;
      for (size_t i = 0; i < colon; ++i) {
        match &= std::tolower(static_cast<unsigned char>(line[i])) == name[i];
      }
      if (match) {
        size_t v = colon + 1;
        while (v < line.size() && line[v] == ' ') ++v;
        return line.substr(v);
      }
    }
    pos = end;
  }
  return "";
}

}  // namespace

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status HttpConnection::Connect() {
  if (fd_ >= 0) return Status::OK();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IOError(std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Status::IOError("connect: " + err);
  }
  return Status::OK();
}

Result<HttpReply> HttpConnection::Send(const std::string& method,
                                       const std::string& target,
                                       const std::string& body,
                                       const std::string& traceparent) {
  NIDC_RETURN_NOT_OK(Connect());
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: localhost\r\n";
  if (!traceparent.empty()) request += "traceparent: " + traceparent + "\r\n";
  if (method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::IOError("send failed");
    }
    sent += static_cast<size_t>(n);
  }

  char chunk[16384];
  const auto fill = [&]() -> bool {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  };
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      Close();
      return Status::IOError("connection closed before a response head");
    }
  }
  const std::string head = buffer_.substr(0, head_end);
  const size_t space = head.find(' ');
  HttpReply reply;
  reply.status = space == std::string::npos
                     ? 0
                     : std::atoi(head.c_str() + space + 1);
  const size_t length =
      std::strtoull(HeaderValue(head, "content-length").c_str(), nullptr, 10);
  while (buffer_.size() < head_end + 4 + length) {
    if (!fill()) {
      Close();
      return Status::IOError("connection closed mid-body");
    }
  }
  reply.body = buffer_.substr(head_end + 4, length);
  buffer_.erase(0, head_end + 4 + length);
  if (HeaderValue(head, "connection") == "close") Close();
  return reply;
}

}  // namespace nidc::e2e
