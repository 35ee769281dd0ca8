#include "nidc/serve/http_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace nidc::serve {

namespace {

// Hard cap on the request head we are willing to buffer; a scraper's GET
// line plus headers fits in a fraction of this.
constexpr size_t kMaxRequestBytes = 8192;

// Accepted connections waiting for a worker before new ones are shed.
constexpr size_t kMaxQueuedConnections = 128;

// SO_RCVTIMEO / SO_SNDTIMEO on accepted sockets, in whole seconds.
constexpr long kSocketTimeoutSeconds = 2;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

// Writes the whole buffer, retrying on EINTR / partial writes; best effort.
// MSG_NOSIGNAL keeps a peer hangup (curl timeout, aborted scrape) as a
// plain EPIPE instead of a process-killing SIGPIPE.
// Returns false once the peer is unreachable.
bool WriteAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET/timeout: peer is gone
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

// Reads into `buffer` until it holds a complete request head (blank line)
// or the size cap. Returns false when the connection died — or went
// silent past the SO_RCVTIMEO set on the accepted socket — before a full
// head arrived.
bool ReadRequestHead(int fd, std::string* buffer) {
  char buf[1024];
  while (buffer->size() < kMaxRequestBytes) {
    if (buffer->find("\r\n\r\n") != std::string::npos ||
        buffer->find("\n\n") != std::string::npos) {
      return true;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // includes EAGAIN/EWOULDBLOCK from the recv timeout
    }
    if (n == 0) return false;
    buffer->append(buf, static_cast<size_t>(n));
  }
  return false;
}

// Offset of the first body byte (one past the blank line ending the
// head), or npos when the head is not yet complete.
size_t BodyOffset(const std::string& raw) {
  const size_t crlf = raw.find("\r\n\r\n");
  const size_t lf = raw.find("\n\n");
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    return crlf + 4;
  }
  if (lf != std::string::npos) return lf + 2;
  return std::string::npos;
}

// The value of header `name` (case-insensitive) in the request head, or
// "" when absent. Values are trimmed of surrounding whitespace.
std::string HeaderValue(const std::string& head, const std::string& name) {
  size_t pos = 0;
  while (pos < head.size()) {
    size_t line_end = head.find('\n', pos);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(pos, line_end - pos);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = line.substr(0, colon);
      for (char& c : key) c = static_cast<char>(std::tolower(c));
      if (key == name) {
        size_t begin = colon + 1;
        while (begin < line.size() &&
               (line[begin] == ' ' || line[begin] == '\t')) {
          ++begin;
        }
        size_t end = line.size();
        while (end > begin &&
               (line[end - 1] == '\r' || line[end - 1] == ' ' ||
                line[end - 1] == '\t')) {
          --end;
        }
        return line.substr(begin, end - begin);
      }
    }
    pos = line_end + 1;
  }
  return "";
}

// The Content-Length header value: -1 when absent, -2 when malformed.
long long ParseContentLength(const std::string& head) {
  const std::string value = HeaderValue(head, "content-length");
  if (value.empty()) return -1;
  char* parse_end = nullptr;
  const long long n = std::strtoll(value.c_str(), &parse_end, 10);
  if (parse_end == value.c_str() || n < 0) return -2;
  return n;
}

// Parses "GET /path?query HTTP/1.1" out of the head's first line;
// `version` receives the trailing protocol token ("HTTP/1.1").
bool ParseRequestLine(const std::string& head, HttpRequest* request,
                      std::string* version) {
  const size_t line_end = head.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const size_t first_space = line.find(' ');
  if (first_space == std::string::npos) return false;
  const size_t second_space = line.find(' ', first_space + 1);
  if (second_space == std::string::npos) return false;
  request->method = line.substr(0, first_space);
  *version = line.substr(second_space + 1);
  std::string target =
      line.substr(first_space + 1, second_space - first_space - 1);
  if (target.empty() || target[0] != '/') return false;
  const size_t question = target.find('?');
  if (question == std::string::npos) {
    request->path = std::move(target);
  } else {
    request->path = target.substr(0, question);
    request->query = target.substr(question + 1);
  }
  return true;
}

}  // namespace

std::optional<std::string> QueryParam(std::string_view query,
                                      std::string_view key) {
  while (!query.empty()) {
    const size_t end = std::min(query.find('&'), query.size());
    const std::string_view pair = query.substr(0, end);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    query.remove_prefix(std::min(end + 1, query.size()));
  }
  return std::nullopt;
}

HttpResponse JsonResponse(int status, std::string json) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(json) + "\n";
  return response;
}

HttpResponse MethodNotAllowed() {
  HttpResponse response;
  response.status = 405;
  response.body = "wrong method for this endpoint\n";
  return response;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kOutOfRange:
      return 429;
    default:
      return 503;  // FailedPrecondition / IOError / Internal
  }
}

HttpServer::HttpServer(obs::MetricsRegistry* metrics)
    : HttpServer(HttpServerOptions{}, metrics) {}

HttpServer::HttpServer(const HttpServerOptions& options,
                       obs::MetricsRegistry* metrics)
    : options_(options), metrics_(metrics) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (metrics_ != nullptr) {
    requests_counter_ = metrics_->GetCounter("serve.requests");
    not_found_counter_ = metrics_->GetCounter("serve.not_found");
    bad_request_counter_ = metrics_->GetCounter("serve.bad_requests");
    keepalive_counter_ = metrics_->GetCounter("serve.keepalive_reuses");
    shed_counter_ = metrics_->GetCounter("serve.connections_shed");
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  if (running_) return;
  handlers_[path] = std::move(handler);
}

Status HttpServer::Start(uint16_t port) {
  if (running_) {
    return Status::FailedPrecondition("server is already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind 127.0.0.1:" + std::to_string(port) + ": " +
                           err);
  }
  if (::listen(fd, /*backlog=*/64) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("getsockname: " + err);
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  running_ = true;
  active_fds_.clear();
  for (size_t i = 0; i < options_.num_workers; ++i) {
    active_fds_.push_back(std::make_unique<std::atomic<int>>(-1));
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblocks the accept() in flight; the loop then observes running_ ==
  // false and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Shed queued connections and wake every worker.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : pending_conns_) ::close(fd);
    pending_conns_.clear();
  }
  queue_cv_.notify_all();
  // Cut in-flight connections loose so no worker waits out its socket
  // timeout before noticing the shutdown.
  for (auto& active : active_fds_) {
    const int fd = active->load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  active_fds_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket shut down (Stop) or unusable
    }
    // Bound both directions so a client that connects and never sends (or
    // never drains its response) occupies a worker for at most the
    // timeout, not forever.
    timeval timeout{};
    timeout.tv_sec = kSocketTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!running_.load(std::memory_order_acquire) ||
          pending_conns_.size() >= kMaxQueuedConnections) {
        // Shed instead of queueing unboundedly; the client sees a reset
        // and retries against a less loaded moment.
        ::close(fd);
        if (shed_counter_ != nullptr) shed_counter_->Increment();
        continue;
      }
      pending_conns_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop(size_t worker_index) {
  std::atomic<int>& active = *active_fds_[worker_index];
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return !running_.load(std::memory_order_acquire) ||
               !pending_conns_.empty();
      });
      if (pending_conns_.empty()) return;  // stopping
      fd = pending_conns_.front();
      pending_conns_.pop_front();
    }
    active.store(fd, std::memory_order_release);
    ServeConnection(fd);
    active.store(-1, std::memory_order_release);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  bool first = true;
  while (ServeOneRequest(fd, &buffer, first)) {
    if (!running_.load(std::memory_order_acquire)) return;
    first = false;
  }
}

bool HttpServer::ServeOneRequest(int fd, std::string* buffer,
                                 bool first_request) {
  HttpRequest request;
  HttpResponse response;
  std::string version = "HTTP/1.1";
  bool dispatch = false;
  bool parsed_head = false;
  // Set when this request leaves unread (or unreadable) bytes on the
  // socket, so the next request's framing cannot be trusted.
  bool force_close = false;
  size_t consumed = 0;

  if (!ReadRequestHead(fd, buffer)) {
    // Nothing (or only a partial head) arrived. An empty buffer is a
    // clean close — the client hung up between requests (or never spoke),
    // which is not an error. Leftover bytes with no complete head are.
    if (buffer->empty() || first_request) {
      if (!buffer->empty()) {
        response.status = 400;
        response.body = "malformed request\n";
        if (bad_request_counter_ != nullptr) {
          bad_request_counter_->Increment();
        }
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        if (requests_counter_ != nullptr) requests_counter_->Increment();
        std::string out = "HTTP/1.1 400 Bad Request\r\n"
                          "Content-Type: text/plain; charset=utf-8\r\n"
                          "Content-Length: " +
                          std::to_string(response.body.size()) +
                          "\r\nConnection: close\r\n\r\n" + response.body;
        WriteAll(fd, out);
      }
      return false;
    }
    return false;
  }

  const size_t body_offset = BodyOffset(*buffer);
  const std::string head = buffer->substr(0, body_offset);
  parsed_head = ParseRequestLine(head, &request, &version);
  if (parsed_head) request.traceparent = HeaderValue(head, "traceparent");

  if (!parsed_head) {
    response.status = 400;
    response.body = "malformed request\n";
    if (bad_request_counter_ != nullptr) bad_request_counter_->Increment();
    consumed = buffer->size();
  } else if (request.method != "GET" && request.method != "POST") {
    response.status = 405;
    response.body = "only GET and POST are supported\n";
    consumed = body_offset;
    force_close = true;  // an unread body of the odd method may follow
  } else if (request.method == "POST") {
    const long long length = ParseContentLength(head);
    if (length == -1) {
      // Absent Content-Length means an empty body (RFC 7230 §3.3.3) —
      // control-plane POSTs from `curl -X POST` look like this. Close
      // afterwards: if the client did send unframed body bytes, they
      // must not be parsed as the next pipelined request.
      consumed = body_offset;
      force_close = true;
      dispatch = true;
    } else if (length < 0) {
      response.status = 411;
      response.body = "POST requires a valid Content-Length\n";
      consumed = body_offset;
      force_close = true;  // body length unknown; cannot re-frame
    } else if (static_cast<size_t>(length) > kMaxBodyBytes) {
      // Refuse before buffering: the connection is closed after the
      // response, so the unread remainder is simply discarded.
      response.status = 413;
      response.body = "body exceeds " + std::to_string(kMaxBodyBytes) +
                      " bytes\n";
      consumed = buffer->size();
      force_close = true;
    } else {
      while (buffer->size() - body_offset < static_cast<size_t>(length)) {
        char buf[1024];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;  // hangup or recv timeout mid-body
        buffer->append(buf, static_cast<size_t>(n));
      }
      if (buffer->size() - body_offset < static_cast<size_t>(length)) {
        response.status = 400;
        response.body = "truncated request body\n";
        if (bad_request_counter_ != nullptr) {
          bad_request_counter_->Increment();
        }
        consumed = buffer->size();
      } else {
        request.body =
            buffer->substr(body_offset, static_cast<size_t>(length));
        consumed = body_offset + static_cast<size_t>(length);
        dispatch = true;
      }
    }
  } else {
    consumed = body_offset;
    dispatch = true;
  }

  if (dispatch) {
    if (auto it = handlers_.find(request.path); it != handlers_.end()) {
      response = it->second(request);
    } else {
      response.status = 404;
      response.body = "no handler for " + request.path + "\n";
      if (not_found_counter_ != nullptr) not_found_counter_->Increment();
    }
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (requests_counter_ != nullptr) requests_counter_->Increment();
  // Every answered request after a connection's first rode keep-alive
  // there, including one that asks to close afterwards.
  if (!first_request && keepalive_counter_ != nullptr) {
    keepalive_counter_->Increment();
  }

  // Keep the connection when the client speaks HTTP/1.1, did not ask to
  // close, and the request was well-formed enough that the framing of the
  // next request is trustworthy.
  std::string connection_header = HeaderValue(head, "connection");
  for (char& c : connection_header) c = static_cast<char>(std::tolower(c));
  const bool keep = parsed_head && !force_close && response.status != 400 &&
                    version == "HTTP/1.1" && connection_header != "close";

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
  out += response.body;
  const bool wrote = WriteAll(fd, out);

  buffer->erase(0, consumed);
  return keep && wrote;
}

}  // namespace nidc::serve
