// Dependency-free embedded HTTP/1.1 server for live introspection and
// the sharded ingest front door.
//
// Design: one accept thread hands connections to a fixed-size pool of
// connection workers over a bounded queue (overflow connections are
// closed immediately — the kernel backlog plus the queue bound the
// server's memory). Each worker serves its connection with HTTP/1.1
// keep-alive: requests are answered on the same socket until the client
// sends `Connection: close`, speaks HTTP/1.0, goes silent past the
// socket timeout, or errors. Still deliberately minimal — GET and POST
// only, no TLS, bound to 127.0.0.1 only.
//
// Hardening invariants (regression-tested since the single-threaded
// version): MSG_NOSIGNAL on every send, SO_RCVTIMEO/SO_SNDTIMEO on every
// accepted socket so silent or stalled peers cannot wedge a worker
// forever, and Stop() shuts down queued and in-flight connections so
// shutdown never waits out a socket timeout.
//
// POST bodies require a Content-Length header (411 without one) and are
// bounded: anything longer than kMaxBodyBytes is answered 413 without
// being buffered. The method is dispatched to the same per-path handler
// table as GET; handlers that only make sense for one method check
// HttpRequest::method and answer MethodNotAllowed() themselves.
//
// Handlers are registered per exact path before Start and run on the
// connection workers — concurrently with each other and with the
// pipeline — so they must only touch internally-synchronized state (the
// obs-layer sources all are). Start with port 0 binds an ephemeral port,
// reported by port().

#ifndef NIDC_SERVE_HTTP_SERVER_H_
#define NIDC_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "nidc/obs/metrics.h"
#include "nidc/util/status.h"

namespace nidc::serve {

/// Request bodies larger than this are refused with 413.
inline constexpr size_t kMaxBodyBytes = 1 << 16;

/// The parsed request line (and, for POST, body) of one incoming request.
struct HttpRequest {
  std::string method;  ///< "GET" or "POST" (anything else is answered 405).
  std::string path;    ///< Path component, without the query string.
  std::string query;   ///< Raw query string ("" when absent).
  std::string body;    ///< POST body ("" for GET).
  /// Raw `traceparent` header value ("" when absent) — the W3C trace
  /// context the ingest front door propagates (see obs/reqtrace.h).
  std::string traceparent;
};

/// What a handler returns; the server adds the status line and framing
/// headers (Content-Length, Connection).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Additional response headers, e.g. {"Retry-After", "1"} on a 429.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The raw value of `key` in a query string ("a=1&key=v"), or nullopt
/// when the key is absent. Values are returned verbatim: nothing served
/// here takes a value that needs percent-escapes.
std::optional<std::string> QueryParam(std::string_view query,
                                      std::string_view key);

/// A JSON body (`json` plus a newline) with `status`.
HttpResponse JsonResponse(int status, std::string json);

/// The 405 a handler answers to a method it does not serve.
HttpResponse MethodNotAllowed();

/// Maps a Status to the HTTP status a handler answers with
/// (InvalidArgument → 400, NotFound → 404, AlreadyExists → 409,
/// OutOfRange → 429, anything else failing → 503).
int HttpStatusFor(const Status& status);

/// The size of the worker pool; the default matches the introspection
/// workload (a few concurrent scrapers plus operator curls). An HTTP/1.1
/// connection always stays open across requests until the client sends
/// `Connection: close`; an HTTP/1.0 one closes after each response.
struct HttpServerOptions {
  /// Connection worker threads.
  size_t num_workers = 4;
};

/// The embedded server. Start/Stop are idempotent; the destructor stops.
/// When `metrics` is supplied, the server publishes `serve.requests`,
/// `serve.not_found`, `serve.bad_requests`, `serve.keepalive_reuses` and
/// `serve.connections_shed` counters.
class HttpServer {
 public:
  explicit HttpServer(obs::MetricsRegistry* metrics = nullptr);
  HttpServer(const HttpServerOptions& options,
             obs::MetricsRegistry* metrics = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers the handler for an exact path (e.g. "/statusz"). Must be
  /// called before Start; later registrations are ignored.
  void Handle(const std::string& path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept thread
  /// plus the worker pool. A port already in use — or any other
  /// socket-layer failure — returns IOError; calling Start while running
  /// returns FailedPrecondition.
  Status Start(uint16_t port);

  /// Sheds queued connections, cuts in-flight ones loose, joins workers
  /// and the accept thread. Safe to call repeatedly and without a prior
  /// successful Start.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (meaningful while running; resolves port 0 binds).
  uint16_t port() const { return port_; }

  size_t num_workers() const { return options_.num_workers; }

  /// Requests answered since construction (any status).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop(size_t worker_index);
  /// Serves requests on `fd` until close/error/timeout (keep-alive loop).
  void ServeConnection(int fd);
  /// Reads, dispatches and answers one request. `buffer` carries bytes
  /// left over from the previous request on this connection. Returns
  /// false when the connection must close afterwards.
  bool ServeOneRequest(int fd, std::string* buffer, bool first_request);

  HttpServerOptions options_;
  std::map<std::string, HttpHandler> handlers_;
  obs::MetricsRegistry* const metrics_;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* not_found_counter_ = nullptr;
  obs::Counter* bad_request_counter_ = nullptr;
  obs::Counter* keepalive_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::atomic<uint64_t> requests_served_{0};

  // Accept → worker handoff.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_conns_;
  std::vector<std::thread> workers_;
  // Each worker's in-flight connection (-1 when idle); lets Stop() cut
  // them loose instead of waiting out socket timeouts.
  std::vector<std::unique_ptr<std::atomic<int>>> active_fds_;
};

}  // namespace nidc::serve

#endif  // NIDC_SERVE_HTTP_SERVER_H_
