#include "nidc/serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_fetch.h"
#include "nidc/obs/metrics.h"

namespace nidc {
namespace {

TEST(HttpServerTest, ServesRegisteredHandler) {
  serve::HttpServer server;
  server.Handle("/hello", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "world";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);
  const FetchResult result = Fetch(server.port(), "/hello");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "world");
  server.Stop();
}

TEST(HttpServerTest, HandlerSeesPathAndQuery) {
  serve::HttpServer server;
  server.Handle("/echo", [](const serve::HttpRequest& request) {
    serve::HttpResponse response;
    response.body = request.method + " " + request.path + " ?" +
                    request.query;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result = Fetch(server.port(), "/echo?n=3&x=y");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.body, "GET /echo ?n=3&x=y");
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404) {
  obs::MetricsRegistry registry;
  serve::HttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result = Fetch(server.port(), "/nope");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 404);
  EXPECT_EQ(registry.GetCounter("serve.not_found")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("serve.requests")->Value(), 1u);
  server.Stop();
}

TEST(HttpServerTest, UnsupportedMethodIs405) {
  serve::HttpServer server;
  server.Handle("/hello", [](const serve::HttpRequest&) {
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result = Fetch(server.port(), "/hello", "PUT");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 405);
  server.Stop();
}

TEST(HttpServerTest, PostDeliversTheBodyToTheHandler) {
  serve::HttpServer server;
  server.Handle("/submit", [](const serve::HttpRequest& request) {
    serve::HttpResponse response;
    response.body = request.method + " got [" + request.body + "]";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result = Post(server.port(), "/submit", "hello body");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "POST got [hello body]");
  // An empty body is fine too.
  const FetchResult empty = Post(server.port(), "/submit", "");
  ASSERT_TRUE(empty.ok);
  EXPECT_EQ(empty.status, 200);
  EXPECT_EQ(empty.body, "POST got []");
  server.Stop();
}

TEST(HttpServerTest, PostWithoutContentLengthIsAnEmptyBody) {
  // RFC 7230 §3.3.3: no Content-Length on a request means a zero-length
  // body (`curl -X POST` control-plane calls look like this). The
  // connection must close afterwards so unframed stray bytes can never
  // be parsed as a pipelined next request.
  serve::HttpServer server;
  std::string seen_body = "unset";
  server.Handle("/submit", [&seen_body](const serve::HttpRequest& request) {
    seen_body = request.body;
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result =
      FetchRaw(server.port(),
               "POST /submit HTTP/1.1\r\nHost: localhost\r\n\r\n");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(seen_body, "");
  server.Stop();
}

TEST(HttpServerTest, PostWithMalformedContentLengthIs411) {
  serve::HttpServer server;
  server.Handle("/submit", [](const serve::HttpRequest&) {
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  const FetchResult result =
      FetchRaw(server.port(),
               "POST /submit HTTP/1.1\r\nHost: localhost\r\n"
               "Content-Length: banana\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 411);
  server.Stop();
}

TEST(HttpServerTest, OversizedPostBodyIs413) {
  serve::HttpServer server;
  bool handler_ran = false;
  server.Handle("/submit", [&handler_ran](const serve::HttpRequest&) {
    handler_ran = true;
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  // The refusal happens on the declared length alone — before any body
  // bytes are buffered — so an over-limit upload costs no memory.
  const FetchResult result = FetchRaw(
      server.port(),
      "POST /submit HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
          std::to_string(serve::kMaxBodyBytes + 1) +
          "\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 413);
  EXPECT_FALSE(handler_ran);
  // A body exactly at the cap is accepted.
  const FetchResult at_cap =
      Post(server.port(), "/submit", std::string(serve::kMaxBodyBytes, 'x'));
  ASSERT_TRUE(at_cap.ok);
  EXPECT_EQ(at_cap.status, 200);
  EXPECT_TRUE(handler_ran);
  server.Stop();
}

TEST(HttpServerTest, TruncatedPostBodyIs400) {
  obs::MetricsRegistry registry;
  serve::HttpServer server(&registry);
  server.Handle("/submit", [](const serve::HttpRequest&) {
    return serve::HttpResponse{};
  });
  ASSERT_TRUE(server.Start(0).ok());
  // Declares 100 bytes but hangs up after 5: the read loop must give up
  // (peer EOF) and reject, not dispatch a short body.
  const FetchResult result =
      FetchRaw(server.port(),
               "POST /submit HTTP/1.1\r\nHost: localhost\r\n"
               "Content-Length: 100\r\nConnection: close\r\n\r\nhello");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 400);
  EXPECT_EQ(registry.GetCounter("serve.bad_requests")->Value(), 1u);
  server.Stop();
}

TEST(HttpServerTest, PortInUseIsAnIOErrorStatus) {
  serve::HttpServer first;
  ASSERT_TRUE(first.Start(0).ok());
  serve::HttpServer second;
  const Status status = second.Start(first.port());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST(HttpServerTest, StartWhileRunningIsFailedPrecondition) {
  serve::HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(server.Start(0).code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  serve::HttpServer server;
  server.Stop();  // no-op before Start
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();  // no-op after Stop
  EXPECT_FALSE(server.running());
  // A stopped server can be started again on a fresh port.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  server.Stop();
}

TEST(HttpServerTest, ConcurrentClientsAllGetAnswers) {
  serve::HttpServer server;
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 5;
  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &successes] {
      for (int i = 0; i < kRequestsEach; ++i) {
        const FetchResult result = Fetch(server.port(), "/ping");
        if (result.ok && result.status == 200 && result.body == "pong") {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(successes.load(), kClients * kRequestsEach);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(kClients * kRequestsEach));
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestIs400) {
  obs::MetricsRegistry registry;
  serve::HttpServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage = "NONSENSE\r\n\r\n";
  ASSERT_GT(::write(fd, garbage.data(), garbage.size()), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_EQ(registry.GetCounter("serve.bad_requests")->Value(), 1u);
  server.Stop();
}

TEST(HttpServerTest, SilentClientTimesOutAndOthersStillServed) {
  serve::HttpServer server;
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  // A client that connects and never sends a byte must not wedge the
  // single-threaded accept loop: its recv timeout expires and the next
  // client is served.
  const int silent = ConnectLoopback(server.port());
  ASSERT_GE(silent, 0);
  const FetchResult result = Fetch(server.port(), "/ping");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.body, "pong");
  ::close(silent);
  server.Stop();
}

TEST(HttpServerTest, PeerHangupMidResponseDoesNotKillServer) {
  serve::HttpServer server;
  // Large enough that the response cannot fit in the socket buffers, so
  // the server is still writing when the peer resets the connection.
  const std::string big(16 << 20, 'x');
  server.Handle("/big", [&big](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = big;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string request =
      "GET /big HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  ASSERT_GT(::write(fd, request.data(), request.size()), 0);
  // Abort the connection with an RST (SO_LINGER 0) without reading the
  // response; the server's send must see EPIPE/ECONNRESET, not SIGPIPE.
  linger hard_close{};
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
  ::close(fd);
  // The process survived iff the next request is answered normally.
  const FetchResult result = Fetch(server.port(), "/big");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body.size(), big.size());
  server.Stop();
}

TEST(HttpServerTest, StopCutsInFlightConnectionLoose) {
  serve::HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int silent = ConnectLoopback(server.port());
  ASSERT_GE(silent, 0);
  // Give the accept loop a moment to pick the connection up so Stop()
  // exercises the in-flight shutdown path rather than the listen socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Well under the 2s socket timeout: Stop() shut the connection down
  // instead of waiting it out.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_FALSE(server.running());
  ::close(silent);
}

TEST(HttpServerTest, KeepAliveServesPipelinedRequestsOnOneConnection) {
  obs::MetricsRegistry registry;
  serve::HttpServer server(&registry);
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  // Three requests up front on one socket; only the last asks to close.
  // The worker must answer all three before hanging up (the leftover
  // buffer carries each pipelined request into the next loop turn).
  const std::string one =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\n\r\n";
  const std::string last =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string wire = one + one + last;
  ASSERT_GT(::write(fd, wire.data(), wire.size()), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t answers = 0;
  for (size_t pos = response.find("HTTP/1.1 200");
       pos != std::string::npos;
       pos = response.find("HTTP/1.1 200", pos + 1)) {
    ++answers;
  }
  EXPECT_EQ(answers, 3u) << response;
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(registry.GetCounter("serve.keepalive_reuses")->Value(), 2u);
  server.Stop();
}

TEST(HttpServerTest, Http10ClientGetsOneResponseAndAPromptClose) {
  serve::HttpServer server;
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const auto t0 = std::chrono::steady_clock::now();
  const FetchResult result =
      FetchRaw(server.port(), "GET /ping HTTP/1.0\r\n\r\n");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "pong");
  // The server closed right after the response instead of keeping the
  // socket open until its 2s receive timeout fired.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  server.Stop();
}

TEST(HttpServerTest, ConnectionCloseEndsAnHttp11Connection) {
  serve::HttpServer server;
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  // An HTTP/1.1 client that asks to close: the server answers with
  // Connection: close and hangs up instead of waiting for a next request.
  const std::string request =
      "GET /ping HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_GT(::write(fd, request.data(), request.size()), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(response.find("Connection: close"), std::string::npos)
      << response;
  EXPECT_NE(response.find("pong"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  server.Stop();
}

TEST(HttpServerTest, ExtraHeadersAreEmitted) {
  serve::HttpServer server;
  server.Handle("/throttled", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.status = 429;
    response.extra_headers.emplace_back("Retry-After", "7");
    response.body = "slow down";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string request =
      "GET /throttled HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_GT(::write(fd, request.data(), request.size()), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("429"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 7"), std::string::npos)
      << response;
  server.Stop();
}

TEST(HttpServerTest, SingleWorkerPoolStillServesEveryClient) {
  serve::HttpServerOptions options;
  options.num_workers = 1;
  serve::HttpServer server(options);
  server.Handle("/ping", [](const serve::HttpRequest&) {
    serve::HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(server.num_workers(), 1u);
  for (int i = 0; i < 6; ++i) {
    const FetchResult result = Fetch(server.port(), "/ping");
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.body, "pong");
  }
  server.Stop();
}

}  // namespace
}  // namespace nidc
