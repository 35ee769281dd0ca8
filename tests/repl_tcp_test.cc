// Socket-level replication tests: a real leader (DurableClusterer +
// WalShipper + ReplListener) streaming to a real follower (ReplicaClusterer
// + TcpReplClient) over loopback TCP. Frame pumping, reconnect handshakes
// and heartbeats all run on their production threads here, so this file is
// also the ThreadSanitizer workload for the repl/ subsystem.

#include "nidc/repl/tcp.h"

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "nidc/core/state_io.h"
#include "nidc/store/torture.h"
#include "temp_path.h"

namespace nidc {
namespace {

std::string FreshDir(const std::string& name) {
  Env* env = Env::Default();
  const std::string dir = TestTempPath("nidc_repl_tcp_test_" + name);
  env->CreateDir(dir);
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& entry : *names) {
      env->RemoveFile(dir + "/" + entry);
    }
  }
  return dir;
}

bool WaitFor(const std::function<bool()>& predicate, double seconds = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

class ReplTcpTest : public ::testing::Test {
 protected:
  ReplTcpTest() {
    TortureOptions shape;
    shape.num_steps = 20;
    stream_ = BuildTortureStream(shape);
    params_ = shape.params;
    incremental_.kmeans.k = 4;
  }

  Result<std::unique_ptr<DurableClusterer>> OpenLeader(
      const std::string& dir, repl::WalShipper* shipper) {
    DurableOptions durable;
    durable.dir = dir;
    durable.checkpoint_every = 5;
    durable.sink = shipper;
    return DurableClusterer::Open(stream_.corpus.get(), params_,
                                  incremental_, durable);
  }

  Result<std::unique_ptr<repl::ReplicaClusterer>> OpenReplica(
      const std::string& dir) {
    repl::ReplicaOptions replica;
    replica.dir = dir;
    return repl::ReplicaClusterer::Open(stream_.corpus.get(), params_,
                                        incremental_, replica);
  }

  void Feed(DurableClusterer* leader, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      auto result = leader->Step(stream_.batches[i], stream_.taus[i]);
      if (!result.ok()) {
        ASSERT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      }
    }
  }

  TortureStream stream_;
  ForgettingParams params_;
  IncrementalOptions incremental_;
};

TEST_F(ReplTcpTest, FollowerCatchesUpAndTracksTheLiveStream) {
  repl::ShipperOptions ship_options;
  ship_options.dir = FreshDir("live_leader");
  repl::WalShipper shipper(ship_options);
  auto leader = OpenLeader(ship_options.dir, &shipper);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  // Half the stream happens before the follower exists — the connection
  // handshake must catch it up from the snapshot/queue, not the live feed.
  Feed(leader->get(), 0, 10);

  repl::ReplListener listener(&shipper);
  ASSERT_TRUE(listener.Start(0).ok());
  shipper.StartHeartbeats(/*interval_s=*/0.05);

  auto replica = OpenReplica(FreshDir("live_follower"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  repl::TcpReplClientOptions client_options;
  client_options.port = listener.port();
  client_options.recv_timeout_s = 0.2;
  repl::TcpReplClient client(replica->get(), client_options);
  ASSERT_TRUE(client.Start().ok());

  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->applied_steps() == (*leader)->applied_steps();
  })) << "catch-up stalled at " << (*replica)->applied_steps() << "/"
      << (*leader)->applied_steps();

  // The rest of the stream arrives live.
  Feed(leader->get(), 10, stream_.batches.size());
  ASSERT_TRUE((*leader)->Close().ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->applied_steps() == (*leader)->applied_steps();
  }));
  // Heartbeats keep the freshness clock moving while the leader is idle.
  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->stats().last_frame_age_seconds < 0.5;
  }));
  const repl::ReplicaStats stats = (*replica)->stats();
  EXPECT_EQ(stats.lag_records, 0u);
  EXPECT_EQ(stats.leader_steps, (*leader)->applied_steps());

  client.Stop();
  listener.Stop();
  EXPECT_TRUE(client.fatal_status().ok());

  // Promoted state matches the leader bit for bit.
  DurableOptions durable;
  durable.checkpoint_every = 5;
  auto promoted = (*replica)->Promote(durable);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(SerializeState(CaptureState((*promoted)->clusterer())),
            SerializeState(CaptureState((*leader)->clusterer())));
  ASSERT_TRUE((*promoted)->Close().ok());
}

TEST_F(ReplTcpTest, ReconnectsOutOfOrderAndResumesFromItsWatermark) {
  repl::ShipperOptions ship_options;
  ship_options.dir = FreshDir("reconnect_leader");
  repl::WalShipper shipper(ship_options);
  auto leader = OpenLeader(ship_options.dir, &shipper);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();

  repl::ReplListener listener(&shipper);
  ASSERT_TRUE(listener.Start(0).ok());

  auto replica = OpenReplica(FreshDir("reconnect_follower"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  {
    repl::TcpReplClientOptions client_options;
    client_options.port = listener.port();
    client_options.recv_timeout_s = 0.2;
    repl::TcpReplClient client(replica->get(), client_options);
    ASSERT_TRUE(client.Start().ok());
    Feed(leader->get(), 0, 8);
    ASSERT_TRUE(WaitFor([&] {
      return (*replica)->applied_steps() == (*leader)->applied_steps();
    }));
    client.Stop();  // follower goes away mid-stream
  }

  // The leader advances (including a rotation) while nobody is listening;
  // a brand-new connection with the replica's persisted watermark must
  // resynchronize without any cross-connection state.
  Feed(leader->get(), 8, 16);
  const uint64_t connects_before = listener.connections_accepted();
  repl::TcpReplClientOptions client_options;
  client_options.port = listener.port();
  client_options.recv_timeout_s = 0.2;
  repl::TcpReplClient client(replica->get(), client_options);
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->applied_steps() == (*leader)->applied_steps();
  }));
  EXPECT_GT(listener.connections_accepted(), connects_before);

  Feed(leader->get(), 16, stream_.batches.size());
  ASSERT_TRUE((*leader)->Close().ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->applied_steps() == (*leader)->applied_steps();
  }));
  client.Stop();
  listener.Stop();
  EXPECT_EQ((*replica)->stats().record_gaps, 0u);
  ASSERT_TRUE((*replica)->Close().ok());
}

TEST_F(ReplTcpTest, ClientBacksOffUntilTheLeaderAppears) {
  // Grab an ephemeral port, then release it so the client dials a dead
  // port first: every attempt must fail fast and back off, not hang.
  uint16_t port = 0;
  {
    repl::ShipperOptions probe_options;
    probe_options.dir = FreshDir("probe");
    repl::WalShipper probe_shipper(probe_options);
    repl::ReplListener probe(&probe_shipper);
    ASSERT_TRUE(probe.Start(0).ok());
    port = probe.port();
    probe.Stop();
  }

  auto replica = OpenReplica(FreshDir("backoff_follower"));
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  repl::TcpReplClientOptions client_options;
  client_options.port = port;
  client_options.initial_backoff_s = 0.01;
  client_options.max_backoff_s = 0.05;
  client_options.recv_timeout_s = 0.2;
  repl::TcpReplClient client(replica->get(), client_options);
  ASSERT_TRUE(client.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.fatal_status().ok());

  // The leader comes up on that port; the client's next retry connects
  // and replication proceeds.
  repl::ShipperOptions ship_options;
  ship_options.dir = FreshDir("backoff_leader");
  repl::WalShipper shipper(ship_options);
  auto leader = OpenLeader(ship_options.dir, &shipper);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  repl::ReplListener listener(&shipper);
  ASSERT_TRUE(listener.Start(port).ok());
  ASSERT_TRUE(WaitFor([&] { return client.connected(); }));
  Feed(leader->get(), 0, 6);
  ASSERT_TRUE((*leader)->Close().ok());
  ASSERT_TRUE(WaitFor([&] {
    return (*replica)->applied_steps() == (*leader)->applied_steps();
  }));
  EXPECT_GE(client.connects(), 1u);
  client.Stop();
  listener.Stop();
  ASSERT_TRUE((*replica)->Close().ok());
}

}  // namespace
}  // namespace nidc
