#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/event_bus_server.h"
#include "net/loopback_channel.h"
#include "net/remote_event_sink.h"
#include "net/wire.h"

namespace orcastream::net {
namespace {

/// Everything here runs on a fake clock: `now` values are handed to
/// Pump() explicitly and advance in fixed steps. Nothing sleeps, nothing
/// reads the wall clock — the orca_lint no_wall_clock / no_sleep rules
/// keep it that way at the source level, and these tests prove the
/// timing logic works purely off the injected timestamps.
constexpr double kStep = 0.05;

/// A client/server pair joined by fresh loopback channels on every
/// (re)connect, with both endpoints pumped from the same fake clock.
/// No readable callbacks are installed: delivery happens strictly on
/// pump ticks, so the heartbeat/timeout machinery is the only thing
/// moving data — exactly what this suite wants to isolate.
struct FakeClockPlane {
  explicit FakeClockPlane(RemoteEventSink::Config sink_config = {},
                          EventBusServer::Config server_config = {})
      : server(server_config, nullptr),
        sink(sink_config, [this]() -> std::unique_ptr<Channel> {
          if (unreachable) return nullptr;
          auto [client_end, server_end] = LoopbackChannel::CreatePair();
          if (!accept_next) {
            // Model a listening-but-dead server: the connection opens,
            // HELLO lands in a ring nobody reads, no WELCOME ever comes.
            orphaned.push_back(std::move(server_end));
            return std::move(client_end);
          }
          server.Accept(std::move(server_end), now);
          return std::move(client_end);
        }) {}

  void PumpBoth() {
    sink.Pump(now);
    server.Pump(now);
  }

  /// Advances the fake clock to `until`, pumping per `client`/`server_on`.
  void RunUntil(double until, bool client_on = true, bool server_on = true) {
    while (now < until) {
      now += kStep;
      if (client_on) sink.Pump(now);
      if (server_on) server.Pump(now);
    }
  }

  double now = 0;
  bool unreachable = false;
  bool accept_next = true;
  std::vector<std::unique_ptr<Channel>> orphaned;
  EventBusServer server;
  RemoteEventSink sink;
};

TEST(HeartbeatTest, IdleSessionStaysAliveOnHeartbeatsAlone) {
  FakeClockPlane plane;
  plane.PumpBoth();
  plane.RunUntil(0.2);
  ASSERT_TRUE(plane.sink.established());

  // 60 fake seconds of silence — many multiples of the 5 s timeout. The
  // only traffic is heartbeats, and they are enough: nobody drops.
  plane.RunUntil(60.0);
  EXPECT_TRUE(plane.sink.established());
  EXPECT_TRUE(plane.server.connected());
  EXPECT_EQ(plane.sink.connections_dropped(), 0u);
  EXPECT_EQ(plane.server.connections_dropped(), 0u);
  EXPECT_EQ(plane.sink.sessions_established(), 1u);
}

TEST(HeartbeatTest, ClientDetectsSilentServerAndReconnects) {
  FakeClockPlane plane;
  plane.PumpBoth();
  plane.RunUntil(0.2);
  ASSERT_TRUE(plane.sink.established());

  // The server goes comatose (never pumped again): its heartbeats stop.
  // The client must notice within heartbeat_timeout of the last byte it
  // received and tear the session down.
  double silence_starts = plane.now;
  plane.RunUntil(silence_starts + 4.8, /*client_on=*/true,
                 /*server_on=*/false);
  EXPECT_TRUE(plane.sink.established()) << "dropped before the timeout";

  plane.RunUntil(silence_starts + 5.3, /*client_on=*/true,
                 /*server_on=*/false);
  EXPECT_FALSE(plane.sink.established());
  EXPECT_EQ(plane.sink.connections_dropped(), 1u);
  EXPECT_EQ(plane.sink.last_drop_reason(), "heartbeat timeout");

  // Recovery: the server comes back, the factory builds a fresh pair,
  // and the handshake completes again.
  plane.RunUntil(plane.now + 2.0);
  EXPECT_TRUE(plane.sink.established());
  EXPECT_EQ(plane.sink.sessions_established(), 2u);
}

TEST(HeartbeatTest, ServerDetectsSilentClient) {
  FakeClockPlane plane;
  plane.PumpBoth();
  plane.RunUntil(0.2);
  ASSERT_TRUE(plane.server.connected());

  // The server's receive baseline is the HELLO near t=0 (the client only
  // heartbeats after a full idle interval), so probe well inside the
  // 5 s window measured from connection time, not from silence onset.
  plane.RunUntil(4.5, /*client_on=*/false, /*server_on=*/true);
  EXPECT_TRUE(plane.server.connected());
  double silence_starts = plane.now;

  plane.RunUntil(silence_starts + 5.3, /*client_on=*/false,
                 /*server_on=*/true);
  EXPECT_FALSE(plane.server.connected());
  EXPECT_EQ(plane.server.connections_dropped(), 1u);
  EXPECT_EQ(plane.server.last_drop_reason(), "heartbeat timeout");
}

TEST(HeartbeatTest, HandshakeStuckWithoutWelcomeTimesOut) {
  FakeClockPlane plane;
  plane.accept_next = false;  // connections open but HELLO goes nowhere
  plane.PumpBoth();
  ASSERT_FALSE(plane.sink.established());

  plane.RunUntil(5.3, /*client_on=*/true, /*server_on=*/false);
  EXPECT_GE(plane.sink.connections_dropped(), 1u);
  EXPECT_EQ(plane.sink.last_drop_reason(), "handshake timeout");

  // Flip the server healthy. The sink may just have started another
  // doomed handshake against an orphaned channel, which takes a full
  // handshake timeout to give up — allow for that before the healthy
  // retry lands.
  plane.accept_next = true;
  plane.RunUntil(plane.now + 7.0);
  EXPECT_TRUE(plane.sink.established());
}

TEST(HeartbeatTest, BackoffScheduleIsExponentialAndCapped) {
  FakeClockPlane plane;
  plane.unreachable = true;  // factory: no server at all
  plane.RunUntil(20.0);

  // Defaults: initial 0.25, ×2 per failure, capped at 4.0. The first
  // attempt happens on the first pump tick; each later attempt fires on
  // the first tick at or after next_connect_at, so observed gaps match
  // the schedule to within one tick (accumulated float steps can push a
  // deadline a hair past the aligned tick).
  const std::vector<double>& attempts = plane.sink.connect_attempts();
  std::vector<double> expected_gaps = {0.25, 0.5, 1.0, 2.0, 4.0, 4.0, 4.0};
  ASSERT_GE(attempts.size(), expected_gaps.size() + 1);
  EXPECT_DOUBLE_EQ(attempts[0], kStep);
  for (size_t i = 0; i < expected_gaps.size(); ++i) {
    double gap = attempts[i + 1] - attempts[i];
    EXPECT_GE(gap, expected_gaps[i] - 1e-9) << "gap " << i;
    EXPECT_LE(gap, expected_gaps[i] + kStep + 1e-9) << "gap " << i;
  }
  EXPECT_FALSE(plane.sink.established());
  EXPECT_EQ(plane.sink.sessions_established(), 0u);
}

TEST(HeartbeatTest, BackoffResetsAfterSuccessfulHandshake) {
  FakeClockPlane plane;
  plane.unreachable = true;
  plane.RunUntil(10.0);  // drive the backoff to its 4.0 s cap
  size_t attempts_while_down = plane.sink.connect_attempts().size();
  ASSERT_GE(attempts_while_down, 4u);

  plane.unreachable = false;
  plane.RunUntil(plane.now + 4.1);
  ASSERT_TRUE(plane.sink.established());

  // Kill the session; the next retry must start from the *initial*
  // backoff again, not the 4.0 s cap it had reached while down.
  double drop_time = 0;
  {
    double silence_starts = plane.now;
    plane.RunUntil(silence_starts + 5.3, /*client_on=*/true,
                   /*server_on=*/false);
    ASSERT_FALSE(plane.sink.established());
    drop_time = plane.now;
  }
  plane.RunUntil(drop_time + 1.0);
  ASSERT_TRUE(plane.sink.established());
  // The reconnect attempt came within ~initial backoff of the drop.
  double reconnect_at = plane.sink.connect_attempts().back();
  EXPECT_LE(reconnect_at - drop_time, 0.25 + kStep + 1e-9);
}

TEST(HeartbeatTest, EventsJournaledWhileDisconnectedFlowOnReconnect) {
  FakeClockPlane plane;
  plane.unreachable = true;
  plane.RunUntil(1.0);

  runtime::PeFailureNotice notice;
  notice.app_name = "app";
  notice.reason = "crash while link down";
  plane.sink.OnPeFailure(notice);
  plane.sink.OnPeFailure(notice);
  EXPECT_EQ(plane.sink.unacked(), 2u);
  EXPECT_EQ(plane.sink.events_discarded(), 0u);

  // No OrcaService is bound in this suite, but sequence bookkeeping is
  // service-independent: after reconnect + redelivery the server's ack
  // horizon covers both events and the client journal drains.
  plane.unreachable = false;
  plane.RunUntil(plane.now + 5.0);
  ASSERT_TRUE(plane.sink.established());
  EXPECT_EQ(plane.server.events_applied(), 2u);
  EXPECT_EQ(plane.server.last_applied(), 2u);
  EXPECT_EQ(plane.sink.acked_seq(), 2u);
  EXPECT_EQ(plane.sink.unacked(), 0u);
}

TEST(HeartbeatTest, TimersWorkFarFromEpoch) {
  // Clock-agnosticism: the same machinery with `now` values in the 1e9
  // range (a wall-clock-epoch-like fake) behaves identically — nothing
  // inside assumes time starts near zero.
  FakeClockPlane plane;
  plane.now = 1.7e9;
  plane.PumpBoth();
  plane.RunUntil(1.7e9 + 0.2);
  ASSERT_TRUE(plane.sink.established());
  double silence_starts = plane.now;
  plane.RunUntil(silence_starts + 5.3, /*client_on=*/true,
                 /*server_on=*/false);
  EXPECT_FALSE(plane.sink.established());
  EXPECT_EQ(plane.sink.last_drop_reason(), "heartbeat timeout");
}

// --- Frame size limits -------------------------------------------------------

runtime::MetricsSnapshot SnapshotOf(int samples) {
  runtime::MetricsSnapshot snapshot;
  snapshot.collected_at = 15.0;
  for (int i = 0; i < samples; ++i) {
    runtime::OperatorMetricRecord m;
    m.job = common::JobId(1 + i % 7);
    m.pe = common::PeId(i / 5);
    m.operator_name = "op" + std::to_string(i / 5);
    m.metric_name = "customMetric" + std::to_string(i % 5);
    m.kind = runtime::MetricKind::kCustom;
    m.value = i;
    snapshot.operator_metrics.push_back(std::move(m));
  }
  return snapshot;
}

// Any frame up to the payload cap can be staged: a ~490 KB snapshot
// crosses in loopback-ring-sized pieces and does not hold back the
// events behind it, PE failures included.
TEST(SessionTest, SnapshotOver256KiBIsDeliveredAndAcked) {
  FakeClockPlane plane;
  plane.PumpBoth();
  plane.RunUntil(0.2);
  ASSERT_TRUE(plane.sink.established());

  runtime::MetricsSnapshot snapshot = SnapshotOf(10'000);
  ASSERT_GT(EncodeMetricsEvent(1, snapshot).size(), 256u * 1024u);
  plane.sink.PublishMetricsSnapshot(snapshot);
  runtime::PeFailureNotice notice;
  notice.app_name = "app";
  notice.reason = "crash behind a large snapshot";
  plane.sink.OnPeFailure(notice);
  plane.RunUntil(plane.now + 20.0);

  EXPECT_EQ(plane.server.events_applied(), 2u);
  EXPECT_EQ(plane.server.last_applied(), 2u);
  EXPECT_EQ(plane.sink.acked_seq(), 2u);
  EXPECT_EQ(plane.sink.unacked(), 0u);
  EXPECT_EQ(plane.sink.events_discarded(), 0u);
  EXPECT_EQ(plane.sink.connections_dropped(), 0u);
  EXPECT_EQ(plane.server.connections_dropped(), 0u);
}

// An event no frame may carry is refused at enqueue: counted, logged and
// never journaled, so it cannot poison the server's decoder and be
// resent on every reconnect. The events after it still flow.
TEST(SessionTest, OverCapEventIsRefusedAtEnqueue) {
  RemoteEventSink::Config sink_config;
  sink_config.max_frame_payload = 1024;
  EventBusServer::Config server_config;
  server_config.max_frame_payload = 1024;
  FakeClockPlane plane(sink_config, server_config);
  plane.PumpBoth();
  plane.RunUntil(0.2);
  ASSERT_TRUE(plane.sink.established());

  runtime::MetricsSnapshot snapshot = SnapshotOf(100);
  ASSERT_GT(EncodeMetricsEvent(1, snapshot).size(), 1024u);
  std::vector<std::string> logged;
  common::Logger::Sink previous = common::Logger::Global().SwapSink(
      [&logged](common::LogLevel, const std::string& message) {
        logged.push_back(message);
      });
  plane.sink.PublishMetricsSnapshot(snapshot);
  common::Logger::Global().SwapSink(previous);

  EXPECT_EQ(plane.sink.events_discarded(), 1u);
  EXPECT_EQ(plane.sink.unacked(), 0u);
  EXPECT_EQ(plane.sink.next_seq(), 1u);  // refused events get no sequence
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_NE(logged[0].find("refused"), std::string::npos) << logged[0];

  runtime::PeFailureNotice notice;
  notice.app_name = "app";
  notice.reason = "crash after a refused event";
  plane.sink.OnPeFailure(notice);
  plane.RunUntil(plane.now + 2.0);
  EXPECT_EQ(plane.server.events_applied(), 1u);
  EXPECT_EQ(plane.server.last_applied(), 1u);
  EXPECT_EQ(plane.sink.acked_seq(), 1u);
  EXPECT_EQ(plane.sink.unacked(), 0u);
  EXPECT_EQ(plane.sink.connections_dropped(), 0u);
  EXPECT_EQ(plane.server.connections_dropped(), 0u);
}

}  // namespace
}  // namespace orcastream::net
