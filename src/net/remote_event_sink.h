#ifndef ORCASTREAM_NET_REMOTE_EVENT_SINK_H_
#define ORCASTREAM_NET_REMOTE_EVENT_SINK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/frame.h"
#include "net/session.h"
#include "net/wire.h"
#include "runtime/event_sink.h"
#include "runtime/metrics.h"

namespace orcastream::net {

/// The runtime-side endpoint of the remote event plane: a
/// runtime::EventSink whose events cross a Channel instead of a function
/// call. SAM registers it as the orchestrator's failure sink; the metric
/// pump pushes SRM snapshots through it; a command tool injects user
/// events through it.
///
/// Reliability is client-journaled, exactly-once at the server:
///   - every event gets a monotonically increasing sequence number and is
///     retained in the outbound journal until the server's cumulative ACK
///     covers it;
///   - on (re)connect the HELLO/WELCOME handshake tells the client the
///     last sequence the server applied; the journal suffix after it is
///     retransmitted, and the server drops duplicates by sequence — §7's
///     "resume from the last acked transaction" over a real byte stream;
///   - heartbeats flow when the connection is idle; a quiet link past
///     `heartbeat_timeout` is declared dead and reconnected with
///     exponential backoff.
///
/// The sink never reads a clock or sleeps: all timing arrives as the
/// `now` argument of Pump(), which the owner feeds from the simulation
/// clock or a ClockFn (the same seam ThreadPoolExecutor uses).
class RemoteEventSink : public runtime::EventSink {
 public:
  struct Config {
    uint64_t client_id = 1;
    /// Send a heartbeat when nothing was sent for this long.
    double heartbeat_interval = 1.0;
    /// Declare the connection dead when nothing arrived for this long.
    double heartbeat_timeout = 5.0;
    /// Reconnect backoff schedule: initial, multiplier, cap.
    double backoff_initial = 0.25;
    double backoff_multiplier = 2.0;
    double backoff_max = 4.0;
    size_t max_frame_payload = kMaxFramePayload;
    /// Journal cap: beyond this many unacked events, new events are
    /// dropped and counted (events_discarded) instead of growing without
    /// bound while the server is unreachable.
    size_t max_unacked = 1u << 20;
  };

  RemoteEventSink(Config config, ChannelFactory factory);

  // --- Event entry points (runtime side) --------------------------------

  /// runtime::EventSink — SAM pushes PE failure notifications here.
  void OnPeFailure(const runtime::PeFailureNotice& notice) override;
  /// The runtime-side metric pump pushes SRM snapshots here.
  void PublishMetricsSnapshot(const runtime::MetricsSnapshot& snapshot);
  /// The §3 command tool's injection path.
  void InjectUserEvent(const std::string& name,
                       std::map<std::string, std::string> attributes = {});

  // --- Connection state machine -----------------------------------------

  /// Drives connect/handshake/heartbeat/retransmit at time `now`. Call
  /// periodically (and after event entry points when immediate flushing
  /// matters). `now` must be monotonically non-decreasing.
  void Pump(double now);

  bool established() const { return state_ == State::kEstablished; }

  // --- Introspection -----------------------------------------------------

  /// Sequence of the next event to be journaled (first is 1).
  uint64_t next_seq() const { return next_seq_; }
  /// Highest cumulatively acked sequence.
  uint64_t acked_seq() const { return acked_seq_; }
  size_t unacked() const { return journal_.size(); }
  /// Completed handshakes (1 = first connect, >1 = reconnects happened).
  uint64_t sessions_established() const { return sessions_established_; }
  /// Connections torn down (timeout, transport error, framing error).
  uint64_t connections_dropped() const { return connections_dropped_; }
  /// Events refused at enqueue, never journaled: the journal hit
  /// Config::max_unacked, or the encoded event exceeded
  /// Config::max_frame_payload (no frame could ever carry it).
  uint64_t events_discarded() const { return events_discarded_; }
  /// Time of each connection attempt, in Pump() order — the backoff
  /// schedule, observable for tests.
  const std::vector<double>& connect_attempts() const {
    return connect_attempts_;
  }
  const std::string& last_drop_reason() const { return last_drop_reason_; }

 private:
  enum class State { kDisconnected, kHandshaking, kEstablished };

  struct JournalEntry {
    uint64_t seq = 0;
    std::vector<uint8_t> payload;  // encoded EVENT frame payload
  };

  /// Journals the event payload and, when established, pushes it out in
  /// the same call stack (what keeps loopback transport byte-equivalent
  /// to an in-process publish). Over-cap payloads are refused unsent.
  void EnqueueEvent(std::vector<uint8_t> payload);
  /// One state-machine step; Pump() wraps it with a reentrancy guard so
  /// an inline loopback delivery that calls back into this sink defers
  /// to the outer pump instead of recursing.
  void PumpOnce(double now);
  void TryConnect(double now);
  void HandleFrame(double now, const DecodedFrame& frame);
  void HandleAckValue(uint64_t last_applied);
  /// Queues journal entries not yet queued on this connection, in order.
  void PushPending();
  void ScheduleRetry(double now);
  void DropConn(double now, const std::string& reason);

  Config config_;
  ChannelFactory factory_;
  State state_ = State::kDisconnected;
  std::unique_ptr<FramedConn> conn_;

  std::deque<JournalEntry> journal_;
  uint64_t next_seq_ = 1;
  uint64_t acked_seq_ = 0;
  /// Sequence up to (and including) which the current connection has
  /// already queued entries; reset by the WELCOME on each reconnect.
  uint64_t queued_seq_ = 0;

  double next_connect_at_ = 0;
  double backoff_ = 0;
  double handshake_deadline_ = 0;
  /// Most recent Pump() timestamp — what entry points stamp inline sends
  /// with (they have no clock argument of their own).
  double last_now_ = 0;
  bool pumping_ = false;
  bool repump_ = false;

  uint64_t sessions_established_ = 0;
  uint64_t connections_dropped_ = 0;
  uint64_t events_discarded_ = 0;
  std::vector<double> connect_attempts_;
  std::string last_drop_reason_;
};

}  // namespace orcastream::net

#endif  // ORCASTREAM_NET_REMOTE_EVENT_SINK_H_
