#include "net/remote_event_sink.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace orcastream::net {

using common::Status;

RemoteEventSink::RemoteEventSink(Config config, ChannelFactory factory)
    : config_(config), factory_(std::move(factory)) {}

// --- Event entry points -----------------------------------------------------

void RemoteEventSink::OnPeFailure(const runtime::PeFailureNotice& notice) {
  uint64_t seq = next_seq_;
  EnqueueEvent(EncodePeFailureEvent(seq, notice));
}

void RemoteEventSink::PublishMetricsSnapshot(
    const runtime::MetricsSnapshot& snapshot) {
  uint64_t seq = next_seq_;
  EnqueueEvent(EncodeMetricsEvent(seq, snapshot));
}

void RemoteEventSink::InjectUserEvent(
    const std::string& name, std::map<std::string, std::string> attributes) {
  UserEventMsg user;
  user.name = name;
  user.attributes = std::move(attributes);
  uint64_t seq = next_seq_;
  EnqueueEvent(EncodeUserEvent(seq, user));
}

void RemoteEventSink::EnqueueEvent(std::vector<uint8_t> payload) {
  if (payload.size() > config_.max_frame_payload) {
    // The server's decoder would reject the frame's length and drop the
    // connection, and the journal would resend it on every reconnect:
    // refuse it here, before it is journaled or sequenced.
    ++events_discarded_;
    ORCA_LOG(kError) << "remote event sink: refused a " << payload.size()
                     << "-byte event over the " << config_.max_frame_payload
                     << "-byte frame payload cap";
    return;
  }
  if (journal_.size() >= config_.max_unacked) {
    // Bounded journal: with the server unreachable for this long, losing
    // the event (counted) beats growing the process without limit.
    ++events_discarded_;
    return;
  }
  JournalEntry entry;
  entry.seq = next_seq_++;
  entry.payload = std::move(payload);
  journal_.push_back(std::move(entry));
  // Established and not re-entered from our own pump: deliver in this
  // call stack. Over the inline loopback this lands the event in the
  // EventBus inside the same simulation event that produced it — the
  // byte-equivalence property the oracle suite checks.
  if (state_ == State::kEstablished && !pumping_) {
    PushPending();
    Status flushed = conn_->Flush(last_now_);
    if (!flushed.ok()) {
      DropConn(last_now_, "send failed: " + flushed.ToString());
    }
  }
}

// --- Connection state machine ----------------------------------------------

void RemoteEventSink::Pump(double now) {
  last_now_ = std::max(last_now_, now);
  if (pumping_) {
    repump_ = true;
    return;
  }
  pumping_ = true;
  do {
    repump_ = false;
    PumpOnce(now);
  } while (repump_);
  pumping_ = false;
}

void RemoteEventSink::PumpOnce(double now) {
  if (state_ == State::kDisconnected) {
    if (now < next_connect_at_) return;
    TryConnect(now);
    if (state_ == State::kDisconnected) return;
  }

  // Drain incoming frames (WELCOME/ACK/HEARTBEAT).
  std::vector<DecodedFrame> frames;
  Status read = conn_->ReadFrames(now, &frames);
  for (const DecodedFrame& frame : frames) {
    HandleFrame(now, frame);
    if (state_ == State::kDisconnected) return;
  }
  if (!read.ok()) {
    DropConn(now, "receive failed: " + read.ToString());
    return;
  }

  if (state_ == State::kHandshaking && now >= handshake_deadline_) {
    DropConn(now, "handshake timeout");
    return;
  }
  if (now - conn_->last_recv_at() >= config_.heartbeat_timeout) {
    DropConn(now, "heartbeat timeout");
    return;
  }

  if (state_ == State::kEstablished) {
    PushPending();
    if (now - conn_->last_send_at() >= config_.heartbeat_interval) {
      conn_->QueueFrame(FrameType::kHeartbeat, {});
    }
  }
  Status flushed = conn_->Flush(now);
  if (!flushed.ok()) {
    DropConn(now, "send failed: " + flushed.ToString());
  }
}

void RemoteEventSink::TryConnect(double now) {
  connect_attempts_.push_back(now);
  std::unique_ptr<Channel> channel = factory_ != nullptr ? factory_() : nullptr;
  if (channel == nullptr) {
    ScheduleRetry(now);
    return;
  }
  conn_ = std::make_unique<FramedConn>(std::move(channel),
                                       config_.max_frame_payload);
  conn_->StampConnected(now);
  state_ = State::kHandshaking;
  handshake_deadline_ = now + config_.heartbeat_timeout;
  HelloMsg hello;
  hello.client_id = config_.client_id;
  hello.first_seq = acked_seq_ + 1;
  conn_->QueueFrame(FrameType::kHello, EncodeHello(hello));
  Status flushed = conn_->Flush(now);
  if (!flushed.ok()) {
    DropConn(now, "hello failed: " + flushed.ToString());
  }
}

void RemoteEventSink::HandleFrame(double now, const DecodedFrame& frame) {
  switch (frame.type) {
    case FrameType::kWelcome: {
      if (state_ != State::kHandshaking) {
        DropConn(now, "unexpected WELCOME");
        return;
      }
      WelcomeMsg welcome;
      Status decoded = DecodeWelcome(frame.payload, &welcome);
      if (!decoded.ok()) {
        DropConn(now, decoded.ToString());
        return;
      }
      HandleAckValue(welcome.last_applied);
      // Redelivery resumes right after the server's journal position:
      // everything past it is queued again, in sequence order.
      queued_seq_ = acked_seq_;
      state_ = State::kEstablished;
      ++sessions_established_;
      backoff_ = 0;
      return;
    }
    case FrameType::kAck: {
      AckMsg ack;
      Status decoded = DecodeAck(frame.payload, &ack);
      if (!decoded.ok()) {
        DropConn(now, decoded.ToString());
        return;
      }
      HandleAckValue(ack.last_applied);
      return;
    }
    case FrameType::kHeartbeat:
      return;  // liveness only; last_recv_at was stamped by ReadFrames
    case FrameType::kHello:
    case FrameType::kEvent:
      DropConn(now, "protocol violation: server sent client-only frame");
      return;
  }
  DropConn(now, "unknown frame type");
}

void RemoteEventSink::HandleAckValue(uint64_t last_applied) {
  acked_seq_ = std::max(acked_seq_, last_applied);
  while (!journal_.empty() && journal_.front().seq <= acked_seq_) {
    journal_.pop_front();
  }
  queued_seq_ = std::max(queued_seq_, acked_seq_);
}

void RemoteEventSink::PushPending() {
  for (const JournalEntry& entry : journal_) {
    if (entry.seq <= queued_seq_) continue;
    if (!conn_->QueueFrame(FrameType::kEvent, entry.payload)) {
      return;  // output ring full — retry on a later pump
    }
    queued_seq_ = entry.seq;
  }
}

void RemoteEventSink::ScheduleRetry(double now) {
  if (backoff_ <= 0) backoff_ = config_.backoff_initial;
  next_connect_at_ = now + backoff_;
  backoff_ = std::min(backoff_ * config_.backoff_multiplier,
                      config_.backoff_max);
}

void RemoteEventSink::DropConn(double now, const std::string& reason) {
  conn_.reset();  // closes the channel; the server observes the teardown
  state_ = State::kDisconnected;
  ++connections_dropped_;
  last_drop_reason_ = reason;
  ScheduleRetry(now);
}

}  // namespace orcastream::net
