#ifndef ORCASTREAM_NET_SESSION_H_
#define ORCASTREAM_NET_SESSION_H_

#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/frame.h"
#include "net/ring_buffer.h"

namespace orcastream::net {

/// One live framed connection: a Channel plus the frame encoder's staged
/// output ring and the incremental FrameDecoder, with last-activity
/// stamps for the owner's heartbeat bookkeeping. Timestamps are whatever
/// clock the owner injects (sim time in tests, a ClockFn in production) —
/// this layer never reads a clock of its own.
///
/// The output ring is bounded by one frame at the payload cap, so any
/// frame the peer's decoder accepts can be staged once the ring drains;
/// the ring allocates only what it has held.
class FramedConn {
 public:
  FramedConn(std::unique_ptr<Channel> channel, size_t max_payload)
      : channel_(std::move(channel)), decoder_(max_payload),
        out_(FrameSizeFor(max_payload)) {}

  /// Stages one frame for transmission: the header, then the payload,
  /// straight into the output ring. Returns false (and stages nothing)
  /// when the ring lacks space for the whole frame — frames are never
  /// split across a backpressure boundary, so the caller simply retries
  /// the message on a later pump. A payload over the cap never fits.
  bool QueueFrame(FrameType type, const std::vector<uint8_t>& payload);

  /// Pushes staged bytes into the channel as far as it accepts. Returns
  /// a non-OK status when the connection is broken.
  common::Status Flush(double now);

  /// Reads every available byte from the channel and appends decoded
  /// frames to `out`. Returns a non-OK status when the stream is broken
  /// or desynced (framing/CRC error) — the connection is then dead.
  common::Status ReadFrames(double now, std::vector<DecodedFrame>* out);

  bool connected() const {
    return channel_ != nullptr && channel_->connected();
  }
  void Close() {
    if (channel_ != nullptr) channel_->Close();
  }

  /// Last time Flush pushed bytes / ReadFrames saw bytes arrive.
  double last_send_at() const { return last_send_at_; }
  double last_recv_at() const { return last_recv_at_; }
  /// Heartbeat baseline: both stamps start at connection time.
  void StampConnected(double now) {
    last_send_at_ = now;
    last_recv_at_ = now;
  }

  size_t staged_bytes() const { return out_.size(); }

 private:
  std::unique_ptr<Channel> channel_;
  FrameDecoder decoder_;
  ByteRing out_;
  std::vector<uint8_t> scratch_;
  bool flushing_ = false;
  double last_send_at_ = 0;
  double last_recv_at_ = 0;
};

}  // namespace orcastream::net

#endif  // ORCASTREAM_NET_SESSION_H_
