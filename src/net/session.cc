#include "net/session.h"

#include <algorithm>

namespace orcastream::net {

using common::Status;

bool FramedConn::QueueFrame(FrameType type,
                            const std::vector<uint8_t>& payload) {
  if (out_.free() < FrameSizeFor(payload.size())) return false;
  uint8_t header[kFrameHeaderSize] = {};
  EncodeFrameHeader(type, payload.data(), payload.size(), header);
  out_.Write(header, kFrameHeaderSize);
  out_.Write(payload.data(), payload.size());
  return true;
}

Status FramedConn::Flush(double now) {
  if (channel_ == nullptr) return Status::Cancelled("no channel");
  // An inline loopback Send can call back into the owner and re-enter
  // this Flush while the outer call has peeked-but-not-discarded bytes;
  // re-sending that window would corrupt the stream. The outer flush
  // finishes the job, so the inner one just yields.
  if (flushing_) return Status::OK();
  flushing_ = true;
  if (scratch_.size() < 16 * 1024) scratch_.resize(16 * 1024);
  Status status = Status::OK();
  while (!out_.empty()) {
    size_t n = out_.Peek(scratch_.data(), scratch_.size());
    common::Result<size_t> sent = channel_->Send(scratch_.data(), n);
    if (!sent.ok()) {
      status = sent.status();
      break;
    }
    if (*sent == 0) break;  // backpressure — retry later
    out_.Discard(*sent);
    last_send_at_ = now;
  }
  flushing_ = false;
  return status;
}

Status FramedConn::ReadFrames(double now, std::vector<DecodedFrame>* out) {
  if (channel_ == nullptr) return Status::Cancelled("no channel");
  if (scratch_.size() < 16 * 1024) scratch_.resize(16 * 1024);
  for (;;) {
    common::Result<size_t> got =
        channel_->Receive(scratch_.data(), scratch_.size());
    if (!got.ok()) return got.status();
    if (*got == 0) return Status::OK();
    last_recv_at_ = now;
    ORCA_RETURN_NOT_OK(decoder_.Feed(scratch_.data(), *got, out));
  }
}

}  // namespace orcastream::net
