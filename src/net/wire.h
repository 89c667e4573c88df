#ifndef ORCASTREAM_NET_WIRE_H_
#define ORCASTREAM_NET_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/event_sink.h"
#include "runtime/metrics.h"

namespace orcastream::net {

/// Protocol version carried in HELLO; bumped when message payload layouts
/// change incompatibly (the frame header version covers framing only).
inline constexpr uint32_t kProtocolVersion = 1;

/// Little-endian append-only payload writer. All multi-byte integers on
/// the wire are little-endian; strings are u32 length + bytes; doubles are
/// IEEE-754 bit patterns in a u64. Each value is appended as one block.
class WireWriter {
 public:
  /// Pre-sizes the buffer for `n` more bytes (encoders that know their
  /// exact payload size append without reallocating).
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);

  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

/// Bounds-checked payload reader: every accessor returns a zero value once
/// the payload is exhausted or a length runs past the end, and ok() turns
/// false — callers decode the whole message, then check ok() once and map
/// failure to a ParseError. No read ever touches memory outside [data,
/// data+size), so hostile payloads cannot cause UB, and string/vector
/// lengths are validated against the remaining bytes before allocation.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit WireReader(const std::vector<uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// ParseError(`what`) if any read failed or bytes are left over, else OK.
  common::Status Finish(const char* what) const;

 private:
  bool Take(size_t n, const uint8_t** out);

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- Session control messages ----------------------------------------------

/// Client → server connection opener: identifies the client and the first
/// event sequence number it intends to (re)send, so the server can detect
/// protocol mismatches before any event flows.
struct HelloMsg {
  uint32_t protocol = kProtocolVersion;
  uint64_t client_id = 0;
  uint64_t first_seq = 1;
};

/// Server → client handshake reply: the cumulative sequence number of the
/// last event applied to the bus. The client drops journal entries at or
/// below it and retransmits everything after — §7 redelivery resumes from
/// the last acked transaction.
struct WelcomeMsg {
  uint64_t last_applied = 0;
};

/// Server → client cumulative acknowledgement (same meaning as WELCOME,
/// sent after event batches are applied).
struct AckMsg {
  uint64_t last_applied = 0;
};

std::vector<uint8_t> EncodeHello(const HelloMsg& msg);
common::Status DecodeHello(const std::vector<uint8_t>& payload, HelloMsg* out);
std::vector<uint8_t> EncodeWelcome(const WelcomeMsg& msg);
common::Status DecodeWelcome(const std::vector<uint8_t>& payload,
                             WelcomeMsg* out);
std::vector<uint8_t> EncodeAck(const AckMsg& msg);
common::Status DecodeAck(const std::vector<uint8_t>& payload, AckMsg* out);

// --- Event messages ---------------------------------------------------------

/// What an EVENT frame carries. Values are wire protocol — append only.
enum class EventKind : uint8_t {
  kPeFailure = 1,
  kMetricsSnapshot = 2,
  kUserEvent = 3,
};

/// A runtime-side user event (the §3 command tool injecting through the
/// transport instead of a local service call).
struct UserEventMsg {
  std::string name;
  std::map<std::string, std::string> attributes;
};

/// One sequenced event as carried by an EVENT frame.
struct EventMsg {
  uint64_t seq = 0;
  EventKind kind = EventKind::kPeFailure;
  runtime::PeFailureNotice failure;       // kind == kPeFailure
  runtime::MetricsSnapshot snapshot;      // kind == kMetricsSnapshot
  UserEventMsg user;                      // kind == kUserEvent
};

std::vector<uint8_t> EncodePeFailureEvent(uint64_t seq,
                                          const runtime::PeFailureNotice& n);
std::vector<uint8_t> EncodeMetricsEvent(uint64_t seq,
                                        const runtime::MetricsSnapshot& s);
std::vector<uint8_t> EncodeUserEvent(uint64_t seq, const UserEventMsg& u);
common::Status DecodeEvent(const std::vector<uint8_t>& payload, EventMsg* out);

}  // namespace orcastream::net

#endif  // ORCASTREAM_NET_WIRE_H_
