#ifndef ORCASTREAM_NET_FRAME_H_
#define ORCASTREAM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"

namespace orcastream::net {

/// Wire frame type tag. Values are part of the protocol — append only.
enum class FrameType : uint8_t {
  kHello = 1,      // client → server: protocol version, client id, resume seq
  kWelcome = 2,    // server → client: last applied event sequence
  kHeartbeat = 3,  // either direction: liveness only, empty payload
  kAck = 4,        // server → client: cumulative last applied event sequence
  kEvent = 5,      // client → server: sequenced event payload
};

/// Frame header layout (little-endian), kHeaderSize bytes on the wire:
///
///   offset  size  field
///   0       2     magic       0x4F52 ("OR")
///   2       1     version     kFrameVersion
///   3       1     type        FrameType
///   4       4     payload_len bytes following the header, <= max payload
///   8       4     crc32       CRC-32 (IEEE) over the payload bytes
///
/// The CRC covers the payload only; header corruption is caught by the
/// magic/version/length checks. Any violation is unrecoverable for the
/// stream (framing is lost), so decoding surfaces it as a Status error and
/// the session layer tears the connection down and reconnects.
inline constexpr uint16_t kFrameMagic = 0x4F52;
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderSize = 12;
/// Hard cap on payload_len: a hostile or corrupted length prefix is
/// rejected from the 4 header bytes alone, before any payload allocation.
inline constexpr size_t kMaxFramePayload = 4u * 1024u * 1024u;

/// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8 table-driven.
/// Words are assembled from bytes, so the value is host-endian agnostic.
uint32_t Crc32(const uint8_t* data, size_t n);

/// One decoded frame.
struct DecodedFrame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<uint8_t> payload;
};

/// Writes the header of a frame carrying `payload` (its length and CRC
/// included) into `header`. The one encoder of the header layout above.
void EncodeFrameHeader(FrameType type, const uint8_t* payload,
                       size_t payload_len, uint8_t header[kFrameHeaderSize]);

/// Appends the encoded frame (header + payload) to `out`.
void EncodeFrame(FrameType type, const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out);
inline void EncodeFrame(FrameType type, const std::vector<uint8_t>& payload,
                        std::vector<uint8_t>* out) {
  EncodeFrame(type, payload.data(), payload.size(), out);
}

/// Encoded size of a frame carrying `payload_len` bytes.
inline size_t FrameSizeFor(size_t payload_len) {
  return kFrameHeaderSize + payload_len;
}

/// Incremental frame decoder over an arbitrary byte stream. Feed() accepts
/// any chunking (byte-at-a-time, torn frames, many frames at once) and
/// appends completed frames to the caller's vector. The first malformed
/// header or CRC mismatch poisons the decoder: framing on a byte stream
/// cannot resynchronise, so every later Feed() returns the same error and
/// the owner must drop the connection.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  common::Status Feed(const uint8_t* data, size_t n,
                      std::vector<DecodedFrame>* out);

  /// Bytes of an incomplete frame currently buffered.
  size_t pending_bytes() const { return buffer_.size(); }
  bool poisoned() const { return !error_.ok(); }

 private:
  size_t max_payload_;
  std::vector<uint8_t> buffer_;
  common::Status error_;
};

}  // namespace orcastream::net

#endif  // ORCASTREAM_NET_FRAME_H_
