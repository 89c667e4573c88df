#include "net/frame.h"

#include <array>

#include "common/strings.h"

namespace orcastream::net {

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the classic byte-at-a-time table;
/// kCrcTables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so eight table lookups advance the CRC by eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

void PutU16(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v & 0xFF);
  p[1] = static_cast<uint8_t>((v >> 8) & 0xFF);
}

void PutU32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const CrcTables& t = kCrcTables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint32_t lo = crc ^ GetU32(data);
    uint32_t hi = GetU32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeFrameHeader(FrameType type, const uint8_t* payload,
                       size_t payload_len, uint8_t header[kFrameHeaderSize]) {
  PutU16(kFrameMagic, header);
  header[2] = kFrameVersion;
  header[3] = static_cast<uint8_t>(type);
  PutU32(static_cast<uint32_t>(payload_len), header + 4);
  PutU32(Crc32(payload, payload_len), header + 8);
}

void EncodeFrame(FrameType type, const uint8_t* payload, size_t payload_len,
                 std::vector<uint8_t>* out) {
  uint8_t header[kFrameHeaderSize] = {};
  EncodeFrameHeader(type, payload, payload_len, header);
  out->reserve(out->size() + kFrameHeaderSize + payload_len);
  out->insert(out->end(), header, header + kFrameHeaderSize);
  out->insert(out->end(), payload, payload + payload_len);
}

common::Status FrameDecoder::Feed(const uint8_t* data, size_t n,
                                  std::vector<DecodedFrame>* out) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + n);
  size_t pos = 0;
  while (buffer_.size() - pos >= kFrameHeaderSize) {
    const uint8_t* header = buffer_.data() + pos;
    uint16_t magic = GetU16(header);
    if (magic != kFrameMagic) {
      error_ = common::Status::ParseError(common::StrFormat(
          "frame magic mismatch: got 0x%04X, want 0x%04X",
          static_cast<unsigned>(magic), static_cast<unsigned>(kFrameMagic)));
      break;
    }
    uint8_t version = header[2];
    if (version != kFrameVersion) {
      error_ = common::Status::ParseError(common::StrFormat(
          "unsupported frame version %u (want %u)",
          static_cast<unsigned>(version),
          static_cast<unsigned>(kFrameVersion)));
      break;
    }
    uint32_t payload_len = GetU32(header + 4);
    // Validated from the header alone: a hostile length prefix is refused
    // before this decoder (or the caller) allocates payload storage.
    if (payload_len > max_payload_) {
      error_ = common::Status::ParseError(common::StrFormat(
          "frame payload length %u exceeds cap %zu",
          static_cast<unsigned>(payload_len), max_payload_));
      break;
    }
    if (buffer_.size() - pos < kFrameHeaderSize + payload_len) {
      break;  // incomplete frame — wait for more bytes
    }
    const uint8_t* payload = header + kFrameHeaderSize;
    uint32_t want_crc = GetU32(header + 8);
    uint32_t got_crc = Crc32(payload, payload_len);
    if (got_crc != want_crc) {
      error_ = common::Status::ParseError(common::StrFormat(
          "frame CRC mismatch: got 0x%08X, want 0x%08X", got_crc, want_crc));
      break;
    }
    DecodedFrame frame;
    frame.type = static_cast<FrameType>(header[3]);
    frame.payload.assign(payload, payload + payload_len);
    out->push_back(std::move(frame));
    pos += kFrameHeaderSize + payload_len;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<ptrdiff_t>(pos));
  if (!error_.ok()) buffer_.clear();
  return error_;
}

}  // namespace orcastream::net
