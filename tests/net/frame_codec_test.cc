#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "net/loopback_channel.h"
#include "net/session.h"
#include "net/wire.h"

namespace orcastream::net {
namespace {

using common::Rng;

std::vector<uint8_t> RandomPayload(Rng* rng, size_t max_size) {
  std::vector<uint8_t> payload(
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(max_size))));
  for (uint8_t& b : payload) {
    b = static_cast<uint8_t>(rng->UniformInt(0, 255));
  }
  return payload;
}

FrameType RandomType(Rng* rng) {
  return static_cast<FrameType>(rng->UniformInt(1, 5));
}

/// Feeds `stream` to `decoder` in random-size chunks (including 1-byte
/// chunks), the way a torn TCP stream arrives.
common::Status FeedInChunks(FrameDecoder* decoder,
                            const std::vector<uint8_t>& stream, Rng* rng,
                            std::vector<DecodedFrame>* out) {
  size_t offset = 0;
  while (offset < stream.size()) {
    size_t n = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(stream.size() - offset)));
    common::Status status = decoder->Feed(stream.data() + offset, n, out);
    if (!status.ok()) return status;
    offset += n;
  }
  return common::Status::OK();
}

// --- Round-trip properties ---------------------------------------------------

TEST(FrameCodecTest, RoundTripsArbitraryPayloadsUnderArbitraryChunking) {
  Rng rng(42);
  for (int iteration = 0; iteration < 50; ++iteration) {
    // A burst of frames encoded back to back into one byte stream.
    int frames = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<DecodedFrame> expected;
    std::vector<uint8_t> stream;
    for (int i = 0; i < frames; ++i) {
      DecodedFrame frame;
      frame.type = RandomType(&rng);
      frame.payload = RandomPayload(&rng, 10'000);
      EncodeFrame(frame.type, frame.payload, &stream);
      expected.push_back(std::move(frame));
    }

    FrameDecoder decoder;
    std::vector<DecodedFrame> decoded;
    ASSERT_TRUE(FeedInChunks(&decoder, stream, &rng, &decoded).ok());
    ASSERT_EQ(decoded.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(decoded[i].type, expected[i].type);
      EXPECT_EQ(decoded[i].payload, expected[i].payload);
    }
    EXPECT_EQ(decoder.pending_bytes(), 0u);
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(FrameCodecTest, RoundTripsEmptyPayloadByteAtATime) {
  std::vector<uint8_t> stream;
  EncodeFrame(FrameType::kHeartbeat, {}, &stream);
  ASSERT_EQ(stream.size(), kFrameHeaderSize);

  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(&stream[i], 1, &decoded).ok());
    if (i + 1 < stream.size()) {
      EXPECT_TRUE(decoded.empty());
      EXPECT_GT(decoder.pending_bytes(), 0u);
    }
  }
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].type, FrameType::kHeartbeat);
  EXPECT_TRUE(decoded[0].payload.empty());
}

TEST(FrameCodecTest, TruncatedFrameStaysPendingUntilCompleted) {
  std::vector<uint8_t> stream;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  EncodeFrame(FrameType::kEvent, payload, &stream);

  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  ASSERT_TRUE(decoder.Feed(stream.data(), stream.size() - 1, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(decoder.pending_bytes(), stream.size() - 1);
  EXPECT_FALSE(decoder.poisoned());

  ASSERT_TRUE(decoder.Feed(stream.data() + stream.size() - 1, 1, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].payload, payload);
}

// A duplicated byte range that happens to be a whole frame decodes as two
// frames: the codec is oblivious, deduplication is the session layer's
// sequence-number job.
TEST(FrameCodecTest, DuplicatedFrameDecodesTwice) {
  std::vector<uint8_t> stream;
  EncodeFrame(FrameType::kAck, {9, 9}, &stream);
  std::vector<uint8_t> doubled = stream;
  doubled.insert(doubled.end(), stream.begin(), stream.end());

  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  ASSERT_TRUE(decoder.Feed(doubled.data(), doubled.size(), &decoded).ok());
  EXPECT_EQ(decoded.size(), 2u);
}

// --- Corruption rejection ----------------------------------------------------

TEST(FrameCodecTest, NoSingleBitFlipEverYieldsACorruptedFrame) {
  std::vector<uint8_t> payload = {10, 20, 30, 40};
  std::vector<uint8_t> clean;
  EncodeFrame(FrameType::kEvent, payload, &clean);
  // A trailing sentinel frame: a bit flip that *grows* payload_len is
  // undetectable from the torn frame alone (the decoder just waits for
  // more bytes), but must blow up once those "payload" bytes — really
  // the sentinel — fail the CRC.
  const std::vector<uint8_t> sentinel_payload(64, 0xa5);
  std::vector<uint8_t> sentinel;
  EncodeFrame(FrameType::kHeartbeat, sentinel_payload, &sentinel);

  for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<uint8_t> stream = clean;
    stream[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    stream.insert(stream.end(), sentinel.begin(), sentinel.end());

    FrameDecoder decoder;
    std::vector<DecodedFrame> decoded;
    common::Status status = decoder.Feed(stream.data(), stream.size(), &decoded);

    if (bit / 8 == 3) {
      // The frame-type byte is the one field the codec does not integrity-
      // check (any tag frames correctly; unknown tags are the session
      // layer's protocol error). Payload bytes must still be intact.
      ASSERT_TRUE(status.ok()) << "bit " << bit;
      ASSERT_EQ(decoded.size(), 2u) << "bit " << bit;
      EXPECT_EQ(decoded[0].payload, payload);
      continue;
    }
    // Everything else: either the stream errors out (header check or
    // CRC), or the flip grew payload_len past all the bytes we fed and
    // the decoder is entitled to keep waiting — a stalled stream is what
    // the session layer's heartbeat timeout exists for. Under no outcome
    // is a frame carrying corrupted bytes surfaced.
    if (status.ok()) {
      EXPECT_TRUE(decoded.empty()) << "bit " << bit;
      EXPECT_GT(decoder.pending_bytes(), 0u) << "bit " << bit;
      continue;
    }
    EXPECT_TRUE(decoder.poisoned()) << "bit " << bit;
    for (const DecodedFrame& frame : decoded) {
      EXPECT_TRUE(frame.payload == payload ||
                  frame.payload == sentinel_payload)
          << "bit " << bit << " surfaced a corrupted frame";
    }
  }
}

TEST(FrameCodecTest, FirstErrorPoisonsTheDecoderPermanently) {
  std::vector<uint8_t> bad = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0};
  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  common::Status first = decoder.Feed(bad.data(), bad.size(), &decoded);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(decoder.poisoned());

  // Even a perfectly valid frame is refused afterwards: framing on the
  // stream is lost for good and the same error keeps coming back.
  std::vector<uint8_t> good;
  EncodeFrame(FrameType::kHeartbeat, {}, &good);
  common::Status second = decoder.Feed(good.data(), good.size(), &decoded);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.ToString(), first.ToString());
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(decoder.pending_bytes(), 0u);  // buffer released, not grown
}

TEST(FrameCodecTest, HostileLengthPrefixIsRejectedBeforeAllocation) {
  // Hand-build a header claiming a 4 GiB payload. The decoder must reject
  // it from the 12 header bytes alone — pending_bytes() staying tiny is
  // the observable proof that no payload buffer was ever reserved.
  std::vector<uint8_t> header = {
      0x52, 0x4f,                  // magic, little-endian 0x4F52
      kFrameVersion,               // version
      5,                           // type
      0xff, 0xff, 0xff, 0xff,      // payload_len = 0xFFFFFFFF
      0x00, 0x00, 0x00, 0x00,      // crc (never reached)
  };
  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  common::Status status = decoder.Feed(header.data(), header.size(), &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodecTest, PayloadCapIsExactBoundary) {
  FrameDecoder small(/*max_payload=*/1024);

  std::vector<uint8_t> at_cap;
  EncodeFrame(FrameType::kEvent, std::vector<uint8_t>(1024, 7), &at_cap);
  std::vector<DecodedFrame> decoded;
  EXPECT_TRUE(small.Feed(at_cap.data(), at_cap.size(), &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].payload.size(), 1024u);

  std::vector<uint8_t> over_cap;
  EncodeFrame(FrameType::kEvent, std::vector<uint8_t>(1025, 7), &over_cap);
  FrameDecoder fresh(/*max_payload=*/1024);
  decoded.clear();
  EXPECT_FALSE(fresh.Feed(over_cap.data(), over_cap.size(), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(FrameCodecTest, WrongVersionIsRejected) {
  std::vector<uint8_t> stream;
  EncodeFrame(FrameType::kHeartbeat, {}, &stream);
  stream[2] = kFrameVersion + 1;
  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  EXPECT_FALSE(decoder.Feed(stream.data(), stream.size(), &decoded).ok());
}

TEST(FrameCodecTest, RandomGarbageNeverDecodesAndNeverCrashes) {
  Rng rng(1234);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<uint8_t> garbage = RandomPayload(&rng, 4096);
    FrameDecoder decoder;
    std::vector<DecodedFrame> decoded;
    // Feeding garbage either errors out or leaves bytes pending (a torn
    // prefix that happens to look like a valid header); a full decoded
    // frame from random bytes is a ~2^-32 CRC fluke we treat as a bug.
    common::Status status =
        FeedInChunks(&decoder, garbage, &rng, &decoded);
    if (status.ok()) {
      EXPECT_TRUE(decoded.empty());
    }
  }
}

// --- Wire format pins --------------------------------------------------------
//
// Fast paths (slice-by-8 CRC, direct header writes, block appends) must
// leave every byte on the wire where it was. These cases pin the format
// against references that share no code with the encoder.

/// CRC-32 (IEEE, reflected) one bit at a time.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(FrameCodecTest, Crc32MatchesTheStandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(FrameCodecTest, Crc32MatchesABitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(4321);
  std::vector<uint8_t> bytes(1024 + 8);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  // Every start offset 0-7 so the 8-byte blocks meet every alignment, and
  // every length 0-1024 so every tail length follows them.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32(bytes.data() + offset, len),
                BitwiseCrc32(bytes.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

/// A fixed snapshot of one operator and one PE record.
runtime::MetricsSnapshot GoldenSnapshot() {
  runtime::MetricsSnapshot snapshot;
  snapshot.collected_at = 30.5;
  runtime::OperatorMetricRecord op;
  op.job = common::JobId(1);
  op.pe = common::PeId(2);
  op.operator_name = "agg";
  op.metric_name = "nTuples";
  op.kind = runtime::MetricKind::kCustom;
  op.value = -5;
  op.port = 1;
  op.output_port = true;
  snapshot.operator_metrics.push_back(op);
  runtime::PeMetricRecord pe;
  pe.job = common::JobId(1);
  pe.pe = common::PeId(2);
  pe.metric_name = "queueSize";
  pe.value = int64_t{1} << 30;
  snapshot.pe_metrics.push_back(pe);
  return snapshot;
}

/// The EVENT frame carrying GoldenSnapshot() as sequence 7, byte for
/// byte. The CRC was computed independently (zlib's crc32).
const std::vector<uint8_t>& GoldenEventFrame() {
  static const std::vector<uint8_t> kFrame = {
      // header: magic, version, type, payload_len = 111, crc32
      0x52, 0x4f, 0x01, 0x05, 0x6f, 0x00, 0x00, 0x00, 0x4d, 0x7e, 0xb2, 0x10,
      // seq = 7, kind = metrics snapshot
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
      // collected_at = 30.5, operator record count = 1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3e, 0x40, 0x01, 0x00, 0x00, 0x00,
      // job = 1, pe = 2
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // "agg", "nTuples"
      0x03, 0x00, 0x00, 0x00, 'a', 'g', 'g',
      0x07, 0x00, 0x00, 0x00, 'n', 'T', 'u', 'p', 'l', 'e', 's',
      // kind = custom, value = -5, port = 1, output_port = true
      0x01, 0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0x01, 0x00, 0x00, 0x00, 0x01,
      // PE record count = 1; job = 1, pe = 2
      0x01, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // "queueSize", kind = builtin, value = 2^30
      0x09, 0x00, 0x00, 0x00, 'q', 'u', 'e', 'u', 'e', 'S', 'i', 'z', 'e',
      0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
  };
  return kFrame;
}

TEST(FrameCodecTest, EventFrameEncodesToGoldenBytes) {
  std::vector<uint8_t> payload = EncodeMetricsEvent(7, GoldenSnapshot());
  std::vector<uint8_t> frame;
  EncodeFrame(FrameType::kEvent, payload, &frame);
  EXPECT_EQ(frame, GoldenEventFrame());

  // The session layer writes the header and payload straight into its
  // output ring; what reaches the wire must be the same bytes.
  auto [client, server] = LoopbackChannel::CreatePair();
  FramedConn conn(std::move(client), kMaxFramePayload);
  ASSERT_TRUE(conn.QueueFrame(FrameType::kEvent, payload));
  ASSERT_TRUE(conn.Flush(0).ok());
  std::vector<uint8_t> wire(2 * GoldenEventFrame().size());
  common::Result<size_t> got = server->Receive(wire.data(), wire.size());
  ASSERT_TRUE(got.ok());
  wire.resize(*got);
  EXPECT_EQ(wire, GoldenEventFrame());

  // And the golden bytes decode back to the snapshot.
  FrameDecoder decoder;
  std::vector<DecodedFrame> decoded;
  ASSERT_TRUE(decoder
                  .Feed(GoldenEventFrame().data(), GoldenEventFrame().size(),
                        &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 1u);
  EventMsg event;
  ASSERT_TRUE(DecodeEvent(decoded[0].payload, &event).ok());
  EXPECT_EQ(event.seq, 7u);
  ASSERT_EQ(event.snapshot.operator_metrics.size(), 1u);
  EXPECT_EQ(event.snapshot.operator_metrics[0].metric_name, "nTuples");
  ASSERT_EQ(event.snapshot.pe_metrics.size(), 1u);
  EXPECT_EQ(event.snapshot.pe_metrics[0].value, int64_t{1} << 30);
}

// --- Wire message round trips and hostile payloads ---------------------------

TEST(WireCodecTest, SessionControlMessagesRoundTrip) {
  HelloMsg hello;
  hello.client_id = 0x1122334455667788ull;
  hello.first_seq = 42;
  HelloMsg hello2;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &hello2).ok());
  EXPECT_EQ(hello2.protocol, hello.protocol);
  EXPECT_EQ(hello2.client_id, hello.client_id);
  EXPECT_EQ(hello2.first_seq, hello.first_seq);

  WelcomeMsg welcome;
  welcome.last_applied = 987654321;
  WelcomeMsg welcome2;
  ASSERT_TRUE(DecodeWelcome(EncodeWelcome(welcome), &welcome2).ok());
  EXPECT_EQ(welcome2.last_applied, welcome.last_applied);

  AckMsg ack;
  ack.last_applied = 17;
  AckMsg ack2;
  ASSERT_TRUE(DecodeAck(EncodeAck(ack), &ack2).ok());
  EXPECT_EQ(ack2.last_applied, ack.last_applied);
}

TEST(WireCodecTest, PeFailureEventRoundTrips) {
  runtime::PeFailureNotice notice;
  notice.job = common::JobId(7);
  notice.app_name = "iot_fleet";
  notice.pe = common::PeId(123);
  notice.host = common::HostId(3);
  notice.reason = "segfault in operator \"parse\"";
  notice.detected_at = 12.625;  // exact in binary — round trip must be ==
  notice.operators = {"parse", "enrich", "route"};

  EventMsg decoded;
  ASSERT_TRUE(DecodeEvent(EncodePeFailureEvent(99, notice), &decoded).ok());
  EXPECT_EQ(decoded.seq, 99u);
  ASSERT_EQ(decoded.kind, EventKind::kPeFailure);
  EXPECT_EQ(decoded.failure.job, notice.job);
  EXPECT_EQ(decoded.failure.app_name, notice.app_name);
  EXPECT_EQ(decoded.failure.pe, notice.pe);
  EXPECT_EQ(decoded.failure.host, notice.host);
  EXPECT_EQ(decoded.failure.reason, notice.reason);
  EXPECT_EQ(decoded.failure.detected_at, notice.detected_at);
  EXPECT_EQ(decoded.failure.operators, notice.operators);
}

TEST(WireCodecTest, MetricsSnapshotRoundTrips) {
  runtime::MetricsSnapshot snapshot;
  snapshot.collected_at = 30.5;
  runtime::OperatorMetricRecord op;
  op.job = common::JobId(1);
  op.pe = common::PeId(2);
  op.operator_name = "agg";
  op.metric_name = "nTuplesProcessed";
  op.kind = runtime::MetricKind::kCustom;
  op.value = -5;  // signed values survive
  op.port = 1;
  op.output_port = true;
  snapshot.operator_metrics.push_back(op);
  runtime::PeMetricRecord pe;
  pe.job = common::JobId(1);
  pe.pe = common::PeId(2);
  pe.metric_name = "queueSize";
  pe.value = 1 << 30;
  snapshot.pe_metrics.push_back(pe);

  EventMsg decoded;
  ASSERT_TRUE(DecodeEvent(EncodeMetricsEvent(3, snapshot), &decoded).ok());
  EXPECT_EQ(decoded.seq, 3u);
  ASSERT_EQ(decoded.kind, EventKind::kMetricsSnapshot);
  EXPECT_EQ(decoded.snapshot.collected_at, snapshot.collected_at);
  ASSERT_EQ(decoded.snapshot.operator_metrics.size(), 1u);
  const auto& op2 = decoded.snapshot.operator_metrics[0];
  EXPECT_EQ(op2.operator_name, op.operator_name);
  EXPECT_EQ(op2.metric_name, op.metric_name);
  EXPECT_EQ(op2.kind, op.kind);
  EXPECT_EQ(op2.value, op.value);
  EXPECT_EQ(op2.port, op.port);
  EXPECT_EQ(op2.output_port, op.output_port);
  ASSERT_EQ(decoded.snapshot.pe_metrics.size(), 1u);
  EXPECT_EQ(decoded.snapshot.pe_metrics[0].value, pe.value);
}

TEST(WireCodecTest, UserEventRoundTrips) {
  UserEventMsg user;
  user.name = "addHosts";
  user.attributes = {{"count", "4"}, {"pool", "spot"}};
  EventMsg decoded;
  ASSERT_TRUE(DecodeEvent(EncodeUserEvent(8, user), &decoded).ok());
  EXPECT_EQ(decoded.seq, 8u);
  ASSERT_EQ(decoded.kind, EventKind::kUserEvent);
  EXPECT_EQ(decoded.user.name, user.name);
  EXPECT_EQ(decoded.user.attributes, user.attributes);
}

TEST(WireCodecTest, HostilePayloadsFailCleanlyWithoutUb) {
  Rng rng(77);
  // Random bytes through every decoder: must never crash (the ASan/UBSan
  // CI job is the teeth here) and must fail or succeed with a clean
  // Status, including lengths that run past the end of the buffer.
  for (int iteration = 0; iteration < 500; ++iteration) {
    std::vector<uint8_t> bytes = RandomPayload(&rng, 256);
    HelloMsg hello;
    (void)DecodeHello(bytes, &hello);
    WelcomeMsg welcome;
    (void)DecodeWelcome(bytes, &welcome);
    AckMsg ack;
    (void)DecodeAck(bytes, &ack);
    EventMsg event;
    (void)DecodeEvent(bytes, &event);
  }

  // Truncations of a real event payload: every prefix must decode or fail
  // cleanly, never read past the end.
  runtime::PeFailureNotice notice;
  notice.app_name = "app";
  notice.reason = "r";
  notice.operators = {"a", "b"};
  std::vector<uint8_t> full = EncodePeFailureEvent(1, notice);
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> prefix(full.begin(), full.begin() + len);
    EventMsg event;
    EXPECT_FALSE(DecodeEvent(prefix, &event).ok()) << "prefix " << len;
  }

  // A length field claiming more elements than bytes remain must be
  // caught before any allocation sized from it.
  WireWriter writer;
  writer.U64(1);                       // seq
  writer.U8(1);                        // kind = kPeFailure
  writer.I64(1);                       // job
  writer.U32(0xffffffffu);             // app_name length: hostile
  EventMsg event;
  EXPECT_FALSE(DecodeEvent(writer.Take(), &event).ok());

  // A snapshot declaring 0xFFFFFFFF operator records in a short payload:
  // the decoder's record reserve must be capped by the bytes left, not
  // sized from the count.
  WireWriter snapshot;
  snapshot.U64(1);                     // seq
  snapshot.U8(2);                      // kind = kMetricsSnapshot
  snapshot.F64(0);                     // collected_at
  snapshot.U32(0xffffffffu);           // operator record count: hostile
  for (int i = 0; i < 100; ++i) snapshot.U8(0);
  EventMsg snapshot_event;
  EXPECT_FALSE(DecodeEvent(snapshot.Take(), &snapshot_event).ok());
}

TEST(WireCodecTest, UnknownEventKindIsRejected) {
  WireWriter writer;
  writer.U64(1);
  writer.U8(200);  // no such kind
  EventMsg event;
  EXPECT_FALSE(DecodeEvent(writer.Take(), &event).ok());
}

}  // namespace
}  // namespace orcastream::net
