#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "net/ring_buffer.h"

namespace orcastream::net {
namespace {

using common::Rng;

/// Bytes 0, 1, 2, ... from `start` (mod 256): a stream whose order is
/// visible in every byte.
std::vector<uint8_t> Sequence(size_t n, uint8_t start = 0) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>(start + i);
  }
  return bytes;
}

std::vector<uint8_t> ReadAll(ByteRing* ring) {
  std::vector<uint8_t> out(ring->size());
  EXPECT_EQ(ring->Read(out.data(), out.size()), out.size());
  return out;
}

// --- Model check -------------------------------------------------------------

/// Random Write/Read/Peek/Discard sizes against a std::deque model. The
/// capacities straddle the initial storage, a non-power-of-two bound and
/// a multi-doubling bound, so growth, clamping and wrap all get hit.
TEST(ByteRingTest, MatchesADequeModelUnderRandomOperations) {
  Rng rng(2024);
  for (size_t capacity : {size_t{1}, size_t{7}, size_t{4096}, size_t{5000},
                          size_t{3 * 4096 + 5}}) {
    ByteRing ring(capacity);
    std::deque<uint8_t> model;
    uint8_t next = 0;
    for (int op = 0; op < 2000; ++op) {
      size_t n = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(capacity + capacity / 2)));
      std::vector<uint8_t> buf(n);
      switch (rng.UniformInt(0, 3)) {
        case 0: {  // Write
          for (uint8_t& b : buf) b = next++;
          size_t want = std::min(n, capacity - model.size());
          ASSERT_EQ(ring.Write(buf.data(), n), want) << "capacity " << capacity;
          model.insert(model.end(), buf.begin(), buf.begin() + want);
          next = static_cast<uint8_t>(next - (n - want));
          break;
        }
        case 1: {  // Read
          size_t want = std::min(n, model.size());
          ASSERT_EQ(ring.Read(buf.data(), n), want);
          buf.resize(want);
          ASSERT_EQ(buf, std::vector<uint8_t>(model.begin(),
                                              model.begin() + want))
              << "capacity " << capacity;
          model.erase(model.begin(), model.begin() + want);
          break;
        }
        case 2: {  // Peek
          size_t want = std::min(n, model.size());
          ASSERT_EQ(ring.Peek(buf.data(), n), want);
          buf.resize(want);
          ASSERT_EQ(buf, std::vector<uint8_t>(model.begin(),
                                              model.begin() + want))
              << "capacity " << capacity;
          break;
        }
        default: {  // Discard
          size_t want = std::min(n, model.size());
          ASSERT_EQ(ring.Discard(n), want);
          model.erase(model.begin(), model.begin() + want);
          break;
        }
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.free(), capacity - model.size());
      ASSERT_EQ(ring.empty(), model.empty());
      ASSERT_LE(ring.allocated(), capacity);
      ASSERT_GE(ring.allocated(), ring.size());
    }
    std::vector<uint8_t> rest = ReadAll(&ring);
    EXPECT_EQ(rest, std::vector<uint8_t>(model.begin(), model.end()));
  }
}

// --- Targeted cases ----------------------------------------------------------

TEST(ByteRingTest, KeepsByteOrderAcrossWrapPoints) {
  ByteRing ring(1000);
  std::vector<uint8_t> first = Sequence(1000);
  ASSERT_EQ(ring.Write(first.data(), first.size()), 1000u);
  // Fill to capacity, then move the head so every later write wraps at a
  // different offset.
  std::vector<uint8_t> sink(1000);
  uint8_t expect = 0;
  for (size_t step : {size_t{1}, size_t{333}, size_t{999}, size_t{500}}) {
    ASSERT_EQ(ring.Read(sink.data(), step), step);
    for (size_t i = 0; i < step; ++i) {
      ASSERT_EQ(sink[i], expect++) << "step " << step;
    }
    std::vector<uint8_t> more =
        Sequence(step, static_cast<uint8_t>(expect + ring.size()));
    ASSERT_EQ(ring.Write(more.data(), more.size()), step);
    ASSERT_EQ(ring.free(), 0u);
  }
  std::vector<uint8_t> rest = ReadAll(&ring);
  for (uint8_t b : rest) ASSERT_EQ(b, expect++);
}

TEST(ByteRingTest, TruncatesWritesAtCapacity) {
  ByteRing ring(10);
  std::vector<uint8_t> bytes = Sequence(16);
  EXPECT_EQ(ring.Write(bytes.data(), 6), 6u);
  // Only the free space is accepted; the rest is the caller's to retry.
  EXPECT_EQ(ring.Write(bytes.data() + 6, 10), 4u);
  EXPECT_EQ(ring.free(), 0u);
  EXPECT_EQ(ring.Write(bytes.data() + 10, 6), 0u);
  EXPECT_EQ(ring.allocated(), 10u);  // clamped to the bound, never past it
  EXPECT_EQ(ReadAll(&ring), Sequence(10));
}

TEST(ByteRingTest, PeekDoesNotConsume) {
  ByteRing ring(64);
  std::vector<uint8_t> bytes = Sequence(40);
  ASSERT_EQ(ring.Write(bytes.data(), bytes.size()), 40u);
  std::vector<uint8_t> a(64), b(64);
  EXPECT_EQ(ring.Peek(a.data(), 64), 40u);
  EXPECT_EQ(ring.Peek(b.data(), 64), 40u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ring.size(), 40u);
  EXPECT_EQ(ring.Discard(15), 15u);
  EXPECT_EQ(ring.Peek(a.data(), 5), 5u);
  EXPECT_EQ(std::vector<uint8_t>(a.begin(), a.begin() + 5),
            std::vector<uint8_t>(bytes.begin() + 15, bytes.begin() + 20));
  EXPECT_EQ(ring.size(), 25u);
}

TEST(ByteRingTest, StorageGrowsOnDemandUpToCapacity) {
  const size_t capacity = 4 * 1024 * 1024 + 12;
  ByteRing ring(capacity);
  EXPECT_EQ(ring.allocated(), 0u);  // a bound, not an allocation
  std::vector<uint8_t> bytes = Sequence(ByteRing::kInitialStorage + 1);
  ASSERT_EQ(ring.Write(bytes.data(), 1), 1u);
  EXPECT_EQ(ring.allocated(), ByteRing::kInitialStorage);
  ASSERT_EQ(ring.Write(bytes.data(), bytes.size()), bytes.size());
  EXPECT_EQ(ring.allocated(), 2 * ByteRing::kInitialStorage);
  // Draining keeps the storage; refilling it needs no new growth.
  ReadAll(&ring);
  EXPECT_EQ(ring.allocated(), 2 * ByteRing::kInitialStorage);
  // The last doubling clamps to a capacity that is not a power of two.
  std::vector<uint8_t> big = Sequence(capacity);
  ASSERT_EQ(ring.Write(big.data(), big.size()), capacity);
  EXPECT_EQ(ring.allocated(), capacity);
  EXPECT_EQ(ReadAll(&ring), big);
}

TEST(ByteRingTest, GrowsWhileTheDataWraps) {
  ByteRing ring(64 * 1024);
  const size_t storage = ByteRing::kInitialStorage;
  std::vector<uint8_t> stream = Sequence(3 * storage);
  size_t written = 0;
  size_t read = 0;
  // Head near the end of the initial storage, then a write that wraps.
  ASSERT_EQ(ring.Write(stream.data(), storage - 100), storage - 100);
  written = storage - 100;
  std::vector<uint8_t> sink(storage);
  ASSERT_EQ(ring.Read(sink.data(), storage - 200), storage - 200);
  read = storage - 200;
  ASSERT_EQ(ring.Write(stream.data() + written, 1000), 1000u);
  written += 1000;
  ASSERT_EQ(ring.allocated(), storage);  // 1100 bytes live, wrapped
  // This write outgrows the storage while the live bytes straddle the
  // wrap point: growth must unwrap them in order.
  ASSERT_EQ(ring.Write(stream.data() + written, storage), storage);
  written += storage;
  EXPECT_EQ(ring.allocated(), 2 * storage);
  std::vector<uint8_t> rest = ReadAll(&ring);
  EXPECT_EQ(rest, std::vector<uint8_t>(stream.begin() + read,
                                       stream.begin() + written));
}

TEST(ByteRingTest, RefillsToCapacityAfterEmptyingMidStorage) {
  ByteRing ring(ByteRing::kInitialStorage);
  std::vector<uint8_t> bytes = Sequence(ByteRing::kInitialStorage);
  // Empty the ring with its head mid-storage; a full-capacity write must
  // then fit without growth and read back in order.
  ASSERT_EQ(ring.Write(bytes.data(), 1000), 1000u);
  ASSERT_EQ(ring.Discard(1000), 1000u);
  ASSERT_EQ(ring.Write(bytes.data(), bytes.size()), bytes.size());
  EXPECT_EQ(ring.allocated(), ByteRing::kInitialStorage);
  EXPECT_EQ(ReadAll(&ring), bytes);
}

TEST(ByteRingTest, ZeroCapacityAcceptsNothing) {
  ByteRing ring(0);
  uint8_t byte = 42;
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_EQ(ring.free(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.Write(&byte, 1), 0u);
  EXPECT_EQ(ring.Write(nullptr, 0), 0u);
  EXPECT_EQ(ring.Read(&byte, 1), 0u);
  EXPECT_EQ(ring.Peek(&byte, 1), 0u);
  EXPECT_EQ(ring.Discard(1), 0u);
  EXPECT_EQ(ring.allocated(), 0u);
  EXPECT_EQ(byte, 42);
}

}  // namespace
}  // namespace orcastream::net
