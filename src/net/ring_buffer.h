#ifndef ORCASTREAM_NET_RING_BUFFER_H_
#define ORCASTREAM_NET_RING_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

namespace orcastream::net {

/// Bounded byte ring used by every channel for staged send/receive
/// buffers. Writes beyond the free space are truncated (the caller retries
/// once the reader drains) — that truncation is the transport layer's
/// backpressure signal, so a hostile peer cannot force unbounded
/// allocation.
///
/// `capacity()` is a bound, not an allocation: storage starts empty and
/// doubles on demand (from kInitialStorage) up to the capacity, so a ring
/// sized for the largest legal frame costs only what it has held. Every
/// copy is at most two memcpy calls, split at the wrap point, and the
/// head returns to 0 whenever the ring empties.
class ByteRing {
 public:
  static constexpr size_t kInitialStorage = 4096;

  explicit ByteRing(size_t capacity) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  size_t free() const { return capacity_ - size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes of storage currently allocated (0 until the first Write).
  size_t allocated() const { return storage_; }

  /// Appends up to `n` bytes; returns how many were accepted.
  size_t Write(const uint8_t* data, size_t n) {
    size_t take = std::min(n, free());
    if (take == 0) return 0;
    if (size_ + take > storage_) Grow(size_ + take);
    size_t tail = head_ + size_;
    if (tail >= storage_) tail -= storage_;
    size_t first = std::min(take, storage_ - tail);
    std::memcpy(buf_.get() + tail, data, first);
    if (take > first) std::memcpy(buf_.get(), data + first, take - first);
    size_ += take;
    return take;
  }

  /// Removes up to `n` bytes into `out`; returns how many were read.
  size_t Read(uint8_t* out, size_t n) { return Discard(Peek(out, n)); }

  /// Copies up to `n` bytes into `out` without consuming them.
  size_t Peek(uint8_t* out, size_t n) const {
    size_t take = std::min(n, size_);
    if (take == 0) return 0;
    size_t first = std::min(take, storage_ - head_);
    std::memcpy(out, buf_.get() + head_, first);
    if (take > first) std::memcpy(out + first, buf_.get(), take - first);
    return take;
  }

  /// Drops up to `n` bytes; returns how many were dropped.
  size_t Discard(size_t n) {
    size_t take = std::min(n, size_);
    size_ -= take;
    head_ = size_ == 0 ? 0 : head_ + take;
    if (head_ >= storage_) head_ -= storage_;
    return take;
  }

 private:
  /// Doubles storage until it holds `needed` bytes (clamped to the
  /// capacity) and moves the live bytes, unwrapped, to its start.
  void Grow(size_t needed) {
    size_t grown = std::max(storage_, kInitialStorage);
    while (grown < needed) grown *= 2;
    grown = std::min(grown, capacity_);
    std::unique_ptr<uint8_t[]> buf(new uint8_t[grown]);
    Peek(buf.get(), size_);
    buf_ = std::move(buf);
    storage_ = grown;
    head_ = 0;
  }

  size_t capacity_;
  std::unique_ptr<uint8_t[]> buf_;
  size_t storage_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace orcastream::net

#endif  // ORCASTREAM_NET_RING_BUFFER_H_
