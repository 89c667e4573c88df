#include "net/wire.h"

#include <algorithm>
#include <cstring>

namespace orcastream::net {

using common::Status;

namespace {

/// Appends the low `N` bytes of `v`, little-endian, as one block.
template <int N>
void AppendLittleEndian(uint64_t v, std::vector<uint8_t>* out) {
  uint8_t bytes[N] = {};
  for (int i = 0; i < N; ++i) {
    bytes[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
  out->insert(out->end(), bytes, bytes + N);
}

}  // namespace

void WireWriter::U32(uint32_t v) { AppendLittleEndian<4>(v, &out_); }

void WireWriter::U64(uint64_t v) { AppendLittleEndian<8>(v, &out_); }

void WireWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

bool WireReader::Take(size_t n, const uint8_t** out) {
  if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
    ok_ = false;
    return false;
  }
  *out = p_;
  p_ += n;
  return true;
}

uint8_t WireReader::U8() {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return 0;
  return p[0];
}

uint32_t WireReader::U32() {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return 0;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t WireReader::U64() {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return 0;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double WireReader::F64() {
  uint64_t bits = U64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  uint32_t len = U32();
  const uint8_t* p = nullptr;
  // Length validated against the remaining payload before allocation.
  if (!Take(len, &p)) return std::string();
  return std::string(reinterpret_cast<const char*>(p), len);
}

Status WireReader::Finish(const char* what) const {
  if (!ok_) {
    return Status::ParseError(std::string(what) + ": truncated payload");
  }
  if (p_ != end_) {
    return Status::ParseError(std::string(what) + ": trailing payload bytes");
  }
  return Status::OK();
}

// --- Session control messages ----------------------------------------------

std::vector<uint8_t> EncodeHello(const HelloMsg& msg) {
  WireWriter w;
  w.U32(msg.protocol);
  w.U64(msg.client_id);
  w.U64(msg.first_seq);
  return w.Take();
}

Status DecodeHello(const std::vector<uint8_t>& payload, HelloMsg* out) {
  WireReader r(payload);
  out->protocol = r.U32();
  out->client_id = r.U64();
  out->first_seq = r.U64();
  return r.Finish("HELLO");
}

std::vector<uint8_t> EncodeWelcome(const WelcomeMsg& msg) {
  WireWriter w;
  w.U64(msg.last_applied);
  return w.Take();
}

Status DecodeWelcome(const std::vector<uint8_t>& payload, WelcomeMsg* out) {
  WireReader r(payload);
  out->last_applied = r.U64();
  return r.Finish("WELCOME");
}

std::vector<uint8_t> EncodeAck(const AckMsg& msg) {
  WireWriter w;
  w.U64(msg.last_applied);
  return w.Take();
}

Status DecodeAck(const std::vector<uint8_t>& payload, AckMsg* out) {
  WireReader r(payload);
  out->last_applied = r.U64();
  return r.Finish("ACK");
}

// --- Event messages ---------------------------------------------------------

namespace {

void WriteFailure(const runtime::PeFailureNotice& n, WireWriter* w) {
  w->I64(n.job.value());
  w->Str(n.app_name);
  w->I64(n.pe.value());
  w->I64(n.host.value());
  w->Str(n.reason);
  w->F64(n.detected_at);
  w->U32(static_cast<uint32_t>(n.operators.size()));
  for (const std::string& op : n.operators) w->Str(op);
}

void ReadFailure(WireReader* r, runtime::PeFailureNotice* n) {
  n->job = common::JobId(r->I64());
  n->app_name = r->Str();
  n->pe = common::PeId(r->I64());
  n->host = common::HostId(r->I64());
  n->reason = r->Str();
  n->detected_at = r->F64();
  uint32_t count = r->U32();
  // Each operator name costs at least its 4-byte length prefix, so a
  // hostile count cannot outrun the payload by more than one iteration.
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    n->operators.push_back(r->Str());
  }
}

// Encoded sizes of the fixed-width parts of a snapshot record: job, pe,
// name length prefixes, kind, value (+ port, output flag for operators).
// A record's strings add their bytes on top, so these are also the
// smallest a record can be on the wire.
constexpr size_t kOperatorRecordMinBytes = 8 + 8 + 4 + 4 + 1 + 8 + 4 + 1;
constexpr size_t kPeRecordMinBytes = 8 + 8 + 4 + 1 + 8;

size_t SnapshotWireSize(const runtime::MetricsSnapshot& s) {
  size_t size = 8 + 4 + 4;  // collected_at, both record counts
  size += s.operator_metrics.size() * kOperatorRecordMinBytes;
  for (const runtime::OperatorMetricRecord& m : s.operator_metrics) {
    size += m.operator_name.size() + m.metric_name.size();
  }
  size += s.pe_metrics.size() * kPeRecordMinBytes;
  for (const runtime::PeMetricRecord& m : s.pe_metrics) {
    size += m.metric_name.size();
  }
  return size;
}

void WriteSnapshot(const runtime::MetricsSnapshot& s, WireWriter* w) {
  w->F64(s.collected_at);
  w->U32(static_cast<uint32_t>(s.operator_metrics.size()));
  for (const runtime::OperatorMetricRecord& m : s.operator_metrics) {
    w->I64(m.job.value());
    w->I64(m.pe.value());
    w->Str(m.operator_name);
    w->Str(m.metric_name);
    w->U8(static_cast<uint8_t>(m.kind));
    w->I64(m.value);
    w->I32(m.port);
    w->U8(m.output_port ? 1 : 0);
  }
  w->U32(static_cast<uint32_t>(s.pe_metrics.size()));
  for (const runtime::PeMetricRecord& m : s.pe_metrics) {
    w->I64(m.job.value());
    w->I64(m.pe.value());
    w->Str(m.metric_name);
    w->U8(static_cast<uint8_t>(m.kind));
    w->I64(m.value);
  }
}

void ReadSnapshot(WireReader* r, runtime::MetricsSnapshot* s) {
  s->collected_at = r->F64();
  uint32_t op_count = r->U32();
  // Capped by what the remaining bytes could hold, so a hostile count
  // cannot reserve more than the payload itself.
  s->operator_metrics.reserve(
      std::min<size_t>(op_count, r->remaining() / kOperatorRecordMinBytes));
  for (uint32_t i = 0; i < op_count && r->ok(); ++i) {
    runtime::OperatorMetricRecord m;
    m.job = common::JobId(r->I64());
    m.pe = common::PeId(r->I64());
    m.operator_name = r->Str();
    m.metric_name = r->Str();
    m.kind = static_cast<runtime::MetricKind>(r->U8());
    m.value = r->I64();
    m.port = r->I32();
    m.output_port = r->U8() != 0;
    s->operator_metrics.push_back(std::move(m));
  }
  uint32_t pe_count = r->U32();
  s->pe_metrics.reserve(
      std::min<size_t>(pe_count, r->remaining() / kPeRecordMinBytes));
  for (uint32_t i = 0; i < pe_count && r->ok(); ++i) {
    runtime::PeMetricRecord m;
    m.job = common::JobId(r->I64());
    m.pe = common::PeId(r->I64());
    m.metric_name = r->Str();
    m.kind = static_cast<runtime::MetricKind>(r->U8());
    m.value = r->I64();
    s->pe_metrics.push_back(std::move(m));
  }
}

void WriteUser(const UserEventMsg& u, WireWriter* w) {
  w->Str(u.name);
  w->U32(static_cast<uint32_t>(u.attributes.size()));
  for (const auto& [key, value] : u.attributes) {
    w->Str(key);
    w->Str(value);
  }
}

void ReadUser(WireReader* r, UserEventMsg* u) {
  u->name = r->Str();
  uint32_t count = r->U32();
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    std::string key = r->Str();
    u->attributes[std::move(key)] = r->Str();
  }
}

constexpr size_t kEventHeaderBytes = 8 + 1;  // seq, kind

void EncodeEventHeader(uint64_t seq, EventKind kind, WireWriter* w) {
  w->U64(seq);
  w->U8(static_cast<uint8_t>(kind));
}

}  // namespace

std::vector<uint8_t> EncodePeFailureEvent(uint64_t seq,
                                          const runtime::PeFailureNotice& n) {
  WireWriter w;
  EncodeEventHeader(seq, EventKind::kPeFailure, &w);
  WriteFailure(n, &w);
  return w.Take();
}

std::vector<uint8_t> EncodeMetricsEvent(uint64_t seq,
                                        const runtime::MetricsSnapshot& s) {
  WireWriter w;
  w.Reserve(kEventHeaderBytes + SnapshotWireSize(s));
  EncodeEventHeader(seq, EventKind::kMetricsSnapshot, &w);
  WriteSnapshot(s, &w);
  return w.Take();
}

std::vector<uint8_t> EncodeUserEvent(uint64_t seq, const UserEventMsg& u) {
  WireWriter w;
  EncodeEventHeader(seq, EventKind::kUserEvent, &w);
  WriteUser(u, &w);
  return w.Take();
}

Status DecodeEvent(const std::vector<uint8_t>& payload, EventMsg* out) {
  WireReader r(payload);
  out->seq = r.U64();
  uint8_t kind = r.U8();
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kPeFailure:
      out->kind = EventKind::kPeFailure;
      ReadFailure(&r, &out->failure);
      break;
    case EventKind::kMetricsSnapshot:
      out->kind = EventKind::kMetricsSnapshot;
      ReadSnapshot(&r, &out->snapshot);
      break;
    case EventKind::kUserEvent:
      out->kind = EventKind::kUserEvent;
      ReadUser(&r, &out->user);
      break;
    default:
      return Status::ParseError("EVENT: unknown event kind " +
                                std::to_string(kind));
  }
  return r.Finish("EVENT");
}

}  // namespace orcastream::net
