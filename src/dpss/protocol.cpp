#include "dpss/protocol.h"

// Field lists: the one definition of each payload layout, walked by
// net::Writer to encode and net::Reader to decode (see net/message.h).
// They live in namespace net so the codec finds them by argument-dependent
// lookup, and are `static` so the wire format stays private to this file;
// the modules that own the structs never learn it.
namespace visapult::net {

template <class Io>
static void fields(Io& io, placement::ServerAddress& a) {
  io(a.host, as<std::uint32_t>(a.port));
}

template <class Io>
static void fields(Io& io, meta::DatasetLayout& l) {
  io(l.total_bytes, l.block_bytes, l.stripe_blocks, l.server_count);
}

template <class Io>
static void fields(Io& io, codec::EcProfile& e) {
  io(e.data_slices, e.parity_slices);
}

template <class Io>
static void fields(Io& io, meta::PlacementOptions& p) {
  io(p.replication_factor, p.ring_vnodes, p.ec);
}

template <class Io>
static void fields(Io& io, meta::LogEntry& e) {
  io(e.epoch, enum_field(e.kind, meta::EntryKind::kUpdate), e.dataset,
     e.layout, e.placement, e.servers);
}

template <class Io>
static void fields(Io& io, meta::GenerationFloor& f) {
  io(f.dataset, f.generation);
}

template <class Io>
static void fields(Io& io, obs::SpanRecord& s) {
  io(s.trace_id, s.span_id, s.parent_span_id, s.host, s.stage, s.start,
     s.duration, s.queue_seconds, s.bytes);
}

template <class Io>
static void fields(Io& io, dpss::CompressionConfig& c) {
  io(enum_field(c.codec, dpss::Codec::kLossyQuant),
     as<std::uint8_t>(c.quant_bits));
}

template <class Io>
static void fields(Io& io, dpss::OpenRequest& r) {
  io(r.dataset, r.auth_token, r.known_epoch);
}

template <class Io>
static void fields(Io& io, dpss::OpenReply& r) {
  io(r.handle, r.layout, r.servers, r.replication_factor, r.ring_vnodes,
     r.ec);
  // The client builds a ReedSolomon straight from this profile; reject
  // field-impossible geometries before they reach GF(2^8) math.
  io.check(r.ec.data_slices >= 1 && r.ec.data_slices <= 255 &&
               r.ec.parity_slices <= 255 - r.ec.data_slices,
           "EC profile outside GF(2^8) limits");
  // One (health, load) pair per server, padded on encode so the decoder
  // always gets parallel vectors.
  for (std::size_t i = 0; i < r.servers.size(); ++i) {
    auto health = i < r.server_health.size() ? r.server_health[i]
                                             : placement::HealthState::kUp;
    std::uint64_t load = i < r.server_load.size() ? r.server_load[i] : 0;
    io(enum_field(health, placement::HealthState::kDown), load);
    if constexpr (Io::kReading) {
      r.server_health.push_back(health);
      r.server_load.push_back(load);
    }
  }
  io(r.catalog_epoch, r.not_modified, r.max_generation,
     enum_field(r.cache_hint, meta::CacheHint::kCold));
}

template <class Io>
static void fields(Io& io, dpss::HeartbeatRequest& r) {
  io(r.server, r.requests_served, r.floors);
}

template <class Io>
static void fields(Io& io, dpss::FailureReport& r) {
  io(r.server, r.dataset, r.block, r.reason);
}

template <class Io>
static void fields(Io& io, dpss::BlockReadRequest& r) {
  io(r.dataset, r.block, r.compression);
}

template <class Io>
static void fields(Io& io, dpss::BlockReadReply& r) {
  io(r.block, r.compressed, r.generation, r.data);
}

template <class Io>
static void fields(Io& io, dpss::IngestWriteRequest::DeltaTarget& d) {
  io(d.server, d.dataset, d.block, d.coefficient);
}

template <class Io>
static void fields(Io& io, dpss::IngestWriteRequest& r) {
  io(r.dataset, r.block, r.generation,
     enum_field(r.ack_policy, ingest::AckPolicy::kPrimary), r.data, r.chain,
     r.deltas);
}

template <class Io>
static void fields(Io& io, dpss::IngestWriteReply& r) {
  io(r.block, r.generation, r.acks, r.missed);
}

template <class Io>
static void fields(Io& io, dpss::ParityDeltaRequest& r) {
  io(r.dataset, r.block, r.coefficient, r.delta);
}

template <class Io>
static void fields(Io& io, dpss::ParityDeltaReply& r) {
  io(r.block, r.generation);
}

template <class Io>
static void fields(Io& io, dpss::FixupReport& r) {
  io(r.dataset, r.block, r.generation, r.target);
}

template <class Io>
static void fields(Io& io, dpss::PlacementDeltaRequest& r) {
  io(r.dataset, r.since_epoch);
}

template <class Io>
static void fields(Io& io, dpss::PlacementDeltaReply& r) {
  io(r.snapshot, r.epoch, r.entries);
}

template <class Io>
static void fields(Io& io, dpss::MetaAppendRequest& r) {
  io(r.entry);
}

template <class Io>
static void fields(Io& io, dpss::MetaAppendReply& r) {
  io(r.accepted, r.follower_epoch);
}

template <class Io>
static void fields(Io& io, dpss::MetaStatus& s) {
  io(s.shard_id, s.shard_count, s.is_leader, s.epoch, s.address, s.datasets,
     s.delta_opens, s.snapshot_opens, s.forwarded_opens, s.leader_elections);
}

template <class Io>
static void fields(Io& io, dpss::SpanExportBatch& b) {
  io(b.host, b.sent_at, b.spans);
}

}  // namespace visapult::net

namespace visapult::dpss {

namespace {

// Decodes a request: anything but `type` is a protocol error.
template <class T>
core::Result<T> decode(const net::Message& m, MessageType type,
                       const char* what) {
  if (m.type != type) {
    return core::data_loss(std::string("unexpected message type for ") + what);
  }
  return net::Reader(m.payload).read<T>();
}

// Decodes a reply, which may instead be the peer's kErrorReply.
template <class T>
core::Result<T> decode_reply(const net::Message& m, MessageType type,
                             const char* what) {
  if (m.type == kErrorReply) return decode_error_reply(m);
  return decode<T>(m, type, what);
}

net::Message empty(MessageType type) { return net::Message{type, 0, 0, {}}; }

}  // namespace

net::Message encode_open_request(const OpenRequest& r) {
  return net::encode(kOpenRequest, r);
}
core::Result<OpenRequest> decode_open_request(const net::Message& m) {
  return decode<OpenRequest>(m, kOpenRequest, "OpenRequest");
}

net::Message encode_open_reply(const OpenReply& r) {
  return net::encode(kOpenReply, r);
}
core::Result<OpenReply> decode_open_reply(const net::Message& m) {
  return decode_reply<OpenReply>(m, kOpenReply, "OpenReply");
}

net::Message encode_block_read_request(const BlockReadRequest& r) {
  return net::encode(kBlockReadRequest, r);
}
core::Result<BlockReadRequest> decode_block_read_request(const net::Message& m) {
  return decode<BlockReadRequest>(m, kBlockReadRequest, "BlockReadRequest");
}

net::Message encode_block_read_reply(const BlockReadReply& r) {
  return net::encode(kBlockReadReply, r);
}
core::Result<BlockReadReply> decode_block_read_reply(const net::Message& m) {
  return decode_reply<BlockReadReply>(m, kBlockReadReply, "BlockReadReply");
}

net::Message encode_error_reply(const core::Status& status) {
  net::Writer w;
  w(static_cast<std::uint32_t>(status.code()), status.message());
  return net::Message{kErrorReply, 0, 0, w.take()};
}

core::Status decode_error_reply(const net::Message& m) {
  if (m.type != kErrorReply) return core::Status::ok();
  net::Reader r(m.payload);
  std::uint32_t code = 0;
  std::string message;
  r(code, message);
  // An "error" carrying kOk would read as success to every caller.
  if (!r.ok() || code == 0) return core::data_loss("malformed error reply");
  return core::Status(static_cast<core::StatusCode>(code), std::move(message));
}

net::Message encode_heartbeat(const HeartbeatRequest& r) {
  return net::encode(kHeartbeat, r);
}
core::Result<HeartbeatRequest> decode_heartbeat(const net::Message& m) {
  return decode<HeartbeatRequest>(m, kHeartbeat, "Heartbeat");
}

net::Message encode_heartbeat_reply(
    const std::vector<meta::GenerationFloor>& floors) {
  return net::encode(kHeartbeatReply, floors);
}
core::Result<std::vector<meta::GenerationFloor>> decode_heartbeat_reply(
    const net::Message& m) {
  return decode_reply<std::vector<meta::GenerationFloor>>(m, kHeartbeatReply,
                                                          "HeartbeatReply");
}

net::Message encode_failure_report(const FailureReport& r) {
  return net::encode(kFailureReport, r);
}
core::Result<FailureReport> decode_failure_report(const net::Message& m) {
  return decode<FailureReport>(m, kFailureReport, "FailureReport");
}

net::Message encode_ingest_write_request(const IngestWriteRequest& r) {
  return net::encode(kIngestWriteRequest, r);
}
core::Result<IngestWriteRequest> decode_ingest_write_request(
    const net::Message& m) {
  return decode<IngestWriteRequest>(m, kIngestWriteRequest,
                                    "IngestWriteRequest");
}

net::Message encode_ingest_write_reply(const IngestWriteReply& r) {
  return net::encode(kIngestWriteReply, r);
}
core::Result<IngestWriteReply> decode_ingest_write_reply(
    const net::Message& m) {
  return decode_reply<IngestWriteReply>(m, kIngestWriteReply,
                                        "IngestWriteReply");
}

net::Message encode_parity_delta_request(const ParityDeltaRequest& r) {
  return net::encode(kParityDeltaRequest, r);
}
core::Result<ParityDeltaRequest> decode_parity_delta_request(
    const net::Message& m) {
  return decode<ParityDeltaRequest>(m, kParityDeltaRequest,
                                    "ParityDeltaRequest");
}

net::Message encode_parity_delta_reply(const ParityDeltaReply& r) {
  return net::encode(kParityDeltaReply, r);
}
core::Result<ParityDeltaReply> decode_parity_delta_reply(
    const net::Message& m) {
  return decode_reply<ParityDeltaReply>(m, kParityDeltaReply,
                                        "ParityDeltaReply");
}

net::Message encode_fixup_report(const FixupReport& r) {
  return net::encode(kFixupReport, r);
}
core::Result<FixupReport> decode_fixup_report(const net::Message& m) {
  return decode<FixupReport>(m, kFixupReport, "FixupReport");
}

net::Message encode_stats_request() { return empty(kStatsRequest); }
net::Message encode_stats_reply(const std::string& text) {
  return net::encode(kStatsReply, text);
}
core::Result<std::string> decode_stats_reply(const net::Message& m) {
  return decode_reply<std::string>(m, kStatsReply, "StatsReply");
}

net::Message encode_span_export_request(const SpanExportBatch& b) {
  return net::encode(kSpanExportRequest, b);
}
core::Result<SpanExportBatch> decode_span_export_request(
    const net::Message& m) {
  return decode<SpanExportBatch>(m, kSpanExportRequest, "SpanExportRequest");
}

net::Message encode_span_export_reply(std::uint64_t accepted) {
  return net::encode(kSpanExportReply, accepted);
}
core::Result<std::uint64_t> decode_span_export_reply(const net::Message& m) {
  return decode_reply<std::uint64_t>(m, kSpanExportReply, "SpanExportReply");
}

net::Message encode_profile_request() { return empty(kProfileRequest); }
net::Message encode_profile_reply(const std::string& text) {
  return net::encode(kProfileReply, text);
}
core::Result<std::string> decode_profile_reply(const net::Message& m) {
  return decode_reply<std::string>(m, kProfileReply, "ProfileReply");
}

net::Message encode_trace_report_request() {
  return empty(kTraceReportRequest);
}
net::Message encode_trace_report_reply(const std::string& text) {
  return net::encode(kTraceReportReply, text);
}
core::Result<std::string> decode_trace_report_reply(const net::Message& m) {
  return decode_reply<std::string>(m, kTraceReportReply, "TraceReportReply");
}

// ---- sharded metadata plane -------------------------------------------------

net::Message encode_placement_delta_request(const PlacementDeltaRequest& r) {
  return net::encode(kPlacementDeltaRequest, r);
}
core::Result<PlacementDeltaRequest> decode_placement_delta_request(
    const net::Message& m) {
  return decode<PlacementDeltaRequest>(m, kPlacementDeltaRequest,
                                       "PlacementDeltaRequest");
}

net::Message encode_placement_delta_reply(const PlacementDeltaReply& r) {
  return net::encode(kPlacementDeltaReply, r);
}
core::Result<PlacementDeltaReply> decode_placement_delta_reply(
    const net::Message& m) {
  return decode_reply<PlacementDeltaReply>(m, kPlacementDeltaReply,
                                           "PlacementDeltaReply");
}

net::Message encode_meta_append_request(const MetaAppendRequest& r) {
  return net::encode(kMetaAppendRequest, r);
}
core::Result<MetaAppendRequest> decode_meta_append_request(
    const net::Message& m) {
  return decode<MetaAppendRequest>(m, kMetaAppendRequest, "MetaAppendRequest");
}

net::Message encode_meta_append_reply(const MetaAppendReply& r) {
  return net::encode(kMetaAppendReply, r);
}
core::Result<MetaAppendReply> decode_meta_append_reply(const net::Message& m) {
  return decode_reply<MetaAppendReply>(m, kMetaAppendReply, "MetaAppendReply");
}

net::Message encode_meta_status_request() { return empty(kMetaStatusRequest); }
net::Message encode_meta_status_reply(const MetaStatus& s) {
  return net::encode(kMetaStatusReply, s);
}
core::Result<MetaStatus> decode_meta_status_reply(const net::Message& m) {
  return decode_reply<MetaStatus>(m, kMetaStatusReply, "MetaStatusReply");
}

}  // namespace visapult::dpss
