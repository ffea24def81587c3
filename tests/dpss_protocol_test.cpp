#include "dpss/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.h"
#include "support/wire_fuzz.h"

namespace visapult::dpss {
namespace {

using test_support::fuzz_wire_case;
using test_support::hex;
using test_support::wire_case;
using test_support::WireCase;

TEST(Layout, BlockCountRoundsUp) {
  DatasetLayout layout;
  layout.total_bytes = 100;
  layout.block_bytes = 64;
  EXPECT_EQ(layout.block_count(), 2u);
  layout.total_bytes = 128;
  EXPECT_EQ(layout.block_count(), 2u);
  layout.total_bytes = 129;
  EXPECT_EQ(layout.block_count(), 3u);
}

TEST(Layout, StripingRoundRobin) {
  DatasetLayout layout;
  layout.total_bytes = 1000;
  layout.block_bytes = 10;
  layout.stripe_blocks = 1;
  layout.server_count = 4;
  EXPECT_EQ(layout.server_for_block(0), 0u);
  EXPECT_EQ(layout.server_for_block(1), 1u);
  EXPECT_EQ(layout.server_for_block(4), 0u);
}

TEST(Layout, StripeRunsOfBlocks) {
  DatasetLayout layout;
  layout.stripe_blocks = 4;
  layout.server_count = 2;
  EXPECT_EQ(layout.server_for_block(0), 0u);
  EXPECT_EQ(layout.server_for_block(3), 0u);
  EXPECT_EQ(layout.server_for_block(4), 1u);
  EXPECT_EQ(layout.server_for_block(8), 0u);
}

TEST(Layout, FinalBlockIsShort) {
  DatasetLayout layout;
  layout.total_bytes = 100;
  layout.block_bytes = 64;
  EXPECT_EQ(layout.block_length(0), 64u);
  EXPECT_EQ(layout.block_length(1), 36u);
  EXPECT_EQ(layout.block_length(2), 0u);
}

TEST(Protocol, OpenRequestRoundTrip) {
  OpenRequest req;
  req.dataset = "combustion-640";
  req.auth_token = "secret";
  auto msg = encode_open_request(req);
  auto back = decode_open_request(msg);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "combustion-640");
  EXPECT_EQ(back.value().auth_token, "secret");
}

TEST(Protocol, OpenReplyRoundTrip) {
  OpenReply reply;
  reply.handle = 77;
  reply.layout.total_bytes = 41943040;
  reply.layout.block_bytes = 65536;
  reply.layout.stripe_blocks = 2;
  reply.layout.server_count = 2;
  reply.servers = {{"127.0.0.1", 1234}, {"127.0.0.1", 5678}};
  auto back = decode_open_reply(encode_open_reply(reply));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().handle, 77u);
  EXPECT_EQ(back.value().layout.total_bytes, 41943040u);
  ASSERT_EQ(back.value().servers.size(), 2u);
  EXPECT_EQ(back.value().servers[1].port, 5678);
}

TEST(Protocol, OpenReplyCarriesEcProfile) {
  OpenReply reply;
  reply.layout.total_bytes = 1 << 20;
  reply.layout.server_count = 6;
  reply.servers.assign(6, {"h", 1});
  reply.ring_vnodes = 64;
  reply.ec = codec::EcProfile{4, 2};
  auto back = decode_open_reply(encode_open_reply(reply));
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().ec.enabled());
  EXPECT_EQ(back.value().ec, (codec::EcProfile{4, 2}));
  EXPECT_DOUBLE_EQ(back.value().ec.capacity_ratio(), 1.5);

  // And the default profile round-trips as disabled.
  OpenReply plain;
  plain.servers = {{"h", 1}};
  plain.layout.server_count = 1;
  auto plain_back = decode_open_reply(encode_open_reply(plain));
  ASSERT_TRUE(plain_back.is_ok());
  EXPECT_FALSE(plain_back.value().ec.enabled());
}

TEST(Protocol, FieldImpossibleEcProfileRejected) {
  // The client builds GF(2^8) machinery straight from the decoded
  // profile; geometries the field cannot host must die at the decoder.
  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  reply.ec = codec::EcProfile{300, 17};  // k + m > 255
  EXPECT_FALSE(decode_open_reply(encode_open_reply(reply)).is_ok());
  reply.ec = codec::EcProfile{0, 2};  // zero data slices
  EXPECT_FALSE(decode_open_reply(encode_open_reply(reply)).is_ok());
}

TEST(Protocol, BlockReadRoundTrip) {
  BlockReadRequest req{"ds", 42, {}};
  auto back = decode_block_read_request(encode_block_read_request(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "ds");
  EXPECT_EQ(back.value().block, 42u);

  BlockReadReply reply;
  reply.block = 42;
  reply.data = {1, 2, 3};
  auto r2 = decode_block_read_reply(encode_block_read_reply(reply));
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value().data, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Protocol, ErrorReplyCarriesStatus) {
  const auto status = core::permission_denied("bad token");
  auto msg = encode_error_reply(status);
  const auto back = decode_error_reply(msg);
  EXPECT_EQ(back.code(), core::StatusCode::kPermissionDenied);
  EXPECT_EQ(back.message(), "bad token");
}

TEST(Protocol, ErrorReplySurfacesThroughTypedDecoders) {
  auto msg = encode_error_reply(core::not_found("no dataset"));
  auto open = decode_open_reply(msg);
  EXPECT_FALSE(open.is_ok());
  EXPECT_EQ(open.status().code(), core::StatusCode::kNotFound);
  auto read = decode_block_read_reply(msg);
  EXPECT_FALSE(read.is_ok());
}

TEST(Protocol, WrongTypeRejected) {
  OpenRequest req;
  auto msg = encode_open_request(req);
  EXPECT_FALSE(decode_block_read_request(msg).is_ok());
}

TEST(Protocol, TruncatedPayloadRejected) {
  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  auto msg = encode_open_reply(reply);
  msg.payload.resize(msg.payload.size() / 2);
  EXPECT_FALSE(decode_open_reply(msg).is_ok());
}

// ---- sharded metadata plane (PR 9) -----------------------------------------

TEST(Protocol, OpenCarriesEpochAndDeltaFields) {
  OpenRequest req;
  req.dataset = "ds";
  req.known_epoch = 41;
  auto back = decode_open_request(encode_open_request(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().known_epoch, 41u);

  OpenReply reply;
  reply.servers = {{"h", 1}};
  reply.layout.server_count = 1;
  reply.catalog_epoch = 41;
  reply.not_modified = true;
  reply.max_generation = 7;
  reply.cache_hint = meta::CacheHint::kHot;
  auto r = decode_open_reply(encode_open_reply(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().catalog_epoch, 41u);
  EXPECT_TRUE(r.value().not_modified);
  EXPECT_EQ(r.value().max_generation, 7u);
  EXPECT_EQ(r.value().cache_hint, meta::CacheHint::kHot);
}

TEST(Protocol, HeartbeatFloorsRoundTripBothWays) {
  HeartbeatRequest req;
  req.server = {"srv", 9};
  req.requests_served = 123;
  req.floors = {{"a", 3}, {"b", 9}};
  auto back = decode_heartbeat(encode_heartbeat(req));
  ASSERT_TRUE(back.is_ok());
  ASSERT_EQ(back.value().floors.size(), 2u);
  EXPECT_EQ(back.value().floors[1].dataset, "b");
  EXPECT_EQ(back.value().floors[1].generation, 9u);

  auto down = decode_heartbeat_reply(
      encode_heartbeat_reply({{"a", 3}, {"c", 12}}));
  ASSERT_TRUE(down.is_ok());
  ASSERT_EQ(down.value().size(), 2u);
  EXPECT_EQ(down.value()[1].dataset, "c");
  EXPECT_EQ(down.value()[1].generation, 12u);
}

TEST(Protocol, PlacementDeltaRoundTrip) {
  PlacementDeltaRequest req;
  req.dataset = "ds";
  req.since_epoch = 5;
  auto back =
      decode_placement_delta_request(encode_placement_delta_request(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().dataset, "ds");
  EXPECT_EQ(back.value().since_epoch, 5u);

  PlacementDeltaReply reply;
  reply.snapshot = true;
  reply.epoch = 9;
  meta::LogEntry e;
  e.epoch = 9;
  e.kind = meta::EntryKind::kUpdate;
  e.dataset = "ds";
  e.layout.total_bytes = 8192;
  e.layout.block_bytes = 4096;
  e.layout.server_count = 2;
  e.placement.replication_factor = 2;
  e.servers = {{"s0", 1}, {"s1", 2}};
  reply.entries = {e};
  auto r = decode_placement_delta_reply(encode_placement_delta_reply(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().snapshot);
  EXPECT_EQ(r.value().epoch, 9u);
  ASSERT_EQ(r.value().entries.size(), 1u);
  EXPECT_EQ(r.value().entries[0].kind, meta::EntryKind::kUpdate);
  EXPECT_EQ(r.value().entries[0].dataset, "ds");
  EXPECT_EQ(r.value().entries[0].placement.replication_factor, 2u);
  ASSERT_EQ(r.value().entries[0].servers.size(), 2u);
  EXPECT_EQ(r.value().entries[0].servers[1].port, 2);
}

TEST(Protocol, MetaAppendRoundTrip) {
  MetaAppendRequest req;
  req.entry.epoch = 4;
  req.entry.kind = meta::EntryKind::kRegister;
  req.entry.dataset = "ds";
  req.entry.layout.total_bytes = 4096;
  req.entry.layout.block_bytes = 4096;
  req.entry.layout.server_count = 1;
  req.entry.servers = {{"s", 7}};
  auto back = decode_meta_append_request(encode_meta_append_request(req));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().entry.epoch, 4u);
  EXPECT_EQ(back.value().entry.dataset, "ds");

  MetaAppendReply reply{false, 3};
  auto r = decode_meta_append_reply(encode_meta_append_reply(reply));
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().accepted);
  EXPECT_EQ(r.value().follower_epoch, 3u);
}

TEST(Protocol, MetaStatusRoundTrip) {
  MetaStatus s;
  s.shard_id = 2;
  s.shard_count = 4;
  s.is_leader = false;
  s.epoch = 99;
  s.address = {"meta-s2-r1", 5};
  s.datasets = 12;
  s.delta_opens = 30;
  s.snapshot_opens = 4;
  s.forwarded_opens = 2;
  s.leader_elections = 1;
  auto back = decode_meta_status_reply(encode_meta_status_reply(s));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().shard_id, 2u);
  EXPECT_EQ(back.value().shard_count, 4u);
  EXPECT_FALSE(back.value().is_leader);
  EXPECT_EQ(back.value().epoch, 99u);
  EXPECT_EQ(back.value().address.key(), "meta-s2-r1:5");
  EXPECT_EQ(back.value().datasets, 12u);
  EXPECT_EQ(back.value().delta_opens, 30u);
  EXPECT_EQ(back.value().forwarded_opens, 2u);
  EXPECT_EQ(back.value().leader_elections, 1u);
}

// ---- wire-format pins and hostile input -------------------------------------

meta::LogEntry fixed_log_entry() {
  meta::LogEntry e;
  e.epoch = 3;
  e.kind = meta::EntryKind::kUpdate;
  e.dataset = "ds";
  e.layout = DatasetLayout{0x2000, 0x400, 2, 1};
  e.placement.replication_factor = 3;
  e.placement.ring_vnodes = 8;
  e.placement.ec = codec::EcProfile{2, 1};
  e.servers = {{"h3", 7003}};
  return e;
}

// One fixed instance of every DPSS message.  Fields carry distinct values so
// a reordered, resized or dropped field changes the bytes; the pinned hex
// is the encoding every earlier release put on the wire.
TEST(ProtocolWire, EveryMessageEncodesToPinnedBytes) {
  OpenReply open_reply;
  open_reply.handle = 0x11;
  open_reply.layout = DatasetLayout{0x1000, 0x400, 2, 3};
  open_reply.servers = {{"h1", 7001}, {"h2", 7002}};
  open_reply.replication_factor = 2;
  open_reply.ring_vnodes = 16;
  // Shorter than `servers`: the encoder pads health/load per server.
  open_reply.server_health = {placement::HealthState::kSuspect};
  open_reply.server_load = {5};
  open_reply.ec = codec::EcProfile{4, 2};
  open_reply.catalog_epoch = 9;
  open_reply.not_modified = true;
  open_reply.max_generation = 12;
  open_reply.cache_hint = meta::CacheHint::kHot;

  IngestWriteRequest ingest;
  ingest.dataset = "ds";
  ingest.block = 15;
  ingest.generation = 16;
  ingest.ack_policy = ingest::AckPolicy::kQuorum;
  ingest.data = {6, 7, 8};
  ingest.chain = {{"h6", 7006}};
  IngestWriteRequest::DeltaTarget target;
  target.server = {"h7", 7007};
  target.dataset = "ds#parity";
  target.block = 17;
  target.coefficient = 0x1d;
  ingest.deltas = {target};

  HeartbeatRequest beat;
  beat.server = {"h1", 7001};
  beat.requests_served = 100;
  beat.floors = {{"ds", 3}, {"ds2", 4}};

  FailureReport failure;
  failure.server = {"h5", 7005};
  failure.dataset = "ds";
  failure.block = 14;
  failure.reason = "reset";

  IngestWriteReply ingest_reply;
  ingest_reply.block = 18;
  ingest_reply.generation = 19;
  ingest_reply.acks = 2;
  ingest_reply.missed = {{"h8", 7008}};

  FixupReport fixup;
  fixup.dataset = "ds";
  fixup.block = 23;
  fixup.generation = 24;
  fixup.target = {"h9", 7009};

  PlacementDeltaReply delta_reply;
  delta_reply.snapshot = true;
  delta_reply.epoch = 7;
  delta_reply.entries = {fixed_log_entry()};

  MetaStatus status;
  status.shard_id = 1;
  status.shard_count = 4;
  status.is_leader = false;
  status.epoch = 13;
  status.address = {"h4", 7004};
  status.datasets = 2;
  status.delta_opens = 3;
  status.snapshot_opens = 4;
  status.forwarded_opens = 5;
  status.leader_elections = 6;

  SpanExportBatch spans;
  spans.host = "host";
  spans.sent_at = 1.5;
  obs::SpanRecord span;
  span.trace_id = 1;
  span.span_id = 2;
  span.parent_span_id = 3;
  span.host = "h";
  span.stage = "st";
  span.start = 0.25;
  span.duration = 0.5;
  span.queue_seconds = 0.125;
  span.bytes = 64;
  spans.spans = {span};

  struct Pin {
    const char* name;
    std::uint32_t type;
    net::Message msg;
    const char* hex;
  };
  const std::vector<Pin> pins = {
      {"OpenRequest", kOpenRequest,
       encode_open_request({"ds", "tok", 7}),
       "02000000647303000000746f6b0700000000000000"},
      {"OpenReply", kOpenReply,
       encode_open_reply(open_reply),
       "1100000000000000001000000000000000040000020000000300000002000000"
       "020000006831591b00000200000068325a1b0000020000001000000004000000"
       "020000000105000000000000000000000000000000000900000000000000010c"
       "0000000000000001"},
      {"BlockReadRequest", kBlockReadRequest,
       encode_block_read_request({"ds", 42, {Codec::kLossyQuant, 16}}),
       "0200000064732a000000000000000210"},
      {"BlockReadReply", kBlockReadReply,
       encode_block_read_reply({42, true, {1, 2, 3}, 8}),
       "2a000000000000000108000000000000000300000000000000010203"},
      {"ErrorReply", kErrorReply,
       encode_error_reply(core::not_found("gone")),
       "0200000004000000676f6e65"},
      {"Heartbeat", kHeartbeat,
       encode_heartbeat(beat),
       "020000006831591b000064000000000000000200000002000000647303000000"
       "00000000030000006473320400000000000000"},
      {"HeartbeatReply", kHeartbeatReply,
       encode_heartbeat_reply({{"ds", 5}}),
       "010000000200000064730500000000000000"},
      {"PlacementDeltaRequest", kPlacementDeltaRequest,
       encode_placement_delta_request({"ds", 6}),
       "0200000064730600000000000000"},
      {"PlacementDeltaReply", kPlacementDeltaReply,
       encode_placement_delta_reply(delta_reply),
       "0107000000000000000100000003000000000000000102000000647300200000"
       "0000000000040000020000000100000003000000080000000200000001000000"
       "010000000200000068335b1b0000"},
      {"MetaAppendRequest", kMetaAppendRequest,
       encode_meta_append_request({fixed_log_entry()}),
       "0300000000000000010200000064730020000000000000000400000200000001"
       "00000003000000080000000200000001000000010000000200000068335b1b00"
       "00"},
      {"MetaAppendReply", kMetaAppendReply,
       encode_meta_append_reply({true, 11}),
       "010b00000000000000"},
      {"MetaStatusRequest", kMetaStatusRequest,
       encode_meta_status_request(),
       ""},
      {"MetaStatusReply", kMetaStatusReply,
       encode_meta_status_reply(status),
       "0100000004000000000d000000000000000200000068345c1b00000200000000"
       "0000000300000000000000040000000000000005000000000000000600000000"
       "000000"},
      {"FailureReport", kFailureReport,
       encode_failure_report(failure),
       "0200000068355d1b00000200000064730e000000000000000500000072657365"
       "74"},
      {"IngestWriteRequest", kIngestWriteRequest,
       encode_ingest_write_request(ingest),
       "0200000064730f00000000000000100000000000000001030000000000000006"
       "0708010000000200000068365e1b0000010000000200000068375f1b00000900"
       "000064732370617269747911000000000000001d"},
      {"IngestWriteReply", kIngestWriteReply,
       encode_ingest_write_reply(ingest_reply),
       "120000000000000013000000000000000200000001000000020000006838601b"
       "0000"},
      {"ParityDeltaRequest", kParityDeltaRequest,
       encode_parity_delta_request({"ds#parity", 20, 3, {9, 10}}),
       "090000006473237061726974791400000000000000030200000000000000090a"},
      {"ParityDeltaReply", kParityDeltaReply,
       encode_parity_delta_reply({21, 22}),
       "15000000000000001600000000000000"},
      {"FixupReport", kFixupReport,
       encode_fixup_report(fixup),
       "02000000647317000000000000001800000000000000020000006839611b0000"},
      {"StatsRequest", kStatsRequest,
       encode_stats_request(),
       ""},
      {"StatsReply", kStatsReply,
       encode_stats_reply("up 1"),
       "0400000075702031"},
      {"SpanExportRequest", kSpanExportRequest,
       encode_span_export_request(spans),
       "04000000686f7374000000000000f83f01000000010000000000000002000000"
       "0000000003000000000000000100000068020000007374000000000000d03f00"
       "0000000000e03f000000000000c03f4000000000000000"},
      {"SpanExportReply", kSpanExportReply,
       encode_span_export_reply(25),
       "1900000000000000"},
      {"TraceReportRequest", kTraceReportRequest,
       encode_trace_report_request(),
       ""},
      {"TraceReportReply", kTraceReportReply,
       encode_trace_report_reply("slow"),
       "04000000736c6f77"},
      {"ProfileRequest", kProfileRequest,
       encode_profile_request(),
       ""},
      {"ProfileReply", kProfileReply,
       encode_profile_reply("a;b 3"),
       "05000000613b622033"},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(pin.msg.type, pin.type) << pin.name;
    EXPECT_EQ(hex(pin.msg.payload), pin.hex) << pin.name;
  }
}

// The decoders face whatever arrives on a socket.  These frames once threw
// out of the decoder (bad_alloc from a reserve, length_error from a
// resize) and killed the master; now every count is bounded by the bytes
// actually left in the payload.
// Message codes are wire bytes too: retiring a message keeps its slot, so
// every later code keeps the value earlier releases sent.
TEST(ProtocolWire, MessageCodesKeepTheirValues) {
  EXPECT_EQ(kOpenRequest, 0x4450531u);
  EXPECT_EQ(kRetiredFanoutWriteRequest, 0x4450535u);
  EXPECT_EQ(kRetiredFanoutWriteReply, 0x4450536u);
  EXPECT_EQ(kCloseRequest, 0x4450537u);
  EXPECT_EQ(kErrorReply, 0x4450539u);
  EXPECT_EQ(kIngestWriteRequest, 0x445053eu);
  EXPECT_EQ(kProfileReply, 0x4450551u);
}

TEST(ProtocolWire, HostileCountsAreDataLossNotExceptions) {
  net::Writer spans;
  spans.str("x");
  spans.f64(0.0);
  spans.u32(0xFFFFFFFFu);  // span count
  net::Message span_msg{kSpanExportRequest, 0, 0, spans.take()};
  ASSERT_EQ(span_msg.payload.size(), 17u);
  auto batch = decode_span_export_request(span_msg);
  ASSERT_FALSE(batch.is_ok());
  EXPECT_EQ(batch.status().code(), core::StatusCode::kDataLoss);

  net::Writer beat;
  beat.str("h");
  beat.u32(7000);
  beat.u64(1);
  beat.u32(0xFFFFFFFFu);  // floor count
  net::Message beat_msg{kHeartbeat, 0, 0, beat.take()};
  auto hb = decode_heartbeat(beat_msg);
  ASSERT_FALSE(hb.is_ok());
  EXPECT_EQ(hb.status().code(), core::StatusCode::kDataLoss);

  // A port wider than 16 bits is corrupt, not something to truncate.
  net::Writer wide_port;
  wide_port.str("h");
  wide_port.u32(0x10000u + 7000);
  wide_port.u64(1);
  wide_port.u32(0);
  auto port = decode_heartbeat({kHeartbeat, 0, 0, wide_port.take()});
  ASSERT_FALSE(port.is_ok());
  EXPECT_EQ(port.status().code(), core::StatusCode::kDataLoss);
}

TEST(ProtocolWire, ErrorReplyWithOkCodeIsMalformed) {
  net::Writer w;
  w.u32(0);  // kOk: an error reply must carry an error
  w.str("fine");
  const net::Message msg{kErrorReply, 0, 0, w.take()};
  EXPECT_EQ(decode_error_reply(msg).code(), core::StatusCode::kDataLoss);
  auto open = decode_open_reply(msg);
  ASSERT_FALSE(open.is_ok());
  EXPECT_EQ(open.status().code(), core::StatusCode::kDataLoss);
}

TEST(ProtocolWire, EmptyHeartbeatReplyIsTruncated) {
  auto floors = decode_heartbeat_reply({kHeartbeatReply, 0, 0, {}});
  ASSERT_FALSE(floors.is_ok());
  EXPECT_EQ(floors.status().code(), core::StatusCode::kDataLoss);
}

// ---- seeded mutation fuzz over every message type ---------------------------

std::string random_str(core::Rng& rng) {
  std::string s(rng.next_below(9), ' ');
  for (char& c : s) c = static_cast<char>('a' + rng.next_below(26));
  return s;
}

std::vector<std::uint8_t> random_bytes(core::Rng& rng) {
  std::vector<std::uint8_t> b(rng.next_below(33));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

std::uint32_t random_u32(core::Rng& rng) {
  return static_cast<std::uint32_t>(rng.next_u64());
}

ServerAddress random_address(core::Rng& rng) {
  return {random_str(rng), static_cast<std::uint16_t>(rng.next_u64())};
}

template <class T, class F>
std::vector<T> random_list(core::Rng& rng, F make) {
  std::vector<T> out(rng.next_below(4));
  for (auto& x : out) x = make(rng);
  return out;
}

DatasetLayout random_layout(core::Rng& rng) {
  return {rng.next_u64(), random_u32(rng), random_u32(rng), random_u32(rng)};
}

codec::EcProfile random_ec(core::Rng& rng) {
  const auto k = static_cast<std::uint32_t>(1 + rng.next_below(200));
  return {k, static_cast<std::uint32_t>(rng.next_below(255 - k + 1))};
}

meta::LogEntry random_log_entry(core::Rng& rng) {
  meta::LogEntry e;
  e.epoch = rng.next_u64();
  e.kind = static_cast<meta::EntryKind>(rng.next_below(2));
  e.dataset = random_str(rng);
  e.layout = random_layout(rng);
  e.placement.replication_factor = random_u32(rng);
  e.placement.ring_vnodes = random_u32(rng);
  e.placement.ec = codec::EcProfile{random_u32(rng), random_u32(rng)};
  e.servers = random_list<ServerAddress>(rng, random_address);
  return e;
}

meta::GenerationFloor random_floor(core::Rng& rng) {
  return {random_str(rng), rng.next_u64()};
}

// An error reply's body (Result<Status> would be ambiguous).
struct ErrorBody {
  core::Status status;
};

std::vector<WireCase> every_message_type() {
  std::vector<WireCase> cases;
  cases.push_back(wire_case(
      "OpenRequest",
      [](core::Rng& rng) {
        return OpenRequest{random_str(rng), random_str(rng), rng.next_u64()};
      },
      encode_open_request, decode_open_request));
  cases.push_back(wire_case(
      "OpenReply",
      [](core::Rng& rng) {
        OpenReply r;
        r.handle = rng.next_u64();
        r.layout = random_layout(rng);
        r.servers = random_list<ServerAddress>(rng, random_address);
        r.replication_factor = random_u32(rng);
        r.ring_vnodes = random_u32(rng);
        for (std::size_t i = 0; i < r.servers.size(); ++i) {
          r.server_health.push_back(
              static_cast<placement::HealthState>(rng.next_below(3)));
          r.server_load.push_back(rng.next_u64());
        }
        r.ec = random_ec(rng);
        r.catalog_epoch = rng.next_u64();
        r.not_modified = rng.chance(0.5);
        r.max_generation = rng.next_u64();
        r.cache_hint = static_cast<meta::CacheHint>(rng.next_below(3));
        return r;
      },
      encode_open_reply, decode_open_reply));
  cases.push_back(wire_case(
      "BlockReadRequest",
      [](core::Rng& rng) {
        return BlockReadRequest{
            random_str(rng), rng.next_u64(),
            {static_cast<Codec>(rng.next_below(3)),
             static_cast<int>(rng.next_below(256))}};
      },
      encode_block_read_request, decode_block_read_request));
  cases.push_back(wire_case(
      "BlockReadReply",
      [](core::Rng& rng) {
        return BlockReadReply{rng.next_u64(), rng.chance(0.5),
                              random_bytes(rng), rng.next_u64()};
      },
      encode_block_read_reply, decode_block_read_reply));
  cases.push_back(wire_case(
      "ErrorReply",
      [](core::Rng& rng) {
        // Any error but kDataLoss, which the probe reserves for "malformed".
        static const core::StatusCode kCodes[] = {
            core::StatusCode::kInvalidArgument, core::StatusCode::kNotFound,
            core::StatusCode::kUnavailable, core::StatusCode::kInternal};
        return ErrorBody{core::Status(kCodes[rng.next_below(4)],
                                      random_str(rng))};
      },
      [](const ErrorBody& e) { return encode_error_reply(e.status); },
      [](const net::Message& m) -> core::Result<ErrorBody> {
        core::Status st = decode_error_reply(m);
        if (st.code() == core::StatusCode::kDataLoss) return st;
        return ErrorBody{std::move(st)};
      }));
  cases.push_back(wire_case(
      "Heartbeat",
      [](core::Rng& rng) {
        return HeartbeatRequest{
            random_address(rng), rng.next_u64(),
            random_list<meta::GenerationFloor>(rng, random_floor)};
      },
      encode_heartbeat, decode_heartbeat));
  cases.push_back(wire_case(
      "HeartbeatReply",
      [](core::Rng& rng) {
        return random_list<meta::GenerationFloor>(rng, random_floor);
      },
      encode_heartbeat_reply, decode_heartbeat_reply));
  cases.push_back(wire_case(
      "PlacementDeltaRequest",
      [](core::Rng& rng) {
        return PlacementDeltaRequest{random_str(rng), rng.next_u64()};
      },
      encode_placement_delta_request, decode_placement_delta_request));
  cases.push_back(wire_case(
      "PlacementDeltaReply",
      [](core::Rng& rng) {
        return PlacementDeltaReply{
            rng.chance(0.5), rng.next_u64(),
            random_list<meta::LogEntry>(rng, random_log_entry)};
      },
      encode_placement_delta_reply, decode_placement_delta_reply));
  cases.push_back(wire_case(
      "MetaAppendRequest",
      [](core::Rng& rng) { return MetaAppendRequest{random_log_entry(rng)}; },
      encode_meta_append_request, decode_meta_append_request));
  cases.push_back(wire_case(
      "MetaAppendReply",
      [](core::Rng& rng) {
        return MetaAppendReply{rng.chance(0.5), rng.next_u64()};
      },
      encode_meta_append_reply, decode_meta_append_reply));
  cases.push_back(wire_case(
      "MetaStatusReply",
      [](core::Rng& rng) {
        return MetaStatus{random_u32(rng),    random_u32(rng),
                          rng.chance(0.5),    rng.next_u64(),
                          random_address(rng), rng.next_u64(),
                          rng.next_u64(),     rng.next_u64(),
                          rng.next_u64(),     rng.next_u64()};
      },
      encode_meta_status_reply, decode_meta_status_reply));
  cases.push_back(wire_case(
      "FailureReport",
      [](core::Rng& rng) {
        return FailureReport{random_address(rng), random_str(rng),
                             rng.next_u64(), random_str(rng)};
      },
      encode_failure_report, decode_failure_report));
  cases.push_back(wire_case(
      "IngestWriteRequest",
      [](core::Rng& rng) {
        IngestWriteRequest r;
        r.dataset = random_str(rng);
        r.block = rng.next_u64();
        r.generation = rng.next_u64();
        r.ack_policy = static_cast<ingest::AckPolicy>(rng.next_below(3));
        r.data = random_bytes(rng);
        r.chain = random_list<ServerAddress>(rng, random_address);
        r.deltas = random_list<IngestWriteRequest::DeltaTarget>(
            rng, [](core::Rng& g) {
              return IngestWriteRequest::DeltaTarget{
                  random_address(g), random_str(g), g.next_u64(),
                  static_cast<std::uint8_t>(g.next_u64())};
            });
        return r;
      },
      encode_ingest_write_request, decode_ingest_write_request));
  cases.push_back(wire_case(
      "IngestWriteReply",
      [](core::Rng& rng) {
        return IngestWriteReply{
            rng.next_u64(), rng.next_u64(), random_u32(rng),
            random_list<ServerAddress>(rng, random_address)};
      },
      encode_ingest_write_reply, decode_ingest_write_reply));
  cases.push_back(wire_case(
      "ParityDeltaRequest",
      [](core::Rng& rng) {
        return ParityDeltaRequest{random_str(rng), rng.next_u64(),
                                  static_cast<std::uint8_t>(rng.next_u64()),
                                  random_bytes(rng)};
      },
      encode_parity_delta_request, decode_parity_delta_request));
  cases.push_back(wire_case(
      "ParityDeltaReply",
      [](core::Rng& rng) {
        return ParityDeltaReply{rng.next_u64(), rng.next_u64()};
      },
      encode_parity_delta_reply, decode_parity_delta_reply));
  cases.push_back(wire_case(
      "FixupReport",
      [](core::Rng& rng) {
        return FixupReport{random_str(rng), rng.next_u64(), rng.next_u64(),
                           random_address(rng)};
      },
      encode_fixup_report, decode_fixup_report));
  cases.push_back(wire_case("StatsReply", random_str, encode_stats_reply,
                            decode_stats_reply));
  cases.push_back(wire_case(
      "SpanExportRequest",
      [](core::Rng& rng) {
        SpanExportBatch b;
        b.host = random_str(rng);
        b.sent_at = rng.next_double();
        b.spans = random_list<obs::SpanRecord>(rng, [](core::Rng& g) {
          obs::SpanRecord s;
          s.trace_id = g.next_u64();
          s.span_id = g.next_u64();
          s.parent_span_id = g.next_u64();
          s.host = random_str(g);
          s.stage = random_str(g);
          s.start = g.next_double();
          s.duration = g.next_double();
          s.queue_seconds = g.next_double();
          s.bytes = g.next_u64();
          return s;
        });
        return b;
      },
      encode_span_export_request, decode_span_export_request));
  cases.push_back(wire_case(
      "SpanExportReply", [](core::Rng& rng) { return rng.next_u64(); },
      encode_span_export_reply, decode_span_export_reply));
  cases.push_back(wire_case("TraceReportReply", random_str,
                            encode_trace_report_reply,
                            decode_trace_report_reply));
  cases.push_back(wire_case("ProfileReply", random_str, encode_profile_reply,
                            decode_profile_reply));
  return cases;
}

TEST(ProtocolWire, SeededMutationFuzzNeverThrows) {
  core::Rng rng(20261017);
  for (const WireCase& c : every_message_type()) {
    fuzz_wire_case(c, rng, /*flips=*/400);
  }
}

}  // namespace
}  // namespace visapult::dpss
