// The trace-aggregation plane: lifeline events -> span records -> the
// master's SpanCollector -> critical-path stage attribution.  The
// end-to-end scenarios are the PR's acceptance criteria: a traced rf=3
// chain write and a traced degraded EC(4,2) read each assemble into a
// single TraceTree whose stage breakdown sums to the trace's wall time
// (well within the 5% bound -- the sweep partitions the window exactly),
// and per-host clock skew of +/-50 ms is corrected out of the assembled
// tree.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/clock.h"
#include "dpss/deployment.h"
#include "netlog/event.h"
#include "netlog/logger.h"
#include "netlog/span_extract.h"
#include "obs/critical_path.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

constexpr std::uint32_t kBlock = 8192;

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

netlog::Event event(double t, const std::string& host, const std::string& tag,
                    std::vector<std::pair<std::string, std::string>> fields) {
  return netlog::Event{t, host, "dpss", tag, -1, -1, std::move(fields)};
}

// ---- netlog::MemorySink::drain ---------------------------------------------

TEST(MemorySinkDrain, TakesAndClearsButDroppedSurvives) {
  netlog::MemorySink sink(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    sink.consume(netlog::Event{static_cast<double>(i), "h", "p",
                               "TAG" + std::to_string(i), -1, -1, {}});
  }
  EXPECT_EQ(sink.dropped(), 6u);

  const auto batch = sink.drain();
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.front().tag, "TAG6");
  EXPECT_EQ(batch.back().tag, "TAG9");
  EXPECT_EQ(sink.size(), 0u);
  // Unlike clear(), drain keeps the loss count: the exporter's view of
  // "events I never saw" must survive the take.
  EXPECT_EQ(sink.dropped(), 6u);

  sink.consume(netlog::Event{10.0, "h", "p", "TAG10", -1, -1, {}});
  EXPECT_EQ(sink.drain().size(), 1u);
  EXPECT_EQ(sink.dropped(), 6u);
}

// ---- netlog::SpanExtractor -------------------------------------------------

TEST(SpanExtract, PairsOpensWithClosesAcrossFeeds) {
  netlog::SpanExtractor x;
  std::vector<obs::SpanRecord> out;
  // START in one export batch, END in the next: the pending entry must
  // straddle the feed() calls.
  x.feed({event(1.0, "server-0", netlog::tags::kDpssServIn,
                {{"TRACE", "abc"}, {"SPAN", "2"}})},
         out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(x.pending(), 1u);

  x.feed({event(1.5, "server-0", netlog::tags::kDpssServOut,
                {{"TRACE", "abc"},
                 {"SPAN", "2"},
                 {"QUEUE", "0.125"},
                 {"BYTES", "8192"}})},
         out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(x.pending(), 0u);
  EXPECT_EQ(out[0].trace_id, 0xabcu);
  EXPECT_EQ(out[0].span_id, 2u);
  EXPECT_EQ(out[0].host, "server-0");
  EXPECT_EQ(out[0].stage, obs::stages::kDiskCache);
  EXPECT_DOUBLE_EQ(out[0].start, 1.0);
  EXPECT_DOUBLE_EQ(out[0].duration, 0.5);
  EXPECT_DOUBLE_EQ(out[0].queue_seconds, 0.125);
  EXPECT_EQ(out[0].bytes, 8192u);
}

TEST(SpanExtract, MarkersCarryParentageAndIgnoresUntraced) {
  netlog::SpanExtractor x;
  std::vector<obs::SpanRecord> out;
  x.feed({event(2.0, "server-1", netlog::tags::kDpssChainForward,
                {{"TRACE", "abc"}, {"SPAN", "5"}, {"PARENT", "2"}}),
          // No TRACE/SPAN: dropped, not crashed on.
          event(2.1, "server-1", netlog::tags::kDpssServIn, {}),
          event(2.2, "server-1", netlog::tags::kDpssParityDelta,
                {{"TRACE", "abc"}, {"SPAN", "6"}, {"PARENT", "2"}})},
         out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].stage, obs::stages::kChainForward);
  EXPECT_EQ(out[0].parent_span_id, 2u);
  EXPECT_DOUBLE_EQ(out[0].duration, 0.0);
  EXPECT_EQ(out[1].stage, obs::stages::kParityDelta);
  EXPECT_EQ(x.pending(), 0u);
}

// ---- obs::SpanCollector clock-skew correction ------------------------------

TEST(SpanCollector, CorrectsPerHostClockSkew) {
  obs::SpanCollector collector;

  // True (collector-clock) trace: root [0.00, 0.10] on `origin`, child A
  // [0.02, 0.05] on `ahead` (clock +50 ms), child B [0.05, 0.08] on
  // `behind` (clock -50 ms).  Each producer reports its own clock.
  obs::SpanRecord root{1, 1, 0, "origin", obs::stages::kClientRead,
                       0.0,  0.10, 0.0, 0};
  obs::SpanRecord a{1, 2, 1, "ahead", obs::stages::kDiskCache,
                    0.02 + 0.05, 0.03, 0.0, 0};
  obs::SpanRecord b{1, 3, 1, "behind", obs::stages::kDiskCache,
                    0.05 - 0.05, 0.03, 0.0, 0};

  EXPECT_EQ(collector.ingest("origin", /*sent_at=*/1.0, /*received_at=*/1.0,
                             {root}),
            1u);
  EXPECT_EQ(collector.ingest("ahead", 1.05, 1.0, {a}), 1u);
  EXPECT_EQ(collector.ingest("behind", 0.95, 1.0, {b}), 1u);

  EXPECT_NEAR(collector.clock_offset("ahead"), 0.05, 1e-9);
  EXPECT_NEAR(collector.clock_offset("behind"), -0.05, 1e-9);
  EXPECT_NEAR(collector.clock_offset("origin"), 0.0, 1e-9);

  obs::TraceTree tree;
  ASSERT_TRUE(collector.tree(1, &tree));
  ASSERT_EQ(tree.spans.size(), 3u);
  for (const auto& s : tree.spans) {
    // Rebasing restored every span into the root's window, durations
    // untouched (skew shifts, it does not stretch).
    EXPECT_GE(s.start, -1e-9);
    EXPECT_GE(s.duration, 0.0);
    EXPECT_LE(s.end(), 0.10 + 1e-9);
  }
  const obs::SpanRecord* sa = nullptr;
  const obs::SpanRecord* sb = nullptr;
  for (const auto& s : tree.spans) {
    if (s.span_id == 2) sa = &s;
    if (s.span_id == 3) sb = &s;
  }
  ASSERT_TRUE(sa != nullptr && sb != nullptr);
  // Uncorrected, `ahead`'s span (producer start 0.07) would appear AFTER
  // `behind`'s (producer start 0.00); corrected, real order holds.
  EXPECT_NEAR(sa->start, 0.02, 1e-9);
  EXPECT_NEAR(sb->start, 0.05, 1e-9);
  EXPECT_LT(sa->start, sb->start);

  const auto breakdown = obs::critical_path(tree);
  EXPECT_NEAR(breakdown.sum_seconds(), tree.wall_seconds(), 1e-9);
}

TEST(SpanCollector, BoundedRingEvictsOldestUnfinalized) {
  obs::SpanCollector collector(/*capacity=*/2);
  for (std::uint64_t t = 1; t <= 3; ++t) {
    obs::SpanRecord s{t, 1, 0, "h", obs::stages::kClientRead, 0.0, 0.1, 0.0,
                      0};
    collector.ingest("h", static_cast<double>(t), static_cast<double>(t),
                     {s});
  }
  EXPECT_EQ(collector.trees().size(), 2u);
  EXPECT_EQ(collector.traces_dropped(), 1u);
  obs::TraceTree tree;
  EXPECT_FALSE(collector.tree(1, &tree));  // oldest evicted
  EXPECT_TRUE(collector.tree(3, &tree));
}

// ---- obs::critical_path ----------------------------------------------------

TEST(CriticalPath, PartitionsRootWallExactly) {
  obs::TraceTree tree;
  tree.trace_id = 7;
  // Root [0, 1.0]; child 2 [0.1, 0.5] with 0.1 s of modeled queue wait;
  // child 3 [0.3, 0.5] overlaps child 2 -- the overlap must be charged
  // once, to the later-starting span.
  tree.spans.push_back({7, 1, 0, "client", obs::stages::kClientRead, 0.0,
                        1.0, 0.0, 0});
  tree.spans.push_back({7, 2, 1, "s0", obs::stages::kDiskCache, 0.1, 0.4,
                        0.1, 0});
  tree.spans.push_back({7, 3, 1, "s1", obs::stages::kDiskCache, 0.3, 0.2,
                        0.0, 0});

  const auto b = obs::critical_path(tree);
  EXPECT_EQ(b.trace_id, 7u);
  EXPECT_EQ(b.root_stage, obs::stages::kClientRead);
  EXPECT_NEAR(b.total_seconds, 1.0, 1e-12);
  // [0,0.1] + [0.5,1.0] uncovered by children -> wire; child 2 is charged
  // [0.1,0.3] (0.1 queue + 0.1 disk); child 3 is charged [0.3,0.5].
  EXPECT_NEAR(b.stage_seconds(obs::stages::kWire), 0.6, 1e-9);
  EXPECT_NEAR(b.stage_seconds(obs::stages::kQueueWait), 0.1, 1e-9);
  EXPECT_NEAR(b.stage_seconds(obs::stages::kDiskCache), 0.3, 1e-9);
  // The invariant the 5% acceptance bound rides on: exact partition.
  EXPECT_NEAR(b.sum_seconds(), b.total_seconds, 1e-9);

  const std::string text = obs::render_text(tree, b);
  EXPECT_NE(text.find("client_read"), std::string::npos);
  EXPECT_NE(text.find("wire"), std::string::npos);
  const std::string json = obs::render_json(tree, b);
  EXPECT_NE(json.find("\"root_stage\":\"client_read\""), std::string::npos);
}

// ---- end-to-end: traced deployments feeding the master's collector ---------

TEST(ObsCollector, TracedRf3ChainWriteAssemblesOneTree) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(3);
  deployment.enable_trace_collection();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, /*replication_factor=*/3)
                  .is_ok());

  // Client-side half of the pipeline: its own sink, drained through the
  // same extractor + kSpanExport path the servers use.
  TraceExport client_export;
  client_export.host = "client";
  client_export.sink = std::make_shared<netlog::MemorySink>();
  auto logger = std::make_shared<netlog::NetLogger>(
      core::global_real_clock(), "client", "dpss", client_export.sink);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  file.value()->enable_tracing(logger, /*sample_rate=*/1.0);

  const auto fresh = pattern_bytes(kBlock, 7);  // exactly one block
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  EXPECT_GT(deployment.export_spans(), 0u);
  EXPECT_GT(export_spans_to_master(deployment.master(), client_export), 0u);
  auto& collector = deployment.master().span_collector();
  EXPECT_GE(collector.finalize_all(), 1u);

  // One traced request -> one tree with the client root, the primary's
  // span, and both follower copies (merged from CHAIN_FWD + SERV_IN/OUT).
  const auto trees = collector.trees();
  const obs::TraceTree* write_tree = nullptr;
  for (const auto& t : trees) {
    if (t.root() != nullptr &&
        t.root()->stage == obs::stages::kClientWrite) {
      ASSERT_EQ(write_tree, nullptr) << "write produced multiple traces";
      write_tree = &t;
    }
  }
  ASSERT_NE(write_tree, nullptr);
  ASSERT_GE(write_tree->spans.size(), 4u);

  int chain_spans = 0;
  for (const auto& s : write_tree->spans) {
    if (s.stage == obs::stages::kChainForward) {
      ++chain_spans;
      EXPECT_GT(s.duration, 0.0);          // receiver window merged in
      EXPECT_NE(s.parent_span_id, 0u);     // sender linkage merged in
    }
  }
  EXPECT_EQ(chain_spans, 2);  // rf=3: primary -> each of 2 followers

  const auto b = obs::critical_path(*write_tree);
  const double wall = write_tree->wall_seconds();
  ASSERT_GT(wall, 0.0);
  EXPECT_NEAR(b.sum_seconds(), wall, 0.05 * wall);
  EXPECT_GT(b.stage_seconds(obs::stages::kChainForward), 0.0);
}

TEST(ObsCollector, TracedDegradedEcReadAssemblesOneTree) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(6);
  deployment.enable_trace_collection();
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, 1, codec::EcProfile{4, 2}).is_ok());

  TraceExport client_export;
  client_export.host = "client";
  client_export.sink = std::make_shared<netlog::MemorySink>();
  auto logger = std::make_shared<netlog::NetLogger>(
      core::global_real_clock(), "client", "dpss", client_export.sink);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->enable_tracing(logger, 1.0);

  // Kill a server and read the whole dataset in one call (one trace):
  // with a slice owner dead, some group must reconstruct.
  deployment.kill_server(0);
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_GT(file.value()->reconstructed_reads(), 0u);

  deployment.export_spans();
  export_spans_to_master(deployment.master(), client_export);
  auto& collector = deployment.master().span_collector();
  collector.finalize_all();

  const auto trees = collector.trees();
  const obs::TraceTree* read_tree = nullptr;
  for (const auto& t : trees) {
    if (t.root() != nullptr && t.root()->stage == obs::stages::kClientRead) {
      ASSERT_EQ(read_tree, nullptr) << "read produced multiple traces";
      read_tree = &t;
    }
  }
  ASSERT_NE(read_tree, nullptr);
  // Reconstruction fans out to surviving servers: the root plus server
  // spans for the slices it pulled.
  ASSERT_GE(read_tree->spans.size(), 2u);

  const auto b = obs::critical_path(*read_tree);
  const double wall = read_tree->wall_seconds();
  ASSERT_GT(wall, 0.0);
  EXPECT_NEAR(b.sum_seconds(), wall, 0.05 * wall);
  EXPECT_EQ(b.root_stage, obs::stages::kClientRead);

  // The collector's exposition carries the stage histogram family and the
  // slowest-trace exemplar for this trace.
  std::vector<obs::Sample> samples;
  collector.collect_samples(samples);
  bool saw_stage = false, saw_exemplar = false;
  for (const auto& s : samples) {
    if (s.name == "dpss_trace_stage_seconds_count") saw_stage = true;
    if (s.name == "dpss_trace_slowest_seconds") saw_exemplar = true;
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_exemplar);
  EXPECT_NE(collector.render_report(3).find("TRACE"), std::string::npos);
}

}  // namespace
}  // namespace visapult::dpss
