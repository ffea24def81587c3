#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clock.h"
#include "core/rng.h"
#include "net/message.h"
#include "net/stream.h"
#include "netlog/daemon.h"
#include "netlog/event.h"
#include "netlog/logger.h"
#include "netlog/nlv.h"

namespace visapult::netlog {
namespace {

TEST(Event, UlmRendering) {
  Event e;
  e.timestamp = 12.5;
  e.host = "cplant";
  e.program = "backend";
  e.tag = tags::kBeLoadEnd;
  e.frame = 3;
  e.rank = 1;
  e.fields.emplace_back("BYTES", "41943040");
  const std::string ulm = e.to_ulm();
  EXPECT_NE(ulm.find("DATE=12.5"), std::string::npos);
  EXPECT_NE(ulm.find("HOST=cplant"), std::string::npos);
  EXPECT_NE(ulm.find("NL.EVNT=BE_LOAD_END"), std::string::npos);
  EXPECT_NE(ulm.find("FRAME=3"), std::string::npos);
  EXPECT_NE(ulm.find("BYTES=41943040"), std::string::npos);
}

TEST(Event, UlmRoundTrip) {
  Event e;
  e.timestamp = 98.75;
  e.host = "viewer-host";
  e.program = "viewer";
  e.tag = tags::kVHeavyEnd;
  e.frame = 12;
  e.rank = 7;
  e.fields.emplace_back("BYTES", "1048576");
  auto back = Event::from_ulm(e.to_ulm());
  ASSERT_TRUE(back.is_ok());
  EXPECT_DOUBLE_EQ(back.value().timestamp, 98.75);
  EXPECT_EQ(back.value().host, "viewer-host");
  EXPECT_EQ(back.value().tag, tags::kVHeavyEnd);
  EXPECT_EQ(back.value().frame, 12);
  EXPECT_EQ(back.value().rank, 7);
  EXPECT_DOUBLE_EQ(back.value().field_double("BYTES"), 1048576.0);
}

TEST(Event, FromUlmRejectsMalformedLine) {
  EXPECT_FALSE(Event::from_ulm("garbage with no equals").is_ok());
  EXPECT_FALSE(Event::from_ulm("HOST=x PROG=y").is_ok());  // no DATE/NL.EVNT
}

TEST(Event, FromUlmRejectsBadNumbersWithoutThrowing) {
  EXPECT_FALSE(Event::from_ulm("DATE=abc NL.EVNT=x").is_ok());
  EXPECT_FALSE(Event::from_ulm("DATE=1 NL.EVNT=x RANK=99999999999").is_ok());
  EXPECT_FALSE(
      Event::from_ulm("DATE=1 NL.EVNT=x FRAME=99999999999999999999").is_ok());
  // The whole value must be the number, and an empty one is none.
  EXPECT_FALSE(Event::from_ulm("DATE=12abc NL.EVNT=x").is_ok());
  EXPECT_FALSE(Event::from_ulm("DATE= NL.EVNT=x").is_ok());
  EXPECT_FALSE(Event::from_ulm("DATE=1 NL.EVNT=x FRAME=3x").is_ok());
  EXPECT_FALSE(Event::from_ulm("DATE=1 NL.EVNT=x RANK=").is_ok());
}

TEST(Event, FieldDoubleNeedsTheWholeValue) {
  Event e;
  e.fields.emplace_back("BYTES", "12abc");
  e.fields.emplace_back("QUEUE", "1e999");
  EXPECT_DOUBLE_EQ(e.field_double("BYTES", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(e.field_double("QUEUE", -1.0), -1.0);
}

// Seeded truncation and bit-flip loop over rendered lines, in the style of
// the DPSS wire-codec loop (tests/support/wire_fuzz.h): every prefix and
// every mutant parses to an event or a status, never an exception, and an
// event that does parse renders back to a line that parses.
TEST(Event, SeededUlmMutationNeverThrows) {
  std::vector<Event> events(4);
  events[0].timestamp = 12.5;
  events[0].host = "cplant";
  events[0].program = "backend";
  events[0].tag = tags::kBeLoadEnd;
  events[0].frame = 3;
  events[0].rank = 1;
  events[0].fields.emplace_back("BYTES", "41943040");
  events[1].timestamp = 1234567890.123456;
  events[1].host = "viewer-host";
  events[1].program = "viewer";
  events[1].tag = tags::kVHeavyEnd;
  events[1].frame = 9223372036854775807;
  events[1].rank = 2147483647;
  events[2].timestamp = -0.5;
  events[2].tag = tags::kDpssServIn;
  events[2].fields.emplace_back("TRACE", "00000000deadbeef");
  events[2].fields.emplace_back("QUEUE", "0.000125");
  events[3].tag = tags::kCacheHit;
  events[3].rank = 0;

  core::Rng rng(20261021);
  for (const Event& e : events) {
    const std::string line = e.to_ulm();
    SCOPED_TRACE(line);
    ASSERT_TRUE(Event::from_ulm(line).is_ok());
    for (std::size_t len = 0; len < line.size(); ++len) {
      ASSERT_NO_THROW(Event::from_ulm(line.substr(0, len))) << "prefix " << len;
    }
    for (int round = 0; round < 2000; ++round) {
      std::string flipped = line;
      const int bits = 1 + static_cast<int>(rng.next_below(3));
      for (int b = 0; b < bits; ++b) {
        const std::size_t bit = rng.next_below(flipped.size() * 8);
        flipped[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(flipped[bit / 8]) ^ (1u << (bit % 8)));
      }
      core::Result<Event> got = core::data_loss("unset");
      ASSERT_NO_THROW(got = Event::from_ulm(flipped)) << "flip round " << round;
      if (got.is_ok()) {
        EXPECT_TRUE(Event::from_ulm(got.value().to_ulm()).is_ok())
            << "flip round " << round;
      }
    }
  }
}

TEST(Event, MissingFieldDefaults) {
  Event e;
  EXPECT_EQ(e.field("BYTES"), "");
  EXPECT_DOUBLE_EQ(e.field_double("BYTES", -1.0), -1.0);
}

TEST(NetLogger, StampsWithClock) {
  core::VirtualClock clock(100.0);
  auto sink = std::make_shared<MemorySink>();
  NetLogger logger(clock, "h", "p", sink);
  logger.log(tags::kBeFrameStart, 0, 0);
  clock.advance_by(2.5);
  logger.log(tags::kBeFrameEnd, 0, 0);
  const auto events = sink->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].timestamp, 100.0);
  EXPECT_DOUBLE_EQ(events[1].timestamp, 102.5);
}

TEST(NetLogger, LogBytesAddsField) {
  core::VirtualClock clock;
  auto sink = std::make_shared<MemorySink>();
  NetLogger logger(clock, "h", "p", sink);
  logger.log_bytes(tags::kBeLoadEnd, 1, 2, 160.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(sink->events()[0].field_double("BYTES"), 160.0 * 1024 * 1024);
}

TEST(Sinks, TeeFansOut) {
  auto s1 = std::make_shared<MemorySink>();
  auto s2 = std::make_shared<MemorySink>();
  TeeSink tee({s1, s2});
  Event e;
  e.tag = "X";
  tee.consume(e);
  EXPECT_EQ(s1->size(), 1u);
  EXPECT_EQ(s2->size(), 1u);
}

TEST(Daemon, CollectsEventsOverStream) {
  core::VirtualClock clock(5.0);
  CollectorDaemon daemon;
  auto [client_end, daemon_end] = net::make_pipe();
  daemon.serve(daemon_end);

  auto sink = std::make_shared<StreamSink>(client_end);
  NetLogger logger(clock, "remote-host", "backend", sink);
  logger.log(tags::kBeLoadStart, 0, 0);
  logger.log(tags::kBeLoadEnd, 0, 0);
  client_end->close();
  daemon.drain();

  const auto events = daemon.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tag, tags::kBeLoadStart);
  EXPECT_EQ(events[0].host, "remote-host");
}

TEST(Daemon, HostileLineDoesNotStopService) {
  CollectorDaemon daemon;
  auto [client_end, daemon_end] = net::make_pipe();
  daemon.serve(daemon_end);

  auto send_line = [&, client = client_end](const std::string& line) {
    net::Message msg;
    msg.type = kEventMessageType;
    net::Writer w;
    w.str(line);
    msg.payload = w.take();
    ASSERT_TRUE(net::send_message(*client, msg).is_ok());
  };
  send_line("DATE=1 NL.EVNT=x RANK=99999999999");
  send_line("DATE=abc NL.EVNT=x");
  Event good;
  good.timestamp = 7.0;
  good.host = "remote-host";
  good.tag = tags::kBeFrameEnd;
  good.rank = 3;
  send_line(good.to_ulm());
  client_end->close();
  daemon.drain();

  const auto events = daemon.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tag, tags::kBeFrameEnd);
  EXPECT_EQ(events[0].rank, 3);
}

TEST(Daemon, MultipleProducers) {
  core::VirtualClock clock;
  CollectorDaemon daemon;
  std::vector<std::shared_ptr<StreamSink>> sinks;
  std::vector<net::StreamPtr> ends;
  for (int i = 0; i < 4; ++i) {
    auto [c, d] = net::make_pipe();
    daemon.serve(d);
    sinks.push_back(std::make_shared<StreamSink>(c));
    ends.push_back(c);
  }
  for (int i = 0; i < 4; ++i) {
    NetLogger logger(clock, "host-" + std::to_string(i), "p", sinks[static_cast<std::size_t>(i)]);
    logger.log("EVT", i, i);
  }
  for (auto& e : ends) e->close();
  EXPECT_EQ(daemon.drain(), 4u);
}

TEST(Nlv, ExtractIntervalsPairsByRankAndFrame) {
  std::vector<Event> events;
  auto add = [&](double t, const char* tag, int frame, int rank) {
    Event e;
    e.timestamp = t;
    e.tag = tag;
    e.frame = frame;
    e.rank = rank;
    events.push_back(e);
  };
  add(0.0, tags::kBeLoadStart, 0, 0);
  add(1.0, tags::kBeLoadStart, 0, 1);
  add(3.0, tags::kBeLoadEnd, 0, 0);
  add(3.5, tags::kBeLoadEnd, 0, 1);
  add(4.0, tags::kBeLoadStart, 1, 0);
  add(9.0, tags::kBeLoadEnd, 1, 0);

  auto intervals = extract_intervals(events, tags::kBeLoadStart, tags::kBeLoadEnd);
  ASSERT_EQ(intervals.size(), 3u);
  auto stats = duration_stats(intervals);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.5);
}

TEST(Nlv, UnmatchedEventsIgnored) {
  std::vector<Event> events;
  Event e;
  e.tag = tags::kBeLoadEnd;  // end with no start
  e.frame = 0;
  e.rank = 0;
  events.push_back(e);
  EXPECT_TRUE(extract_intervals(events, tags::kBeLoadStart, tags::kBeLoadEnd).empty());
}

TEST(Nlv, ThroughputFromBytesField) {
  std::vector<Event> events;
  Event start;
  start.timestamp = 0.0;
  start.tag = tags::kBeLoadStart;
  start.frame = 0;
  start.rank = 0;
  Event end = start;
  end.timestamp = 2.0;
  end.tag = tags::kBeLoadEnd;
  end.fields.emplace_back("BYTES", "20000000");
  events.push_back(start);
  events.push_back(end);
  auto intervals = extract_intervals(events, tags::kBeLoadStart, tags::kBeLoadEnd);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].throughput_bytes_per_sec(), 1e7);
  auto rates = per_frame_aggregate_throughput(intervals);
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 1e7);
}

TEST(Nlv, TotalSpan) {
  std::vector<Event> events(2);
  events[0].timestamp = 3.0;
  events[1].timestamp = 10.5;
  EXPECT_DOUBLE_EQ(total_span(events), 7.5);
  EXPECT_DOUBLE_EQ(total_span({}), 0.0);
}

TEST(Nlv, AsciiGanttShowsTagsAndParity) {
  std::vector<Event> events;
  for (int f = 0; f < 2; ++f) {
    Event e;
    e.timestamp = f;
    e.tag = tags::kBeLoadStart;
    e.frame = f;
    e.rank = 0;
    events.push_back(e);
  }
  const std::string chart = ascii_gantt(events);
  EXPECT_NE(chart.find("BE_LOAD_START"), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);  // even frame
  EXPECT_NE(chart.find('x'), std::string::npos);  // odd frame
}

TEST(Nlv, AsciiGanttEmptyLog) {
  EXPECT_EQ(ascii_gantt({}), "(no events)\n");
}

TEST(Nlv, EventsCsvHasHeaderAndRows) {
  std::vector<Event> events(1);
  events[0].timestamp = 1.0;
  events[0].tag = "T";
  const std::string csv = events_csv(events);
  EXPECT_NE(csv.find("time,host,program,tag,frame,rank"), std::string::npos);
  EXPECT_NE(csv.find(",T,"), std::string::npos);
}

TEST(Nlv, PhaseBreakdownMergesOverlaps) {
  std::vector<Event> events;
  auto add = [&](double t, const char* tag, int frame, int rank) {
    Event e;
    e.timestamp = t;
    e.tag = tag;
    e.frame = frame;
    e.rank = rank;
    events.push_back(e);
  };
  // Two ranks load concurrently with overlap: busy time is the union.
  add(0.0, tags::kBeLoadStart, 0, 0);
  add(2.0, tags::kBeLoadEnd, 0, 0);
  add(1.0, tags::kBeLoadStart, 0, 1);
  add(3.0, tags::kBeLoadEnd, 0, 1);
  // One render afterwards.
  add(3.0, tags::kBeRenderStart, 0, 0);
  add(5.0, tags::kBeRenderEnd, 0, 0);

  const auto phases = phase_breakdown(events);
  ASSERT_GE(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "load");
  EXPECT_EQ(phases[0].per_occurrence.count(), 2u);
  EXPECT_DOUBLE_EQ(phases[0].busy_seconds, 3.0);  // [0,3) merged
  EXPECT_DOUBLE_EQ(phases[0].span_fraction, 3.0 / 5.0);
  EXPECT_EQ(phases[1].name, "render");
  EXPECT_DOUBLE_EQ(phases[1].busy_seconds, 2.0);
}

TEST(Nlv, PhaseBreakdownEmptyLog) {
  const auto phases = phase_breakdown({});
  for (const auto& p : phases) {
    EXPECT_EQ(p.per_occurrence.count(), 0u);
    EXPECT_DOUBLE_EQ(p.busy_seconds, 0.0);
  }
}

TEST(Nlv, TagOrderCoversPaperTables) {
  const auto order = nlv_tag_order();
  EXPECT_EQ(order.size(), 16u);
  EXPECT_EQ(order.front(), tags::kBeFrameStart);
  EXPECT_EQ(order.back(), tags::kVFrameEnd);
}

}  // namespace
}  // namespace visapult::netlog
