#include "dpss/server.h"

#include <gtest/gtest.h>

#include <thread>

#include "dpss/protocol.h"
#include "net/stream.h"

namespace visapult::dpss {
namespace {

TEST(DiskModel, ServiceTimeGrowsWithQueueing) {
  DiskModel disk;
  disk.disks = 4;
  const double t1 = disk.block_service_seconds(65536, 1);
  const double t4 = disk.block_service_seconds(65536, 4);
  const double t8 = disk.block_service_seconds(65536, 8);
  EXPECT_DOUBLE_EQ(t1, t4);  // within spindle count: no queueing
  EXPECT_NEAR(t8, 2.0 * t4, 1e-9);
}

TEST(DiskModel, StreamingScalesWithSpindles) {
  DiskModel one;
  one.disks = 1;
  DiskModel four = one;
  four.disks = 4;
  EXPECT_NEAR(four.streaming_bytes_per_sec(65536),
              4.0 * one.streaming_bytes_per_sec(65536), 1.0);
}

TEST(DiskModel, BiggerBlocksAmortiseSeek) {
  DiskModel disk;
  EXPECT_GT(disk.streaming_bytes_per_sec(1 << 20),
            disk.streaming_bytes_per_sec(4 << 10));
}

TEST(BlockServer, PutGetRoundTrip) {
  BlockServer server("s0");
  ASSERT_TRUE(server.put_block("ds", 3, {1, 2, 3}).is_ok());
  auto got = server.get_block("ds", 3);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(server.block_count("ds"), 1u);
  EXPECT_EQ(server.total_bytes(), 3u);
}

TEST(BlockServer, MissingBlockIsNotFound) {
  BlockServer server("s0");
  EXPECT_EQ(server.get_block("ds", 0).status().code(),
            core::StatusCode::kNotFound);
  server.put_block("ds", 0, {1});
  EXPECT_EQ(server.get_block("ds", 99).status().code(),
            core::StatusCode::kNotFound);
  EXPECT_EQ(server.get_block("other", 0).status().code(),
            core::StatusCode::kNotFound);
}

TEST(BlockServer, ServesReadsOverStream) {
  BlockServer server("s0");
  server.put_block("ds", 7, {4, 5, 6});
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);

  BlockReadRequest req{"ds", 7, {}};
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode_block_read_reply(msg.value());
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().block, 7u);
  EXPECT_EQ(reply.value().data, (std::vector<std::uint8_t>{4, 5, 6}));
  EXPECT_EQ(server.requests_served(), 1u);
  client->close();
  server.shutdown();
}

TEST(BlockServer, ServesWritesOverStream) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);

  // An ingest write with an empty chain: the server applies it locally
  // and acks as the whole pipeline.
  IngestWriteRequest req;
  req.dataset = "ds";
  req.block = 0;
  req.data = {9, 8};
  ASSERT_TRUE(
      net::send_message(*client, encode_ingest_write_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto ack = decode_ingest_write_reply(msg.value());
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack.value().block, 0u);
  EXPECT_EQ(ack.value().generation, 1u);
  auto got = server.stamped_block("ds", 0);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().data, (std::vector<std::uint8_t>{9, 8}));
  EXPECT_EQ(got.value().generation, 1u);
  client->close();
  server.shutdown();
}

TEST(BlockServer, UnknownRequestGetsErrorReply) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  // An arbitrary code, and the retired client-fanout write.
  for (std::uint32_t type : {std::uint32_t{0xdead},
                             std::uint32_t{kRetiredFanoutWriteRequest}}) {
    net::Message bogus;
    bogus.type = type;
    ASSERT_TRUE(net::send_message(*client, bogus).is_ok());
    auto msg = net::recv_message(*client);
    ASSERT_TRUE(msg.is_ok());
    EXPECT_EQ(msg.value().type, static_cast<std::uint32_t>(kErrorReply));
  }
  client->close();
  server.shutdown();
}

TEST(BlockServer, MissingBlockReadYieldsErrorReplyNotDisconnect) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  BlockReadRequest req{"nope", 0, {}};
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  auto msg = net::recv_message(*client);
  ASSERT_TRUE(msg.is_ok());
  auto reply = decode_block_read_reply(msg.value());
  EXPECT_FALSE(reply.is_ok());
  EXPECT_EQ(reply.status().code(), core::StatusCode::kNotFound);
  // The connection survives an application-level error.
  server.put_block("nope", 0, {1});
  ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
  EXPECT_TRUE(net::recv_message(*client).is_ok());
  client->close();
  server.shutdown();
}

TEST(BlockServer, ConcurrentConnections) {
  BlockServer server("s0");
  for (std::uint64_t b = 0; b < 32; ++b) {
    server.put_block("ds", b, std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(b)));
  }
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    auto [client, server_end] = net::make_pipe();
    server.serve(server_end);
    threads.emplace_back([client = client] {
      for (std::uint64_t b = 0; b < 32; ++b) {
        BlockReadRequest req{"ds", b, {}};
        ASSERT_TRUE(net::send_message(*client, encode_block_read_request(req)).is_ok());
        auto msg = net::recv_message(*client);
        ASSERT_TRUE(msg.is_ok());
        auto reply = decode_block_read_reply(msg.value());
        ASSERT_TRUE(reply.is_ok());
        EXPECT_EQ(reply.value().data[0], static_cast<std::uint8_t>(b));
      }
      client->close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.requests_served(), 32u * kClients);
  server.shutdown();
}

TEST(BlockServer, ShutdownUnblocksServiceThreads) {
  BlockServer server("s0");
  auto [client, server_end] = net::make_pipe();
  server.serve(server_end);
  server.shutdown();  // must not hang
  SUCCEED();
}

}  // namespace
}  // namespace visapult::dpss
