// DPSS end-to-end over in-memory pipes: master lookup, access control,
// striped parallel reads, Unix-like seek/read semantics, load balance, and
// replies matched to their requests against a server that mislabels them.
#include "dpss/client.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "dpss/deployment.h"

namespace visapult::dpss {
namespace {

// Reference bytes for timestep t of a dataset.
std::vector<std::uint8_t> step_bytes(const vol::DatasetDesc& desc, int t) {
  const vol::Volume v = desc.generate(t);
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data().data());
  return std::vector<std::uint8_t>(p, p + v.byte_size());
}

class DpssPipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    desc_ = vol::small_combustion_dataset(/*timesteps=*/2);
    deployment_ = std::make_unique<PipeDeployment>(4);
    ASSERT_TRUE(deployment_->ingest(desc_, /*block_bytes=*/4096).is_ok());
  }

  vol::DatasetDesc desc_;
  std::unique_ptr<PipeDeployment> deployment_;
};

TEST_F(DpssPipeTest, OpenResolvesLayoutAndServers) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  EXPECT_EQ(file.value()->size(), desc_.total_bytes());
  EXPECT_EQ(file.value()->server_count(), 4);
  EXPECT_EQ(file.value()->layout().block_bytes, 4096u);
}

TEST_F(DpssPipeTest, OpenUnknownDatasetFails) {
  auto client = deployment_->make_client();
  auto file = client.open("does-not-exist");
  EXPECT_FALSE(file.is_ok());
  EXPECT_EQ(file.status().code(), core::StatusCode::kNotFound);
}

TEST_F(DpssPipeTest, SequentialReadMatchesGenerator) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 0);
  std::vector<std::uint8_t> buf(expected.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), expected.size());
  EXPECT_EQ(buf, expected);
}

TEST_F(DpssPipeTest, SecondTimestepAtCorrectOffset) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 1);
  std::vector<std::uint8_t> buf(expected.size());
  ASSERT_GE(file.value()->lseek(static_cast<std::int64_t>(desc_.bytes_per_step())), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, expected);
}

TEST_F(DpssPipeTest, UnalignedReadsAcrossBlockBoundaries) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());

  const auto expected = step_bytes(desc_, 0);
  // Straddle several 4 KB blocks at an odd offset.
  const std::size_t offset = 4096 * 3 - 17;
  const std::size_t len = 4096 * 2 + 31;
  std::vector<std::uint8_t> buf(len);
  auto n = file.value()->pread(buf.data(), len, offset);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), len);
  EXPECT_TRUE(std::memcmp(buf.data(), expected.data() + offset, len) == 0);
}

TEST_F(DpssPipeTest, LseekSemantics) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();
  EXPECT_EQ(f.lseek(100, Whence::kSet), 100);
  EXPECT_EQ(f.lseek(50, Whence::kCur), 150);
  EXPECT_EQ(f.lseek(-50, Whence::kEnd),
            static_cast<std::int64_t>(f.size()) - 50);
  EXPECT_EQ(f.lseek(-1, Whence::kSet), -1);  // before start: error
  EXPECT_EQ(f.lseek(1, Whence::kEnd), -1);   // past end: error
}

TEST_F(DpssPipeTest, ReadAtEndIsShort) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();
  ASSERT_GE(f.lseek(-10, Whence::kEnd), 0);
  std::vector<std::uint8_t> buf(100);
  auto n = f.read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 10u);
  // Fully past the end: zero bytes.
  auto n2 = f.read(buf.data(), buf.size());
  ASSERT_TRUE(n2.is_ok());
  EXPECT_EQ(n2.value(), 0u);
}

TEST_F(DpssPipeTest, ScatterReadExtents) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  const auto expected = step_bytes(desc_, 0);

  std::vector<std::uint8_t> a(100), b(333), c(8192);
  std::vector<DpssFile::Extent> extents = {
      {0, a.size(), a.data()},
      {5000, b.size(), b.data()},
      {12000, c.size(), c.data()},
  };
  ASSERT_TRUE(file.value()->read_extents(extents).is_ok());
  EXPECT_EQ(std::memcmp(a.data(), expected.data(), a.size()), 0);
  EXPECT_EQ(std::memcmp(b.data(), expected.data() + 5000, b.size()), 0);
  EXPECT_EQ(std::memcmp(c.data(), expected.data() + 12000, c.size()), 0);
}

TEST_F(DpssPipeTest, ScatterReadBeyondEndFails) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(16);
  std::vector<DpssFile::Extent> extents = {
      {desc_.total_bytes() - 8, buf.size(), buf.data()}};
  EXPECT_FALSE(file.value()->read_extents(extents).is_ok());
}

TEST_F(DpssPipeTest, BlocksAreLoadBalancedAcrossServers) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> buf(desc_.bytes_per_step());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto per_server = file.value()->per_server_blocks();
  ASSERT_EQ(per_server.size(), 4u);
  std::uint64_t lo = per_server[0], hi = per_server[0];
  for (auto c : per_server) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, 1u);  // round-robin striping is near-perfectly even
}

TEST_F(DpssPipeTest, StoreIsBalancedAcrossServers) {
  std::size_t lo = SIZE_MAX, hi = 0;
  for (int s = 0; s < deployment_->server_count(); ++s) {
    const std::size_t n = deployment_->server(s).block_count(desc_.name);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_GT(lo, 0u);
  EXPECT_LE(hi - lo, 1u);
}

TEST_F(DpssPipeTest, WriteReadRoundTripThroughClient) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  auto& f = *file.value();

  std::vector<std::uint8_t> data(4096 * 2, 0xCD);
  ASSERT_GE(f.lseek(0), 0);
  ASSERT_TRUE(f.write(data.data(), data.size()).is_ok());

  std::vector<std::uint8_t> back(data.size());
  auto n = f.pread(back.data(), back.size(), 0);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(back, data);
}

TEST_F(DpssPipeTest, UnalignedWriteRejected) {
  auto client = deployment_->make_client();
  auto file = client.open(desc_.name);
  ASSERT_TRUE(file.is_ok());
  std::vector<std::uint8_t> data(10);
  ASSERT_GE(file.value()->lseek(1), 0);
  EXPECT_FALSE(file.value()->write(data.data(), data.size()).is_ok());
}

TEST(DpssAcl, TokenEnforcement) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());
  deployment.master().set_acl({"good-token"});

  auto client = deployment.make_client();
  auto denied = client.open(desc.name, "bad-token");
  EXPECT_FALSE(denied.is_ok());
  EXPECT_EQ(denied.status().code(), core::StatusCode::kPermissionDenied);

  auto client2 = deployment.make_client();
  auto allowed = client2.open(desc.name, "good-token");
  EXPECT_TRUE(allowed.is_ok());
}

TEST(DpssParallel, ConcurrentClientsSeeConsistentData) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(3);
  ASSERT_TRUE(deployment.ingest(desc, 4096).is_ok());
  const auto expected = step_bytes(desc, 0);

  std::vector<std::thread> threads;
  for (int c = 0; c < 6; ++c) {
    threads.emplace_back([&deployment, &desc, &expected] {
      auto client = deployment.make_client();
      auto file = client.open(desc.name);
      ASSERT_TRUE(file.is_ok());
      std::vector<std::uint8_t> buf(expected.size());
      auto n = file.value()->read(buf.data(), buf.size());
      ASSERT_TRUE(n.is_ok());
      EXPECT_EQ(buf, expected);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(DpssStripeBlocks, LargerStripesStillCorrect) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, 4096, /*stripe_blocks=*/4).is_ok());
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto expected = step_bytes(desc, 0);
  std::vector<std::uint8_t> buf(expected.size());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, expected);
}

// A block server that answers every request for block b as if it were
// block b + 1: reads carry a full block of bytes and writes claim a
// complete ack, but no reply names the block that was asked for.
class MislabellingServer {
 public:
  static constexpr std::uint32_t kBlock = 8192;

  ~MislabellingServer() {
    for (auto& t : threads_) t.join();
  }

  net::StreamPtr connect() {
    auto [near_end, far_end] = net::make_pipe();
    threads_.emplace_back([this, far = far_end] { serve(*far); });
    return near_end;
  }

  int requests() const { return requests_.load(); }

 private:
  void serve(net::ByteStream& stream) {
    for (;;) {
      auto msg = net::recv_message(stream);
      if (!msg.is_ok()) return;
      requests_.fetch_add(1);
      net::Message reply;
      if (auto read = decode_block_read_request(msg.value()); read.is_ok()) {
        reply = encode_block_read_reply(
            {read.value().block + 1, false,
             std::vector<std::uint8_t>(kBlock, 0x5a), 0});
      } else if (auto write = decode_ingest_write_request(msg.value());
                 write.is_ok()) {
        IngestWriteReply ack;
        ack.block = write.value().block + 1;
        ack.generation = 1;
        ack.acks = 1 + static_cast<std::uint32_t>(write.value().chain.size());
        reply = encode_ingest_write_reply(ack);
      } else {
        reply = encode_error_reply(core::invalid_argument("unexpected"));
      }
      if (!net::send_message(stream, reply).is_ok()) return;
    }
  }

  std::atomic<int> requests_{0};
  std::vector<std::thread> threads_;
};

// A client of `deployment` whose connections to server `liar_index` reach
// `liar` instead of the real server.
DpssClient client_with_liar(PipeDeployment& deployment, int liar_index,
                            MislabellingServer& liar) {
  auto [client_end, master_end] = net::make_pipe();
  deployment.master().serve(master_end);
  Connector connector =
      [&deployment, &liar, liar_index](
          const ServerAddress& addr) -> core::Result<net::StreamPtr> {
    for (int i = 0; i < deployment.server_count(); ++i) {
      if (deployment.server_address(i) != addr) continue;
      if (i == liar_index) return liar.connect();
      auto [near_end, far_end] = net::make_pipe();
      deployment.server(i).serve(far_end);
      return near_end;
    }
    return core::not_found("unknown server " + addr.host);
  };
  return DpssClient(client_end, std::move(connector));
}

TEST(DpssReplyMatching, MislabelledReadReplyFailsOverToTheOtherReplica) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment
                  .ingest(desc, MislabellingServer::kBlock, 1,
                          /*replication_factor=*/2)
                  .is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  // The first-ranked replica of block 0, so the read asks the liar.
  const int liar_index =
      static_cast<int>(map->replicas_for_block(0).servers.front());

  MislabellingServer liar;
  auto client = client_with_liar(deployment, liar_index, liar);
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto expected = step_bytes(desc, 0);
  std::vector<std::uint8_t> buf(expected.size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), expected.size());
  EXPECT_EQ(buf, expected);
  EXPECT_GT(liar.requests(), 0);
  EXPECT_EQ(file.value()->dead_servers(), std::vector<int>{liar_index});
  EXPECT_GT(file.value()->failover_reads(), 0u);
}

TEST(DpssReplyMatching, MislabelledWriteAckReplansOntoARealReplica) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment
                  .ingest(desc, MislabellingServer::kBlock, 1,
                          /*replication_factor=*/2)
                  .is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  // Block 0's ring-order primary -- where its write goes -- is the liar.
  const auto& replicas = map->replicas_for_block(0).servers;
  ASSERT_EQ(replicas.size(), 2u);
  const int liar_index = static_cast<int>(replicas[0]);
  const int real_index = static_cast<int>(replicas[1]);

  MislabellingServer liar;
  auto client = client_with_liar(deployment, liar_index, liar);
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  std::vector<std::uint8_t> fresh(MislabellingServer::kBlock);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    fresh[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  auto st = file.value()->write(fresh.data(), fresh.size());
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(liar.requests(), 1);
  EXPECT_EQ(file.value()->dead_servers(), std::vector<int>{liar_index});
  EXPECT_EQ(file.value()->known_generation(0), 1u);

  // The re-planned write landed on the real replica at the new generation.
  auto stored = deployment.server(real_index).stamped_block(desc.name, 0);
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value().generation, 1u);
  EXPECT_EQ(stored.value().data, fresh);
  std::vector<std::uint8_t> back(fresh.size());
  auto n = file.value()->pread(back.data(), back.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(back, fresh);
}

}  // namespace
}  // namespace visapult::dpss
