// The deployment failure API, run unchanged over both transports: every
// scenario drives a PipeDeployment and a TcpDeployment through the same
// `Deployment&`, so the one definition of kill / wipe / rebalance /
// auto-rebalance / fixups / heartbeats / span export is checked on pipes
// and loopback TCP.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dpss/deployment.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

constexpr std::uint32_t kBlock = 8192;

std::vector<std::uint8_t> expected_bytes(const vol::DatasetDesc& desc) {
  std::vector<std::uint8_t> expect;
  expect.reserve(desc.total_bytes());
  for (int t = 0; t < desc.timesteps; ++t) {
    const vol::Volume v = desc.generate(t);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data().data());
    expect.insert(expect.end(), bytes, bytes + v.byte_size());
  }
  return expect;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

template <typename T>
class DeploymentApi : public ::testing::Test {
 protected:
  Deployment& deployment() { return typed_; }

  // The one transport-specific step: a connected client.
  DpssClient connect() {
    if constexpr (std::is_same_v<T, TcpDeployment>) {
      auto client = typed_.make_client();
      if (!client.is_ok()) {
        throw std::runtime_error(client.status().to_string());
      }
      return std::move(client).take();
    } else {
      return typed_.make_client();
    }
  }

  // Index of the server reachable at `addr`, or -1.
  int index_of(const ServerAddress& addr) {
    for (int i = 0; i < typed_.server_count(); ++i) {
      if (typed_.server_address(i) == addr) return i;
    }
    return -1;
  }

  T typed_{4};
};

using Transports = ::testing::Types<PipeDeployment, TcpDeployment>;
TYPED_TEST_SUITE(DeploymentApi, Transports);

TYPED_TEST(DeploymentApi, KilledReplicaFailsOverByteExact) {
  Deployment& d = this->deployment();
  const vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  ASSERT_TRUE(d.ingest(desc, kBlock, 1, /*replication_factor=*/2).is_ok());
  ASSERT_GT(d.server(1).block_count(desc.name), 0u);

  auto client = this->connect();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  // The server dies under an open file.
  d.kill_server(1);
  EXPECT_TRUE(d.server_killed(1));
  EXPECT_FALSE(d.server_killed(0));

  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(buf, expected_bytes(desc));
  // The dead server's blocks came from their second replica.
  EXPECT_EQ(file.value()->dead_servers(), std::vector<int>{1});
  EXPECT_GT(file.value()->failover_reads(), 0u);
}

TYPED_TEST(DeploymentApi, WipeThenRebalanceRestoresEveryReplica) {
  Deployment& d = this->deployment();
  const vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  ASSERT_TRUE(d.ingest(desc, kBlock, 1, /*replication_factor=*/2).is_ok());
  const ServerAddress wiped = d.server_address(2);

  d.wipe_server(2);
  EXPECT_TRUE(d.server_killed(2));
  EXPECT_EQ(d.server(2).block_count(desc.name), 0u);
  EXPECT_EQ(d.master().health().state(wiped), placement::HealthState::kDown);

  ASSERT_TRUE(d.rebalance_dataset(desc.name).is_ok());
  auto map = d.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 3u);
  EXPECT_EQ(map->replication_factor(), 2u);
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const auto& replicas = map->replicas_for_block(b).servers;
    ASSERT_EQ(replicas.size(), 2u) << "block " << b;
    for (std::uint32_t s : replicas) {
      const ServerAddress& addr = map->ring().servers()[s];
      EXPECT_NE(addr, wiped);
      const int holder = this->index_of(addr);
      ASSERT_GE(holder, 0);
      EXPECT_TRUE(d.server(holder).has_block(desc.name, b))
          << "server " << holder << " block " << b;
    }
  }

  auto client = this->connect();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, expected_bytes(desc));
  EXPECT_TRUE(file.value()->dead_servers().empty());
}

TYPED_TEST(DeploymentApi, AutoRebalanceReplacesDownServerAfterDeadline) {
  Deployment& d = this->deployment();
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(d.ingest(desc, kBlock, 1, /*replication_factor=*/2).is_ok());
  d.enable_auto_rebalance(/*down_deadline_seconds=*/10.0);

  d.kill_server(1);
  for (int i = 0; i < 3; ++i) d.master().report_failure(d.server_address(1));
  EXPECT_TRUE(d.master().tick(0.0).empty());  // arms the deadline
  const auto rebalanced = d.master().tick(12.0);
  ASSERT_EQ(rebalanced.size(), 1u);
  auto map = d.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->ring().size(), 3u);

  auto client = this->connect();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  EXPECT_EQ(buf, expected_bytes(desc));
  EXPECT_TRUE(file.value()->dead_servers().empty());
}

TYPED_TEST(DeploymentApi, FixupsDrainDegradedWriteAndFloorsRideHeartbeats) {
  Deployment& d = this->deployment();
  d.enable_fixups();
  const vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  ASSERT_TRUE(d.ingest(desc, kBlock, 1, /*replication_factor=*/2).is_ok());
  auto map = d.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);

  d.heartbeat_all();
  EXPECT_EQ(d.master().gossip().floor(desc.name), 0u);

  // Primary-only acks leave every follower owed its copy.
  auto client = this->connect();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  file.value()->set_ack_policy(ingest::AckPolicy::kPrimary);
  const auto fresh = pattern_bytes(desc.total_bytes(), 21);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), map->block_count());
  EXPECT_EQ(d.master().fixup_depth(), map->block_count());

  // The written generation reaches the master as a heartbeat floor.
  d.heartbeat_all(1.0);
  EXPECT_EQ(d.master().gossip().floor(desc.name), 1u);

  // One tick drains the queue; every replica converges on generation 1.
  d.master().tick(0.0);
  EXPECT_EQ(d.master().fixup_depth(), 0u);
  EXPECT_EQ(d.master().fixups_applied(), map->block_count());
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlock, desc.total_bytes() - b * kBlock);
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      const int holder = this->index_of(map->ring().servers()[s]);
      ASSERT_GE(holder, 0);
      auto stored = d.server(holder).stamped_block(desc.name, b);
      ASSERT_TRUE(stored.is_ok());
      EXPECT_EQ(stored.value().generation, 1u);
      EXPECT_EQ(0, std::memcmp(stored.value().data.data(),
                               fresh.data() + b * kBlock,
                               static_cast<std::size_t>(len)));
    }
  }
}

TYPED_TEST(DeploymentApi, TracedWriteExportsServerSpans) {
  Deployment& d = this->deployment();
  d.enable_trace_collection();
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(d.ingest(desc, kBlock, 1, /*replication_factor=*/2).is_ok());
  EXPECT_EQ(d.export_spans(), 0u);  // no traced request yet

  auto client = this->connect();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  auto logger = std::make_shared<netlog::NetLogger>(
      core::global_real_clock(), "client", "dpss",
      std::make_shared<netlog::MemorySink>());
  file.value()->enable_tracing(logger, /*sample_rate=*/1.0);
  const auto fresh = pattern_bytes(kBlock, 7);  // exactly one block
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  EXPECT_GT(d.export_spans(), 0u);
  EXPECT_GT(d.master().span_collector().spans_ingested(), 0u);
}

}  // namespace
}  // namespace visapult::dpss
