// Integration tests of the server-driven write pipeline over live
// deployments: primary-copy replication under each ack policy, a dead
// follower missed on its own, generation stamping through every cache
// tier, EC parity-delta writes, stale-replica read detection, fixup-queue
// recovery after a primary dies, and concurrent writers on one-worker
// pools that must neither deadlock nor grow a thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/data_source.h"
#include "codec/reed_solomon.h"
#include "codec/stripe_layout.h"
#include "dpss/deployment.h"
#include "ingest/chain.h"
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

// Ring-order primary of `block` when every server is healthy -- the same
// choice the client's write path makes.
int healthy_primary(const placement::PlacementMap& map, std::uint64_t block) {
  return ingest::plan_chain(map.replicas_for_block(block), {}, {}).primary;
}

TEST(IngestWrite, ChainWriteLandsOnEveryReplicaWithOneClientCopy) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, /*replication_factor=*/2)
                  .is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const auto fresh = pattern_bytes(desc.total_bytes(), 7);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  // Every replica of every block carries the new bytes at generation 1.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const auto& replicas = map->replicas_for_block(b).servers;
    ASSERT_EQ(replicas.size(), 2u);
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlock, desc.total_bytes() - b * kBlock);
    for (std::uint32_t s : replicas) {
      auto stored = deployment.server(static_cast<int>(s))
                        .stamped_block(desc.name, b);
      ASSERT_TRUE(stored.is_ok()) << "server " << s << " block " << b;
      EXPECT_EQ(stored.value().generation, 1u);
      ASSERT_EQ(stored.value().data.size(), len);
      EXPECT_EQ(0, std::memcmp(stored.value().data.data(),
                               fresh.data() + b * kBlock,
                               static_cast<std::size_t>(len)));
    }
  }

  // The second copy moved server-to-server, not through the client.
  std::uint64_t forwards = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    forwards += deployment.server(s).chain_forwards();
  }
  EXPECT_EQ(forwards, map->block_count());

  // A fresh client reads the overwrite back.
  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(buf, fresh);
}

TEST(IngestWrite, PrimaryPolicyLeavesFollowersToFixupQueue) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_ack_policy(ingest::AckPolicy::kPrimary);

  const auto fresh = pattern_bytes(desc.total_bytes(), 21);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  // Every block is durable on its primary but owed to its follower.
  EXPECT_EQ(file.value()->degraded_writes(), map->block_count());
  EXPECT_EQ(deployment.master().fixup_depth(), map->block_count());

  // Followers are still at generation 0 (stale), primaries at 1.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const int primary = healthy_primary(*map, b);
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      const std::uint64_t gen = deployment.server(static_cast<int>(s))
                                    .block_generation(desc.name, b);
      EXPECT_EQ(gen, static_cast<int>(s) == primary ? 1u : 0u)
          << "server " << s << " block " << b;
    }
  }

  // One tick drains the queue; every replica converges on generation 1.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  EXPECT_EQ(deployment.master().fixups_applied(), map->block_count());
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    const std::uint64_t len =
        std::min<std::uint64_t>(kBlock, desc.total_bytes() - b * kBlock);
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      auto stored = deployment.server(static_cast<int>(s))
                        .stamped_block(desc.name, b);
      ASSERT_TRUE(stored.is_ok());
      EXPECT_EQ(stored.value().generation, 1u);
      EXPECT_EQ(0, std::memcmp(stored.value().data.data(),
                               fresh.data() + b * kBlock,
                               static_cast<std::size_t>(len)));
    }
  }
}

TEST(IngestWrite, QuorumPolicyOnThreeReplicas) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 3).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  file.value()->set_ack_policy(ingest::AckPolicy::kQuorum);

  const auto fresh = pattern_bytes(desc.total_bytes(), 33);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  // 2 of 3 acked synchronously; exactly one replica per block lags.
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    int at_one = 0, at_zero = 0;
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      const std::uint64_t gen = deployment.server(static_cast<int>(s))
                                    .block_generation(desc.name, b);
      (gen == 1 ? at_one : at_zero)++;
    }
    EXPECT_EQ(at_one, 2) << "block " << b;
    EXPECT_EQ(at_zero, 1) << "block " << b;
  }

  deployment.master().tick(0.0);
  for (std::uint64_t b = 0; b < map->block_count(); ++b) {
    for (std::uint32_t s : map->replicas_for_block(b).servers) {
      EXPECT_EQ(deployment.server(static_cast<int>(s))
                    .block_generation(desc.name, b),
                1u);
    }
  }
}

TEST(IngestWrite, EcParityDeltaWriteSurvivesOwnerKill) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  PipeDeployment deployment(6);
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, 1, codec::EcProfile{4, 2}).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const auto fresh = pattern_bytes(desc.total_bytes(), 55);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok())
      << "EC chain write failed";
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  // Parity owners really applied deltas.
  std::uint64_t deltas = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    deltas += deployment.server(s).parity_deltas_applied();
  }
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(deltas, map->block_count() * 2);  // m = 2 per block

  // Healthy read returns the new bytes.
  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);

  // Kill a server and re-read through reconstruction: decoding with the
  // *updated* parity must still yield the overwritten bytes -- the delta
  // path kept parity exactly consistent with a full re-encode.
  deployment.kill_server(0);
  auto degraded = deployment.make_client();
  auto dfile = degraded.open(desc.name);
  ASSERT_TRUE(dfile.is_ok());
  std::fill(buf.begin(), buf.end(), 0);
  n = dfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(buf, fresh);
  EXPECT_GT(dfile.value()->reconstructed_reads(), 0u);
}

TEST(IngestWrite, EcWriteWithDeadParityOwnerFixesUpTheParityBlock) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(6);
  deployment.enable_fixups();
  ASSERT_TRUE(
      deployment.ingest(desc, kBlock, 1, 1, codec::EcProfile{4, 2}).is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);

  // Kill one parity owner of group 0, then overwrite block 0: the delta
  // to the dead owner is missed and its *parity block* lands on the fixup
  // queue (not the data block -- the owner never stored data for it).
  const auto& owners = map->replicas_for_group(0).servers;
  ASSERT_EQ(owners.size(), 6u);
  const int parity_owner = static_cast<int>(owners[4]);
  const int data_owner = static_cast<int>(owners[0]);
  deployment.kill_server(parity_owner);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const auto fresh = pattern_bytes(kBlock, 42);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 1u);
  EXPECT_GE(deployment.master().fixup_depth(), 1u);

  // The fixup re-encodes the parity from the (updated) data slices into
  // the dead owner's surviving store; after it rejoins, losing the data
  // owner still reconstructs the OVERWRITTEN bytes through that parity.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  deployment.revive_server(parity_owner);
  deployment.kill_server(data_owner);

  auto reader = deployment.make_client();
  auto rfile = reader.open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(kBlock);
  auto n = rfile.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(0, std::memcmp(buf.data(), fresh.data(), buf.size()));
  EXPECT_GT(rfile.value()->reconstructed_reads(), 0u);
}

TEST(IngestWrite, EcParityFixupOfTheTailGroupMatchesAFreshEncode) {
  // 16x16x21 floats = 21504 B = five 4 KiB blocks and a 1 KiB sixth: the
  // last (4,2) group holds one full block, one short block and two slices
  // past the end of the dataset.
  constexpr std::uint32_t kTailBlock = 4096;
  const vol::DatasetDesc desc{"tail-group", {16, 16, 21}, 1,
                              vol::Generator::kCombustion, 3};
  ASSERT_EQ(desc.total_bytes(), 5u * kTailBlock + 1024u);
  PipeDeployment deployment(6);
  deployment.enable_fixups();
  const codec::EcProfile ec{4, 2};
  ASSERT_TRUE(deployment.ingest(desc, kTailBlock, 1, 1, ec).is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  ASSERT_EQ(map->block_count(), 6u);
  ASSERT_EQ(map->group_count(), 2u);

  // Kill the first parity owner of the last group, then overwrite the
  // group's blocks 4 and 5 (the short one): the delta to the dead owner is
  // missed and its parity block goes on the fixup queue.
  const std::uint64_t group = 1;
  const auto& owners = map->replicas_for_group(group).servers;
  ASSERT_EQ(owners.size(), 6u);
  const int parity_owner = static_cast<int>(owners[4]);
  deployment.kill_server(parity_owner);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  const std::uint64_t offset = 4u * kTailBlock;
  const auto fresh = pattern_bytes(desc.total_bytes() - offset, 77);
  ASSERT_EQ(file.value()->lseek(static_cast<std::int64_t>(offset)),
            static_cast<std::int64_t>(offset));
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_GE(deployment.master().fixup_depth(), 1u);
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);

  // The group's data slices as written, zero-padded to whole blocks.
  std::vector<std::vector<std::uint8_t>> data(4, std::vector<std::uint8_t>(
                                                     kTailBlock, 0));
  std::memcpy(data[0].data(), fresh.data(), kTailBlock);
  std::memcpy(data[1].data(), fresh.data() + kTailBlock,
              fresh.size() - kTailBlock);
  std::vector<const std::uint8_t*> ptrs;
  for (const auto& d : data) ptrs.push_back(d.data());
  std::vector<std::vector<std::uint8_t>> parity;
  codec::ReedSolomon(ec).encode(ptrs, kTailBlock, &parity);

  auto stored = deployment.server(parity_owner)
                    .get_block(codec::StripeLayout::parity_dataset(desc.name),
                               group * ec.parity_slices);
  ASSERT_TRUE(stored.is_ok()) << stored.status().to_string();
  EXPECT_EQ(stored.value(), parity[0]);
}

TEST(IngestWrite, OverwriteNeverServesStaleFromServerMemoryTier) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(1);
  ASSERT_TRUE(deployment.ingest(desc, kBlock).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());

  // Warm the server's memory tier with generation-0 bytes.
  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto warm = deployment.server(0).cache_metrics();
  EXPECT_GT(warm.entries, 0u);

  // Overwrite, then re-read: every byte must be the new generation even
  // though the old one was resident in server memory.
  const auto fresh = pattern_bytes(desc.total_bytes(), 123);
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  std::fill(buf.begin(), buf.end(), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
}

TEST(IngestWrite, OverwriteNeverServesStaleFromClientReadahead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  ReadaheadOptions ra;
  ra.threads = 0;  // deterministic inline fills
  file.value()->enable_readahead(ra);

  std::vector<std::uint8_t> buf(desc.total_bytes());
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  // Second pass is served from the read-ahead tier.
  const auto before = file.value()->readahead_metrics();
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->read(buf.data(), buf.size()).is_ok());
  const auto after = file.value()->readahead_metrics();
  EXPECT_GT(after.hits, before.hits);

  // The overwrite re-keys every block; the cached generation-0 entries
  // must never serve again.
  const auto fresh = pattern_bytes(desc.total_bytes(), 200);
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  ASSERT_TRUE(file.value()->lseek(0) == 0);
  std::fill(buf.begin(), buf.end(), 0);
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
  EXPECT_GT(file.value()->known_generation(0), 0u);
}

TEST(IngestWrite, KillPrimaryStaleFollowerRecoversThroughFixup) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  deployment.enable_fixups();
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());
  auto map = deployment.master().placement_map(desc.name);

  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  // kPrimary: followers deliberately miss generation 1.
  file.value()->set_ack_policy(ingest::AckPolicy::kPrimary);
  const auto fresh = pattern_bytes(desc.total_bytes(), 77);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());

  // Kill the primary of block 0 mid-run: the only fresh copy's server is
  // gone, and its follower is a generation behind.
  const int primary = healthy_primary(*map, 0);
  ASSERT_GE(primary, 0);
  deployment.kill_server(primary);

  // The acknowledged-generation floor makes the stale follower visible:
  // the read refuses to serve generation-0 bytes as generation 1.
  std::vector<std::uint8_t> buf(kBlock);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_FALSE(n.is_ok());
  EXPECT_GT(file.value()->stale_read_retries(), 0u);

  // The fixup queue re-syncs the follower from the dead primary's
  // surviving store (a kill is a process death, not a disk loss), after
  // which the read completes with the overwritten bytes.
  deployment.master().tick(0.0);
  EXPECT_EQ(deployment.master().fixup_depth(), 0u);
  n = file.value()->pread(buf.data(), buf.size(), 0);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  EXPECT_EQ(0, std::memcmp(buf.data(), fresh.data(), buf.size()));
}

TEST(IngestWrite, TcpChainWriteRoundTrips) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 2).is_ok());

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  const auto fresh = pattern_bytes(desc.total_bytes(), 11);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 0u);

  auto reader = deployment.make_client();
  ASSERT_TRUE(reader.is_ok());
  auto rfile = reader.value().open(desc.name);
  ASSERT_TRUE(rfile.is_ok());
  std::vector<std::uint8_t> buf(desc.total_bytes());
  auto n = rfile.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(buf, fresh);
  deployment.stop();
}

TEST(IngestWrite, DeadFollowerIsMissedAloneAndTheOtherFollowerStillWrites) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  PipeDeployment deployment(4);
  ASSERT_TRUE(deployment.ingest(desc, kBlock, 1, 3).is_ok());
  auto map = deployment.master().placement_map(desc.name);
  ASSERT_NE(map, nullptr);
  const auto chain =
      ingest::plan_chain(map->replicas_for_block(0), {}, {});
  ASSERT_TRUE(chain.viable());
  ASSERT_EQ(chain.followers.size(), 2u);
  const int primary = chain.primary;
  const int dead = static_cast<int>(chain.followers[0]);
  const int live = static_cast<int>(chain.followers[1]);

  // The client opens while every server is up, so its write still lists
  // the dead server as block 0's first follower.
  auto client = deployment.make_client();
  auto file = client.open(desc.name);
  ASSERT_TRUE(file.is_ok());
  deployment.kill_server(dead);

  // The primary's reply: two acks, and only the dead follower missed.
  IngestWriteRequest req;
  req.dataset = desc.name;
  req.block = 0;
  req.data = pattern_bytes(kBlock, 5);
  req.chain = {deployment.server_address(dead),
               deployment.server_address(live)};
  BlockServer& srv = deployment.server(primary);
  auto reply = decode_ingest_write_reply(srv.handle_request(
      encode_ingest_write_request(req), srv.allocate_conn_id()));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value().acks, 2u);
  ASSERT_EQ(reply.value().missed.size(), 1u);
  EXPECT_EQ(reply.value().missed[0], deployment.server_address(dead));
  auto stored = deployment.server(live).stamped_block(desc.name, 0);
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value().generation, reply.value().generation);
  EXPECT_EQ(stored.value().data, req.data);

  // Through the client: the dead server alone lands on the fixup queue,
  // and the live follower stores the generation the client saw acked.
  const auto fresh = pattern_bytes(kBlock, 6);
  ASSERT_TRUE(file.value()->write(fresh.data(), fresh.size()).is_ok());
  EXPECT_EQ(file.value()->degraded_writes(), 1u);
  std::vector<ServerAddress> owed;
  deployment.master().set_fixup_executor(
      [&owed](const ingest::FixupTask& task) {
        owed.push_back(task.target);
        return core::Status::ok();
      });
  deployment.master().tick(0.0);
  ASSERT_EQ(owed.size(), 1u);
  EXPECT_EQ(owed[0], deployment.server_address(dead));
  stored = deployment.server(live).stamped_block(desc.name, 0);
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored.value().generation, file.value()->known_generation(0));
  EXPECT_EQ(stored.value().data, fresh);
}

// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(IngestWrite, ConcurrentWritersOnOneWorkerPerServerNeverDeadlock) {
  // One worker per server and one event loop for the whole farm: the
  // tightest pools a deployment can run.  A worker blocked copying a block
  // to a peer must only ever wait on that peer's loop.
  constexpr int kWriters = 16;
  constexpr int kRounds = 20;
  TcpDeploymentOptions options;
  options.worker_threads = 1;
  options.reactor_loops = 1;
  TcpDeployment deployment(4, DiskModel{}, /*throttle=*/false,
                           ServerCacheConfig(), options);
  ASSERT_TRUE(deployment.start().is_ok());
  vol::DatasetDesc rf3 = vol::small_combustion_dataset(1);
  rf3.name = "rf3";
  vol::DatasetDesc ec = vol::small_combustion_dataset(1);
  ec.name = "ec21";
  ASSERT_TRUE(deployment.ingest(rf3, kBlock, 1, 3).is_ok());
  ASSERT_TRUE(
      deployment.ingest(ec, kBlock, 1, 1, codec::EcProfile{2, 1}).is_ok());
  ASSERT_GE(rf3.total_bytes() / kBlock, static_cast<std::uint64_t>(kWriters));

  struct Writer {
    std::unique_ptr<DpssClient> client;
    std::unique_ptr<DpssFile> files[2];
  };
  std::vector<Writer> writers(kWriters);
  for (auto& w : writers) {
    auto client = deployment.make_client();
    ASSERT_TRUE(client.is_ok());
    w.client = std::make_unique<DpssClient>(std::move(client).take());
    for (int f = 0; f < 2; ++f) {
      auto file = w.client->open(f == 0 ? rf3.name : ec.name);
      ASSERT_TRUE(file.is_ok()) << file.status().to_string();
      w.files[f] = std::move(file).take();
    }
  }

  const int threads_before = process_threads();
  std::atomic<int> errors{0};
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      // Writer i owns block i of each dataset, so no two writers race on
      // a block's generation.
      const std::int64_t at = std::int64_t{i} * kBlock;
      for (int r = 0; r < kRounds; ++r) {
        for (auto& file : writers[static_cast<std::size_t>(i)].files) {
          const auto bytes = pattern_bytes(
              kBlock, static_cast<std::uint8_t>(i * kRounds + r));
          if (file->lseek(at) != at ||
              !file->write(bytes.data(), bytes.size()).is_ok()) {
            errors.fetch_add(1);
          }
        }
      }
      std::lock_guard lk(mu);
      ++finished;
      cv.notify_one();
    });
  }
  {
    // Watchdog: a deadlocked writer never returns and cannot be joined, so
    // fail the process rather than hang the suite.
    std::unique_lock lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(60),
                     [&] { return finished == kWriters; })) {
      std::fprintf(stderr, "deadlock: %d of %d writers finished in 60 s\n",
                   finished, kWriters);
      std::fflush(stderr);
      std::_Exit(EXIT_FAILURE);
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  // No pool grew to get the writes through.
  EXPECT_EQ(process_threads(), threads_before);

  // Every follower copy and parity delta was answered on its target's
  // event loop.
  std::uint64_t inline_requests = 0;
  std::uint64_t peer_requests = 0;
  for (int s = 0; s < deployment.server_count(); ++s) {
    inline_requests += deployment.server_net_stats(s).inline_requests;
    peer_requests += deployment.server(s).chain_forwards() +
                     deployment.server(s).parity_deltas_applied();
  }
  EXPECT_EQ(peer_requests, static_cast<std::uint64_t>(kWriters * kRounds) *
                               (2 + 1));
  EXPECT_GE(inline_requests, peer_requests);

  // Every replica holds its writer's last bytes.
  auto map = deployment.master().placement_map(rf3.name);
  ASSERT_NE(map, nullptr);
  for (int i = 0; i < kWriters; ++i) {
    const auto last = pattern_bytes(
        kBlock, static_cast<std::uint8_t>(i * kRounds + kRounds - 1));
    for (std::uint32_t s :
         map->replicas_for_block(static_cast<std::uint64_t>(i)).servers) {
      auto stored = deployment.server(static_cast<int>(s))
                        .get_block(rf3.name, static_cast<std::uint64_t>(i));
      ASSERT_TRUE(stored.is_ok());
      EXPECT_EQ(stored.value(), last) << "server " << s << " block " << i;
    }
  }
  for (auto& w : writers) {
    for (auto& file : w.files) file->close();
  }
  deployment.stop();
}

TEST(IngestWrite, GeneratorSourceGenerationBumpInvalidates) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(2);
  backend::GeneratorSource source(desc, desc.total_bytes() * 2);
  vol::Brick brick;
  brick.dims = desc.dims;
  std::vector<float> out(desc.dims.cell_count());
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  const auto before = source.cache_metrics();
  EXPECT_GT(before.hits, 0u);

  // Re-ingest: cached timesteps are stale; the next load must regenerate.
  source.bump_generation();
  EXPECT_EQ(source.generation(), 1u);
  ASSERT_TRUE(source.load_brick(0, brick, out.data()).is_ok());
  const auto after = source.cache_metrics();
  EXPECT_EQ(after.hits, before.hits);          // no stale hit
  EXPECT_GT(after.misses, before.misses);      // regenerated
}

}  // namespace
}  // namespace visapult::dpss
