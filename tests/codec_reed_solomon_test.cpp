// Reed-Solomon round-trips and the StripeLayout slice geometry.
//
// The property sweep is the ISSUE's codec acceptance: for (k, m) in
// {(2,1), (4,2), (8,3)}, random data and random erasure patterns of up to
// m losses always decode back to the original bytes; m+1 losses are
// refused rather than mis-decoded.
#include "codec/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/stripe_layout.h"
#include "core/rng.h"
#include "support/test_support.h"

namespace visapult::codec {
namespace {

std::vector<std::vector<std::uint8_t>> random_shards(core::Rng& rng,
                                                     std::uint32_t k,
                                                     std::size_t n) {
  std::vector<std::vector<std::uint8_t>> data(k);
  for (auto& shard : data) {
    shard.resize(n);
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  return data;
}

std::vector<std::vector<std::uint8_t>> encode_all(
    const ReedSolomon& rs, const std::vector<std::vector<std::uint8_t>>& data,
    std::size_t n) {
  std::vector<const std::uint8_t*> ptrs;
  for (const auto& shard : data) ptrs.push_back(shard.data());
  std::vector<std::vector<std::uint8_t>> parity;
  rs.encode(ptrs, n, &parity);
  auto all = data;
  for (auto& p : parity) all.push_back(std::move(p));
  return all;
}

TEST(ReedSolomon, RoundTripSweepWithRandomErasures) {
  const std::size_t n = 1024;
  core::Rng rng(test_support::deterministic_seed());
  for (const auto& [k, m] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {2, 1}, {4, 2}, {8, 3}}) {
    const ReedSolomon rs(k, m);
    const auto data = random_shards(rng, k, n);
    const auto stored = encode_all(rs, data, n);
    ASSERT_EQ(stored.size(), k + m);

    for (int trial = 0; trial < 50; ++trial) {
      // Random erasure pattern: 1..m losses among the k+m slices.
      const std::uint32_t losses =
          1 + static_cast<std::uint32_t>(rng.next_below(m));
      std::vector<std::uint32_t> slots(k + m);
      for (std::uint32_t s = 0; s < k + m; ++s) slots[s] = s;
      for (std::uint32_t i = 0; i < losses; ++i) {
        std::swap(slots[i],
                  slots[i + rng.next_below(k + m - i)]);
      }
      auto shards = stored;
      std::vector<char> present(k + m, 1);
      for (std::uint32_t i = 0; i < losses; ++i) {
        shards[slots[i]].clear();
        present[slots[i]] = 0;
      }
      ASSERT_TRUE(rs.reconstruct(shards, present, n).is_ok())
          << "(" << k << "," << m << ") trial " << trial;
      for (std::uint32_t s = 0; s < k + m; ++s) {
        ASSERT_EQ(shards[s], stored[s])
            << "(" << k << "," << m << ") slice " << s << " trial " << trial;
      }
    }
  }
}

TEST(ReedSolomon, ExactlyMLossesAlwaysRecoverEveryPattern) {
  // (4, 2): exhaustively drop every pair of slices.
  const std::size_t n = 257;  // odd size exercises tail handling
  core::Rng rng(test_support::deterministic_seed());
  const ReedSolomon rs(4, 2);
  const auto data = random_shards(rng, 4, n);
  const auto stored = encode_all(rs, data, n);
  for (std::uint32_t a = 0; a < 6; ++a) {
    for (std::uint32_t b = a + 1; b < 6; ++b) {
      auto shards = stored;
      std::vector<char> present(6, 1);
      shards[a].clear();
      shards[b].clear();
      present[a] = present[b] = 0;
      ASSERT_TRUE(rs.reconstruct(shards, present, n).is_ok())
          << "lost " << a << "," << b;
      for (std::uint32_t s = 0; s < 6; ++s) {
        ASSERT_EQ(shards[s], stored[s]) << "lost " << a << "," << b;
      }
    }
  }
}

TEST(ReedSolomon, MorePlusOneLossesAreRefused) {
  const std::size_t n = 64;
  core::Rng rng(test_support::deterministic_seed());
  const ReedSolomon rs(4, 2);
  const auto data = random_shards(rng, 4, n);
  auto shards = encode_all(rs, data, n);
  std::vector<char> present(6, 1);
  for (int s : {0, 2, 5}) {  // three losses > m = 2
    shards[static_cast<std::size_t>(s)].clear();
    present[static_cast<std::size_t>(s)] = 0;
  }
  const auto st = rs.reconstruct(shards, present, n);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), core::StatusCode::kUnavailable);
}

TEST(ReedSolomon, SystematicRowsAreIdentity) {
  const ReedSolomon rs(5, 3);
  for (std::uint32_t r = 0; r < 5; ++r) {
    for (std::uint32_t c = 0; c < 5; ++c) {
      EXPECT_EQ(rs.row(r)[c], r == c ? 1 : 0);
    }
  }
}

TEST(ReedSolomon, EncodeIsDeterministic) {
  const std::size_t n = 128;
  core::Rng rng(test_support::deterministic_seed());
  const auto data = random_shards(rng, 4, n);
  const ReedSolomon a(4, 2), b(4, 2);
  EXPECT_EQ(encode_all(a, data, n), encode_all(b, data, n));
}

// ---- stripe layout -----------------------------------------------------------

std::shared_ptr<const placement::PlacementMap> ec_map(int servers,
                                                      std::uint64_t blocks,
                                                      EcProfile ec) {
  std::vector<placement::ServerAddress> addrs;
  for (int i = 0; i < servers; ++i) {
    addrs.push_back({"ec-server-" + std::to_string(i),
                     static_cast<std::uint16_t>(i)});
  }
  placement::HashRing ring(addrs);
  return std::make_shared<const placement::PlacementMap>(
      "ec-test", std::move(ring), blocks, 1, 1, ec);
}

TEST(StripeLayout, GroupsAndSlicesPartitionTheBlockSpace) {
  const EcProfile ec{4, 2};
  StripeLayout layout(ec_map(8, 22, ec));
  ASSERT_TRUE(layout.valid());
  EXPECT_EQ(layout.group_count(), 6u);  // ceil(22 / 4)
  for (std::uint64_t b = 0; b < 22; ++b) {
    EXPECT_EQ(layout.group_of_block(b), b / 4);
    EXPECT_EQ(layout.slice_of_block(b), b % 4);
    EXPECT_EQ(layout.block_of_slice(b / 4, static_cast<std::uint32_t>(b % 4)),
              b);
  }
  // The final group clips to the dataset.
  EXPECT_EQ(layout.group_first_block(5), 20u);
  EXPECT_EQ(layout.group_last_block(5), 22u);
}

TEST(StripeLayout, EveryGroupGetsKPlusMDistinctServers) {
  const EcProfile ec{4, 2};
  StripeLayout layout(ec_map(8, 40, ec));
  for (std::uint64_t g = 0; g < layout.group_count(); ++g) {
    const auto& servers = layout.group_servers(g);
    ASSERT_EQ(servers.size(), 6u) << "group " << g;
    auto sorted = servers;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate server in group " << g;
    for (std::uint32_t s = 0; s < 6; ++s) {
      EXPECT_EQ(layout.server_for_slice(g, s), static_cast<int>(servers[s]));
    }
  }
}

TEST(StripeLayout, ParityStorageIdentitiesAreDisjointPerGroup) {
  const EcProfile ec{2, 2};
  StripeLayout layout(ec_map(5, 10, ec));
  EXPECT_EQ(StripeLayout::parity_dataset("combustion"), "combustion#parity");
  EXPECT_EQ(StripeLayout::parity_base("combustion#parity"), "combustion");
  EXPECT_EQ(StripeLayout::parity_base("combustion"), std::nullopt);
  EXPECT_EQ(StripeLayout::parity_base("#parity"), std::nullopt);
  EXPECT_EQ(StripeLayout::parity_base("a#parity#b"), std::nullopt);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t g = 0; g < layout.group_count(); ++g) {
    for (std::uint32_t j = 0; j < 2; ++j) {
      ids.push_back(layout.parity_block(g, j));
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(StripeLayout, MapReportsDataSliceOwnershipOnly) {
  const EcProfile ec{4, 2};
  auto map = ec_map(8, 16, ec);
  StripeLayout layout(map);
  for (std::uint64_t b = 0; b < 16; ++b) {
    const int owner = layout.server_for_slice(layout.group_of_block(b),
                                              layout.slice_of_block(b));
    ASSERT_GE(owner, 0);
    int holders = 0;
    for (std::uint32_t s = 0; s < 8; ++s) {
      if (map->server_holds_block(s, b)) ++holders;
    }
    // Exactly one server stores the block verbatim: its data-slice owner.
    EXPECT_EQ(holders, 1) << "block " << b;
    EXPECT_TRUE(map->server_holds_block(static_cast<std::uint32_t>(owner), b));
  }
}

}  // namespace
}  // namespace visapult::codec
