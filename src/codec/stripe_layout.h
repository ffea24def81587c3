// StripeLayout: where every slice of an erasure-coded dataset lives.
//
// Wraps an EC-enabled placement::PlacementMap (groups of k consecutive
// blocks hashed onto k + m distinct ring servers) and answers the
// questions the ingest encoder, the client's degraded read path, and the
// rebalance executor all share:
//
//   * which group a block belongs to, and which of the group's slices it
//     IS (data slice s of group g is logical block g*k + s, stored
//     verbatim on the slice-s owner -- the systematic fast path);
//   * which server owns each slice;
//   * the storage identity of parity: parity slice j of group g is block
//     g*m + j of the companion dataset "<name>#parity", which keeps block
//     servers and the wire protocol entirely EC-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
#include "placement/placement_map.h"

namespace visapult::codec {

class StripeLayout {
 public:
  StripeLayout() = default;
  explicit StripeLayout(std::shared_ptr<const placement::PlacementMap> map)
      : map_(std::move(map)) {}

  // True when the wrapped map exists and is erasure-coded.
  bool valid() const { return map_ && map_->erasure_coded(); }
  const EcProfile& profile() const {
    static const EcProfile none;
    return map_ ? map_->ec_profile() : none;
  }
  const placement::PlacementMap& map() const { return *map_; }

  std::uint64_t block_count() const { return map_ ? map_->block_count() : 0; }
  std::uint64_t group_count() const { return map_ ? map_->group_count() : 0; }
  std::uint64_t group_of_block(std::uint64_t block) const {
    return map_ ? map_->group_of(block) : 0;
  }
  std::uint32_t slice_of_block(std::uint64_t block) const {
    const std::uint32_t k = profile().data_slices;
    return k == 0 ? 0 : static_cast<std::uint32_t>(block % k);
  }
  std::uint64_t block_of_slice(std::uint64_t group, std::uint32_t slice) const {
    return group * profile().data_slices + slice;
  }
  // Data blocks [first, last) of `group`, clipped to the dataset (the last
  // group may cover fewer than k real blocks; the missing tail slices are
  // all-zero for parity purposes and are never stored or fetched).
  std::uint64_t group_first_block(std::uint64_t group) const {
    return map_ ? map_->group_first_block(group) : 0;
  }
  std::uint64_t group_last_block(std::uint64_t group) const {
    return map_ ? map_->group_last_block(group) : 0;
  }

  // Slice owners of `group` in slice order (size k + m when the ring had
  // enough servers).  Indices into map().ring().servers().
  const std::vector<std::uint32_t>& group_servers(std::uint64_t group) const {
    return map_->replicas_for_group(group).servers;
  }
  int server_for_slice(std::uint64_t group, std::uint32_t slice) const {
    return map_ ? map_->slice_server(group, slice) : -1;
  }

  // ---- parity storage identity ----
  static std::string parity_dataset(const std::string& dataset) {
    return dataset + kParitySuffix;
  }
  // The inverse: "<name>" for "<name>#parity", nullopt for any dataset
  // that is not a parity companion.
  static std::optional<std::string> parity_base(const std::string& dataset) {
    const std::size_t n = sizeof(kParitySuffix) - 1;
    if (dataset.size() <= n ||
        dataset.compare(dataset.size() - n, n, kParitySuffix) != 0) {
      return std::nullopt;
    }
    return dataset.substr(0, dataset.size() - n);
  }
  std::uint64_t parity_block(std::uint64_t group, std::uint32_t parity_index) const {
    return group * profile().parity_slices + parity_index;
  }

 private:
  static constexpr char kParitySuffix[] = "#parity";

  std::shared_ptr<const placement::PlacementMap> map_;
};

}  // namespace visapult::codec
