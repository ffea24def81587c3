// Chain planning for server-driven replicated writes.
//
// The classic client wrote every replica itself -- rf copies of every block
// crossing the client's uplink.  Server-driven replication sends each block
// ONCE, to the group's *primary*, which copies it server-to-server to each
// remaining replica (its followers).  This module picks the primary and
// the followers:
//
//   * the primary must be *deterministic across clients* (it allocates the
//     block's next generation, so two writers racing on one block must
//     agree on the allocator): it is the first non-down replica in ring
//     order, NOT the least-loaded one -- placement::primary_replica();
//   * the followers are the remaining live replicas, kept in ring order so
//     concurrent writes visit replicas consistently;
//   * the ack policy then truncates the chain at the primary: kAll keeps
//     every follower, kQuorum keeps just enough for a strict majority,
//     kPrimary keeps none.  Truncated followers are the write's "missed"
//     set, owed a background fixup.
#pragma once

#include <cstdint>
#include <vector>

#include "ingest/ack_policy.h"
#include "placement/placement_map.h"

namespace visapult::ingest {

// A planned write chain, as indices into the open reply's server list.
struct ChainPlan {
  // < 0 when no live replica exists (the write cannot land anywhere).
  int primary = -1;
  // Live replicas after the primary, in ring order.
  std::vector<std::uint32_t> followers;

  bool viable() const { return primary >= 0; }
  // Servers the full chain would touch (primary included).
  std::uint32_t targets() const {
    return primary < 0 ? 0
                       : static_cast<std::uint32_t>(followers.size()) + 1;
  }
};

// Build the chain for one placement group over the client's local liveness
// view (`alive[s]` false for servers this client has marked dead; servers
// beyond alive.size() read as alive).  `health` is the master's open-time
// snapshot used to skip known-down replicas deterministically.
ChainPlan plan_chain(const placement::ReplicaSet& replicas,
                     const std::vector<placement::HealthState>& health,
                     const std::vector<char>& alive);

// Followers the policy keeps synchronous: the first `kept` of
// plan.followers such that 1 + kept >= required_acks(policy, targets).
// The rest are returned in `skipped` (the fixup queue's work).
std::vector<std::uint32_t> truncate_chain(const ChainPlan& plan,
                                          AckPolicy policy,
                                          std::vector<std::uint32_t>* skipped);

}  // namespace visapult::ingest
