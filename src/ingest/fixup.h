// Background fixup queue: replicas that missed a generation.
//
// Degraded writes are the price of the relaxed ack policies (and of
// followers that are unreachable): a replica or parity owner is left one or
// more generations behind the acknowledged copy.  The client reports every
// missed target to the master, whose FixupQueue holds the debt until
// Master::tick() drains it -- the deployment-side executor re-copies the
// block from a replica that has the generation (or re-encodes parity from
// the group's data slices) and stamps it with put_block_at, so a fixup
// arriving after an even newer write is rejected as stale instead of
// rolling the replica back.
//
// The queue dedupes by (dataset, block, target): a block overwritten five
// times while its follower was down owes ONE fixup at the highest missed
// generation, not five.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "placement/server_address.h"

namespace visapult::ingest {

struct FixupTask {
  std::string dataset;     // "<name>#parity" for parity blocks
  std::uint64_t block = 0;
  // Generation the target must reach.  0 means "whatever is current" --
  // parity blocks allocate generations locally, so their fixups re-encode
  // to the present state rather than to a specific stamp.
  std::uint64_t generation = 0;
  placement::ServerAddress target;  // the server that missed the write
  int attempts = 0;
};

class FixupQueue {
 public:
  // Enqueue (or merge into) the fixup for (dataset, block, target).
  // Returns true when a new entry was created, false on a merge.
  bool push(const FixupTask& task);

  // Remove and return every queued task (the tick-driven drain).  Tasks
  // that fail to apply should be re-pushed by the caller.
  std::vector<FixupTask> drain();

  std::size_t depth() const;
  std::uint64_t enqueued() const { return enqueued_; }

 private:
  struct Key {
    std::string dataset;
    std::uint64_t block;
    std::string target;
    bool operator<(const Key& o) const {
      if (dataset != o.dataset) return dataset < o.dataset;
      if (block != o.block) return block < o.block;
      return target < o.target;
    }
  };
  mutable std::mutex mu_;
  std::map<Key, FixupTask> tasks_;
  std::uint64_t enqueued_ = 0;
};

}  // namespace visapult::ingest
