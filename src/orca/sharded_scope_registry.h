#ifndef ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
#define ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_

#include <cstddef>

#include "orca/scope_registry.h"

namespace orcastream::orca {

/// Kept for pipebench/; delete with the next benchmark change. The
/// pipeline benchmark builds its replay mirror under this name. It is a
/// plain ScopeRegistry: the shard count is ignored, and there is nothing
/// to plan or rebalance.
class ShardedScopeRegistry : public ScopeRegistry {
 public:
  explicit ShardedScopeRegistry(size_t /*shard_count*/ = 4) {}

  void set_predicate_planner(bool /*enabled*/) {}
  /// Subscopes migrated; always 0.
  size_t MaybeRebalance() { return 0; }
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
