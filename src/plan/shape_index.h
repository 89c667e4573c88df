#ifndef ORCASTREAM_PLAN_SHAPE_INDEX_H_
#define ORCASTREAM_PLAN_SHAPE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

namespace orcastream::plan {

/// The filter values one registered predicate carries, one deduplicated
/// vector per indexed attribute; an empty vector means the predicate is a
/// wildcard on that attribute.
using AttributeValues = std::vector<std::vector<std::string>>;

/// Counters of the retired compile-time planner. Nothing updates them:
/// OrcaService::plan_stats() returns them all-zero, and they remain only
/// because the pipeline benchmark still reads them.
struct PlanStats {
  uint64_t plans_compiled = 0;
  uint64_t replans = 0;
  uint64_t planned_lookups = 0;
  uint64_t fallback_lookups = 0;
  uint64_t shapes = 0;
};

/// The scope index of one ScopeRegistry store. Predicates are grouped by
/// *shape* — the bitmask of indexed attributes they filter on — and each
/// attribute value a shape group filters on has a *posting*: the
/// ascending store positions of the group's members filed under that
/// value.
///
/// A lookup probes each attribute once and evaluates every shape group
/// from those probes. A group is empty if any of its postings is absent
/// or has no live entry; otherwise it yields the positions of its
/// smallest posting that also appear in all its other postings. The
/// order comes from the posting sizes the lookup finds, so a skewed value
/// needs no estimate and no separate path. Groups partition the
/// positions, so sorting the union restores registration order.
///
/// The result is a candidate superset — tombstoned positions stay in the
/// postings until the owning store rebuilds — and the caller re-runs the
/// full predicate over every candidate, so results never depend on what
/// the index keeps.
///
/// Threading: Add/Kill/Clear run on the owning thread with lookups
/// quiesced. Collect is const, writes only its output, and is safe to
/// call from several threads at once (ScopeRegistry's batch workers share
/// every store's index).
class ShapeIndex {
 public:
  /// Attributes past this many are left unindexed (the recheck still
  /// applies them).
  static constexpr size_t kMaxAttrs = 8;

  /// Files one predicate under `position`. Positions must ascend between
  /// Clears (registration appends; rebuilds replay live slots in order),
  /// which keeps every posting sorted for the binary-search intersection.
  void Add(uint32_t position, const AttributeValues& values);

  /// Tombstones one predicate: the live counts of its group and postings
  /// drop, its entries stay until the next Clear. `values` must be the
  /// ones the position was added with.
  void Kill(const AttributeValues& values);

  /// Drops every group and posting (store rebuild, registry Clear).
  void Clear();

  /// Candidate positions for the probe values (one per attribute, in
  /// attribute order) into `out`, ascending.
  void Collect(std::initializer_list<const std::string*> probes,
               std::vector<uint32_t>* out) const;

  /// Shape groups filed since the last Clear.
  size_t group_count() const { return groups_.size(); }

 private:
  struct Posting {
    uint32_t shape = 0;
    uint32_t live = 0;
    std::vector<uint32_t> positions;
  };
  struct Group {
    uint32_t shape = 0;
    size_t live = 0;
  };
  /// The postings filed under one attribute value, one per shape group
  /// that filters on the attribute.
  using Postings = std::vector<Posting>;

  static uint32_t ShapeOf(const AttributeValues& values);

  /// Appends one group's intersection to `out`; `found[attr]` holds the
  /// probed value's postings, null when the value is absent.
  void CollectGroup(uint32_t shape, const Postings* const* found,
                    std::vector<uint32_t>* out) const;

  /// Per attribute: value → postings.
  std::vector<std::unordered_map<std::string, Postings>> postings_;
  std::vector<Group> groups_;
  /// Members of the wildcard group (shape 0), which has no postings.
  std::vector<uint32_t> wildcards_;
};

}  // namespace orcastream::plan

#endif  // ORCASTREAM_PLAN_SHAPE_INDEX_H_
