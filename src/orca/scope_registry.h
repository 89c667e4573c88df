#ifndef ORCASTREAM_ORCA_SCOPE_REGISTRY_H_
#define ORCASTREAM_ORCA_SCOPE_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "plan/shape_index.h"

namespace orcastream::orca {

/// Owns every subscope registered with the ORCA service (§4.1) and answers
/// "which subscope keys does this event match?".
///
/// Instead of testing each event against every registered subscope (the
/// seed's linear scan), each scope type's store keeps one plan::ShapeIndex
/// over the cheap discriminating attributes its subscopes filter on:
/// metric name, application and operator name for operator metrics;
/// metric name, PE id and application for PE metrics; application for PE
/// failures and job events; name for user events. A lookup collects the
/// candidate subscopes from the index and only runs the full match
/// predicates (MatchOperatorMetric etc.) against those, so the result —
/// including the registration order of the returned keys — is identical to
/// the linear scan, which is preserved as the *Linear reference path for
/// equivalence tests and benchmarks.
///
/// Registration is a managed lifecycle, not append-only: the paper's
/// registerEventScope is a dynamic call (orchestration logic registers
/// scopes when it initializes, replacement logic registers its own on its
/// fresh start event, §7), so scopes can also be *unregistered* — either
/// individually by key, or wholesale by retiring the *generation* the
/// owning logic registered them under. Removal tombstones the stored slot
/// (the index keeps the dead position and lookups skip it); once dead
/// slots pass a threshold the affected store is compacted — slots are
/// renumbered preserving registration order and the index rebuilt — so
/// `MatchedKeys` stays allocation-light under arbitrary register/unregister
/// churn while remaining byte-identical to `MatchedKeysLinear`.
class ScopeRegistry {
 public:
  /// Ownership tag for a batch of registrations (one per loaded ORCA
  /// logic). Registrations under a generation nobody retires — e.g. the
  /// initial generation 0, or a fresh one begun after a retire — are
  /// effectively unowned and survive logic turnover.
  using Generation = uint64_t;

  // --- Registration lifecycle (§4.1, §7) ---------------------------------

  void Register(OperatorMetricScope scope);
  void Register(PeMetricScope scope);
  void Register(PeFailureScope scope);
  void Register(JobEventScope scope);
  void Register(UserEventScope scope);

  /// Removes every live subscope registered under `key`, across all five
  /// scope types. Returns the number of subscopes removed.
  size_t Unregister(const std::string& key);

  /// True when at least one live subscope is registered under `key` (of
  /// any scope type). Retired/unregistered keys answer false even before
  /// compaction scrubs their slots.
  bool HasKey(const std::string& key) const;

  /// Opens a new scope generation; subsequent Register calls are tagged
  /// with it until the next BeginGeneration. Used by OrcaService to tag
  /// each loaded logic's registrations so they can be retired atomically.
  Generation BeginGeneration();

  /// Removes every live subscope registered under `generation`. Returns
  /// the number of subscopes removed.
  size_t RetireGeneration(Generation generation);

  Generation current_generation() const { return current_generation_; }

  void Clear();

  /// Number of live (registered and not unregistered) subscopes.
  size_t size() const;
  bool empty() const { return size() == 0; }

  // --- Indexed matching (the hot path) ----------------------------------

  /// Keys of all live subscopes the event matches, in registration order.
  std::vector<std::string> MatchedKeys(const OperatorMetricContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeys(const PeFailureContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const JobEventContext& context,
                                       bool is_submission) const;
  std::vector<std::string> MatchedKeys(const UserEventContext& context) const;

  // --- Batch matching: one SRM round ----------------------------------

  /// results[i] == MatchedKeys(contexts[i], ...) for every i. The round is
  /// split into contiguous chunks matched on separate threads when it is
  /// large enough to pay for them (see ParallelPolicy); the calling thread
  /// matches one chunk itself. Lookups only read the registry, so the
  /// chunks share it without locking, and the results are the same on
  /// every path.
  std::vector<std::vector<std::string>> MatchOperatorMetricBatch(
      const std::vector<OperatorMetricContext>& contexts,
      const GraphView& graph) const;
  std::vector<std::vector<std::string>> MatchPeMetricBatch(
      const std::vector<PeMetricContext>& contexts) const;

  /// When a batch spawns threads. `min_samples` is the fewest samples one
  /// matching thread takes: a round of n samples is matched in
  /// clamp(n / min_samples, 1, hardware threads) parts, so a small round
  /// stays on the calling thread and a many-core host never starts a
  /// thread for fewer than `min_samples` samples.
  struct ParallelPolicy {
    size_t min_samples = 1024;
  };
  void set_parallel_policy(const ParallelPolicy& policy) {
    parallel_policy_ = policy;
  }
  const ParallelPolicy& parallel_policy() const { return parallel_policy_; }

  // --- Linear-scan reference path ----------------------------------------

  /// Byte-identical semantics to MatchedKeys, implemented as the seed's
  /// scan over every registered subscope. Kept as the equivalence oracle
  /// and the benchmark baseline.
  std::vector<std::string> MatchedKeysLinear(
      const OperatorMetricContext& context, const GraphView& graph) const;
  std::vector<std::string> MatchedKeysLinear(
      const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeysLinear(const PeFailureContext& context,
                                             const GraphView& graph) const;
  std::vector<std::string> MatchedKeysLinear(const JobEventContext& context,
                                             bool is_submission) const;
  std::vector<std::string> MatchedKeysLinear(
      const UserEventContext& context) const;

  // --- Tombstone / compaction introspection (tests, benches) -------------

  /// Tombstoned slots not yet reclaimed by compaction, across all stores.
  size_t dead_count() const;
  /// How many store compactions have run since construction.
  size_t compaction_count() const { return compactions_; }
  /// A store compacts once it holds at least `threshold` dead slots AND
  /// dead slots are at least half the store (the ratio keeps compaction
  /// cost amortized O(1) per unregister). Default 16; tests lower it to
  /// force compaction under small workloads.
  void set_compaction_threshold(size_t threshold) {
    compaction_threshold_ = threshold == 0 ? 1 : threshold;
  }
  size_t compaction_threshold() const { return compaction_threshold_; }

 private:
  /// One stored subscope. Unregistration tombstones the slot in place
  /// (live = false) so index positions stay valid until the next
  /// compaction renumbers them.
  template <typename Scope>
  struct Slot {
    Scope scope;
    Generation generation = 0;
    bool live = true;
  };

  /// Per-scope-type storage: the slots in registration order, the index
  /// over them, and the count of tombstoned slots awaiting compaction.
  template <typename Scope>
  struct Store {
    std::vector<Slot<Scope>> slots;
    plan::ShapeIndex index;
    size_t dead = 0;

    size_t live_count() const { return slots.size() - dead; }
  };

  enum class ScopeType : uint8_t {
    kOperatorMetric,
    kPeMetric,
    kPeFailure,
    kJobEvent,
    kUserEvent,
  };
  /// Locates one stored subscope for the key map.
  struct SlotRef {
    ScopeType type;
    uint32_t position;
  };

  /// Calls fn(store, type) on each of the five stores.
  template <typename Self, typename Fn>
  static void ForEachStore(Self& self, Fn&& fn);
  /// Calls fn(store) on the store of `type`.
  template <typename Self, typename Fn>
  static void WithStore(Self& self, ScopeType type, Fn&& fn);

  /// Appends one subscope under the current generation, indexing it and
  /// filing it in the key map.
  template <typename Scope>
  void Insert(Scope scope);

  /// Tombstones the slot (and its index entries) if live; updates the
  /// store's dead count.
  template <typename Scope>
  static bool Kill(Store<Scope>& store, uint32_t position);

  /// Replaces the store's slots with its live ones and rebuilds its index.
  template <typename Scope>
  static void Rebuild(Store<Scope>& store);

  /// Compacts any store whose dead count passed the threshold, then
  /// rebuilds the key map if anything moved.
  void MaybeCompact();
  void RebuildKeyMap();

  /// Whether the slot a key-map ref points at is still live.
  bool RefLive(const SlotRef& ref) const;

  Store<OperatorMetricScope> operator_metric_;
  Store<PeMetricScope> pe_metric_;
  Store<PeFailureScope> pe_failure_;
  Store<JobEventScope> job_event_;
  Store<UserEventScope> user_event_;

  /// key → live slots registered under it (keys are normally unique, but
  /// duplicates are tolerated: Unregister removes them all). Rebuilt
  /// whenever compaction renumbers positions.
  std::unordered_map<std::string, std::vector<SlotRef>> key_map_;

  Generation current_generation_ = 0;
  size_t compaction_threshold_ = 16;
  size_t compactions_ = 0;
  ParallelPolicy parallel_policy_;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SCOPE_REGISTRY_H_
