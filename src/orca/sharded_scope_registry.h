#ifndef ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
#define ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "orca/event_scope.h"
#include "orca/events.h"
#include "orca/graph_view.h"
#include "orca/scope_registry.h"

namespace orcastream::orca {

/// Partitions the subscope population across N ScopeRegistry shards keyed
/// by application — the multi-application scale-out of §4.1/§4.2 event
/// detection (an ORCA service manages *many* applications concurrently;
/// one registry holding every application's subscopes makes every SRM
/// round contend on one structure).
///
/// **Shard map.** Each application is assigned to a shard the first time a
/// subscope filtering on it is registered (hash of the application name
/// unless a multi-application subscope pins it — see below) and the
/// assignment is reference-counted: when the last shard-resident subscope
/// filtering on an application is unregistered or retired, the assignment
/// is dropped. Subscopes route by their application filters:
///
///   - no application filter (wildcards, and every UserEventScope — user
///     events carry no application) → the always-consulted *residual
///     shard*;
///   - application filters that all map to one shard → that shard (a
///     subscope naming several applications assigns any still-unassigned
///     ones to the same shard);
///   - application filters already pinned to *different* shards → the
///     residual shard (correct for any filter combination, just not
///     partitioned).
///
/// **Lookups.** An event for application A consults exactly two
/// registries — A's owning shard (none if A is unassigned) and the
/// residual shard — and merges the two result lists by registration
/// sequence number, so the returned keys are byte-identical to what a
/// single ScopeRegistry fed the same registration stream would return
/// (the equivalence oracle kept by tests/sharded_scope_registry_test.cc,
/// alongside the linear-scan oracle).
///
/// **Lifecycle.** Register/Unregister/BeginGeneration/RetireGeneration
/// mirror ScopeRegistry exactly; generations advance in lockstep across
/// all shards so `ReplaceLogic`/`Shutdown` retirement semantics are
/// preserved per shard.
///
/// **Parallel snapshot matching.** The batch entry points match one whole
/// SRM round shard-parallel: samples are bucketed by owning shard and the
/// buckets matched on separate threads (shards are disjoint; the residual
/// shard and the graph view are only read). Results are deterministic and
/// identical to per-sample MatchedKeys calls. The gating thresholds are
/// config-driven (set_parallel_policy).
///
/// **Dynamic resharding.** Every lookup charges one match to the owning
/// application's route, so the registry observes per-application and
/// per-shard load. MaybeRebalance (called between SRM rounds, on the
/// sim thread — never concurrently with matching) finds a shard whose
/// observed match volume exceeds `hot_ratio`× the mean and migrates
/// application groups off it — to the coldest shard, or to a freshly
/// grown one when growth is allowed and the hot application dominates.
/// A migration moves the *co-pin closure* of an application (every
/// application transitively sharing a multi-application subscope or a
/// key with it in that shard) so the shard-map invariant — all of a
/// placement's applications live on the placement's shard — survives.
/// Subscopes move via ScopeRegistry::ExtractKeys/InsertExtracted, which
/// preserve generation and global-sequence stamps, so merged match
/// results stay byte-identical to the single-registry oracle during and
/// after any sequence of migrations.
class ShardedScopeRegistry {
 public:
  using Generation = ScopeRegistry::Generation;

  /// `shard_count` is clamped to at least 1. With one shard every
  /// application routes to it — semantically the single-registry setup
  /// with a separate residual store.
  explicit ShardedScopeRegistry(size_t shard_count = 4);

  ShardedScopeRegistry(const ShardedScopeRegistry&) = delete;
  ShardedScopeRegistry& operator=(const ShardedScopeRegistry&) = delete;

  // --- Registration lifecycle (mirrors ScopeRegistry) ---------------------

  void Register(OperatorMetricScope scope);
  void Register(PeMetricScope scope);
  void Register(PeFailureScope scope);
  void Register(JobEventScope scope);
  void Register(UserEventScope scope);

  /// Removes every live subscope registered under `key`, across all
  /// shards. Returns the number of subscopes removed.
  size_t Unregister(const std::string& key);

  /// True when any shard (including the residual) still holds a live
  /// subscope under `key` — i.e. the key would still be matchable. Used
  /// by the EventBus to prune queued failure events whose matched keys
  /// all belong to a retired generation.
  bool HasKey(const std::string& key) const;

  /// Opens a new scope generation on every shard (they advance in
  /// lockstep) and returns the common id.
  Generation BeginGeneration();

  /// Removes every live subscope registered under `generation`, across
  /// all shards, releasing their shard-map references. Returns the number
  /// of subscopes removed.
  size_t RetireGeneration(Generation generation);

  Generation current_generation() const { return current_generation_; }

  void Clear();

  size_t size() const;
  bool empty() const { return size() == 0; }

  // --- Matching (owning shard ∪ residual shard, registration order) -------

  std::vector<std::string> MatchedKeys(const OperatorMetricContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const PeMetricContext& context) const;
  std::vector<std::string> MatchedKeys(const PeFailureContext& context,
                                       const GraphView& graph) const;
  std::vector<std::string> MatchedKeys(const JobEventContext& context,
                                       bool is_submission) const;
  std::vector<std::string> MatchedKeys(const UserEventContext& context) const;

  // --- Batch matching: one SRM round, shard-parallel ----------------------

  /// results[i] == MatchedKeys(contexts[i], graph) for every i; buckets
  /// the samples by owning shard and matches the buckets on separate
  /// threads when the round is large enough to pay for them.
  std::vector<std::vector<std::string>> MatchOperatorMetricBatch(
      const std::vector<OperatorMetricContext>& contexts,
      const GraphView& graph) const;
  std::vector<std::vector<std::string>> MatchPeMetricBatch(
      const std::vector<PeMetricContext>& contexts) const;

  // --- Load accounting & dynamic resharding -------------------------------

  /// Observed load of one shard: resident subscopes, applications routed
  /// to it, and the match-lookup volume charged to those applications
  /// (decayed by half after each rebalancing round so decisions track
  /// recent traffic). shard_loads() returns one entry per shard plus a
  /// final entry for the residual shard.
  struct ShardLoad {
    size_t subscopes = 0;
    size_t applications = 0;
    uint64_t matches = 0;
  };
  std::vector<ShardLoad> shard_loads() const;
  /// Match volume charged to the residual shard (unassigned applications
  /// and user events).
  uint64_t residual_matches() const { return residual_matches_; }
  /// Completed migrations (one per application group moved).
  uint64_t reshard_count() const { return reshards_; }
  /// Subscopes moved across shards by migrations, cumulative.
  uint64_t migrated_subscopes() const { return migrated_; }

  /// When to split a hot shard. A shard is *hot* once total observed
  /// matches reach `min_matches` AND its share exceeds `hot_ratio`× the
  /// per-shard mean; each MaybeRebalance call migrates at most
  /// `max_moves_per_round` application groups off hot shards.
  struct ReshardPolicy {
    bool enabled = true;
    double hot_ratio = 2.0;
    uint64_t min_matches = 4096;
    size_t max_moves_per_round = 4;
  };
  void set_reshard_policy(const ReshardPolicy& policy) {
    reshard_policy_ = policy;
  }
  const ReshardPolicy& reshard_policy() const { return reshard_policy_; }

  /// Allows MaybeRebalance to grow the shard vector up to `max_shards`
  /// when isolating a dominant application (0 = never grow). Must not be
  /// called while a MatchBatch is running (sim-thread discipline).
  void set_max_shards(size_t max_shards) { max_shards_ = max_shards; }

  /// Splits hot shards per the policy. Returns subscopes migrated. Call
  /// between rounds on the owning thread — migration mutates shards.
  size_t MaybeRebalance();

  /// The splitter's primitive, also usable directly: migrates
  /// `application` — together with its co-pin closure — from its current
  /// shard to `target_shard`. Returns subscopes moved (0 when the
  /// application is unassigned, already there, or the target is out of
  /// range). Match results are unchanged by construction.
  size_t MigrateApplication(const std::string& application,
                            size_t target_shard);

  /// Appends a fresh, empty shard (generation counter aligned with its
  /// siblings) and returns its index.
  size_t AddShard();

  // --- Parallel-matching policy -------------------------------------------

  /// Gates for the shard-parallel batch path. `max_workers` 0 derives the
  /// cap from std::thread::hardware_concurrency() - 1 (so a single-core
  /// host always matches serially); a nonzero value forces that worker
  /// cap regardless of detected cores.
  struct ParallelPolicy {
    size_t min_samples = 64;
    size_t min_busy_shards = 2;
    size_t max_workers = 0;
  };
  void set_parallel_policy(const ParallelPolicy& policy) {
    parallel_policy_ = policy;
  }
  const ParallelPolicy& parallel_policy() const { return parallel_policy_; }

  // --- Shard-map introspection (tests, benches) ---------------------------

  size_t shard_count() const { return shards_.size(); }
  /// Shard currently owning `application`, or -1 while unassigned.
  int shard_of(const std::string& application) const;
  /// Applications currently holding a shard assignment.
  size_t tracked_applications() const { return routes_.size(); }
  const ScopeRegistry& shard(size_t index) const { return shards_[index]; }
  const ScopeRegistry& residual_shard() const { return residual_; }

  /// Forwards to every shard (see ScopeRegistry::set_compaction_threshold).
  void set_compaction_threshold(size_t threshold);
  size_t dead_count() const;
  size_t compaction_count() const;

  // --- Retired planner surface --------------------------------------------

  /// No-ops kept for the pipeline benchmark, which still calls them: every
  /// shard indexes its scopes with plan::ShapeIndex unconditionally, so
  /// there is nothing to enable and no planner counter to report
  /// (plan_stats() is all-zero).
  void set_predicate_planner(bool /*enabled*/) {}
  plan::PlanStats plan_stats() const { return {}; }

 private:
  /// Placement of the residual shard in shard-id terms.
  static constexpr uint32_t kResidual = UINT32_MAX;

  /// One shard assignment: the owning shard plus the number of
  /// shard-resident subscopes whose filters reference the application
  /// (the assignment is dropped when it reaches zero). `matches` is the
  /// load counter feeding MaybeRebalance — mutable because lookups are
  /// const; it is only ever touched on the calling (sim) thread, never by
  /// batch workers, so it needs no atomics.
  struct AppRoute {
    uint32_t shard = 0;
    size_t refs = 0;
    mutable uint64_t matches = 0;
  };

  /// Bookkeeping for one registration: where it went and which
  /// applications it holds shard-map references on (empty when placed in
  /// the residual shard).
  struct Placement {
    uint32_t shard = kResidual;
    std::vector<std::string> applications;
    Generation generation = 0;
  };

  ScopeRegistry& RegistryAt(uint32_t shard) {
    return shard == kResidual ? residual_ : shards_[shard];
  }
  const ScopeRegistry& RegistryAt(uint32_t shard) const {
    return shard == kResidual ? residual_ : shards_[shard];
  }
  const ScopeRegistry* OwnerOf(const std::string& application) const;

  /// Decides the owning shard for a subscope's application filters and
  /// takes one shard-map reference per application on success; returns
  /// kResidual (no references) when existing assignments conflict.
  uint32_t PlaceApplications(const std::vector<std::string>& applications);
  void ReleaseApplications(const Placement& placement);

  template <typename Scope>
  void RegisterImpl(Scope scope);

  /// The one authoritative lookup: residual shard alone when no shard
  /// owns the application, else owner ∪ residual merged by sequence.
  /// Both the per-sample and batch paths go through it.
  template <typename Context, typename... Args>
  std::vector<std::string> MatchOne(const ScopeRegistry* owner,
                                    const Context& context,
                                    Args&&... args) const;
  template <typename Context, typename... Args>
  std::vector<std::string> LookupMerged(const Context& context,
                                        Args&&... args) const;
  template <typename Context, typename... Args>
  std::vector<std::vector<std::string>> MatchBatch(
      const std::vector<Context>& contexts, Args&&... args) const;

  /// Merges two sequence-ascending shard results back into overall
  /// registration order.
  static std::vector<std::string> MergeBySequence(std::vector<SeqKey> a,
                                                  std::vector<SeqKey> b);

  /// An application group that must migrate as one unit plus the keys
  /// whose shard-resident subscopes carry it.
  struct CoPinGroup {
    std::vector<std::string> applications;
    std::vector<std::string> keys;
    uint64_t matches = 0;
  };
  /// Closes `seed` over co-pinned applications within shard `from`.
  CoPinGroup CollectGroup(const std::string& seed, uint32_t from) const;
  /// Moves one group's subscopes and shard-map entries from → to.
  size_t MigrateGroup(const CoPinGroup& group, uint32_t from, uint32_t to);
  /// One splitting step: migrate one group off the hottest shard if the
  /// policy says it is hot and a strictly better placement exists.
  size_t RebalanceOnce();

  std::vector<ScopeRegistry> shards_;
  ScopeRegistry residual_;
  /// application → owning shard + reference count (the shard map).
  std::unordered_map<std::string, AppRoute> routes_;
  /// key → live registrations under it (mirrors the per-shard key maps so
  /// Unregister/RetireGeneration can release shard-map references).
  std::unordered_map<std::string, std::vector<Placement>> placements_;
  Generation current_generation_ = 0;
  /// Global registration sequence driving every shard's counter.
  uint64_t next_sequence_ = 0;

  ReshardPolicy reshard_policy_;
  ParallelPolicy parallel_policy_;
  size_t max_shards_ = 0;
  /// Forwarded to late-grown shards (AddShard).
  size_t compaction_threshold_ = 16;
  /// Calling-thread-only load counters (see AppRoute::matches).
  mutable uint64_t residual_matches_ = 0;
  uint64_t reshards_ = 0;
  uint64_t migrated_ = 0;
};

}  // namespace orcastream::orca

#endif  // ORCASTREAM_ORCA_SHARDED_SCOPE_REGISTRY_H_
