#include "orca/sharded_scope_registry.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <thread>
#include <utility>

namespace orcastream::orca {

namespace {

/// Application filters a subscope routes by. UserEventScope has none (user
/// events carry no application), so its subscopes are always residual.
const std::vector<std::string>* ApplicationsOf(const ScopeFilters& scope) {
  return &scope.applications();
}
const std::vector<std::string>* ApplicationsOf(const UserEventScope&) {
  return nullptr;
}

}  // namespace

ShardedScopeRegistry::ShardedScopeRegistry(size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

// --- Shard map --------------------------------------------------------------

const ScopeRegistry* ShardedScopeRegistry::OwnerOf(
    const std::string& application) const {
  auto it = routes_.find(application);
  return it == routes_.end() ? nullptr : &shards_[it->second.shard];
}

int ShardedScopeRegistry::shard_of(const std::string& application) const {
  auto it = routes_.find(application);
  return it == routes_.end() ? -1 : static_cast<int>(it->second.shard);
}

uint32_t ShardedScopeRegistry::PlaceApplications(
    const std::vector<std::string>& applications) {
  // Existing assignments must all agree; a subscope whose applications are
  // pinned to different shards would need to live in several shards (and
  // then dedup on lookup), so it goes to the residual shard instead —
  // rare, and still correct because the residual shard is always
  // consulted.
  uint32_t target = 0;
  bool assigned = false;
  for (const std::string& application : applications) {
    auto it = routes_.find(application);
    if (it == routes_.end()) continue;
    if (!assigned) {
      target = it->second.shard;
      assigned = true;
    } else if (it->second.shard != target) {
      return kResidual;
    }
  }
  if (!assigned) {
    target = static_cast<uint32_t>(std::hash<std::string>{}(
                                       applications.front()) %
                                   shards_.size());
  }
  // Pin any still-unassigned applications to the chosen shard and take
  // one reference per filter entry (released symmetrically).
  for (const std::string& application : applications) {
    auto [it, inserted] = routes_.try_emplace(application,
                                              AppRoute{target, 0});
    ++it->second.refs;
  }
  return target;
}

void ShardedScopeRegistry::ReleaseApplications(const Placement& placement) {
  for (const std::string& application : placement.applications) {
    auto it = routes_.find(application);
    if (it == routes_.end()) continue;
    if (--it->second.refs == 0) routes_.erase(it);
  }
}

// --- Registration lifecycle -------------------------------------------------

template <typename Scope>
void ShardedScopeRegistry::RegisterImpl(Scope scope) {
  const std::vector<std::string>* applications = ApplicationsOf(scope);
  Placement placement;
  placement.generation = current_generation_;
  if (applications != nullptr && !applications->empty()) {
    placement.shard = PlaceApplications(*applications);
    if (placement.shard != kResidual) placement.applications = *applications;
  }
  ScopeRegistry& registry = RegistryAt(placement.shard);
  placements_[scope.key()].push_back(std::move(placement));
  // One global sequence across all shards: the per-shard results stay
  // mergeable into overall registration order.
  registry.set_next_sequence(next_sequence_++);
  registry.Register(std::move(scope));
}

void ShardedScopeRegistry::Register(OperatorMetricScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(PeMetricScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(PeFailureScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(JobEventScope scope) {
  RegisterImpl(std::move(scope));
}
void ShardedScopeRegistry::Register(UserEventScope scope) {
  RegisterImpl(std::move(scope));
}

size_t ShardedScopeRegistry::Unregister(const std::string& key) {
  auto it = placements_.find(key);
  if (it == placements_.end()) return 0;
  // One Unregister per distinct shard holding the key (a shard removes
  // every subscope under the key in one call).
  std::vector<uint32_t> targets;
  for (const Placement& placement : it->second) {
    ReleaseApplications(placement);
    if (std::find(targets.begin(), targets.end(), placement.shard) ==
        targets.end()) {
      targets.push_back(placement.shard);
    }
  }
  placements_.erase(it);
  size_t removed = 0;
  for (uint32_t target : targets) removed += RegistryAt(target).Unregister(key);
  return removed;
}

bool ShardedScopeRegistry::HasKey(const std::string& key) const {
  // The placement map tracks every key's shard(s); each ref is verified
  // against the shard's live slots (retirement tombstones slots before
  // the placement entry is scrubbed on some paths).
  auto it = placements_.find(key);
  if (it != placements_.end()) {
    for (const Placement& placement : it->second) {
      if (RegistryAt(placement.shard).HasKey(key)) return true;
    }
  }
  return residual_.HasKey(key);
}

ShardedScopeRegistry::Generation ShardedScopeRegistry::BeginGeneration() {
  // All shards are constructed together and only ever advanced here, so
  // their generation counters stay in lockstep and the residual shard's
  // id speaks for all of them.
  for (ScopeRegistry& shard : shards_) shard.BeginGeneration();
  current_generation_ = residual_.BeginGeneration();
  return current_generation_;
}

size_t ShardedScopeRegistry::RetireGeneration(Generation generation) {
  // Release the retired registrations' shard-map references first; the
  // per-shard retire below tombstones the slots themselves.
  for (auto it = placements_.begin(); it != placements_.end();) {
    auto& placements = it->second;
    placements.erase(
        std::remove_if(placements.begin(), placements.end(),
                       [&](const Placement& placement) {
                         if (placement.generation != generation) return false;
                         ReleaseApplications(placement);
                         return true;
                       }),
        placements.end());
    it = placements.empty() ? placements_.erase(it) : std::next(it);
  }
  size_t removed = 0;
  for (ScopeRegistry& shard : shards_) {
    removed += shard.RetireGeneration(generation);
  }
  removed += residual_.RetireGeneration(generation);
  return removed;
}

void ShardedScopeRegistry::Clear() {
  for (ScopeRegistry& shard : shards_) shard.Clear();
  residual_.Clear();
  routes_.clear();
  placements_.clear();
  // Generation and sequence counters stay monotonic, matching
  // ScopeRegistry::Clear.
}

size_t ShardedScopeRegistry::size() const {
  size_t total = residual_.size();
  for (const ScopeRegistry& shard : shards_) total += shard.size();
  return total;
}

void ShardedScopeRegistry::set_compaction_threshold(size_t threshold) {
  for (ScopeRegistry& shard : shards_) {
    shard.set_compaction_threshold(threshold);
  }
  residual_.set_compaction_threshold(threshold);
  // Late-grown shards (AddShard) must inherit the same setting.
  compaction_threshold_ = threshold == 0 ? 1 : threshold;
}

size_t ShardedScopeRegistry::dead_count() const {
  size_t total = residual_.dead_count();
  for (const ScopeRegistry& shard : shards_) total += shard.dead_count();
  return total;
}

size_t ShardedScopeRegistry::compaction_count() const {
  size_t total = residual_.compaction_count();
  for (const ScopeRegistry& shard : shards_) {
    total += shard.compaction_count();
  }
  return total;
}

// --- Load accounting & dynamic resharding -----------------------------------

std::vector<ShardedScopeRegistry::ShardLoad> ShardedScopeRegistry::shard_loads()
    const {
  std::vector<ShardLoad> loads(shards_.size() + 1);
  for (size_t s = 0; s < shards_.size(); ++s) {
    loads[s].subscopes = shards_[s].size();
  }
  loads[shards_.size()].subscopes = residual_.size();
  loads[shards_.size()].matches = residual_matches_;
  for (const auto& [application, route] : routes_) {
    ++loads[route.shard].applications;
    loads[route.shard].matches += route.matches;
  }
  return loads;
}

size_t ShardedScopeRegistry::AddShard() {
  ScopeRegistry fresh;
  fresh.set_compaction_threshold(compaction_threshold_);
  // Generation counters advance in lockstep across shards
  // (BeginGeneration), so a late-born shard joins at the wrapper's
  // current generation.
  fresh.set_current_generation(current_generation_);
  shards_.push_back(std::move(fresh));
  return shards_.size() - 1;
}

ShardedScopeRegistry::CoPinGroup ShardedScopeRegistry::CollectGroup(
    const std::string& seed, uint32_t from) const {
  // Units: for each key, the union of applications referenced by its
  // placements resident in `from`. A unit's applications must migrate
  // together (a multi-application subscope pins them to one shard), and a
  // key's placements within one shard move together because ExtractKeys
  // takes every live slot under the key.
  struct Unit {
    const std::string* key;
    std::vector<const std::string*> applications;
  };
  std::vector<Unit> units;
  std::unordered_map<std::string, std::vector<size_t>> units_by_app;
  for (const auto& [key, placements] : placements_) {
    Unit unit{&key, {}};
    for (const Placement& placement : placements) {
      if (placement.shard != from) continue;
      for (const std::string& application : placement.applications) {
        unit.applications.push_back(&application);
      }
    }
    if (unit.applications.empty()) continue;
    size_t id = units.size();
    for (const std::string* application : unit.applications) {
      units_by_app[*application].push_back(id);
    }
    units.push_back(std::move(unit));
  }
  // Close the seed over shared units (BFS over the app↔key bipartite
  // graph restricted to `from`).
  CoPinGroup group;
  std::unordered_set<std::string> seen;
  std::vector<bool> unit_taken(units.size(), false);
  std::vector<std::string> frontier{seed};
  while (!frontier.empty()) {
    std::string application = std::move(frontier.back());
    frontier.pop_back();
    if (!seen.insert(application).second) continue;
    auto route = routes_.find(application);
    if (route != routes_.end()) group.matches += route->second.matches;
    auto it = units_by_app.find(application);
    if (it != units_by_app.end()) {
      for (size_t id : it->second) {
        if (unit_taken[id]) continue;
        unit_taken[id] = true;
        group.keys.push_back(*units[id].key);
        for (const std::string* member : units[id].applications) {
          if (seen.find(*member) == seen.end()) frontier.push_back(*member);
        }
      }
    }
    group.applications.push_back(std::move(application));
  }
  return group;
}

size_t ShardedScopeRegistry::MigrateGroup(const CoPinGroup& group,
                                          uint32_t from, uint32_t to) {
  std::vector<ScopeRegistry::ExtractedScope> extracted =
      shards_[from].ExtractKeys(group.keys);
  size_t moved = extracted.size();
  shards_[to].InsertExtracted(std::move(extracted));
  for (const std::string& key : group.keys) {
    auto it = placements_.find(key);
    if (it == placements_.end()) continue;
    for (Placement& placement : it->second) {
      if (placement.shard == from) placement.shard = to;
    }
  }
  for (const std::string& application : group.applications) {
    auto it = routes_.find(application);
    if (it != routes_.end()) it->second.shard = to;
  }
  ++reshards_;
  migrated_ += moved;
  return moved;
}

size_t ShardedScopeRegistry::MigrateApplication(const std::string& application,
                                                size_t target_shard) {
  auto it = routes_.find(application);
  if (it == routes_.end() || target_shard >= shards_.size()) return 0;
  uint32_t from = it->second.shard;
  if (from == static_cast<uint32_t>(target_shard)) return 0;
  return MigrateGroup(CollectGroup(application, from), from,
                      static_cast<uint32_t>(target_shard));
}

size_t ShardedScopeRegistry::RebalanceOnce() {
  if (shards_.size() < 2 && max_shards_ <= shards_.size()) return 0;
  std::vector<uint64_t> totals(shards_.size(), 0);
  for (const auto& [application, route] : routes_) {
    totals[route.shard] += route.matches;
  }
  uint64_t sum = 0;
  for (uint64_t total : totals) sum += total;
  if (sum < reshard_policy_.min_matches) return 0;
  size_t hot = 0;
  size_t cold = 0;
  for (size_t s = 1; s < totals.size(); ++s) {
    if (totals[s] > totals[hot]) hot = s;
    if (totals[s] < totals[cold]) cold = s;
  }
  double mean = static_cast<double>(sum) / static_cast<double>(totals.size());
  if (static_cast<double>(totals[hot]) <= reshard_policy_.hot_ratio * mean) {
    return 0;
  }
  // Applications resident on the hot shard, hottest first (name-descending
  // tie-break keeps the choice deterministic across identical runs).
  std::vector<std::pair<uint64_t, std::string>> residents;
  for (const auto& [application, route] : routes_) {
    if (route.shard == hot) residents.emplace_back(route.matches, application);
  }
  if (residents.size() < 2) return 0;  // one app cannot be split further
  std::sort(residents.rbegin(), residents.rend());
  bool can_grow = max_shards_ > shards_.size();
  if (residents.front().first * 2 >= totals[hot]) {
    // One application dominates the shard: isolate its group — on a fresh
    // shard when growth is allowed, else on the coldest — if that
    // strictly lowers the maximum load.
    CoPinGroup group = CollectGroup(residents.front().second, hot);
    if (group.matches >= totals[hot]) return 0;  // group spans the shard
    size_t destination;
    uint64_t destination_load;
    if (can_grow) {
      destination = shards_.size();  // AddShard below
      destination_load = 0;
    } else {
      destination = cold;
      destination_load = totals[cold];
    }
    if (destination_load + group.matches >= totals[hot]) return 0;
    if (can_grow) destination = AddShard();
    return MigrateGroup(group, static_cast<uint32_t>(hot),
                        static_cast<uint32_t>(destination));
  }
  // No dominant application: peel the coldest resident group onto the
  // coldest shard. Repeated rounds (MaybeRebalance's loop, and the next
  // pull rounds) keep shaving until the shard drops under the ratio.
  if (cold == hot) return 0;
  CoPinGroup group = CollectGroup(residents.back().second, hot);
  if (totals[cold] + group.matches >= totals[hot]) return 0;
  return MigrateGroup(group, static_cast<uint32_t>(hot),
                      static_cast<uint32_t>(cold));
}

size_t ShardedScopeRegistry::MaybeRebalance() {
  if (!reshard_policy_.enabled) return 0;
  size_t moved = 0;
  for (size_t round = 0; round < reshard_policy_.max_moves_per_round;
       ++round) {
    size_t step = RebalanceOnce();
    if (step == 0) break;
    moved += step;
  }
  if (moved > 0) {
    // Halve the counters so the next decision weighs recent traffic over
    // history (and repeated calls cannot thrash on a stale hot spot).
    for (auto& [application, route] : routes_) route.matches /= 2;
    residual_matches_ /= 2;
  }
  return moved;
}

// --- Matching ---------------------------------------------------------------

std::vector<std::string> ShardedScopeRegistry::MergeBySequence(
    std::vector<SeqKey> a, std::vector<SeqKey> b) {
  std::vector<std::string> merged;
  merged.reserve(a.size() + b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].sequence < b[j].sequence) {
      merged.push_back(std::move(a[i++].key));
    } else {
      merged.push_back(std::move(b[j++].key));
    }
  }
  for (; i < a.size(); ++i) merged.push_back(std::move(a[i].key));
  for (; j < b.size(); ++j) merged.push_back(std::move(b[j].key));
  return merged;
}

template <typename Context, typename... Args>
std::vector<std::string> ShardedScopeRegistry::MatchOne(
    const ScopeRegistry* owner, const Context& context, Args&&... args) const {
  // An unassigned application has no shard-resident subscope that could
  // match it, so the residual shard alone is the complete answer.
  if (owner == nullptr) return residual_.MatchedKeys(context, args...);
  return MergeBySequence(owner->MatchedSeqKeys(context, args...),
                         residual_.MatchedSeqKeys(context, args...));
}

template <typename Context, typename... Args>
std::vector<std::string> ShardedScopeRegistry::LookupMerged(
    const Context& context, Args&&... args) const {
  auto it = routes_.find(context.application);
  if (it == routes_.end()) {
    ++residual_matches_;
    return MatchOne(nullptr, context, args...);
  }
  // Load accounting for MaybeRebalance; calling-thread only (mutable
  // counter, no atomics — batch workers never reach this path).
  ++it->second.matches;
  return MatchOne(&shards_[it->second.shard], context, args...);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return LookupMerged(context, graph);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const PeMetricContext& context) const {
  return LookupMerged(context);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const PeFailureContext& context, const GraphView& graph) const {
  return LookupMerged(context, graph);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const JobEventContext& context, bool is_submission) const {
  return LookupMerged(context, is_submission);
}

std::vector<std::string> ShardedScopeRegistry::MatchedKeys(
    const UserEventContext& context) const {
  // Every UserEventScope lives in the residual shard (no application
  // filters), so no merge is needed.
  ++residual_matches_;
  return residual_.MatchedKeys(context);
}

// --- Batch matching ---------------------------------------------------------

template <typename Context, typename... Args>
std::vector<std::vector<std::string>> ShardedScopeRegistry::MatchBatch(
    const std::vector<Context>& contexts, Args&&... args) const {
  std::vector<std::vector<std::string>> results(contexts.size());
  // Bucket the samples by owning shard; unassigned applications need only
  // the residual shard.
  std::vector<std::vector<size_t>> buckets(shards_.size());
  std::vector<size_t> residual_only;
  for (size_t i = 0; i < contexts.size(); ++i) {
    auto it = routes_.find(contexts[i].application);
    if (it == routes_.end()) {
      ++residual_matches_;
      residual_only.push_back(i);
    } else {
      // Per-application load accounting happens here, on the calling
      // thread, so batch workers never touch the counters.
      ++it->second.matches;
      buckets[it->second.shard].push_back(i);
    }
  }
  auto run_bucket = [&](const std::vector<size_t>& bucket,
                        const ScopeRegistry* owner) {
    for (size_t i : bucket) {
      results[i] = MatchOne(owner, contexts[i], args...);
    }
  };
  std::vector<size_t> busy;
  for (size_t shard = 0; shard < buckets.size(); ++shard) {
    if (!buckets[shard].empty()) busy.push_back(shard);
  }
  // Threads only pay off with enough busy shards, a round big enough to
  // amortize the spawns, and actual cores to run on; otherwise match on
  // the calling thread (same results either way). The thresholds are
  // policy-driven: set_parallel_policy tunes them per deployment, and a
  // nonzero max_workers overrides the detected core count (benchmarks on
  // constrained hosts).
  unsigned hardware = std::thread::hardware_concurrency();
  size_t max_workers =
      parallel_policy_.max_workers != 0
          ? parallel_policy_.max_workers
          : (hardware > 1 ? static_cast<size_t>(hardware) - 1 : 0);
  if (busy.size() >= std::max<size_t>(parallel_policy_.min_busy_shards, 2) &&
      max_workers > 0 && contexts.size() >= parallel_policy_.min_samples) {
    // Shard-parallel: each owner shard is touched by exactly one worker;
    // the residual shard and the graph view are only read. Results are
    // identical to the serial path (workers write disjoint slots).
    // Workers are capped below the core count (the calling thread takes
    // the residual bucket) and stride over the busy shards, so a high
    // shard count never oversubscribes the host.
    size_t worker_count = std::min<size_t>(busy.size(), max_workers);
    std::vector<std::exception_ptr> worker_errors(worker_count);
    std::vector<std::thread> workers;
    workers.reserve(worker_count);
    {
      // Joins on every exit path: destroying a joinable std::thread
      // calls std::terminate, so an exception mid-batch must still join
      // first.
      struct JoinGuard {
        std::vector<std::thread>& threads;
        ~JoinGuard() {
          for (std::thread& thread : threads) {
            if (thread.joinable()) thread.join();
          }
        }
      } join_guard{workers};
      for (size_t worker = 0; worker < worker_count; ++worker) {
        workers.emplace_back([&, worker] {
          // An exception escaping a thread body would terminate the
          // process; capture it and rethrow on the calling thread so
          // the parallel path fails like the serial one.
          try {
            for (size_t b = worker; b < busy.size(); b += worker_count) {
              run_bucket(buckets[busy[b]], &shards_[busy[b]]);
            }
          } catch (...) {
            worker_errors[worker] = std::current_exception();
          }
        });
      }
      run_bucket(residual_only, nullptr);
    }
    for (const std::exception_ptr& error : worker_errors) {
      if (error) std::rethrow_exception(error);
    }
  } else {
    for (size_t shard = 0; shard < buckets.size(); ++shard) {
      run_bucket(buckets[shard], &shards_[shard]);
    }
    run_bucket(residual_only, nullptr);
  }
  return results;
}

std::vector<std::vector<std::string>>
ShardedScopeRegistry::MatchOperatorMetricBatch(
    const std::vector<OperatorMetricContext>& contexts,
    const GraphView& graph) const {
  return MatchBatch(contexts, graph);
}

std::vector<std::vector<std::string>> ShardedScopeRegistry::MatchPeMetricBatch(
    const std::vector<PeMetricContext>& contexts) const {
  return MatchBatch(contexts);
}

}  // namespace orcastream::orca
