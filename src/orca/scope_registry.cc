#include "orca/scope_registry.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <type_traits>
#include <utility>

#include "orca/scope_matcher.h"

namespace orcastream::orca {

namespace {

/// Copy of `values` with duplicates removed (a filter may legally repeat
/// a value; the index's Add/Kill must see each value once).
std::vector<std::string> Deduped(std::vector<std::string> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

// The attributes each store indexes, in the order its lookups probe them.

plan::AttributeValues IndexValuesOf(const OperatorMetricScope& scope) {
  return {Deduped(scope.metric_names()), Deduped(scope.applications()),
          Deduped(scope.operator_names())};
}

plan::AttributeValues IndexValuesOf(const PeMetricScope& scope) {
  std::vector<std::string> pes;
  pes.reserve(scope.pes().size());
  for (common::PeId pe : scope.pes()) pes.push_back(std::to_string(pe.value()));
  return {Deduped(scope.metric_names()), Deduped(std::move(pes)),
          Deduped(scope.applications())};
}

plan::AttributeValues IndexValuesOf(const PeFailureScope& scope) {
  return {Deduped(scope.applications())};
}

plan::AttributeValues IndexValuesOf(const JobEventScope& scope) {
  return {Deduped(scope.applications())};
}

plan::AttributeValues IndexValuesOf(const UserEventScope& scope) {
  return {Deduped(scope.names())};
}

/// Collects the index candidates for the probe values, then runs `match`
/// over them (already in registration order) and keeps the keys of the
/// matching live subscopes. Tombstoned slots are skipped here rather than
/// scrubbed from the index, so unregistration stays O(1) until compaction
/// reclaims the positions.
template <typename Store, typename Match>
std::vector<std::string> IndexedMatch(
    const Store& store, std::initializer_list<const std::string*> probes,
    Match match) {
  // Reused per thread (batch workers match concurrently): a lookup then
  // allocates nothing for its candidates once the buffer has grown.
  thread_local std::vector<uint32_t> candidates;
  store.index.Collect(probes, &candidates);
  std::vector<std::string> matched;
  for (uint32_t position : candidates) {
    const auto& slot = store.slots[position];
    if (slot.live && match(slot.scope)) matched.push_back(slot.scope.key());
  }
  return matched;
}

/// The seed's linear scan: every live subscope, in registration order.
template <typename Slot, typename Match>
std::vector<std::string> KeysOfAll(const std::vector<Slot>& slots,
                                   Match match) {
  std::vector<std::string> matched;
  for (const Slot& slot : slots) {
    if (slot.live && match(slot.scope)) matched.push_back(slot.scope.key());
  }
  return matched;
}

/// How many contiguous parts a batch of `samples` is matched in: one per
/// `min_samples` samples, at least one and at most one per hardware
/// thread (an unknown count means one).
size_t PartCount(size_t samples, size_t min_samples) {
  static const size_t kHardwareThreads =
      std::max<size_t>(std::thread::hardware_concurrency(), 1);
  const size_t parts = samples / std::max<size_t>(min_samples, 1);
  return std::clamp<size_t>(parts, 1, kHardwareThreads);
}

/// results[i] = match(contexts[i]), with the batch cut into contiguous
/// parts: the calling thread matches the first, one worker each the
/// rest. Workers write disjoint result slots and only read the registry.
template <typename Context, typename Match>
std::vector<std::vector<std::string>> MatchInParts(
    const std::vector<Context>& contexts, size_t min_samples, Match match) {
  std::vector<std::vector<std::string>> results(contexts.size());
  const size_t parts = PartCount(contexts.size(), min_samples);
  auto run_part = [&](size_t part) {
    const size_t end = contexts.size() * (part + 1) / parts;
    for (size_t i = contexts.size() * part / parts; i < end; ++i) {
      results[i] = match(contexts[i]);
    }
  };
  if (parts == 1) {
    run_part(0);
    return results;
  }
  std::vector<std::exception_ptr> worker_errors(parts);
  std::vector<std::thread> workers;
  workers.reserve(parts - 1);
  {
    // Joins on every exit path: destroying a joinable std::thread calls
    // std::terminate, so an exception mid-batch must still join first.
    struct JoinGuard {
      std::vector<std::thread>& threads;
      ~JoinGuard() {
        for (auto& thread : threads) {
          if (thread.joinable()) thread.join();
        }
      }
    } join_guard{workers};
    for (size_t part = 1; part < parts; ++part) {
      workers.emplace_back([&, part] {
        // An exception escaping a thread body would terminate the
        // process; capture it and rethrow on the calling thread so the
        // threaded path fails like the serial one.
        try {
          run_part(part);
        } catch (...) {
          worker_errors[part] = std::current_exception();
        }
      });
    }
    run_part(0);
  }
  for (const std::exception_ptr& error : worker_errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace

// --- Per-store helpers ------------------------------------------------------

template <typename Self, typename Fn>
void ScopeRegistry::ForEachStore(Self& self, Fn&& fn) {
  fn(self.operator_metric_, ScopeType::kOperatorMetric);
  fn(self.pe_metric_, ScopeType::kPeMetric);
  fn(self.pe_failure_, ScopeType::kPeFailure);
  fn(self.job_event_, ScopeType::kJobEvent);
  fn(self.user_event_, ScopeType::kUserEvent);
}

template <typename Self, typename Fn>
void ScopeRegistry::WithStore(Self& self, ScopeType type, Fn&& fn) {
  ForEachStore(self, [&](auto& store, ScopeType store_type) {
    if (store_type == type) fn(store);
  });
}

template <typename Scope>
void ScopeRegistry::Insert(Scope scope) {
  ForEachStore(*this, [&](auto& store, ScopeType type) {
    if constexpr (std::is_same_v<std::decay_t<decltype(store)>,
                                 Store<Scope>>) {
      auto position = static_cast<uint32_t>(store.slots.size());
      store.index.Add(position, IndexValuesOf(scope));
      key_map_[scope.key()].push_back(SlotRef{type, position});
      store.slots.push_back(
          Slot<Scope>{std::move(scope), current_generation_, /*live=*/true});
    }
  });
}

template <typename Scope>
bool ScopeRegistry::Kill(Store<Scope>& store, uint32_t position) {
  Slot<Scope>& slot = store.slots[position];
  if (!slot.live) return false;
  store.index.Kill(IndexValuesOf(slot.scope));
  slot.live = false;
  ++store.dead;
  return true;
}

template <typename Scope>
void ScopeRegistry::Rebuild(Store<Scope>& store) {
  std::vector<Slot<Scope>> live;
  live.reserve(store.live_count());
  for (Slot<Scope>& slot : store.slots) {
    if (slot.live) live.push_back(std::move(slot));
  }
  store.slots = std::move(live);
  store.dead = 0;
  store.index.Clear();
  for (uint32_t position = 0;
       position < static_cast<uint32_t>(store.slots.size()); ++position) {
    store.index.Add(position, IndexValuesOf(store.slots[position].scope));
  }
}

// --- Registration lifecycle -------------------------------------------------

void ScopeRegistry::Register(OperatorMetricScope scope) {
  Insert(std::move(scope));
}
void ScopeRegistry::Register(PeMetricScope scope) {
  Insert(std::move(scope));
}
void ScopeRegistry::Register(PeFailureScope scope) {
  Insert(std::move(scope));
}
void ScopeRegistry::Register(JobEventScope scope) {
  Insert(std::move(scope));
}
void ScopeRegistry::Register(UserEventScope scope) {
  Insert(std::move(scope));
}

size_t ScopeRegistry::Unregister(const std::string& key) {
  auto it = key_map_.find(key);
  if (it == key_map_.end()) return 0;
  size_t removed = 0;
  for (const SlotRef& ref : it->second) {
    WithStore(*this, ref.type, [&](auto& store) {
      removed += Kill(store, ref.position) ? 1 : 0;
    });
  }
  key_map_.erase(it);
  MaybeCompact();
  return removed;
}

bool ScopeRegistry::HasKey(const std::string& key) const {
  auto it = key_map_.find(key);
  if (it == key_map_.end()) return false;
  for (const SlotRef& ref : it->second) {
    if (RefLive(ref)) return true;
  }
  return false;
}

ScopeRegistry::Generation ScopeRegistry::BeginGeneration() {
  return ++current_generation_;
}

bool ScopeRegistry::RefLive(const SlotRef& ref) const {
  bool live = false;
  WithStore(*this, ref.type, [&](const auto& store) {
    live = store.slots[ref.position].live;
  });
  return live;
}

size_t ScopeRegistry::RetireGeneration(Generation generation) {
  // Retired keys are collected so the key map is scrubbed in time
  // proportional to the retired set, not the whole registry.
  std::vector<std::string> retired_keys;
  ForEachStore(*this, [&](auto& store, ScopeType) {
    for (uint32_t position = 0;
         position < static_cast<uint32_t>(store.slots.size()); ++position) {
      const auto& slot = store.slots[position];
      if (slot.live && slot.generation == generation) {
        retired_keys.push_back(slot.scope.key());
        Kill(store, position);
      }
    }
  });
  if (retired_keys.empty()) return 0;
  // Scrub only the retired keys' refs — a key shared with another (live)
  // generation keeps its surviving refs. Compaction (if it fires)
  // rebuilds the whole map with renumbered positions anyway.
  for (const std::string& key : retired_keys) {
    auto it = key_map_.find(key);
    if (it == key_map_.end()) continue;
    auto& refs = it->second;
    refs.erase(std::remove_if(refs.begin(), refs.end(),
                              [this](const SlotRef& ref) {
                                return !RefLive(ref);
                              }),
               refs.end());
    if (refs.empty()) key_map_.erase(it);
  }
  MaybeCompact();
  return retired_keys.size();
}

void ScopeRegistry::Clear() {
  ForEachStore(*this, [](auto& store, ScopeType) { store = {}; });
  key_map_.clear();
  // current_generation_ stays monotonic so a stale generation id can
  // never alias a later logic's registrations.
}

size_t ScopeRegistry::size() const {
  size_t live = 0;
  ForEachStore(*this, [&live](const auto& store, ScopeType) {
    live += store.live_count();
  });
  return live;
}

size_t ScopeRegistry::dead_count() const {
  size_t dead = 0;
  ForEachStore(*this, [&dead](const auto& store, ScopeType) {
    dead += store.dead;
  });
  return dead;
}

// --- Compaction -------------------------------------------------------------

void ScopeRegistry::MaybeCompact() {
  bool moved = false;
  ForEachStore(*this, [&](auto& store, ScopeType) {
    // At least `threshold` dead slots AND dead slots at least half the
    // store: the ratio keeps compaction amortized O(1) per unregister.
    if (store.dead < compaction_threshold_) return;
    if (store.dead * 2 < store.slots.size()) return;
    Rebuild(store);
    ++compactions_;
    moved = true;
  });
  if (moved) RebuildKeyMap();
}

void ScopeRegistry::RebuildKeyMap() {
  key_map_.clear();
  ForEachStore(*this, [this](const auto& store, ScopeType type) {
    for (uint32_t position = 0;
         position < static_cast<uint32_t>(store.slots.size()); ++position) {
      const auto& slot = store.slots[position];
      if (!slot.live) continue;
      key_map_[slot.scope.key()].push_back(SlotRef{type, position});
    }
  });
}

// --- Indexed matching -------------------------------------------------------

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return IndexedMatch(
      operator_metric_,
      {&context.metric, &context.application, &context.instance_name},
      [&](const OperatorMetricScope& scope) {
        return MatchOperatorMetric(scope, context, graph);
      });
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const PeMetricContext& context) const {
  const std::string pe = std::to_string(context.pe.value());
  return IndexedMatch(pe_metric_,
                      {&context.metric, &pe, &context.application},
                      [&](const PeMetricScope& scope) {
                        return MatchPeMetric(scope, context);
                      });
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const PeFailureContext& context, const GraphView& graph) const {
  return IndexedMatch(pe_failure_, {&context.application},
                      [&](const PeFailureScope& scope) {
                        return MatchPeFailure(scope, context, graph);
                      });
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const JobEventContext& context, bool is_submission) const {
  return IndexedMatch(job_event_, {&context.application},
                      [&](const JobEventScope& scope) {
                        return MatchJobEvent(scope, context, is_submission);
                      });
}

std::vector<std::string> ScopeRegistry::MatchedKeys(
    const UserEventContext& context) const {
  return IndexedMatch(user_event_, {&context.name},
                      [&](const UserEventScope& scope) {
                        return MatchUserEvent(scope, context);
                      });
}

// --- Batch matching ---------------------------------------------------------

std::vector<std::vector<std::string>> ScopeRegistry::MatchOperatorMetricBatch(
    const std::vector<OperatorMetricContext>& contexts,
    const GraphView& graph) const {
  return MatchInParts(contexts, parallel_policy_.min_samples,
                      [&](const OperatorMetricContext& context) {
                        return MatchedKeys(context, graph);
                      });
}

std::vector<std::vector<std::string>> ScopeRegistry::MatchPeMetricBatch(
    const std::vector<PeMetricContext>& contexts) const {
  return MatchInParts(contexts, parallel_policy_.min_samples,
                      [&](const PeMetricContext& context) {
                        return MatchedKeys(context);
                      });
}

// --- Linear-scan reference path ---------------------------------------------

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const OperatorMetricContext& context, const GraphView& graph) const {
  return KeysOfAll(operator_metric_.slots,
                   [&](const OperatorMetricScope& scope) {
                     return MatchOperatorMetric(scope, context, graph);
                   });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const PeMetricContext& context) const {
  return KeysOfAll(pe_metric_.slots, [&](const PeMetricScope& scope) {
    return MatchPeMetric(scope, context);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const PeFailureContext& context, const GraphView& graph) const {
  return KeysOfAll(pe_failure_.slots, [&](const PeFailureScope& scope) {
    return MatchPeFailure(scope, context, graph);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const JobEventContext& context, bool is_submission) const {
  return KeysOfAll(job_event_.slots, [&](const JobEventScope& scope) {
    return MatchJobEvent(scope, context, is_submission);
  });
}

std::vector<std::string> ScopeRegistry::MatchedKeysLinear(
    const UserEventContext& context) const {
  return KeysOfAll(user_event_.slots, [&](const UserEventScope& scope) {
    return MatchUserEvent(scope, context);
  });
}

}  // namespace orcastream::orca
