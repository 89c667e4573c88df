// §4.1 scope index on compound predicates: ShapeIndex's size-ordered
// intersection vs the linear scan.
//
// The workload is a large multi-tenant deployment where thousands of
// subscopes share a handful of hot metric names but are selective on
// their application. A lookup intersects outward from the smallest
// posting it probes — here the application's — so the candidate set
// collapses to the handful of subscopes that can actually match. The
// `scope_matching_plan` entry in BENCH_event_routing.json tracks the
// indexed-vs-linear speedup (≥5× required; scripts/bench.sh gates).
//
// The indexed path returns byte-identical keys to the linear-scan oracle —
// verified here before timing starts, and continuously by the tests/plan/
// equivalence suite.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "orca/scope_registry.h"

using namespace orcastream;  // NOLINT — bench brevity

namespace {

constexpr int kHotMetrics = 4;

/// Subscope #i: filters one of the four hot metric names plus its own
/// application; every 50th is application-only and every 200th is a
/// wildcard, so the residual and single-attribute groups stay exercised.
orca::OperatorMetricScope MakePlanScope(int i, int apps) {
  orca::OperatorMetricScope scope("scope" + std::to_string(i));
  if (i % 200 == 199) {
    scope.AddOperatorTypeFilter(std::string("Filter"));  // wildcard group
  } else if (i % 50 == 49) {
    scope.AddApplicationFilter("App" + std::to_string(i % apps));
  } else {
    scope.AddOperatorMetric("metric" + std::to_string(i % kHotMetrics));
    scope.AddApplicationFilter("App" + std::to_string(i % apps));
  }
  return scope;
}

orca::ScopeRegistry MakeRegistry(int scopes, int apps) {
  orca::ScopeRegistry registry;
  for (int i = 0; i < scopes; ++i) {
    registry.Register(MakePlanScope(i, apps));
  }
  return registry;
}

std::vector<orca::OperatorMetricContext> MakeSamples(int samples, int apps) {
  common::Rng rng(17);
  std::vector<orca::OperatorMetricContext> contexts;
  contexts.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    orca::OperatorMetricContext context;
    context.job = common::JobId(1);
    context.application = "App" + std::to_string(rng.UniformInt(0, apps - 1));
    context.instance_name = "op" + std::to_string(i % 64);
    context.operator_kind = "Beacon";
    context.metric =
        "metric" + std::to_string(rng.UniformInt(0, kHotMetrics - 1));
    context.port = -1;
    contexts.push_back(std::move(context));
  }
  return contexts;
}

/// One-time identity check: the indexed path must return byte-identical
/// keys to the linear oracle on this exact workload, or the speedup being
/// measured is meaningless.
bool VerifyIndexedIdentity(const orca::ScopeRegistry& registry,
                           const std::vector<orca::OperatorMetricContext>&
                               samples,
                           const orca::GraphView& view) {
  for (const auto& context : samples) {
    if (registry.MatchedKeys(context, view) !=
        registry.MatchedKeysLinear(context, view)) {
      return false;
    }
  }
  return true;
}

/// Indexed path: per-shape intersection from the smallest probed posting
/// (the application's under this workload).
void BM_PlanMatchPlanned(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  const int apps = static_cast<int>(state.range(1));
  auto registry = MakeRegistry(scopes, apps);
  auto samples = MakeSamples(static_cast<int>(state.range(2)), apps);
  orca::GraphView view;
  if (!VerifyIndexedIdentity(registry, samples, view)) {
    state.SkipWithError("indexed keys diverge from MatchedKeysLinear");
    return;
  }
  size_t matched_total = 0;
  for (auto _ : state) {
    for (const auto& context : samples) {
      auto keys = registry.MatchedKeys(context, view);
      matched_total += keys.size();
      benchmark::DoNotOptimize(keys);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.SetLabel("matched=" + std::to_string(matched_total));
}

/// Linear-scan reference over the same population (the gated baseline).
void BM_PlanMatchLinear(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  const int apps = static_cast<int>(state.range(1));
  auto registry = MakeRegistry(scopes, apps);
  auto samples = MakeSamples(static_cast<int>(state.range(2)), apps);
  orca::GraphView view;
  size_t matched_total = 0;
  for (auto _ : state) {
    for (const auto& context : samples) {
      auto keys = registry.MatchedKeysLinear(context, view);
      matched_total += keys.size();
      benchmark::DoNotOptimize(keys);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.SetLabel("matched=" + std::to_string(matched_total));
}

/// Index maintenance under churn: every round retires 16 subscopes and
/// registers 16 replacements before routing the burst, so posting upkeep
/// and compaction are priced in.
void BM_PlanChurnPlanned(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  const int apps = static_cast<int>(state.range(1));
  auto registry = MakeRegistry(scopes, apps);
  auto samples = MakeSamples(static_cast<int>(state.range(2)), apps);
  orca::GraphView view;
  int next_dead = 0;
  int next_new = scopes;
  size_t matched_total = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      registry.Unregister("scope" + std::to_string(next_dead++));
      registry.Register(MakePlanScope(next_new++, apps));
    }
    for (const auto& context : samples) {
      auto keys = registry.MatchedKeys(context, view);
      matched_total += keys.size();
      benchmark::DoNotOptimize(keys);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.SetLabel("matched=" + std::to_string(matched_total));
}

}  // namespace

// Args: {registered subscopes, applications, samples per round}. The
// 8000-subscope / 2000-app case is the `scope_matching_plan` target in
// BENCH_event_routing.json: hot metric postings hold ~2000 entries while
// application postings hold ~4, so probe order is the whole game.
BENCHMARK(BM_PlanMatchPlanned)
    ->Args({2000, 500, 2000})
    ->Args({8000, 2000, 2000});
BENCHMARK(BM_PlanMatchLinear)->Args({8000, 2000, 2000});

// Churn variant at the target scale (index upkeep priced in).
BENCHMARK(BM_PlanChurnPlanned)->Args({8000, 2000, 2000});

BENCHMARK_MAIN();
