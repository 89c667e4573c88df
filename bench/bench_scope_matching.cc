// §4.1 ablation: the scope API's purpose-built matcher vs. the recursive
// SQL formulation the paper shows as its equivalent.
//
// For random applications of growing size and composite nesting depth,
// measures the per-event evaluation cost of (a) orca::MatchOperatorMetric
// over the GraphView and (b) baseline::SqlScopeEval's materialized
// recursive-closure evaluation, plus the closure construction cost the SQL
// side pays up front.
//
// The BM_Registry* cases compare the ScopeRegistry's inverted-index routing
// against its preserved linear-scan reference path at scale (1k registered
// subscopes x 10k samples) — the event-routing hot path of the refactored
// delivery pipeline. The BM_BatchSnapshot* cases match one whole
// multi-application SRM round through the batch call, threaded and serial.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/sql_scope_eval.h"
#include "common/rng.h"
#include "orca/scope_matcher.h"
#include "orca/scope_registry.h"
#include "topology/app_builder.h"

using namespace orcastream;  // NOLINT — bench brevity

namespace {

/// Builds a chain application with `ops_per_level` operators in each of
/// `depth` nested composites.
orca::GraphView::JobRecord MakeJob(int ops_per_level, int depth) {
  topology::AppBuilder builder("BenchApp");
  builder.AddOperator("src", "Beacon").Output("s_root");
  std::string last_stream = "s_root";
  int counter = 0;
  for (int level = 0; level < depth; ++level) {
    builder.BeginComposite("compLevel" + std::to_string(level),
                           "inst" + std::to_string(level));
    for (int i = 0; i < ops_per_level; ++i) {
      std::string out = "s" + std::to_string(counter++);
      builder.AddOperator("op" + std::to_string(counter), "Filter")
          .Input({last_stream})
          .Output(out);
      last_stream = builder.Qualify(out);
    }
  }
  for (int level = 0; level < depth; ++level) builder.EndComposite();
  auto model = builder.Build();
  orca::GraphView::JobRecord record;
  record.id = common::JobId(1);
  record.app_name = "BenchApp";
  record.model = *model;
  return record;
}

orca::OperatorMetricScope MakeScope() {
  orca::OperatorMetricScope scope("bench");
  scope.AddApplicationFilter("BenchApp");
  scope.AddCompositeTypeFilter("compLevel0");  // forces containment walk
  scope.AddOperatorTypeFilter(std::string("Filter"));
  scope.AddOperatorMetric("queueSize");
  return scope;
}

std::vector<orca::OperatorMetricContext> MakeEvents(
    const orca::GraphView::JobRecord& job) {
  std::vector<orca::OperatorMetricContext> events;
  for (const auto& op : job.model.operators()) {
    orca::OperatorMetricContext context;
    context.job = job.id;
    context.application = "BenchApp";
    context.instance_name = op.name;
    context.operator_kind = op.kind;
    context.metric = "queueSize";
    context.port = -1;
    events.push_back(std::move(context));
  }
  return events;
}

void BM_ScopeMatcher(benchmark::State& state) {
  auto job = MakeJob(static_cast<int>(state.range(0)),
                     static_cast<int>(state.range(1)));
  orca::GraphView view;
  runtime::JobInfo info;
  info.id = job.id;
  info.app_name = job.app_name;
  info.model = job.model;
  view.AddJob(info);
  auto scope = MakeScope();
  auto events = MakeEvents(job);
  size_t i = 0;
  for (auto _ : state) {
    bool matched =
        orca::MatchOperatorMetric(scope, events[i % events.size()], view);
    benchmark::DoNotOptimize(matched);
    ++i;
  }
  state.SetLabel(std::to_string(job.model.operators().size()) + " ops");
}

void BM_SqlScopeEval(benchmark::State& state) {
  auto job = MakeJob(static_cast<int>(state.range(0)),
                     static_cast<int>(state.range(1)));
  baseline::SqlScopeEval sql(job);
  auto scope = MakeScope();
  auto events = MakeEvents(job);
  size_t i = 0;
  for (auto _ : state) {
    bool matched = sql.Matches(scope, events[i % events.size()]);
    benchmark::DoNotOptimize(matched);
    ++i;
  }
  state.SetLabel(std::to_string(job.model.operators().size()) + " ops, " +
                 std::to_string(sql.closure_size()) + " closure rows");
}

void BM_SqlClosureConstruction(benchmark::State& state) {
  auto job = MakeJob(static_cast<int>(state.range(0)),
                     static_cast<int>(state.range(1)));
  for (auto _ : state) {
    baseline::SqlScopeEval sql(job);
    benchmark::DoNotOptimize(sql.closure_size());
  }
}

// --- ScopeRegistry: indexed routing vs the linear-scan reference ----------

/// Subscope #i as a production orchestrator would register it: most filter
/// on a metric name (indexable), some on an application only, and a
/// handful are wildcards that land in the always-checked residual set.
/// Metric names wrap at `metric_space` so replacements registered during
/// churn keep matching the sampled metric range.
orca::OperatorMetricScope MakeBenchScope(int i, int metric_space) {
  orca::OperatorMetricScope scope("scope" + std::to_string(i));
  if (i % 100 == 99) {
    // Wildcard subscope: no indexable filter.
    scope.AddOperatorTypeFilter(std::string("Filter"));
  } else if (i % 10 == 9) {
    scope.AddApplicationFilter("App" + std::to_string(i % 7));
  } else {
    scope.AddOperatorMetric("metric" + std::to_string(i % metric_space));
    scope.AddApplicationFilter("BenchApp");
  }
  return scope;
}

orca::ScopeRegistry MakeRegistry(int scopes) {
  orca::ScopeRegistry registry;
  for (int i = 0; i < scopes; ++i) {
    registry.Register(MakeBenchScope(i, scopes));
  }
  return registry;
}

std::vector<orca::OperatorMetricContext> MakeSamples(int samples,
                                                     int metric_space) {
  common::Rng rng(7);
  std::vector<orca::OperatorMetricContext> contexts;
  contexts.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    orca::OperatorMetricContext context;
    context.job = common::JobId(1);
    context.application = "BenchApp";
    context.instance_name = "op" + std::to_string(i % 64);
    context.operator_kind = "Beacon";
    context.metric =
        "metric" + std::to_string(rng.UniformInt(0, metric_space - 1));
    context.port = -1;
    contexts.push_back(std::move(context));
  }
  return contexts;
}

/// Indexed path: candidates = index buckets + residual set.
void BM_RegistryIndexed(benchmark::State& state) {
  auto registry = MakeRegistry(static_cast<int>(state.range(0)));
  auto samples = MakeSamples(static_cast<int>(state.range(1)),
                             static_cast<int>(state.range(0)));
  orca::GraphView view;
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

/// Reference path: every sample tested against every registered subscope
/// (the seed's per-record scan in OrcaService::PullMetricsRound).
void BM_RegistryLinearScan(benchmark::State& state) {
  auto registry = MakeRegistry(static_cast<int>(state.range(0)));
  auto samples = MakeSamples(static_cast<int>(state.range(1)),
                             static_cast<int>(state.range(0)));
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

// --- Registry churn: register/match/unregister interleavings ---------------

/// One churn round = retire the 16 oldest subscopes, register 16
/// replacements (exercising tombstoning + amortized compaction on the
/// indexed path), then route a full sample burst. Items processed counts
/// the routed samples, so items/s is match throughput *under churn* —
/// comparable between the indexed and linear variants, which perform
/// identical mutations.
template <bool kIndexed>
void RegistryChurnLoop(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  auto registry = MakeRegistry(scopes);
  auto samples = MakeSamples(static_cast<int>(state.range(1)), scopes);
  orca::GraphView view;
  int next_dead = 0;
  int next_new = scopes;
  size_t matched_total = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      registry.Unregister("scope" + std::to_string(next_dead++));
      registry.Register(MakeBenchScope(next_new++, scopes));
    }
    for (const auto& context : samples) {
      auto keys = kIndexed ? registry.MatchedKeys(context, view)
                           : registry.MatchedKeysLinear(context, view);
      matched_total += keys.size();
      benchmark::DoNotOptimize(keys);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.SetLabel("matched=" + std::to_string(matched_total) +
                 " compactions=" + std::to_string(registry.compaction_count()));
}

void BM_RegistryChurnIndexed(benchmark::State& state) {
  RegistryChurnLoop<true>(state);
}

void BM_RegistryChurnLinear(benchmark::State& state) {
  RegistryChurnLoop<false>(state);
}

// --- Batch matching: one multi-app SRM round through one registry ---------

constexpr int kBatchApps = 8;

/// Subscope #i of a multi-application deployment: most filter on their
/// application plus a metric name, a few are app-only, and a handful are
/// wildcards every lookup checks.
orca::OperatorMetricScope MakeMultiAppScope(int i, int metric_space) {
  orca::OperatorMetricScope scope("scope" + std::to_string(i));
  if (i % 100 == 99) {
    scope.AddOperatorTypeFilter(std::string("Filter"));  // wildcard
  } else if (i % 10 == 9) {
    // App-indexed candidates that still run the full predicate chain.
    scope.AddApplicationFilter("App" + std::to_string(i % kBatchApps));
    scope.AddOperatorTypeFilter(std::string("Filter"));
  } else {
    scope.AddApplicationFilter("App" + std::to_string(i % kBatchApps));
    scope.AddOperatorMetric("metric" + std::to_string(i % metric_space));
  }
  return scope;
}

/// One SRM round's operator-metric samples, spread across the apps.
std::vector<orca::OperatorMetricContext> MakeMultiAppSamples(
    int samples, int metric_space) {
  common::Rng rng(13);
  std::vector<orca::OperatorMetricContext> contexts;
  contexts.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    orca::OperatorMetricContext context;
    context.job = common::JobId(1);
    context.application =
        "App" + std::to_string(rng.UniformInt(0, kBatchApps - 1));
    context.instance_name = "op" + std::to_string(i % 64);
    context.operator_kind = "Beacon";
    context.metric =
        "metric" + std::to_string(rng.UniformInt(0, metric_space - 1));
    context.port = -1;
    contexts.push_back(std::move(context));
  }
  return contexts;
}

orca::ScopeRegistry MakeMultiAppRegistry(int scopes) {
  orca::ScopeRegistry registry;
  for (int i = 0; i < scopes; ++i) {
    registry.Register(MakeMultiAppScope(i, scopes));
  }
  return registry;
}

/// The whole round through MatchOperatorMetricBatch, the call
/// EventBus::PublishMetricsSnapshot makes. Threaded keeps the default
/// ParallelPolicy (a 10k round splits into one chunk per hardware
/// thread); Serial raises min_samples past the round so the calling
/// thread matches it all.
template <bool kThreaded>
void BatchSnapshotLoop(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  auto registry = MakeMultiAppRegistry(scopes);
  if (!kThreaded) {
    registry.set_parallel_policy(
        orca::ScopeRegistry::ParallelPolicy{SIZE_MAX});
  }
  auto samples = MakeMultiAppSamples(static_cast<int>(state.range(1)), scopes);
  orca::GraphView view;
  size_t matched_total = 0;
  for (auto _ : state) {
    auto results = registry.MatchOperatorMetricBatch(samples, view);
    for (const auto& keys : results) matched_total += keys.size();
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.SetLabel("matched=" + std::to_string(matched_total));
}

void BM_BatchSnapshotThreaded(benchmark::State& state) {
  BatchSnapshotLoop<true>(state);
}

void BM_BatchSnapshotSerial(benchmark::State& state) {
  BatchSnapshotLoop<false>(state);
}

/// Linear baseline for the same multi-app round: every sample tested
/// against every subscope (the seed's scan).
void BM_BatchSnapshotLinear(benchmark::State& state) {
  const int scopes = static_cast<int>(state.range(0));
  auto registry = MakeMultiAppRegistry(scopes);
  auto samples = MakeMultiAppSamples(static_cast<int>(state.range(1)), scopes);
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

}  // namespace

// Args: {operators per composite level, nesting depth}.
BENCHMARK(BM_ScopeMatcher)
    ->Args({4, 2})
    ->Args({16, 2})
    ->Args({16, 8})
    ->Args({64, 4})
    ->Args({128, 8});
BENCHMARK(BM_SqlScopeEval)
    ->Args({4, 2})
    ->Args({16, 2})
    ->Args({16, 8})
    ->Args({64, 4})
    ->Args({128, 8});
BENCHMARK(BM_SqlClosureConstruction)->Args({16, 8})->Args({128, 8});

// Args: {registered subscopes, samples per round}. The 1k x 10k case is the
// routing-scale target tracked in BENCH_event_routing.json.
BENCHMARK(BM_RegistryIndexed)->Args({100, 10000})->Args({1000, 10000});
BENCHMARK(BM_RegistryLinearScan)->Args({100, 10000})->Args({1000, 10000});

// Churn workload (register/match/unregister mix) at the same routing
// scale; also tracked in BENCH_event_routing.json.
BENCHMARK(BM_RegistryChurnIndexed)->Args({1000, 10000});
BENCHMARK(BM_RegistryChurnLinear)->Args({1000, 10000});

// Args: {registered subscopes, samples per SRM round}. One whole multi-app
// round matched through the batch call, threaded and serial, vs the linear
// scan over the same population; the threaded case is the
// `scope_matching_batch` target tracked in BENCH_event_routing.json (≥5×
// over linear required).
BENCHMARK(BM_BatchSnapshotThreaded)->Args({1000, 10000})->UseRealTime();
BENCHMARK(BM_BatchSnapshotSerial)->Args({1000, 10000})->UseRealTime();
BENCHMARK(BM_BatchSnapshotLinear)->Args({1000, 10000});

BENCHMARK_MAIN();
