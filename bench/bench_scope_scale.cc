// Million-scope scale under Zipf skew (§4.1/§4.2 at deployment scale).
//
// A production ORCA service watches *many* applications, and event traffic
// is heavily skewed — a handful of applications produce most of the metric
// volume. This bench drives the two layers that absorb that skew:
//
//   - BM_ZipfMatch: 1M registered subscopes across 10k applications in one
//     ScopeRegistry, matched against Zipf(s=1.1) sample traffic through
//     the batch call (threaded, default ParallelPolicy). Each lookup
//     intersects from the smallest posting it probes, and every
//     application registers the same number of subscopes, so a sample of
//     the hottest application costs what a cold one's does. The
//     bytes_per_subscope counter records the heap growth (glibc
//     mallinfo2) of registering the population, divided by its size.
//
//   - BM_ZipfDelivery{Unweighted,Weighted}: the same skew through the
//     async EventBus on a ThreadPoolExecutor, recording *per-delivery
//     latency* (publish → handler entry). Unweighted/batch-1 pays one
//     executor hop per event; weighted/batch-64 serves the heaviest
//     backlog first and drains runs of same-application events per hop.
//     scripts/bench.sh gates weighted p99 ≥2× better under skew
//     (`scope_matching_zipf` in BENCH_event_routing.json).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "orca/dispatch_executor.h"
#include "orca/event_bus.h"
#include "orca/scope_registry.h"
#include "sim/simulation.h"

using namespace orcastream;  // NOLINT — bench brevity

namespace {

constexpr int kScopes = 1000000;
constexpr int kApps = 10000;
constexpr int kMetricsPerApp = 100;
constexpr double kZipfS = 1.1;

/// CDF over application ranks r = 1..kApps with P(r) ∝ 1/r^s; rank 0
/// ("app0") is the hottest application.
std::vector<double> ZipfCdf(int n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (int r = 1; r <= n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), s);
    cdf[r - 1] = total;
  }
  for (double& v : cdf) v /= total;
  return cdf;
}

int ZipfRank(const std::vector<double>& cdf, common::Rng& rng) {
  double u = rng.UniformDouble(0, 1);
  return static_cast<int>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

/// Subscope #i: one (application, metric) pair — every application
/// registers kMetricsPerApp metric subscopes, so each sample matches
/// exactly one subscope through the app + metric indexes.
orca::OperatorMetricScope MakeScaleScope(int i) {
  orca::OperatorMetricScope scope("s" + std::to_string(i));
  scope.AddApplicationFilter("app" + std::to_string(i % kApps));
  scope.AddOperatorMetric("m" + std::to_string(i / kApps));
  return scope;
}

/// One round of Zipf-skewed metric samples: application by rank, metric
/// uniform.
std::vector<orca::OperatorMetricContext> MakeZipfSamples(
    int samples, const std::vector<double>& cdf, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<orca::OperatorMetricContext> contexts;
  contexts.reserve(samples);
  for (int i = 0; i < samples; ++i) {
    orca::OperatorMetricContext context;
    context.job = common::JobId(1);
    context.application = "app" + std::to_string(ZipfRank(cdf, rng));
    context.instance_name = "op" + std::to_string(i % 64);
    context.operator_kind = "Beacon";
    context.metric =
        "m" + std::to_string(rng.UniformInt(0, kMetricsPerApp - 1));
    context.port = -1;
    contexts.push_back(std::move(context));
  }
  return contexts;
}

/// Bytes the program holds on the heap (glibc): arena chunks in use plus
/// mmap-ed chunks, which hold the large vectors the arena total omits.
size_t HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// --- Matching ----------------------------------------------------------------

/// Arg: samples per SRM round. Registers the full 1M-subscope population,
/// then matches Zipf rounds through MatchOperatorMetricBatch.
void BM_ZipfMatch(benchmark::State& state) {
  orca::ScopeRegistry registry;
  const size_t heap_before = HeapInUse();
  for (int i = 0; i < kScopes; ++i) registry.Register(MakeScaleScope(i));
  const size_t heap_after = HeapInUse();
  auto cdf = ZipfCdf(kApps, kZipfS);
  auto samples =
      MakeZipfSamples(static_cast<int>(state.range(0)), cdf, /*seed=*/29);
  orca::GraphView view;
  size_t matched_total = 0;
  for (auto _ : state) {
    auto results = registry.MatchOperatorMetricBatch(samples, view);
    for (const auto& keys : results) matched_total += keys.size();
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(samples.size()));
  state.counters["bytes_per_subscope"] =
      static_cast<double>(heap_after - heap_before) / kScopes;
  state.SetLabel("matched=" + std::to_string(matched_total));
}

// --- Delivery latency: weighted + batched vs FIFO + one-at-a-time ----------

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records publish→handler latency per delivery. The publish timestamp
/// rides in the event's metric value; slots are claimed with an atomic
/// cursor since deliveries for distinct applications run concurrently.
class LatencyRecorder : public orca::Orchestrator {
 public:
  explicit LatencyRecorder(size_t capacity) : latencies_(capacity) {}
  void HandleOrcaStart(orca::OrcaContext&,
                       const orca::OrcaStartContext&) override {}
  void HandlePeMetricEvent(orca::OrcaContext&,
                           const orca::PeMetricContext& context,
                           const std::vector<std::string>&) override {
    int64_t latency = NowNanos() - context.value;
    size_t slot = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (slot < latencies_.size()) latencies_[slot] = latency;
  }
  size_t delivered() const {
    return std::min(cursor_.load(std::memory_order_relaxed),
                    latencies_.size());
  }
  const std::vector<int64_t>& latencies() const { return latencies_; }

 private:
  std::vector<int64_t> latencies_;
  std::atomic<size_t> cursor_{0};
};

double PercentileUs(std::vector<int64_t>& nanos, double p) {
  if (nanos.empty()) return 0;
  std::sort(nanos.begin(), nanos.end());
  size_t index = std::min(nanos.size() - 1,
                          static_cast<size_t>(p * nanos.size()));
  return static_cast<double>(nanos[index]) / 1000.0;
}

/// Arg: events per iteration. Publishes one Zipf-skewed burst (identical
/// application sequence for both variants) through a fresh bus on a
/// 2-worker pool and drains it, accumulating per-delivery latencies.
void ZipfDeliveryLoop(benchmark::State& state, bool weighted, size_t batch) {
  const int events = static_cast<int>(state.range(0));
  auto cdf = ZipfCdf(kApps, kZipfS);
  common::Rng rng(17);
  std::vector<std::string> applications;
  applications.reserve(events);
  for (int i = 0; i < events; ++i) {
    applications.push_back("app" + std::to_string(ZipfRank(cdf, rng)));
  }
  std::vector<int64_t> latencies;
  int64_t delivered = 0;
  for (auto _ : state) {
    sim::Simulation sim;
    auto pool = std::make_shared<orca::ThreadPoolExecutor>(2);
    orca::EventBus::Config config;
    config.executor = pool;
    config.weighted_dispatch = weighted;
    config.max_batch_per_step = batch;
    orca::EventBus bus(&sim, config);
    LatencyRecorder logic(static_cast<size_t>(events));
    bus.set_logic(&logic);
    for (int i = 0; i < events; ++i) {
      orca::Event event;
      event.type = orca::Event::Type::kPeMetric;
      event.summary = "peMetric(zipf)";
      event.matched = {"scope"};
      orca::PeMetricContext context;
      context.application = applications[i];
      context.metric = "m";
      context.value = NowNanos();
      event.context = std::move(context);
      bus.Publish(std::move(event));
    }
    pool->Drain();
    delivered += static_cast<int64_t>(logic.delivered());
    latencies.insert(latencies.end(), logic.latencies().begin(),
                     logic.latencies().begin() + logic.delivered());
  }
  state.SetItemsProcessed(delivered);
  state.counters["p50_us"] = PercentileUs(latencies, 0.50);
  state.counters["p99_us"] = PercentileUs(latencies, 0.99);
  state.SetLabel("delivered=" + std::to_string(delivered));
}

/// Baseline: FIFO ready order, one delivery per executor hop.
void BM_ZipfDeliveryUnweighted(benchmark::State& state) {
  ZipfDeliveryLoop(state, /*weighted=*/false, /*batch=*/1);
}

/// Weighted ready order (backlog × cost) with 64-delivery batches — the
/// configuration OrcaService deploys under skew.
void BM_ZipfDeliveryWeighted(benchmark::State& state) {
  ZipfDeliveryLoop(state, /*weighted=*/true, /*batch=*/64);
}

}  // namespace

// Fixed iteration counts: each benchmark entry registers the 1M-subscope
// population (or publishes a full burst) in setup, so calibration re-runs
// would dominate wall time without adding signal.
BENCHMARK(BM_ZipfMatch)->Arg(20000)->Iterations(3)->UseRealTime();

BENCHMARK(BM_ZipfDeliveryUnweighted)
    ->Arg(100000)
    ->Iterations(5)
    ->UseRealTime();
BENCHMARK(BM_ZipfDeliveryWeighted)
    ->Arg(100000)
    ->Iterations(5)
    ->UseRealTime();

BENCHMARK_MAIN();
