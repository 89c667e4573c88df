#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/sql_scope_eval.h"
#include "common/rng.h"
#include "orca/scope_registry.h"
#include "tests/test_util.h"

namespace orcastream::orca {
namespace {

using common::PeId;
using common::Rng;
using orcastream::testing::ClusterHarness;
using topology::AppBuilder;

/// Randomized churn oracle for the scope index: every indexed lookup, one
/// sample at a time or in a threaded batch, must return byte-identical
/// keys to MatchedKeysLinear (and, for samples grounded in a real job, to
/// the relational SqlScopeEval formulation) across registration,
/// unregistration, generation retirement and compaction.
class PlanEquivalenceTest : public ::testing::Test {
 protected:
  PlanEquivalenceTest() : cluster_(2) {
    AppBuilder builder("Figure2");
    builder.AddOperator("op1", "Beacon").Output("src1");
    auto body = [](AppBuilder& b, const std::string& in) {
      b.AddOperator("op3", "Split").Input({in}).Output("s3");
      b.AddOperator("op6", "Merge").Input("s3").Output("out");
    };
    builder.BeginComposite("composite1", "c1a");
    body(builder, "src1");
    builder.EndComposite();
    builder.BeginComposite("composite2", "c2");
    builder.AddOperator("op7", "Split").Input({"c1a.out"}).Output("s7");
    builder.BeginComposite("composite1", "nested");
    body(builder, "c2.s7");
    builder.EndComposite();
    builder.EndComposite();
    builder.AddOperator("snk", "NullSink").Input("c2.nested.out");
    auto model = builder.Build();
    EXPECT_TRUE(model.ok()) << model.status();
    auto job = cluster_.sam().SubmitJob(*model);
    EXPECT_TRUE(job.ok()) << job.status();
    job_ = *job;
    view_.AddJob(*cluster_.sam().FindJob(job_));
  }

  std::string Pick(Rng& rng, const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  }

  OperatorMetricScope RandomOperatorMetricScope(Rng& rng,
                                                const std::string& key) {
    OperatorMetricScope scope(key);
    if (rng.Bernoulli(0.5)) scope.AddOperatorMetric(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.3)) scope.AddOperatorMetric(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.3)) scope.AddApplicationFilter(Pick(rng, kApps));
    if (rng.Bernoulli(0.3)) scope.AddCompositeTypeFilter(Pick(rng, kComposites));
    if (rng.Bernoulli(0.3)) scope.AddOperatorNameFilter(Pick(rng, kOperators));
    if (rng.Bernoulli(0.3)) scope.AddOperatorTypeFilter(Pick(rng, kKinds));
    return scope;
  }

  PeMetricScope RandomPeMetricScope(Rng& rng, const std::string& key) {
    PeMetricScope scope(key);
    if (rng.Bernoulli(0.5)) scope.AddMetricNameFilter(Pick(rng, kMetrics));
    if (rng.Bernoulli(0.4)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
    if (rng.Bernoulli(0.3)) scope.AddPeFilter(PeId(rng.UniformInt(1, 6)));
    if (rng.Bernoulli(0.5)) scope.AddApplicationFilter(Pick(rng, kApps));
    return scope;
  }

  OperatorMetricContext RandomOperatorMetricContext(Rng& rng) {
    OperatorMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.instance_name = Pick(rng, kOperators);
    context.operator_kind = Pick(rng, kKinds);
    context.metric = Pick(rng, kMetrics);
    return context;
  }

  PeMetricContext RandomPeMetricContext(Rng& rng) {
    PeMetricContext context;
    context.job = job_;
    context.application = Pick(rng, kApps);
    context.pe = PeId(rng.UniformInt(1, 6));
    context.metric = Pick(rng, kMetrics);
    return context;
  }

  const std::vector<std::string> kMetrics = {
      "queueSize", "nTuplesProcessed", "nSeen", "latency", "absentMetric"};
  const std::vector<std::string> kApps = {"Figure2", "OtherApp", "ThirdApp",
                                          "FourthApp"};
  const std::vector<std::string> kComposites = {"composite1", "composite2",
                                                "compositeX"};
  const std::vector<std::string> kKinds = {"Beacon", "Split", "Merge",
                                           "NullSink", "Filter"};
  const std::vector<std::string> kOperators = {
      "op1", "c1a.op3", "c1a.op6", "c2.op7", "c2.nested.op3", "c2.nested.op6",
      "snk", "ghost"};

  ClusterHarness cluster_;
  common::JobId job_;
  GraphView view_;
};

TEST_F(PlanEquivalenceTest, OperatorMetricChurnStaysByteIdentical) {
  for (uint64_t seed : {1u, 20260808u, 77u}) {
    Rng rng(seed);
    ScopeRegistry registry;
    registry.set_compaction_threshold(8);  // force compactions mid-stream
    // A thread per sample: batches of two or more run threaded on any
    // multi-core host.
    registry.set_parallel_policy(ScopeRegistry::ParallelPolicy{1});
    std::vector<std::string> live_keys;
    std::vector<ScopeRegistry::Generation> open_generations;
    int next_key = 0;

    for (int round = 0; round < 40; ++round) {
      // Register a burst.
      for (int i = 0; i < 10; ++i) {
        std::string key = "k" + std::to_string(next_key++);
        registry.Register(RandomOperatorMetricScope(rng, key));
        live_keys.push_back(key);
      }
      // Unregister a random handful (exercises tombstones + compaction).
      for (int i = 0; i < 4 && !live_keys.empty(); ++i) {
        size_t victim = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(live_keys.size()) - 1));
        registry.Unregister(live_keys[victim]);
        live_keys.erase(live_keys.begin() + static_cast<long>(victim));
      }
      // Occasionally open or retire a generation (logic replacement).
      if (rng.Bernoulli(0.3)) {
        open_generations.push_back(registry.BeginGeneration());
      }
      if (!open_generations.empty() && rng.Bernoulli(0.2)) {
        registry.RetireGeneration(open_generations.front());
        open_generations.erase(open_generations.begin());
        // The retirement may have removed keys; resync from the registry.
        std::vector<std::string> survivors;
        for (const std::string& key : live_keys) {
          if (registry.HasKey(key)) survivors.push_back(key);
        }
        live_keys = std::move(survivors);
      }

      std::vector<OperatorMetricContext> contexts;
      for (int i = 0; i < 25; ++i) {
        OperatorMetricContext context = RandomOperatorMetricContext(rng);
        EXPECT_EQ(registry.MatchedKeys(context, view_),
                  registry.MatchedKeysLinear(context, view_))
            << "seed=" << seed << " round=" << round
            << " app=" << context.application << " metric=" << context.metric;
        contexts.push_back(std::move(context));
      }
      // The same samples as one batch, its size cycling through 0..25
      // across rounds so empty, single-sample and unevenly split batches
      // all run between the churn steps.
      contexts.resize(static_cast<size_t>(round) % (contexts.size() + 1));
      auto batched = registry.MatchOperatorMetricBatch(contexts, view_);
      ASSERT_EQ(batched.size(), contexts.size());
      for (size_t i = 0; i < contexts.size(); ++i) {
        EXPECT_EQ(batched[i], registry.MatchedKeys(contexts[i], view_))
            << "seed=" << seed << " round=" << round << " batch sample " << i;
        EXPECT_EQ(batched[i], registry.MatchedKeysLinear(contexts[i], view_))
            << "seed=" << seed << " round=" << round << " batch sample " << i;
      }
    }
    EXPECT_GT(registry.compaction_count(), 0u);
  }
}

TEST_F(PlanEquivalenceTest, PeMetricChurnAgreesWithLinearAndSql) {
  Rng rng(987);
  ScopeRegistry registry;
  registry.set_compaction_threshold(8);
  const GraphView::JobRecord* record = view_.FindJob(job_);
  ASSERT_NE(record, nullptr);
  baseline::SqlScopeEval sql(*record);
  ASSERT_GT(sql.pe_instance_count(), 0u);

  std::vector<std::pair<std::string, PeMetricScope>> live;
  int next_key = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 8; ++i) {
      std::string key = "p" + std::to_string(next_key++);
      PeMetricScope scope = RandomPeMetricScope(rng, key);
      live.emplace_back(key, scope);
      registry.Register(std::move(scope));
    }
    for (int i = 0; i < 3 && !live.empty(); ++i) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      registry.Unregister(live[victim].first);
      live.erase(live.begin() + static_cast<long>(victim));
    }

    for (int i = 0; i < 20; ++i) {
      PeMetricContext context = RandomPeMetricContext(rng);
      auto indexed = registry.MatchedKeys(context);
      EXPECT_EQ(indexed, registry.MatchedKeysLinear(context));

      // Relational oracle: for samples grounded in the managed job (a PE
      // the job actually hosts), each key is in the indexed result iff
      // the SQL formulation selects the sample for that subscope.
      if (context.application != record->app_name) continue;
      bool pe_hosted = false;
      for (const auto& pe : record->pes) {
        if (pe.id == context.pe) pe_hosted = true;
      }
      if (!pe_hosted) continue;
      std::vector<std::string> sql_keys;
      for (const auto& [key, scope] : live) {
        if (sql.Matches(scope, context)) sql_keys.push_back(key);
      }
      std::sort(sql_keys.begin(), sql_keys.end());
      std::vector<std::string> indexed_sorted = indexed;
      std::sort(indexed_sorted.begin(), indexed_sorted.end());
      EXPECT_EQ(indexed_sorted, sql_keys)
          << "round=" << round << " pe=" << context.pe.value()
          << " metric=" << context.metric;
    }
  }
}

}  // namespace
}  // namespace orcastream::orca
