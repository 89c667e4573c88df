#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "orca/scope_registry.h"
#include "plan/shape_index.h"

namespace orcastream::plan {
namespace {

AttributeValues Values(std::vector<std::string> a, std::vector<std::string> b,
                       std::vector<std::string> c) {
  return {std::move(a), std::move(b), std::move(c)};
}

TEST(ShapeIndexTest, IntersectsAcrossAttributesAndShortCircuits) {
  ShapeIndex index;
  index.Add(0, Values({"m1"}, {"appA"}, {}));
  index.Add(1, Values({"m1"}, {"appB"}, {}));
  index.Add(2, Values({"m2"}, {"appA"}, {}));
  index.Add(3, Values({}, {}, {}));  // wildcard
  index.Add(4, Values({"m1"}, {}, {}));
  index.Add(5, Values({"m1"}, {"appB"}, {}));
  index.Add(6, Values({"m2"}, {"appA"}, {}));

  std::string m1 = "m1", m9 = "m9", app_a = "appA", op = "opX";
  std::vector<uint32_t> out;
  index.Collect({&m1, &app_a, &op}, &out);
  // {m1,appA} shape group -> 0 (m1 {0,1,5} intersected with appA
  // {0,2,6}); wildcard -> 3; metric-only -> 4.
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3, 4}));

  // Missing metric short-circuits every metric-filtering group; only the
  // wildcard survives.
  index.Collect({&m9, &app_a, &op}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{3}));
}

TEST(ShapeIndexTest, KillHidesPositionsAndClearDropsGroups) {
  ShapeIndex index;
  index.Add(0, Values({"m1"}, {"appA"}, {}));
  index.Add(1, Values({"m2"}, {"appA"}, {}));
  index.Add(2, Values({"m2"}, {"appA"}, {}));

  std::string m1 = "m1", m2 = "m2", app_a = "appA", op = "opX";
  std::vector<uint32_t> out;
  // The group stays live, but m1's only posting entry is dead: the
  // conjunction is empty.
  index.Kill(Values({"m1"}, {"appA"}, {}));
  index.Collect({&m1, &app_a, &op}, &out);
  EXPECT_TRUE(out.empty());
  index.Collect({&m2, &app_a, &op}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2}));

  // All members of the group are dead: the group is skipped on live==0.
  index.Kill(Values({"m2"}, {"appA"}, {}));
  index.Kill(Values({"m2"}, {"appA"}, {}));
  index.Collect({&m2, &app_a, &op}, &out);
  EXPECT_TRUE(out.empty());

  index.Clear();
  EXPECT_EQ(index.group_count(), 0u);
  index.Collect({&m2, &app_a, &op}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(ShapeIndexTest, IntersectsFromTheSmallestPosting) {
  ShapeIndex index;
  // Attr 0 ("metric") holds two fat postings; attr 1 ("application")
  // groups four consecutive positions, so the application posting is the
  // smallest one and its entries are checked against the metric posting.
  for (uint32_t i = 0; i < 32; ++i) {
    index.Add(i, Values({i % 2 == 0 ? "even" : "odd"},
                        {"app" + std::to_string(i / 4)}, {}));
  }
  std::string even = "even", odd = "odd", app3 = "app3", op = "opX";
  std::vector<uint32_t> out;
  index.Collect({&even, &app3, &op}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{12, 14}));
  index.Collect({&odd, &app3, &op}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{13, 15}));
}

TEST(ShapeIndexTest, SkewedPostingsIntersectExactly) {
  ShapeIndex index;
  // 999 singleton applications plus one hot application holding 1000
  // entries: whichever is probed, the lookup orders by the postings it
  // actually finds.
  uint32_t position = 0;
  for (int i = 0; i < 999; ++i) {
    index.Add(position++, Values({"m"}, {"cold" + std::to_string(i)}, {}));
  }
  for (int i = 0; i < 1000; ++i) {
    index.Add(position++, Values({"m"}, {"hotApp"}, {}));
  }

  std::string metric = "m", hot = "hotApp", cold = "cold5", op = "opX";
  std::vector<uint32_t> out;
  index.Collect({&metric, &cold, &op}, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{5}));
  index.Collect({&metric, &hot, &op}, &out);
  ASSERT_EQ(out.size(), 1000u);
  EXPECT_EQ(out.front(), 999u);
  EXPECT_EQ(out.back(), 1998u);
}

}  // namespace
}  // namespace orcastream::plan

namespace orcastream::orca {
namespace {

OperatorMetricScope MetricAppScope(const std::string& key,
                                   const std::string& metric,
                                   const std::string& app) {
  OperatorMetricScope scope(key);
  scope.AddOperatorMetric(metric);
  scope.AddApplicationFilter(app);
  return scope;
}

TEST(RegistryShapeIndexTest, UnregisteredScopeNeverMatches) {
  ScopeRegistry registry;
  GraphView view;
  registry.Register(MetricAppScope("a", "m1", "app1"));
  registry.Register(MetricAppScope("b", "m1", "app2"));
  registry.Unregister("b");

  OperatorMetricContext context;
  context.application = "app1";
  context.metric = "m1";
  context.instance_name = "op";
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(registry.MatchedKeys(context, view),
            registry.MatchedKeysLinear(context, view));
  context.application = "app2";
  EXPECT_TRUE(registry.MatchedKeys(context, view).empty());
}

TEST(RegistryShapeIndexTest, ChurnStaysEquivalent) {
  ScopeRegistry registry;
  GraphView view;
  OperatorMetricContext context;
  context.application = "app1";
  context.metric = "m2";
  context.instance_name = "op";
  registry.Register(MetricAppScope("a", "m1", "app1"));
  EXPECT_TRUE(registry.MatchedKeys(context, view).empty());

  registry.Register(MetricAppScope("b", "m2", "app1"));
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"b"}));

  auto generation = registry.BeginGeneration();
  registry.Register(MetricAppScope("c", "m2", "app1"));
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"b", "c"}));
  registry.RetireGeneration(generation);
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"b"}));
  EXPECT_EQ(registry.MatchedKeys(context, view),
            registry.MatchedKeysLinear(context, view));
}

TEST(RegistryShapeIndexTest, SkewedPopulationStaysEquivalent) {
  ScopeRegistry registry;
  GraphView view;
  // "hotApp" holds 32 scopes while 32 more sit on singleton applications:
  // hot and cold lookups alike must agree with the linear scan.
  for (int i = 0; i < 32; ++i) {
    registry.Register(MetricAppScope("hot" + std::to_string(i), "m", "hotApp"));
  }
  for (int i = 0; i < 32; ++i) {
    registry.Register(
        MetricAppScope("cold" + std::to_string(i), "m",
                       "cold" + std::to_string(i)));
  }
  OperatorMetricContext context;
  context.application = "hotApp";
  context.metric = "m";
  context.instance_name = "op";
  auto keys = registry.MatchedKeys(context, view);
  EXPECT_EQ(keys.size(), 32u);
  EXPECT_EQ(keys, registry.MatchedKeysLinear(context, view));
  context.application = "cold7";
  EXPECT_EQ(registry.MatchedKeys(context, view),
            (std::vector<std::string>{"cold7"}));
}

}  // namespace
}  // namespace orcastream::orca
