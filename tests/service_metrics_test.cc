#include <gtest/gtest.h>

#include "orca/orca_service.h"
#include "orca/rules.h"
#include "tests/test_util.h"
#include "topology/app_builder.h"

namespace orcastream::orca {
namespace {

using orcastream::testing::ClusterHarness;
using topology::AppBuilder;
using topology::ApplicationModel;
using topology::Tuple;

ApplicationModel PipelineApp(const std::string& name) {
  AppBuilder builder(name);
  builder.AddOperator("src", "Beacon").Output("s").Param("period", 0.2);
  builder.AddOperator("flt", "Filter")
      .Input("s")
      .Output("f")
      .Param("field", "seq")
      .Param("op", ">=")
      .Param("value", "0");
  builder.AddOperator("snk", "NullSink").Input("f");
  auto model = builder.Build();
  EXPECT_TRUE(model.ok()) << model.status();
  return model.ValueOr(ApplicationModel("invalid"));
}

class PortAndPeMetricOrca : public Orchestrator {
 public:
  void HandleOrcaStart(OrcaContext& orca,
                       const OrcaStartContext&) override {
    // Port-level operator metrics (the paper's "operator port metrics"
    // event type).
    OperatorMetricScope ports("portMetrics");
    ports.SetPortScope(OperatorMetricScope::PortScope::kPortLevel);
    ports.AddOperatorNameFilter("flt");
    orca.RegisterEventScope(ports);
    // PE-level metrics.
    PeMetricScope pe_scope("peMetrics");
    pe_scope.AddMetricNameFilter(BuiltinMetric::kNumTupleBytesProcessed);
    orca.RegisterEventScope(pe_scope);
    orca.SubmitApplication("app");
  }
  void HandleOperatorMetricEvent(
      OrcaContext&, const OperatorMetricContext& context,
      const std::vector<std::string>& scopes) override {
    (void)scopes;
    port_events.push_back(context);
  }
  void HandlePeMetricEvent(OrcaContext&, const PeMetricContext& context,
                           const std::vector<std::string>& scopes) override {
    (void)scopes;
    pe_events.push_back(context);
  }
  std::vector<OperatorMetricContext> port_events;
  std::vector<PeMetricContext> pe_events;
};

TEST(ServiceMetricsTest, PortAndPeLevelEventsFlow) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(16);

  // Port events: flt has 1 input + 1 output port, each reporting its
  // tuple counter.
  ASSERT_GE(logic->port_events.size(), 2u);
  bool saw_input = false, saw_output = false;
  for (const auto& event : logic->port_events) {
    EXPECT_EQ(event.instance_name, "flt");
    EXPECT_GE(event.port, 0);
    EXPECT_GT(event.value, 0);
    if (event.output_port) saw_output = true;
    if (!event.output_port) saw_input = true;
  }
  EXPECT_TRUE(saw_input);
  EXPECT_TRUE(saw_output);

  // PE events: bytes processed per PE (the source PE legitimately
  // reports 0 — it only submits), same epoch as the port events.
  ASSERT_GE(logic->pe_events.size(), 1u);
  bool nonzero_bytes = false;
  for (const auto& event : logic->pe_events) {
    EXPECT_EQ(event.metric, BuiltinMetric::kNumTupleBytesProcessed);
    if (event.value > 0) nonzero_bytes = true;
  }
  EXPECT_TRUE(nonzero_bytes);
  EXPECT_EQ(logic->pe_events[0].epoch, logic->port_events[0].epoch);
}

TEST(ServiceMetricsTest, OperatorLevelScopeExcludesPortSamples) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());

  auto rules = std::make_unique<RuleOrchestrator>();
  std::vector<int32_t> seen_ports;
  rules->OnStart([](OrcaContext& orca) { orca.SubmitApplication("app"); });
  OperatorMetricScope scope("ignored");
  scope.AddOperatorNameFilter("flt");  // default: operator level only
  rules->WhenMetric(scope, nullptr,
                    [&seen_ports](OrcaContext&,
                                  const OperatorMetricContext& context) {
                      seen_ports.push_back(context.port);
                    });
  ASSERT_TRUE(service.Load(std::move(rules)).ok());
  cluster.sim().RunUntil(16);
  ASSERT_FALSE(seen_ports.empty());
  for (int32_t port : seen_ports) EXPECT_EQ(port, -1);
}

TEST(ServiceMetricsTest, RuleBasedAlgorithmSwitching) {
  // §1's third motivating example as a compact test: a metric rule
  // cancels variant A and submits variant B at runtime.
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  for (const char* name : {"VariantA", "VariantB"}) {
    AppConfig config;
    config.id = name;
    config.application_name = name;
    ASSERT_TRUE(
        service.RegisterApplication(config, PipelineApp(name)).ok());
  }
  auto rules = std::make_unique<RuleOrchestrator>();
  rules->OnStart(
      [](OrcaContext& orca) { orca.SubmitApplication("VariantA"); });
  OperatorMetricScope scope("ignored");
  scope.AddApplicationFilter("VariantA");
  scope.AddOperatorNameFilter("src");
  scope.AddOperatorMetric(BuiltinMetric::kNumTuplesSubmitted);
  bool switched = false;
  rules->WhenMetric(
      scope,
      [](const OperatorMetricContext& context) {
        return context.value > 100;  // the "pattern"
      },
      [&switched](OrcaContext& orca, const OperatorMetricContext&) {
        if (switched) return;
        switched = true;
        ASSERT_TRUE(orca.CancelApplication("VariantA").ok());
        ASSERT_TRUE(orca.SubmitApplication("VariantB").ok());
      });
  ASSERT_TRUE(service.Load(std::move(rules)).ok());
  // src emits 5/s; >100 tuples after ~20 s; second pull round at t=30.
  cluster.sim().RunUntil(14.5);
  EXPECT_TRUE(service.IsRunning("VariantA"));
  EXPECT_FALSE(service.IsRunning("VariantB"));
  cluster.sim().RunUntil(60);
  EXPECT_TRUE(switched);
  EXPECT_FALSE(service.IsRunning("VariantA"));
  EXPECT_TRUE(service.IsRunning("VariantB"));
}

TEST(ServiceMetricsTest, EpochsAdvanceMonotonically) {
  ClusterHarness cluster(3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm());
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(70);
  ASSERT_GE(logic->pe_events.size(), 4u);
  for (size_t i = 1; i < logic->pe_events.size(); ++i) {
    EXPECT_GE(logic->pe_events[i].epoch, logic->pe_events[i - 1].epoch);
  }
  EXPECT_GE(logic->pe_events.back().epoch, 4);
}

/// The queue observability surface: queue stats expose per-application
/// depth/delivered/backlog-age under async dispatch (and stay empty on the
/// serial path).
TEST(ServiceMetricsTest, QueueObservability) {
  ClusterHarness cluster(3);
  OrcaService::Config service_config;
  service_config.dispatch_executor =
      std::make_shared<DeterministicExecutor>(&cluster.sim(), /*seed=*/3);
  OrcaService service(&cluster.sim(), &cluster.sam(), &cluster.srm(),
                      service_config);
  AppConfig config;
  config.id = "app";
  config.application_name = "App";
  ASSERT_TRUE(service.RegisterApplication(config, PipelineApp("App")).ok());
  auto logic_holder = std::make_unique<PortAndPeMetricOrca>();
  PortAndPeMetricOrca* logic = logic_holder.get();
  ASSERT_TRUE(service.Load(std::move(logic_holder)).ok());
  cluster.sim().RunUntil(35);
  ASSERT_FALSE(logic->pe_events.empty());

  // Queue stats: the simulation is quiescent, so every queue drained;
  // per-queue delivered counts add up to the service total, and the
  // application queue for "App" saw the metric events.
  auto stats = service.queue_stats();
  ASSERT_FALSE(stats.empty());
  uint64_t delivered = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.depth, 0u) << s.key;
    EXPECT_EQ(s.backlog_age, 0.0) << s.key;
    delivered += s.delivered;
  }
  EXPECT_EQ(delivered, service.events_delivered());
  EXPECT_EQ(service.app_queue_depth("App"), 0u);
  EXPECT_EQ(service.app_queue_backlog_age("App"), 0.0);
  bool app_queue_seen = false;
  for (const auto& s : stats) {
    if (s.key == "App" && s.delivered > 0) app_queue_seen = true;
  }
  EXPECT_TRUE(app_queue_seen);

  // Serial services expose the same accessors as empty/zero.
  OrcaService serial(&cluster.sim(), &cluster.sam(), &cluster.srm());
  EXPECT_TRUE(serial.queue_stats().empty());
  EXPECT_EQ(serial.app_queue_depth("App"), 0u);
  EXPECT_EQ(serial.app_queue_backlog_age("App"), 0.0);
}

}  // namespace
}  // namespace orcastream::orca
