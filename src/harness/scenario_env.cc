#include "harness/scenario_env.h"

#include "ops/standard.h"
#include "orca/dispatch_executor.h"

namespace orcastream::harness {

ScenarioEnv::ScenarioEnv(const ScenarioOptions& options)
    : options_(options), srm_(&sim_, runtime::Srm::Config{}) {
  for (int i = 0; i < options.hosts; ++i) {
    srm_.AddHost("host" + std::to_string(i));
  }
  ops::RegisterStandardOperators(&factory_);
  sam_ = std::make_unique<runtime::Sam>(&sim_, &srm_, &factory_,
                                        runtime::Sam::Config{});
  injector_ = std::make_unique<runtime::FailureInjector>(&sim_, sam_.get());

  orca::OrcaService::Config config;
  config.name = "soak_orca";
  config.metric_pull_period = options.metric_pull_period;
  config.dispatch_interval = options.dispatch_interval;
  config.weighted_dispatch = options.weighted_dispatch;
  config.max_batch_per_step = options.max_batch_per_step;
  switch (options.mode) {
    case DispatchMode::kSerial:
      break;
    case DispatchMode::kDeterministic:
      config.dispatch_executor = std::make_shared<orca::DeterministicExecutor>(
          &sim_, options.seed, options.weighted_dispatch);
      break;
    case DispatchMode::kThreadPool:
      config.dispatch_threads = options.dispatch_threads;
      break;
  }
  if (options.remote_event_plane) {
    net::RemoteBridge::Options bridge_options;
    bridge_options.pump_interval = options.remote_pump_interval;
    bridge_options.metric_pull_period = options.metric_pull_period;
    bridge_options.make_pair = options.remote_make_pair;
    bridge_ = std::make_unique<net::RemoteBridge>(&sim_, &srm_,
                                                  std::move(bridge_options));
    config.failure_sink = &bridge_->sink();
    config.remote_event_plane = true;
  }
  service_ = std::make_unique<orca::OrcaService>(&sim_, sam_.get(), &srm_,
                                                 config);
  if (bridge_ != nullptr) {
    // Before Load (the driver loads right after construction, at the
    // same sim time) so the remote metric push is phase-aligned with the
    // in-process pull loop it replaces.
    bridge_->BindService(service_.get());
  }
}

}  // namespace orcastream::harness
