#include "orca/orca_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "topology/adl.h"

namespace orcastream::orca {

using common::JobId;
using common::OrcaId;
using common::PeId;
using common::Result;
using common::Status;
using common::StrFormat;
using common::TimerId;

namespace {

/// The start context's timestamp is stamped by the bus at delivery time.
Event MakeStartEvent(std::string summary) {
  Event event;
  event.type = Event::Type::kOrcaStart;
  event.summary = std::move(summary);
  event.context = OrcaStartContext{};
  return event;
}

/// Dispatch strategy from the service config: an explicit executor wins
/// (tests inject a seeded DeterministicExecutor), dispatch_threads > 0
/// builds the production worker pool, otherwise the bus stays serial.
EventBus::Config MakeBusConfig(const OrcaService::Config& config) {
  EventBus::Config bus_config;
  bus_config.dispatch_interval = config.dispatch_interval;
  if (config.dispatch_executor != nullptr) {
    bus_config.executor = config.dispatch_executor;
  } else if (config.dispatch_threads > 0) {
    bus_config.executor =
        std::make_shared<ThreadPoolExecutor>(config.dispatch_threads);
  }
  bus_config.max_batch_per_step = config.max_batch_per_step;
  bus_config.weighted_dispatch = config.weighted_dispatch;
  return bus_config;
}

}  // namespace

OrcaService::OrcaService(sim::Simulation* sim, runtime::Sam* sam,
                         runtime::Srm* srm, Config config)
    : sim_(sim),
      sam_(sam),
      srm_(srm),
      config_(config),
      bus_(sim, MakeBusConfig(config)),
      pull_task_(sim, config.metric_pull_period,
                 [this] { PullMetricsRound(); }) {
  // Per-delivery OrcaContexts actuate against this service (immediate on
  // the sim thread, staged from worker threads).
  bus_.BindService(this);
  scopes_.set_parallel_policy(
      ScopeRegistry::ParallelPolicy{config_.parallel_match_min_samples});
  RefreshSnapshot();
}

OrcaService::~OrcaService() { Shutdown(); }

Status OrcaService::Load(std::unique_ptr<Orchestrator> logic) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("Load"));
  if (logic_ != nullptr) {
    return Status::FailedPrecondition("ORCA logic already loaded");
  }
  logic_ = std::move(logic);
  // Scopes this logic registers (typically from HandleOrcaStart) belong
  // to its generation and are retired when it is replaced or unloaded.
  logic_generation_ = scopes_.BeginGeneration();
  // Remote event plane: SAM routes failure notifications to the
  // transport sink (they come back via IngestPeFailure); in-process, the
  // service is its own sink.
  runtime::EventSink* sink =
      config_.failure_sink != nullptr ? config_.failure_sink : this;
  orca_id_ = sam_->RegisterOrca(config_.name, sink);
  // Reloaded service (Shutdown → Load): managed jobs kept running under
  // the previous registration's id; re-own them so SAM resumes routing
  // their PE failure notifications to this registration.
  if (prev_orca_id_.valid()) {
    sam_->TransferOrcaOwnership(prev_orca_id_, orca_id_);
    prev_orca_id_ = common::OrcaId::Invalid();
  }
  // With a remote event plane the runtime-side metric pump owns the pull
  // cadence; the service only ever sees snapshots via
  // IngestMetricsSnapshot.
  if (!config_.remote_event_plane) {
    pull_task_.Start(config_.metric_pull_period);
  }
  // The start signal is the only event that is always in scope (§4.1). It
  // goes to the front so that events retained across a Shutdown → Load
  // cycle are delivered after the new logic has initialized, mirroring
  // ReplaceLogic. Published BEFORE the logic is attached: under async
  // dispatch the front-published start gates the application queues, and
  // attaching first would let surviving queued events race ahead of it.
  TouchStagedClock();  // staged start handlers pin Now() from this instant
  bus_.PublishFront(MakeStartEvent("orcaStart"));
  bus_.set_logic(logic_.get());
  return Status::OK();
}

void OrcaService::Shutdown() {
  if (!GuardWorkerEntry("Shutdown").ok()) return;
  if (logic_ == nullptr) return;
  pull_task_.Stop();
  for (auto& [id, timer] : timers_) {
    sim_->Cancel(timer.event);
  }
  timers_.clear();
  sam_->UnregisterOrca(orca_id_);
  // Remembered for the next Load: still-running managed jobs keep this id
  // as their SAM owner until ownership is transferred.
  prev_orca_id_ = orca_id_;
  orca_id_ = common::OrcaId::Invalid();
  bus_.set_logic(nullptr);
  // Async dispatch: the retiring orchestrator's in-flight deliveries must
  // unwind before the service touches it below (no-op in serial mode or
  // when shutting down from inside a handler — there DisposeAfterDispatch
  // defers destruction instead).
  bus_.DrainDeliveries();
  // Actuations the retiring logic staged from worker handlers are applied
  // before it is detached, so a shutdown never silently drops committed
  // batches.
  ApplyStagedActuations();
  // Retire the outgoing logic's scopes; queued events keep their matched
  // keys and survive for a future Load (§7 reliable delivery). Opening a
  // fresh generation afterwards fences the retired id: scopes registered
  // while no logic is loaded land in a generation nobody ever retires.
  scopes_.RetireGeneration(logic_generation_);
  scopes_.BeginGeneration();
  logic_generation_ = 0;
  // A failure injected during the shutdown window may have queued a
  // kPeFailure event matched only against the now-retired generation;
  // scrub those so a future Load's logic never sees a stale failure
  // (non-failure events keep their §7 survive-and-redeliver semantics).
  bus_.PruneFailureEvents(
      [this](const std::string& key) { return scopes_.HasKey(key); });
  // Shutdown may be invoked from inside the logic's own handler; its
  // destruction is deferred until the delivery unwinds.
  bus_.DisposeAfterDispatch(std::move(logic_));
  RefreshSnapshot();
}

common::Status OrcaService::ReplaceLogic(std::unique_ptr<Orchestrator> logic) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("ReplaceLogic"));
  if (logic_ == nullptr) {
    return Status::FailedPrecondition("no ORCA logic loaded to replace");
  }
  // Async dispatch: park the queues and let the outgoing orchestrator's
  // in-flight deliveries unwind before it is detached (no-op in serial
  // mode or on §7 self-replacement from inside a handler, where
  // DisposeAfterDispatch defers destruction instead).
  if (bus_.async()) {
    bus_.set_logic(nullptr);
    bus_.DrainDeliveries();
    // Batches the outgoing logic staged must apply before its scopes are
    // retired — they belong to its committed transactions.
    ApplyStagedActuations();
  }
  // Retire the outgoing orchestrator's scopes atomically: stale subscope
  // keys must not keep matching and reaching the replacement (§4.1, §7).
  scopes_.RetireGeneration(logic_generation_);
  // Failure events injected during the swap window that matched only the
  // outgoing generation's subscopes must not reach the replacement (its
  // fresh generation never registered them). Queued non-failure events
  // survive untouched — §7 reliable delivery.
  bus_.PruneFailureEvents(
      [this](const std::string& key) { return scopes_.HasKey(key); });
  // The outgoing logic may be the caller (§7 self-recovery from inside
  // its own handler); defer its destruction until the delivery unwinds.
  std::unique_ptr<Orchestrator> outgoing = std::move(logic_);
  logic_ = std::move(logic);
  logic_generation_ = scopes_.BeginGeneration();
  // The replacement receives a fresh start event BEFORE any surviving
  // queued events so it can initialize its own state; events that never
  // committed under the old logic then flow to it (reliable delivery).
  // Published before attaching the logic: the front-published start gates
  // the per-application queues under async dispatch.
  TouchStagedClock();  // staged start handlers pin Now() from this instant
  bus_.PublishFront(MakeStartEvent("orcaStart(replacement)"));
  bus_.set_logic(logic_.get());
  bus_.DisposeAfterDispatch(std::move(outgoing));
  return Status::OK();
}

// --- Staged actuation -------------------------------------------------------

void OrcaService::EnqueueStagedBatch(
    TransactionId txn, std::vector<OrcaContext::StagedCall> calls,
    const std::string& category, sim::SimTime detected_at) {
  if (calls.empty()) return;
  common::MutexLock lock(staged_mu_);
  staged_batches_.push_back(
      StagedBatch{txn, std::move(calls), category, detected_at});
}

size_t OrcaService::staged_actuations_pending() const {
  common::MutexLock lock(staged_mu_);
  size_t total = 0;
  for (const auto& batch : staged_batches_) total += batch.calls.size();
  return total;
}

void OrcaService::DrainDeliveries() { bus_.DrainDeliveries(); }

size_t OrcaService::ApplyStagedActuations() {
  // Take the whole mailbox in one swap: batches enqueued by workers while
  // this drain applies are picked up by the next call, keeping apply
  // order equal to commit order.
  std::deque<StagedBatch> batches;
  {
    common::MutexLock lock(staged_mu_);
    batches.swap(staged_batches_);
  }
  size_t applied = 0;
  for (StagedBatch& batch : batches) {
    // One reaction sample per actuating delivery, stamped at apply time:
    // the staged path's detection→actuation latency honestly includes
    // the deferral between handler commit and this sim-thread drain.
    latency_.Record(batch.category, batch.detected_at, sim_->Now());
    for (OrcaContext::StagedCall& call : batch.calls) {
      Status status = call.apply(*this);
      ++applied;
      if (!status.ok()) {
        // The staged entry journaled at handler time records *intent*; a
        // failure at apply time is the same runtime-error report a
        // direct call would have produced (§3). Append the outcome to
        // the staging delivery's transaction so §7 replay logic never
        // mistakes the intent record for a performed actuation.
        bus_.JournalActuationFor(
            batch.txn,
            "failed:" + call.description + ": " + status.ToString());
        ORCA_LOG(kError) << "staged actuation '" << call.description
                         << "' (txn " << batch.txn
                         << ") failed: " << status;
      }
    }
  }
  if (applied > 0) RefreshSnapshot();
  return applied;
}

std::shared_ptr<const OrcaSnapshot> OrcaService::SnapshotForDelivery() const {
  common::MutexLock lock(snapshot_mu_);
  return snapshot_;
}

void OrcaService::TouchStagedClock() {
  if (!WallClockDispatch()) return;
  staged_clock_.store(sim_->Now(), std::memory_order_relaxed);
}

void OrcaService::RefreshSnapshot() {
  // Snapshots are only read by wall-clock worker deliveries; the serial
  // and DeterministicExecutor paths read the live state directly.
  if (!WallClockDispatch()) return;
  staged_clock_.store(sim_->Now(), std::memory_order_relaxed);
  auto snapshot = std::make_shared<OrcaSnapshot>();
  snapshot->metric_pull_period = pull_task_.period();
  snapshot->graph = graph_;
  for (const auto& [id, state] : apps_) {
    snapshot->apps[id] = OrcaSnapshot::AppInfo{state.job, state.gc_pending};
  }
  common::MutexLock lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

// --- Scope registration ---------------------------------------------------

void OrcaService::RegisterEventScope(OperatorMetricScope scope) {
  if (!GuardWorkerEntry("RegisterEventScope").ok()) return;
  RegisterEventScopeImpl(std::move(scope));
}
void OrcaService::RegisterEventScope(PeMetricScope scope) {
  if (!GuardWorkerEntry("RegisterEventScope").ok()) return;
  RegisterEventScopeImpl(std::move(scope));
}
void OrcaService::RegisterEventScope(PeFailureScope scope) {
  if (!GuardWorkerEntry("RegisterEventScope").ok()) return;
  RegisterEventScopeImpl(std::move(scope));
}
void OrcaService::RegisterEventScope(JobEventScope scope) {
  if (!GuardWorkerEntry("RegisterEventScope").ok()) return;
  RegisterEventScopeImpl(std::move(scope));
}
void OrcaService::RegisterEventScope(UserEventScope scope) {
  if (!GuardWorkerEntry("RegisterEventScope").ok()) return;
  RegisterEventScopeImpl(std::move(scope));
}
size_t OrcaService::UnregisterEventScope(const std::string& key) {
  if (!GuardWorkerEntry("UnregisterEventScope").ok()) return 0;
  return UnregisterEventScopeImpl(key);
}
void OrcaService::ClearEventScopes() {
  if (!GuardWorkerEntry("ClearEventScopes").ok()) return;
  scopes_.Clear();
}

void OrcaService::RegisterEventScopeImpl(OperatorMetricScope scope) {
  scopes_.Register(std::move(scope));
}
void OrcaService::RegisterEventScopeImpl(PeMetricScope scope) {
  scopes_.Register(std::move(scope));
}
void OrcaService::RegisterEventScopeImpl(PeFailureScope scope) {
  scopes_.Register(std::move(scope));
}
void OrcaService::RegisterEventScopeImpl(JobEventScope scope) {
  scopes_.Register(std::move(scope));
}
void OrcaService::RegisterEventScopeImpl(UserEventScope scope) {
  scopes_.Register(std::move(scope));
}
size_t OrcaService::UnregisterEventScopeImpl(const std::string& key) {
  return scopes_.Unregister(key);
}

// --- Application registry --------------------------------------------------

OrcaService::AppState* OrcaService::FindApp(const std::string& config_id) {
  auto it = apps_.find(config_id);
  return it == apps_.end() ? nullptr : &it->second;
}

const OrcaService::AppState* OrcaService::FindApp(
    const std::string& config_id) const {
  auto it = apps_.find(config_id);
  return it == apps_.end() ? nullptr : &it->second;
}

OrcaService::AppState* OrcaService::FindAppByJob(JobId job) {
  auto it = job_index_.find(job.value());
  return it == job_index_.end() ? nullptr : FindApp(it->second);
}

Status OrcaService::RegisterApplication(AppConfig config,
                                        topology::ApplicationModel model) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("RegisterApplication"));
  if (config.id.empty()) {
    return Status::InvalidArgument("AppConfig id must not be empty");
  }
  if (apps_.count(config.id) > 0) {
    return Status::AlreadyExists(
        StrFormat("application config '%s' already registered",
                  config.id.c_str()));
  }
  ORCA_RETURN_NOT_OK(model.Validate());
  AppState state;
  state.config = std::move(config);
  state.model = std::move(model);
  std::string id = state.config.id;
  apps_.emplace(id, std::move(state));
  deps_.AddApp(id);
  RefreshSnapshot();
  return Status::OK();
}

Status OrcaService::RegisterApplicationAdl(AppConfig config,
                                           const std::string& adl_xml) {
  ORCA_ASSIGN_OR_RETURN(topology::ApplicationModel model,
                        topology::ParseAdl(adl_xml));
  return RegisterApplication(std::move(config), std::move(model));
}

Status OrcaService::RegisterDependency(const std::string& app,
                                       const std::string& depends_on,
                                       double uptime_seconds) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("RegisterDependency"));
  return RegisterDependencyImpl(app, depends_on, uptime_seconds);
}

Status OrcaService::RegisterDependencyImpl(const std::string& app,
                                           const std::string& depends_on,
                                           double uptime_seconds) {
  return deps_.AddDependency(app, depends_on, uptime_seconds);
}

Status OrcaService::SubmitApplication(const std::string& config_id) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("SubmitApplication"));
  return SubmitApplicationImpl(config_id);
}

Status OrcaService::SubmitApplicationImpl(const std::string& config_id) {
  AppState* state = FindApp(config_id);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("application config '%s' not registered",
                                      config_id.c_str()));
  }
  JournalActuation(StrFormat("submitApplication(%s)", config_id.c_str()));
  state->explicitly_submitted = true;
  std::vector<std::string> closure = deps_.DependencyClosure(config_id);
  // Resurrect any member enqueued for cancellation: it is immediately
  // removed from the cancellation queue, avoiding an unnecessary
  // application restart (§4.4).
  for (const auto& member : closure) {
    AppState* member_state = FindApp(member);
    if (member_state != nullptr && member_state->gc_pending) {
      sim_->Cancel(member_state->gc_event);
      member_state->gc_pending = false;
      ORCA_LOG(kInfo) << "resurrected '" << member
                      << "' from the cancellation queue";
    }
  }
  // Start the application submission thread (§4.4).
  sim_->ScheduleAfter(0, [this, closure = std::move(closure)]() mutable {
    ContinueSubmission(std::move(closure));
  });
  return Status::OK();
}

void OrcaService::ContinueSubmission(std::vector<std::string> closure) {
  while (true) {
    bool all_running = true;
    AppState* best = nullptr;
    double best_wait = std::numeric_limits<double>::infinity();
    for (const auto& member : closure) {
      AppState* state = FindApp(member);
      if (state == nullptr) continue;
      if (state->job.has_value()) continue;
      all_running = false;
      // The next target must have all of its dependencies satisfied
      // (i.e., submitted); among those, the lowest required sleeping time
      // wins (§4.4).
      bool satisfied = true;
      double wait = 0;
      for (const auto& edge : deps_.DependenciesOf(member)) {
        const AppState* dep = FindApp(edge.depends_on);
        if (dep == nullptr || !dep->job.has_value()) {
          satisfied = false;
          break;
        }
        wait = std::max(wait,
                        dep->submitted_at + edge.uptime_seconds - sim_->Now());
      }
      if (!satisfied) continue;
      if (wait < best_wait) {
        best_wait = wait;
        best = state;
      }
    }
    if (all_running || best == nullptr) return;
    if (best_wait > 0) {
      sim_->ScheduleAfter(best_wait,
                          [this, closure = std::move(closure)]() mutable {
                            ContinueSubmission(std::move(closure));
                          });
      return;
    }
    Status status = SubmitNow(best);
    if (!status.ok()) {
      ORCA_LOG(kError) << "submission of '" << best->config.id
                       << "' failed: " << status;
      return;
    }
  }
}

Status OrcaService::SubmitNow(AppState* state) {
  ORCA_ASSIGN_OR_RETURN(
      JobId job,
      sam_->SubmitJob(state->model, state->config.parameters, orca_id_));
  state->job = job;
  job_index_[job.value()] = state->config.id;
  state->submitted_at = sim_->Now();
  state->gc_pending = false;
  const runtime::JobInfo* info = sam_->FindJob(job);
  if (info != nullptr) graph_.AddJob(*info);
  RefreshSnapshot();
  DeliverJobEvent(*state, job, /*is_submission=*/true);
  return Status::OK();
}

void OrcaService::DeliverJobEvent(const AppState& state, JobId job,
                                  bool is_submission) {
  JobEventContext context;
  context.job = job;
  context.application = state.config.application_name;
  context.config_id = state.config.id;
  context.at = sim_->Now();
  std::vector<std::string> matched = scopes_.MatchedKeys(context,
                                                         is_submission);
  if (matched.empty()) return;
  Event event;
  event.type = is_submission ? Event::Type::kJobSubmission
                             : Event::Type::kJobCancellation;
  event.summary =
      StrFormat("job%s(%s)", is_submission ? "Submission" : "Cancellation",
                context.config_id.c_str());
  event.matched = std::move(matched);
  event.context = std::move(context);
  bus_.Publish(std::move(event));
}

Status OrcaService::CancelApplication(const std::string& config_id) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("CancelApplication"));
  return CancelApplicationImpl(config_id);
}

Status OrcaService::CancelApplicationImpl(const std::string& config_id) {
  AppState* state = FindApp(config_id);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("application config '%s' not registered",
                                      config_id.c_str()));
  }
  if (!state->job.has_value()) {
    return Status::FailedPrecondition(
        StrFormat("application '%s' is not running", config_id.c_str()));
  }
  // Starvation protection (§4.4): refuse to cancel an application that is
  // feeding another running application.
  for (const auto& dependent : deps_.DependentsOf(config_id)) {
    const AppState* dep_state = FindApp(dependent);
    if (dep_state != nullptr && dep_state->job.has_value()) {
      return Status::FailedPrecondition(StrFormat(
          "application '%s' feeds running application '%s'",
          config_id.c_str(), dependent.c_str()));
    }
  }
  JournalActuation(StrFormat("cancelApplication(%s)", config_id.c_str()));
  state->explicitly_submitted = false;
  return DoCancel(state);
}

Status OrcaService::DoCancel(AppState* state) {
  if (!state->job.has_value()) return Status::OK();
  JobId job = *state->job;
  ORCA_RETURN_NOT_OK(sam_->CancelJob(job));
  graph_.RemoveJob(job);
  state->job.reset();
  job_index_.erase(job.value());
  state->gc_pending = false;
  RefreshSnapshot();
  DeliverJobEvent(*state, job, /*is_submission=*/false);
  // Feeders of the cancelled application may now be unused; sweep them.
  for (const auto& edge : deps_.DependenciesOf(state->config.id)) {
    MaybeScheduleGc(edge.depends_on);
  }
  return Status::OK();
}

bool OrcaService::GcEligible(const AppState& state) const {
  // §4.4: an application is NOT automatically cancelled when (i) it is not
  // garbage collectable, (ii) it is being used by another running
  // application, or (iii) it was explicitly submitted by the ORCA logic.
  if (!state.job.has_value()) return false;
  if (!state.config.garbage_collectable) return false;
  if (state.explicitly_submitted) return false;
  for (const auto& dependent : deps_.DependentsOf(state.config.id)) {
    const AppState* dep_state = FindApp(dependent);
    if (dep_state != nullptr && dep_state->job.has_value()) return false;
  }
  return true;
}

void OrcaService::MaybeScheduleGc(const std::string& config_id) {
  AppState* state = FindApp(config_id);
  if (state == nullptr || state->gc_pending || !GcEligible(*state)) return;
  state->gc_pending = true;
  ORCA_LOG(kInfo) << "enqueued '" << config_id
                  << "' for cancellation (timeout "
                  << state->config.gc_timeout_seconds << "s)";
  state->gc_event = sim_->ScheduleAfter(
      state->config.gc_timeout_seconds, [this, config_id] {
        AppState* state = FindApp(config_id);
        if (state == nullptr || !state->gc_pending) return;
        state->gc_pending = false;
        if (!GcEligible(*state)) return;  // reused meanwhile
        Status status = DoCancel(state);
        if (!status.ok()) {
          ORCA_LOG(kError) << "garbage collection of '" << config_id
                           << "' failed: " << status;
        }
      });
  RefreshSnapshot();
}

Result<JobId> OrcaService::RunningJob(const std::string& config_id) const {
  const AppState* state = FindApp(config_id);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("application config '%s' not registered",
                                      config_id.c_str()));
  }
  if (!state->job.has_value()) {
    return Status::FailedPrecondition(
        StrFormat("application '%s' is not running", config_id.c_str()));
  }
  return *state->job;
}

bool OrcaService::IsRunning(const std::string& config_id) const {
  const AppState* state = FindApp(config_id);
  return state != nullptr && state->job.has_value();
}

bool OrcaService::IsGcPending(const std::string& config_id) const {
  const AppState* state = FindApp(config_id);
  return state != nullptr && state->gc_pending;
}

// --- Direct actuations -----------------------------------------------------

Status OrcaService::CancelJob(JobId job) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("CancelJob"));
  return CancelJobImpl(job);
}

Status OrcaService::CancelJobImpl(JobId job) {
  AppState* state = FindAppByJob(job);
  if (state == nullptr) {
    // §3: acting on jobs the ORCA logic did not start is a runtime error.
    return Status::PermissionDenied(StrFormat(
        "job %lld was not started through this ORCA service",
        static_cast<long long>(job.value())));
  }
  JournalActuation(StrFormat("cancelJob(%lld)",
                             static_cast<long long>(job.value())));
  state->explicitly_submitted = false;
  return DoCancel(state);
}

Status OrcaService::RestartPe(PeId pe) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("RestartPe"));
  return RestartPeImpl(pe);
}

Status OrcaService::RestartPeImpl(PeId pe) {
  if (!graph_.HostOfPe(pe).ok()) {
    return Status::PermissionDenied(StrFormat(
        "PE %lld does not belong to a job managed by this ORCA service",
        static_cast<long long>(pe.value())));
  }
  JournalActuation(StrFormat("restartPe(%lld)",
                             static_cast<long long>(pe.value())));
  return sam_->RestartPe(pe);
}

Status OrcaService::StopPe(PeId pe) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("StopPe"));
  return StopPeImpl(pe);
}

Status OrcaService::StopPeImpl(PeId pe) {
  if (!graph_.HostOfPe(pe).ok()) {
    return Status::PermissionDenied(StrFormat(
        "PE %lld does not belong to a job managed by this ORCA service",
        static_cast<long long>(pe.value())));
  }
  JournalActuation(StrFormat("stopPe(%lld)",
                             static_cast<long long>(pe.value())));
  return sam_->StopPe(pe);
}

Status OrcaService::SetExclusiveHostPools(const std::string& config_id) {
  ORCA_RETURN_NOT_OK(GuardWorkerEntry("SetExclusiveHostPools"));
  return SetExclusiveHostPoolsImpl(config_id);
}

Status OrcaService::SetExclusiveHostPoolsImpl(const std::string& config_id) {
  AppState* state = FindApp(config_id);
  if (state == nullptr) {
    return Status::NotFound(StrFormat("application config '%s' not registered",
                                      config_id.c_str()));
  }
  if (state->job.has_value()) {
    // §4.3: the host pool configuration change must occur before the
    // application is submitted.
    return Status::FailedPrecondition(StrFormat(
        "application '%s' already submitted; exclusive pools must be "
        "configured before submission",
        config_id.c_str()));
  }
  JournalActuation(
      StrFormat("setExclusiveHostPools(%s)", config_id.c_str()));
  state->model.MakeHostPoolsExclusive();
  return Status::OK();
}

void OrcaService::SetMetricPullPeriod(double seconds) {
  if (!GuardWorkerEntry("SetMetricPullPeriod").ok()) return;
  SetMetricPullPeriodImpl(seconds);
}

void OrcaService::SetMetricPullPeriodImpl(double seconds) {
  JournalActuation(StrFormat("setMetricPullPeriod(%g)", seconds));
  pull_task_.set_period(seconds);
  if (metric_period_listener_) metric_period_listener_(seconds);
  RefreshSnapshot();
}

void OrcaService::PullMetricsNow() {
  if (!GuardWorkerEntry("PullMetricsNow").ok()) return;
  PullMetricsRound();
}

// --- Metric pull -------------------------------------------------------------

void OrcaService::PullMetricsRound() {
  // Each pull round first marshals any actuations worker-thread handlers
  // staged since the last round — the steady-state heartbeat that applies
  // OrcaContext batches under wall-clock dispatch.
  ApplyStagedActuations();
  if (logic_ == nullptr) return;
  std::vector<JobId> jobs = ManagedJobsInPullOrder();
  if (jobs.empty()) return;
  PublishSnapshotRound(srm_->QueryMetrics(jobs));
}

std::vector<JobId> OrcaService::ManagedJobsInPullOrder() const {
  std::vector<JobId> jobs;
  for (const auto& [id, state] : apps_) {
    if (state.job.has_value()) jobs.push_back(*state.job);
  }
  return jobs;
}

void OrcaService::PublishSnapshotRound(
    const runtime::MetricsSnapshot& snapshot) {
  // One epoch per SRM query round: the logical clock that lets handlers
  // correlate metrics measured together (§4.2). The whole snapshot is
  // batched through the registry in one pass.
  int64_t epoch = ++metric_epoch_;
  // Staged deliveries of this round's events read the clock as of the
  // round (graph/app state was already refreshed by whatever mutated it).
  TouchStagedClock();
  bus_.PublishMetricsSnapshot(snapshot, epoch, scopes_, graph_);
}

// --- Remote event plane ------------------------------------------------------

void OrcaService::IngestPeFailure(const runtime::PeFailureNotice& notice) {
  if (!GuardWorkerEntry("IngestPeFailure").ok()) return;
  OnPeFailure(notice);
}

void OrcaService::IngestMetricsSnapshot(
    const runtime::MetricsSnapshot& snapshot) {
  if (!GuardWorkerEntry("IngestMetricsSnapshot").ok()) return;
  // Mirrors PullMetricsRound step for step (staged drain, then the
  // publication round) so a transported snapshot advances the same
  // logical clocks at the same points as an in-process pull.
  ApplyStagedActuations();
  if (logic_ == nullptr) return;
  PublishSnapshotRound(snapshot);
}

// --- Failure push ---------------------------------------------------------

void OrcaService::OnPeFailure(const runtime::PeFailureNotice& notice) {
  if (logic_ == nullptr) return;
  PeFailureContext context;
  context.job = notice.job;
  context.application = notice.app_name;
  context.pe = notice.pe;
  context.host = notice.host;
  context.reason = notice.reason;
  context.detected_at = notice.detected_at;
  context.operators = notice.operators;
  // The failure epoch groups notifications caused by the same physical
  // incident: it advances when the (reason, detection timestamp) pair
  // changes (§4.2).
  if (notice.reason != last_failure_reason_ ||
      notice.detected_at != last_failure_detected_at_) {
    ++failure_epoch_;
    last_failure_reason_ = notice.reason;
    last_failure_detected_at_ = notice.detected_at;
  }
  context.epoch = failure_epoch_;

  std::vector<std::string> matched = scopes_.MatchedKeys(context, graph_);
  if (matched.empty()) return;
  TouchStagedClock();
  Event event;
  event.type = Event::Type::kPeFailure;
  event.summary = StrFormat("peFailure(pe%lld, %s)",
                            static_cast<long long>(context.pe.value()),
                            context.reason.c_str());
  event.matched = std::move(matched);
  event.context = std::move(context);
  bus_.Publish(std::move(event));
}

// --- Timers -----------------------------------------------------------------

TimerId OrcaService::CreateTimer(double delay_seconds, const std::string& name,
                                 bool recurring, double period_seconds) {
  if (!GuardWorkerEntry("CreateTimer").ok()) return TimerId(0);
  TimerId id = AllocateTimerId();
  ScheduleTimerImpl(id, delay_seconds, name, recurring, period_seconds);
  return id;
}

void OrcaService::ScheduleTimerImpl(TimerId id, double delay_seconds,
                                    const std::string& name, bool recurring,
                                    double period_seconds) {
  TimerState timer;
  timer.id = id;
  timer.name = name;
  timer.recurring = recurring;
  timer.period = period_seconds > 0 ? period_seconds : delay_seconds;
  timer.event = sim_->ScheduleAfter(delay_seconds,
                                    [this, id] { FireTimer(id); });
  timers_.emplace(id, std::move(timer));
}

void OrcaService::FireTimer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end() || logic_ == nullptr) return;
  TimerContext context;
  context.id = id;
  context.name = it->second.name;
  context.at = sim_->Now();
  TouchStagedClock();
  Event event;
  event.type = Event::Type::kTimer;
  event.summary = StrFormat("timer(%s)", context.name.c_str());
  event.context = std::move(context);
  bus_.Publish(std::move(event));
  if (it->second.recurring) {
    it->second.event = sim_->ScheduleAfter(it->second.period,
                                           [this, id] { FireTimer(id); });
  } else {
    timers_.erase(it);
  }
}

void OrcaService::CancelTimer(TimerId timer) {
  if (!GuardWorkerEntry("CancelTimer").ok()) return;
  CancelTimerImpl(timer);
}

void OrcaService::CancelTimerImpl(TimerId timer) {
  auto it = timers_.find(timer);
  if (it == timers_.end()) return;
  sim_->Cancel(it->second.event);
  timers_.erase(it);
}

// --- User events -------------------------------------------------------------

void OrcaService::InjectUserEvent(
    const std::string& name, std::map<std::string, std::string> attributes) {
  if (!GuardWorkerEntry("InjectUserEvent").ok()) return;
  InjectUserEventImpl(name, std::move(attributes));
}

void OrcaService::InjectUserEventImpl(
    const std::string& name, std::map<std::string, std::string> attributes) {
  if (logic_ == nullptr) return;
  UserEventContext context;
  context.name = name;
  context.attributes = std::move(attributes);
  context.at = sim_->Now();
  std::vector<std::string> matched = scopes_.MatchedKeys(context);
  if (matched.empty()) return;
  TouchStagedClock();
  Event event;
  event.type = Event::Type::kUser;
  event.summary = StrFormat("userEvent(%s)", context.name.c_str());
  event.matched = std::move(matched);
  event.context = std::move(context);
  bus_.Publish(std::move(event));
}

void OrcaService::JournalActuation(const std::string& description) {
  bus_.JournalActuation(description);
}

Status OrcaService::GuardWorkerEntry(const char* method) const {
  // Logic running under the wall-clock ThreadPoolExecutor shares the
  // registry/graph/app state with the simulation thread; a handler on a
  // worker thread calling back into the service would silently corrupt
  // it. The per-delivery OrcaContext is the supported path (it stages
  // such calls for the simulation thread) — direct entry is refused, in
  // every build mode.
  if (!bus_.InWallClockHandler()) return Status::OK();
  Status status = Status::FailedPrecondition(StrFormat(
      "OrcaService::%s called directly from a worker-thread handler; use "
      "the OrcaContext passed to the handler (its calls are staged and "
      "applied on the simulation thread at commit)",
      method));
  ORCA_LOG(kError) << status;
  return status;
}

}  // namespace orcastream::orca
