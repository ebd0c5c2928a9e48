#include "src/runtime/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_set>

#include "src/chaos/chaos.h"
#include "src/dsl/builtins.h"
#include "src/support/logging.h"
#include "src/vm/bytecode.h"

namespace osguard {
namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Mirrors helper_env.cc's NumericArg byte-for-byte: a worker-side type error
// must render the exact report message the serial engine would have emitted.
Result<double> NumericArg(const Value& v, const char* what) {
  if (!v.is_numeric() && v.type() != ValueType::kBool) {
    return InvalidArgumentError(std::string(what) + " is not numeric: " + v.ToString());
  }
  return v.NumericOr(0.0);
}

bool IsStoreReadHelper(HelperId id) {
  switch (id) {
    case HelperId::kLoad:
    case HelperId::kLoadOr:
    case HelperId::kExists:
    case HelperId::kCount:
    case HelperId::kSum:
    case HelperId::kMean:
    case HelperId::kMinAgg:
    case HelperId::kMaxAgg:
    case HelperId::kStdDev:
    case HelperId::kRate:
    case HelperId::kNewest:
    case HelperId::kOldest:
    case HelperId::kQuantile:
      return true;
    default:
      return false;
  }
}

bool IsStoreWriteHelper(HelperId id) {
  return id == HelperId::kSave || id == HelperId::kIncr || id == HelperId::kObserve;
}

// engine.shard.* exports, in write order (ExportTelemetry); the per-shard
// evals / ring_hwm pairs follow.
constexpr const char* kShardExportKeys[] = {
    "engine.shard.count",
    "engine.shard.batches",
    "engine.shard.parallel_evals",
    "engine.shard.serial_evals",
    "engine.shard.merge_ns",
    "engine.shard.watchdog_timeouts",
    "engine.shard.stolen_evals",
    "engine.shard.respawns",
    "engine.shard.quarantine_evals",
    "engine.shard.readmissions",
    "engine.shard.ring_high_water",
};

// Store keys the engine infrastructure itself publishes at evaluation and
// callout boundaries (supervisor exports, dispatcher latency, tier/uptime/
// shard counters). A rule reading one of these observes engine-internal
// write timing, so it is pinned to its exact serial slot.
bool IsInfraKey(std::string_view key) {
  return key.starts_with("supervisor.") || key.starts_with("actions.") ||
         key.starts_with("engine.") || key.starts_with("monitor.");
}

// Static store-access footprint of one program.
struct ProgramScan {
  bool dynamic_read = false;   // store/aggregate read with an unresolved key
  bool dynamic_write = false;  // SAVE/INCR/OBSERVE with an unresolved key
  std::vector<KeyId> reads;    // slot ids read via kCallKeyed
  std::vector<KeyId> writes;   // slot ids written via kCallKeyed
};

void ScanProgram(const Program& program, ProgramScan* out) {
  for (const Insn& insn : program.insns) {
    if (insn.op != Op::kCall && insn.op != Op::kCallKeyed) {
      continue;
    }
    const HelperId id = static_cast<HelperId>(insn.imm);
    const bool keyed = insn.op == Op::kCallKeyed;
    if (IsStoreWriteHelper(id)) {
      if (keyed) {
        out->writes.push_back(static_cast<KeyId>(static_cast<uint32_t>(insn.aux)));
      } else {
        out->dynamic_write = true;
      }
    } else if (IsStoreReadHelper(id)) {
      if (keyed) {
        out->reads.push_back(static_cast<KeyId>(static_cast<uint32_t>(insn.aux)));
      } else {
        out->dynamic_read = true;
      }
    }
    // Math, NOW, and action helpers carry no store key.
  }
}

}  // namespace

// --- SnapshotHelperEnv ---

Result<Value> SnapshotHelperEnv::CallHelper(HelperId id, std::span<const Value> args) {
  // Reaches here for math helpers, NOW(), and nothing else in practice: rules
  // with unresolved store keys are classified serial by the plan, and action
  // helpers are rejected in rules by the verifier. The fallback env has no
  // chaos engine attached, matching the serial env's unarmed-site behavior
  // (an *armed* helper_fail site forces the whole callout serial).
  return fallback_.CallHelper(id, args);
}

Result<Value> SnapshotHelperEnv::CallHelperKeyed(HelperId id, uint32_t slot,
                                                 std::span<const Value> args) {
  if (slot >= view_.key_count()) {
    // Unknown slot (fuzzed or stale program): the serial env takes the string
    // slow path; its locked reads are safe during the quiescent drain.
    return fallback_.CallHelperKeyed(id, slot, args);
  }
  switch (id) {
    case HelperId::kLoad:
      return view_.LoadOr(slot, Value());  // nil when missing
    case HelperId::kLoadOr:
      return view_.LoadOr(slot, args[1]);
    case HelperId::kExists:
      return Value(view_.Contains(slot));
    case HelperId::kQuantile: {
      OSGUARD_ASSIGN_OR_RETURN(double q, NumericArg(args[1], "QUANTILE q"));
      if (q < 0.0 || q > 1.0) {
        return InvalidArgumentError("QUANTILE q must be in [0, 1]");
      }
      OSGUARD_ASSIGN_OR_RETURN(double window, NumericArg(args[2], "QUANTILE window"));
      auto result =
          view_.AggregateQuantile(slot, q, static_cast<Duration>(window), now());
      if (!result.ok()) {
        return Value();  // nil on empty window
      }
      return Value(result.value());
    }
    case HelperId::kCount:
    case HelperId::kSum:
    case HelperId::kMean:
    case HelperId::kMinAgg:
    case HelperId::kMaxAgg:
    case HelperId::kStdDev:
    case HelperId::kRate:
    case HelperId::kNewest:
    case HelperId::kOldest: {
      OSGUARD_ASSIGN_OR_RETURN(double window, NumericArg(args[1], "aggregate window"));
      auto result = view_.Aggregate(slot, AggKindForHelper(id),
                                    static_cast<Duration>(window), now());
      if (!result.ok()) {
        return Value();  // nil on empty window / missing series
      }
      return Value(result.value());
    }
    default:
      // SAVE/INCR/OBSERVE cannot appear in a rule (verifier) and everything
      // else is unkeyed; a mutation from a worker would corrupt the drain,
      // so fail loudly instead of delegating.
      return InternalError("mutating helper on the sharded read-only path");
  }
}

// --- ShardedEngine ---

ShardedEngine::ShardedEngine(Engine* engine, ShardingOptions options)
    : engine_(engine),
      options_(options),
      measure_wall_(engine->options_.measure_wall_time) {
  size_t n = options_.shards;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw > 1 ? hw - 1 : 1;
  }
  n = std::clamp<size_t>(n, 1, 16);
  if (options_.ring_capacity == 0) {
    // A zero-capacity ring could never admit a task; the batch path would
    // flush forever without progress. Reject at construction (the ring
    // itself rounds any valid capacity up to a power of two, minimum 2).
    OSGUARD_LOG(kWarning) << "sharding ring_capacity 0 is invalid; using minimum of 2";
    options_.ring_capacity = 2;
  }
  options_.probe_every = std::max<size_t>(options_.probe_every, 1);
  options_.probe_batches = std::max<size_t>(options_.probe_batches, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
  }
  for (size_t i = 0; i < n; ++i) {
    Shard* shard = shards_[i].get();
    SpscRing<EvalTask*>* ring = shard->ring.get();
    std::shared_ptr<WorkerCtl> ctl = shard->ctl;
    shard->thread = std::thread([this, shard, ring, ctl] { WorkerLoop(shard, ring, ctl); });
  }
  if (options_.telemetry) {
    // The count is written at the first boundary; the counters only once
    // they leave zero.
    ExportTable& exports = engine_->exports_;
    for (const char* key : kShardExportKeys) {
      export_handles_.push_back(exports.Add(key, key != kShardExportKeys[0]));
    }
    for (size_t i = 0; i < n; ++i) {
      const std::string prefix = "engine.shard." + std::to_string(i);
      export_handles_.push_back(exports.Add(prefix + ".evals", /*already_published=*/true));
      export_handles_.push_back(exports.Add(prefix + ".ring_hwm", /*already_published=*/true));
    }
    engine_->sharded_ = this;
  }
  OSGUARD_LOG(kDebug) << "sharded engine up: " << n << " shard worker(s), ring capacity "
                      << shards_[0]->ring->capacity();
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
    doorbell_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // Retired workers exit on stop_ too (a chaos-stalled one wakes within a
  // sleep slice); join them before the abandoned batches they point into die.
  for (RetiredWorker& worker : retired_) {
    if (worker.thread.joinable()) {
      worker.thread.join();
    }
  }
  if (engine_->sharded_ == this) {
    engine_->sharded_ = nullptr;
    for (const ExportTable::Handle handle : export_handles_) {
      engine_->exports_.Remove(handle);
    }
  }
}

void ShardedEngine::AdvanceTo(SimTime t) {
  Engine& e = *engine_;
  ReapRetired();
  RefreshPlan();
  if (GlobalSerialRequired()) {
    if (!e.timers_.empty() && e.timers_.top().due <= t) {
      ++stats_.serial_callouts;
    }
    e.AdvanceTo(t);
    return;
  }
  e.ApplyPendingRollbacks();
  // Pop due entries in the serial (deadline, tiebreak) order. Entries that
  // share a deadline batch into one ring-dispatched wave; a deadline
  // boundary flushes first so an entry never merges ahead of an earlier
  // deadline's side effects. Re-arms consume next_tiebreak_ at the entry's
  // exact pop position, so the heap order — and every future callout — is
  // byte-identical to the serial loop's.
  bool wave_open = false;
  SimTime wave_due = 0;
  while (!e.timers_.empty() && e.timers_.top().due <= t) {
    Engine::TimerEntry entry = e.timers_.top();
    e.timers_.pop();
    Engine::Monitor* monitor = e.ResolveEntry(entry);
    if (monitor == nullptr) {
      continue;  // unloaded or replaced since arming
    }
    if (wave_open && entry.due != wave_due) {
      FlushBatch();
      wave_open = false;
    }
    const CompiledTrigger& trigger = monitor->guardrail.triggers[entry.trigger_index];
    e.now_ = std::max(e.now_, entry.due);
    if (monitor->enabled) {
      ++e.stats_.timer_firings;
      DispatchMonitor(monitor, entry.due);
      wave_open = true;
      wave_due = entry.due;
    }
    const SimTime next = entry.due + trigger.interval;
    if (trigger.stop == 0 || next <= trigger.stop) {
      e.timers_.push(Engine::TimerEntry{next, e.next_tiebreak_++, entry.monitor_name,
                                        entry.trigger_index, entry.generation});
    }
    if (!e.pending_rollbacks_.empty()) {
      // Rollback sources (probation deploys) are serial-classified, so the
      // queue only fills synchronously, right after an inline dispatch —
      // apply it here, before the doomed version's next entry resolves,
      // exactly as the serial loop does. The swap bumps the topology, so
      // re-plan; the replacement spec may even demand global serial.
      FlushBatch();
      wave_open = false;
      e.ApplyPendingRollbacks();
      RefreshPlan();
      if (GlobalSerialRequired()) {
        ++stats_.serial_callouts;
        e.AdvanceTo(t);  // finishes the remaining entries + the boundary
        return;
      }
    }
  }
  FlushBatch();
  e.now_ = std::max(e.now_, t);
  e.FinishCallout();
}

void ShardedEngine::WorkerLoop(Shard* shard, SpscRing<EvalTask*>* ring,
                               std::shared_ptr<WorkerCtl> ctl) {
  // Per-worker execution state: the Vm is not thread-safe, the snapshot
  // env's view/envelope are worker-local by design, and the NativeExec's
  // scratch buffers are single-threaded (one per worker, bound to this
  // worker's env). `ring` is passed explicitly (not shard->ring): after a
  // respawn this worker keeps draining its *old* ring, whose tasks are all
  // claimed by then.
  Vm vm;
  SnapshotHelperEnv env(engine_->store_);
  NativeExec nexec(env.fallback());
  uint64_t seen_doorbell = doorbell_.load(std::memory_order_acquire);
  while (true) {
    if (stop_.load(std::memory_order_acquire) ||
        ctl->exit.load(std::memory_order_acquire) ||
        ctl->die.load(std::memory_order_acquire)) {
      break;
    }
    const int64_t stall_until = ctl->stall_until_ns.load(std::memory_order_acquire);
    if (stall_until != 0) {
      if (WallNowNs() < stall_until) {
        // Injected stall: sleep in short slices so exit/die/stop stay
        // responsive (the watchdog will steal this worker's tasks meanwhile).
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      ctl->stall_until_ns.store(0, std::memory_order_release);
    }
    EvalTask* task = nullptr;
    if (ring->TryPop(&task)) {
      if (!task->claimed.exchange(true, std::memory_order_acq_rel)) {
        shard->evals.fetch_add(1, std::memory_order_relaxed);
        ExecuteTask(*task, vm, env, nexec);
      }
      continue;
    }
    // Brief yield-spin bridges the gap between a flush's ring publishes and
    // its doorbell, then block until the next batch (workers cost nothing
    // between callouts).
    bool got = false;
    for (int spin = 0; spin < 64 && !got; ++spin) {
      std::this_thread::yield();
      got = ring->TryPop(&task);
    }
    if (got) {
      if (!task->claimed.exchange(true, std::memory_order_acq_rel)) {
        shard->evals.fetch_add(1, std::memory_order_relaxed);
        ExecuteTask(*task, vm, env, nexec);
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             ctl->exit.load(std::memory_order_acquire) ||
             ctl->die.load(std::memory_order_acquire) ||
             doorbell_.load(std::memory_order_acquire) != seen_doorbell;
    });
    seen_doorbell = doorbell_.load(std::memory_order_acquire);
  }
  ctl->exited.store(true, std::memory_order_release);
}

void ShardedEngine::ExecuteTask(EvalTask& task, Vm& vm, SnapshotHelperEnv& env,
                                NativeExec& nexec) {
  Engine::Monitor& monitor = *task.monitor;
  env.Prepare(monitor.guardrail.name, monitor.guardrail.meta.severity, task.t,
              task.key_count);
  ExecBudget budget;
  const ExecBudget* budget_ptr = nullptr;
  if (task.prep.budget_steps > 0 || task.prep.budget_deadline_ns > 0) {
    budget.max_steps = static_cast<int64_t>(task.prep.budget_steps);
    budget.deadline_wall_ns = task.prep.budget_deadline_ns;
    budget_ptr = &budget;
  }
  const int64_t start = measure_wall_ ? WallNowNs() : 0;
  if (task.prep.injected_budget) {
    task.result = Result<Value>(ResourceExhaustedError(
        "rule of guardrail '" + monitor.guardrail.name +
        "' aborted by chaos site vm.budget_exhaust"));
    task.steps = 0;
  } else {
    const int64_t steps_before =
        monitor.guard != nullptr ? vm.stats().insns_executed : 0;
    // The coordinator picked the tier at Begin time (task.native_fn); the
    // native body's helper escapes route through the snapshot env's
    // chaos-free fallback and update the same Vm stats the interpreter
    // would, so steps/results/faults stay tier- and thread-invariant.
    task.result = task.native_fn != nullptr
                      ? nexec.Run(task.native_fn, monitor.guardrail.rule,
                                  task.native_consts, budget_ptr,
                                  &vm.mutable_stats())
                      : vm.Execute(monitor.guardrail.rule, env, budget_ptr);
    task.steps =
        monitor.guard != nullptr ? vm.stats().insns_executed - steps_before : 0;
  }
  task.wall_ns = measure_wall_ ? WallNowNs() - start : 0;
  task.done.store(true, std::memory_order_release);
}

void ShardedEngine::DrawWorkerChaos() {
  // The worker-fault sites depend on the watchdog for containment: without a
  // deadline a dead worker would strand the barrier forever, so the draws
  // are skipped entirely when it is disabled (documented in chaos.h).
  const ChaosEngine* chaos = engine_->chaos_;
  if (chaos == nullptr || options_.watchdog_ns <= 0) {
    return;
  }
  if (chaos != chaos_seen_) {
    // AttachChaos may happen any time after construction (and Reboot swaps
    // engines); register lazily and re-register if the engine changed.
    chaos_seen_ = chaos;
    ChaosEngine* mutable_chaos = engine_->chaos_;
    stall_site_ = mutable_chaos->RegisterSite(kChaosSiteShardWorkerStall);
    die_site_ = mutable_chaos->RegisterSite(kChaosSiteShardWorkerDie);
  }
  // One draw per involved shard per flush, shard-index order: the sequence
  // is a pure function of (seed, flush history), independent of worker
  // timing. The flags are set before the tasks are published, but a worker
  // already spinning may claim a task first — chaos perturbs scheduling on a
  // best-effort basis, and state identity holds either way.
  ChaosEngine* mutable_chaos = engine_->chaos_;
  const SimTime now = engine_->now_;
  for (auto& shard : shards_) {
    if (shard->inflight == 0) {
      continue;
    }
    if (die_site_ != kInvalidChaosSite && mutable_chaos->ShouldInject(die_site_, now)) {
      shard->ctl->die.store(true, std::memory_order_release);
      continue;  // a dead worker cannot also stall
    }
    if (stall_site_ != kInvalidChaosSite) {
      if (const FaultDecision d = mutable_chaos->Query(stall_site_, now)) {
        const double frac = (d.value > 0.0 && d.value <= 1.0) ? d.value : 1.0;
        const int64_t stall_ns =
            static_cast<int64_t>(static_cast<double>(options_.watchdog_ns) * 4.0 * frac);
        shard->ctl->stall_until_ns.store(WallNowNs() + stall_ns,
                                         std::memory_order_release);
      }
    }
  }
}

void ShardedEngine::RespawnWorker(Shard& shard) {
  // Retire: the old worker keeps its ring (every task in it is claimed by
  // now, so it can only pop-and-skip) and exits at the next flag check.
  shard.ctl->exit.store(true, std::memory_order_release);
  retired_.push_back(
      RetiredWorker{std::move(shard.thread), std::move(shard.ring), shard.ctl});
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    doorbell_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  // Respawn on a fresh ring + control block, quarantined until it proves
  // itself over clean probe flushes.
  shard.ring = std::make_unique<SpscRing<EvalTask*>>(options_.ring_capacity);
  shard.ctl = std::make_shared<WorkerCtl>();
  Shard* sp = &shard;
  SpscRing<EvalTask*>* ring = shard.ring.get();
  std::shared_ptr<WorkerCtl> ctl = shard.ctl;
  shard.thread = std::thread([this, sp, ring, ctl] { WorkerLoop(sp, ring, ctl); });
  shard.quarantined = true;
  shard.clean_probes = 0;
  shard.probe_clock = 0;
  ++shard.respawns;
  ++stats_.worker_respawns;
  OSGUARD_LOG(kDebug) << "shard worker respawned (respawn #" << shard.respawns
                      << "); shard quarantined pending " << options_.probe_batches
                      << " clean probe(s)";
}

void ShardedEngine::ReapRetired() {
  if (retired_.empty()) {
    return;
  }
  for (auto it = retired_.begin(); it != retired_.end();) {
    if (it->ctl->exited.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) {
        it->thread.join();
      }
      it = retired_.erase(it);
    } else {
      ++it;
    }
  }
  if (retired_.empty()) {
    // No stale consumer can pop an abandoned task pointer anymore.
    abandoned_.clear();
  }
}

void ShardedEngine::RefreshPlan() {
  if (plan_valid_ && plan_version_ == engine_->topology_version_) {
    return;
  }
  plan_.clear();
  plan_version_ = engine_->topology_version_;
  plan_valid_ = true;
  plan_global_serial_ = false;

  // Key-scoped ONCHANGE hazard: collect the watched-key set (every store key
  // some loaded ONCHANGE monitor observes) and pin only the monitors whose
  // static store traffic can touch it, instead of dropping the whole callout
  // to serial whenever a watcher is loaded. The one unscopeable case is a
  // watched *infra* key — the engine publishes those keys at Begin/Finish
  // and boundary time, a schedule the batch pipeline compresses, so the
  // cascade would fire at moments only the serial engine reproduces.
  std::unordered_set<KeyId> watched;
  for (size_t id = 0; id < engine_->watch_hooks_.size(); ++id) {
    if (engine_->watch_hooks_[id].empty()) {
      continue;
    }
    if (IsInfraKey(engine_->store_->KeyName(static_cast<KeyId>(id)))) {
      plan_global_serial_ = true;
      return;
    }
    watched.insert(static_cast<KeyId>(id));
  }

  // Static write closure of this topology's action programs. ONCHANGE
  // cascades only ever run monitor actions, so this also bounds everything a
  // cascade can write mid-callout. An action writing a key it only names at
  // runtime defeats the analysis: global serial.
  struct MonitorScan {
    Engine::Monitor* monitor = nullptr;
    ProgramScan rule;
    ProgramScan action;
  };
  std::vector<MonitorScan> scans;
  scans.reserve(engine_->monitors_.size());
  std::unordered_set<KeyId> action_writes;
  for (const auto& [name, monitor] : engine_->monitors_) {
    MonitorScan ms;
    ms.monitor = monitor.get();
    ScanProgram(monitor->guardrail.rule, &ms.rule);
    ScanProgram(monitor->guardrail.action, &ms.action);
    if (!monitor->guardrail.on_satisfy.empty()) {
      ScanProgram(monitor->guardrail.on_satisfy, &ms.action);
    }
    if (ms.action.dynamic_write) {
      plan_global_serial_ = true;
      return;
    }
    action_writes.insert(ms.action.writes.begin(), ms.action.writes.end());
    scans.push_back(std::move(ms));
  }

  // Per-monitor classification + round-robin partition of the parallel set.
  // monitors_ is an ordered map, so the partition is deterministic in the
  // same sorted-name order the function-hook index fires in.
  uint32_t next_shard = 0;
  size_t parallel = 0;
  size_t serial = 0;
  for (MonitorScan& ms : scans) {
    Engine::Monitor* const monitor = ms.monitor;
    bool is_serial =
        ms.rule.dynamic_read || ms.rule.dynamic_write || !ms.rule.writes.empty();
    if (!is_serial && monitor->guard != nullptr &&
        monitor->guard->config.budget_ns > 0) {
      // Wall-clock budgets deadline against the serial engine's own clock
      // reads; scheduling them off-thread would change what the deadline
      // means. Step budgets parallelize fine (the interpreter is exact).
      is_serial = true;
    }
    if (!is_serial && monitor->guard != nullptr &&
        (monitor->guard->in_probation || monitor->rollback_snapshot != nullptr)) {
      // Probation deploys can queue a bit-exact rollback from Begin or
      // Finish; keeping them inline makes the queue fill synchronously, so
      // the timer path can apply it between entries exactly like the serial
      // loop — and a promoted-then-probated monitor stays on the
      // interpreter at its serial position. Probation starts at Load (a
      // topology bump), so the plan can never miss its onset; after it ends
      // the monitor stays conservatively serial until the next topology
      // change.
      is_serial = true;
    }
    if (!is_serial) {
      for (KeyId key : ms.rule.reads) {
        if (action_writes.count(key) != 0 || IsInfraKey(engine_->store_->KeyName(key))) {
          is_serial = true;
          break;
        }
      }
    }
    if (!is_serial && !watched.empty()) {
      // A monitor whose actions write a watched key must run inside an
      // inline Evaluate: the serial protocol defers the cascade while
      // `evaluating_` and drains it after the outermost eval, whereas a
      // batched merge runs Finish outside `evaluating_`, where the write
      // would fire the watcher mid-action-program.
      for (KeyId key : ms.action.writes) {
        if (watched.count(key) != 0) {
          is_serial = true;
          break;
        }
      }
    }
    MonitorPlan mp;
    mp.serial = is_serial;
    if (!is_serial) {
      mp.shard = next_shard;
      next_shard = (next_shard + 1) % static_cast<uint32_t>(shards_.size());
      if (monitor->guard != nullptr) {
        monitor->guard->shard_id = mp.shard;
      }
      ++parallel;
    } else {
      ++serial;
    }
    plan_.emplace(monitor, mp);
  }
  OSGUARD_LOG(kDebug) << "sharded plan v" << plan_version_ << ": " << parallel
                      << " parallel / " << serial << " serial monitor(s) across "
                      << shards_.size() << " shard(s)";
}

bool ShardedEngine::GlobalSerialRequired() const {
  if (plan_global_serial_) {
    return true;
  }
  // An armed runtime.helper_fail site draws per helper call, in call order —
  // an ordering only the serial engine reproduces. Arming is runtime state
  // (chaos blocks apply at spec load, Arm() any time), so check per callout.
  const ChaosEngine* chaos = engine_->chaos_;
  if (chaos != nullptr) {
    const ChaosSiteId site = chaos->FindSite(kChaosSiteHelperFail);
    if (site != kInvalidChaosSite && chaos->PlanFor(site).mode != FaultMode::kOff) {
      return true;
    }
  }
  return false;
}

void ShardedEngine::SerialCallout(const std::vector<Engine::Monitor*>& hooked) {
  Engine& e = *engine_;
  for (Engine::Monitor* monitor : hooked) {
    if (monitor->enabled) {
      ++e.stats_.function_firings;
      e.Evaluate(*monitor, e.now_);
    }
  }
  e.FinishCallout();
}

void ShardedEngine::OnFunctionCall(std::string_view function, SimTime t) {
  Engine& e = *engine_;
  e.now_ = std::max(e.now_, t);
  ReapRetired();
  if (e.function_hooks_.empty()) {
    return;
  }
  if (e.chaos_ != nullptr) {
    if (e.chaos_->ShouldInject(e.callout_drop_site_, t)) {
      ++e.stats_.callouts_dropped;
      return;
    }
    if (const FaultDecision delay = e.chaos_->Query(e.callout_delay_site_, t)) {
      ++e.stats_.callouts_delayed;
      t += delay.latency;
      e.now_ = std::max(e.now_, t);
    }
  }
  auto it = e.function_hooks_.find(function);
  if (it == e.function_hooks_.end()) {
    return;
  }
  RefreshPlan();
  if (GlobalSerialRequired()) {
    ++stats_.serial_callouts;
    SerialCallout(it->second);
    return;
  }

  const SimTime now = e.now_;
  for (Engine::Monitor* monitor : it->second) {
    if (!monitor->enabled) {
      continue;
    }
    ++e.stats_.function_firings;
    DispatchMonitor(monitor, now);
  }
  FlushBatch();
  e.FinishCallout();
}

void ShardedEngine::DispatchMonitor(Engine::Monitor* monitor, SimTime t) {
  Engine& e = *engine_;
  const MonitorPlan& mp = plan_.at(monitor);
  if (mp.serial) {
    // Order-sensitive monitor: everything queued ahead of it completes
    // first, then it runs inline at its exact serial position.
    FlushBatch();
    ++stats_.serial_evals;
    e.Evaluate(*monitor, t);
    return;
  }
  Shard& shard = *shards_[mp.shard];
  if (shard.quarantined && (++shard.probe_clock % options_.probe_every) != 0) {
    // Quarantined shard: evaluate inline at the exact serial position
    // (identical to the mp.serial path, so identity is untouched); every
    // probe_every-th opportunity falls through as a probe of the fresh
    // worker instead.
    FlushBatch();
    ++stats_.quarantine_evals;
    e.Evaluate(*monitor, t);
    return;
  }
  if (shard.inflight == shard.ring->capacity() ||
      std::find(in_batch_.begin(), in_batch_.end(), monitor) != in_batch_.end()) {
    // Backpressure, or the same monitor twice in one callout (its second
    // Begin must observe its first Finish).
    FlushBatch();
  }
  if (e.persist_ != nullptr) {
    e.persist_->MarkDirty();
  }
  const Engine::RuleEvalPrep prep = e.BeginRuleEval(*monitor, t);
  if (prep.skip) {
    return;  // gated off / rollback queued — exactly the serial no-op
  }
  EvalTask& task = batch_.emplace_back();
  task.monitor = monitor;
  task.t = t;
  task.key_count = e.store_->key_count();
  task.prep = prep;
  if (e.options_.tier.enabled && !prep.injected_budget) {
    // Pick the execution tier now, at the coordinator, with exactly the
    // inputs serial ExecProgram would see at this monitor's exec slot:
    // nothing feeding the decision (promoted, native object, step cap,
    // probation) changes between this Begin and the worker run, because the
    // monitor's own Finish is the only mutator and it merges later.
    // Probation and wall-budget holdouts are serial-classified, so a task
    // here never carries them. The counters land in the same boundary
    // totals the engine.tier.* exports read.
    if (monitor->promoted && monitor->native != nullptr &&
        monitor->native->rule != nullptr && prep.budget_steps == 0 &&
        (monitor->guard == nullptr || !monitor->guard->in_probation)) {
      task.native_fn = monitor->native->rule;
      task.native_consts = monitor->nat_rule_consts.data();
      ++e.tier_stats_.native_evals;
    } else {
      ++e.tier_stats_.interp_evals;
    }
  }
  in_batch_.push_back(monitor);
  ++shard.inflight;
  shard.hwm = std::max(shard.hwm, shard.inflight);
}

void ShardedEngine::FlushBatch() {
  if (batch_.empty()) {
    return;
  }
  Engine& e = *engine_;
  // Chaos worker faults are decided (and worker flags set) before the tasks
  // are published, so a blocked worker observes them on wake-up.
  DrawWorkerChaos();
  // Track which quarantined shards this flush probes, before inflight resets.
  std::vector<uint32_t> probing;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->quarantined && shards_[i]->inflight > 0) {
      probing.push_back(i);
    }
  }
  // Publish: tasks go to the rings only now, after every BeginRuleEval in the
  // batch has finished mutating the store. From here until the barrier the
  // coordinator performs no store access, so the workers' lock-free views
  // read a writer-quiescent store.
  for (EvalTask& task : batch_) {
    const uint32_t shard_id =
        plan_.at(task.monitor).shard;  // plan is stable within a callout
    const bool pushed = shards_[shard_id]->ring->TryPush(&task);
    (void)pushed;  // capacity was reserved at enqueue; cannot fail
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    doorbell_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  // Completion barrier with a watchdog deadline: each task's release-store
  // of `done` publishes its result/steps to the coordinator. On expiry the
  // coordinator recovers the batch itself (steal + inline re-run) instead of
  // waiting on a stalled or dead worker.
  const int64_t deadline_ns =
      options_.watchdog_ns > 0 ? WallNowNs() + options_.watchdog_ns : 0;
  bool timed_out = false;
  for (EvalTask& task : batch_) {
    while (!task.done.load(std::memory_order_acquire)) {
      if (deadline_ns != 0 && WallNowNs() >= deadline_ns) {
        timed_out = true;
        break;
      }
      std::this_thread::yield();
    }
    if (timed_out) {
      break;
    }
  }
  std::vector<uint32_t> failed_shards;
  if (timed_out) {
    ++stats_.watchdog_timeouts;
    // Steal pass: claim-and-run every task no worker claimed. The claim CAS
    // makes the executor unique, and rule purity makes the inline re-run
    // bit-identical — a false positive (slow-but-alive worker) is merely a
    // wasted evaluation, never a divergence.
    Vm vm;
    SnapshotHelperEnv env(engine_->store_);
    NativeExec nexec(env.fallback());
    std::vector<bool> stolen_from(shards_.size(), false);
    for (EvalTask& task : batch_) {
      if (task.done.load(std::memory_order_acquire)) {
        continue;
      }
      if (!task.claimed.exchange(true, std::memory_order_acq_rel)) {
        ExecuteTask(task, vm, env, nexec);
        ++stats_.stolen_evals;
        stolen_from[plan_.at(task.monitor).shard] = true;
      }
    }
    // Tasks lost to the claim race have a live executor; wait them out
    // without a deadline (rules are verifier-bounded).
    for (EvalTask& task : batch_) {
      while (!task.done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      if (stolen_from[i]) {
        failed_shards.push_back(i);
      }
    }
  }
  // Deterministic merge: FinishRuleEval in the original enqueue (== serial)
  // order. All side effects — supervisor protocol, reports, action programs,
  // store writes — happen here, serially, exactly as the serial engine
  // interleaves them (eligibility guarantees no batched rule could have
  // observed them).
  // merge_ns feeds stats() (and the telemetry keys when enabled); the two
  // host-clock reads per batch are noise next to the merge itself, so it is
  // measured unconditionally — benchjson --sharded reads it telemetry-off.
  const int64_t merge_start = WallNowNs();
  for (EvalTask& task : batch_) {
    e.FinishRuleEval(*task.monitor, task.t, task.prep, std::move(task.result),
                     task.steps, task.wall_ns);
    ++stats_.parallel_evals;
  }
  stats_.merge_ns += WallNowNs() - merge_start;
  ++stats_.batches;
  // Probe accounting and shard health transitions (coordinator-owned).
  for (uint32_t i : probing) {
    Shard& shard = *shards_[i];
    if (timed_out && std::find(failed_shards.begin(), failed_shards.end(), i) !=
                         failed_shards.end()) {
      continue;  // failed its probe; RespawnWorker below restarts the count
    }
    ++stats_.probes;
    if (++shard.clean_probes >= options_.probe_batches) {
      shard.quarantined = false;
      shard.clean_probes = 0;
      ++stats_.readmissions;
      OSGUARD_LOG(kDebug) << "shard " << i << " re-admitted after clean probes";
    }
  }
  for (uint32_t i : failed_shards) {
    RespawnWorker(*shards_[i]);
  }
  for (auto& shard : shards_) {
    shard->inflight = 0;
  }
  if (timed_out) {
    // A retired worker may still pop these task pointers from its old ring;
    // keep them alive until every retired worker is reaped.
    abandoned_.push_back(std::move(batch_));
    batch_ = std::deque<EvalTask>();
  } else {
    batch_.clear();
  }
  in_batch_.clear();
}

void ShardedEngine::ExportTelemetry() {
  const uint64_t values[] = {shards_.size(),
                             stats_.batches,
                             stats_.parallel_evals,
                             stats_.serial_evals,
                             static_cast<uint64_t>(stats_.merge_ns),
                             stats_.watchdog_timeouts,
                             stats_.stolen_evals,
                             stats_.worker_respawns,
                             stats_.quarantine_evals,
                             stats_.readmissions,
                             RingHighWaterMark()};
  ExportTable& exports = engine_->exports_;
  size_t h = 0;
  for (const uint64_t value : values) {
    exports.Set(export_handles_[h++], static_cast<int64_t>(value));
  }
  for (const auto& shard : shards_) {
    exports.Set(export_handles_[h++],
                static_cast<int64_t>(shard->evals.load(std::memory_order_relaxed)));
    exports.Set(export_handles_[h++], static_cast<int64_t>(shard->hwm));
  }
}

}  // namespace osguard
