// Sharded multi-core guardrail engine: a scheduling layer over Engine that
// evaluates rule programs on worker threads while keeping every side effect
// on the coordinator, in serial order.
//
// The output contract is *bit-identity with the serial engine*: reports,
// monitor stats, supervisor state, chaos replays, and the persisted image of
// a sharded run are byte-for-byte equal to the same workload run serially
// (the serial engine stays in-tree as the differential oracle; see
// tests/shard_diff_test.cc and docs/SHARDING.md). The trick is that rule
// programs of well-behaved guardrails are *pure reads* of the feature store
// — the verifier rejects mutating helpers inside rules — so their execution
// order is unobservable, and only their execution is parallelized:
//
//   callout --> coordinator: BeginRuleEval per monitor (gate, stats, chaos
//               draws — engine-mutating, serial, in hook order), tasks packed
//               into per-shard SPSC rings
//           --> doorbell: shard workers drain their rings, each evaluating
//               rules on a private Vm against a lock-free FeatureStore
//               ReadView (the store is writer-quiescent during the drain)
//           --> barrier, then coordinator: FinishRuleEval per task in the
//               original sequence order (supervisor protocol, reports,
//               action programs — all serial), then Engine::FinishCallout
//               (rollbacks, exports, persist commit).
//
// Monitors whose evaluation is order-sensitive (rules reading keys that this
// callout's actions may write, wall-clock budgets, dynamic store keys,
// infra-key readers, probation deploys, monitors whose actions write a key an
// ONCHANGE cascade watches) are evaluated inline on the coordinator at their
// exact serial position; batches flush around them. ONCHANGE hazards are
// *key-scoped*: the plan intersects each monitor's static read/write sets
// with the watched-key set, so a cascade with disjoint keys costs nothing.
// Only two engine-wide hazards remain (an armed runtime.helper_fail chaos
// site, whose per-helper draw order only the serial engine reproduces, and
// an unprovable write set: a dynamic-key action write or a watched infra
// key) — those disable batching for the callout, and the sharded engine then
// *is* the serial engine plus a branch.
//
// The timer path runs the same pipeline: AdvanceTo pops due entries in the
// serial (deadline, tiebreak) order, Begins them on the coordinator, and
// batches entries that share a deadline into one ring-dispatched wave;
// re-arms and rollback application interleave per entry exactly as the
// serial engine's loop does. Native-tier composition: a promoted monitor's
// cached `.so` rule body runs on the shard worker (each worker owns a
// NativeExec bound to its snapshot env), with the tier chosen at Begin time
// on the coordinator — the same decision ExecProgram would make at its
// serial position, since nothing feeding it changes in between.
//
// Self-healing (docs/GOVERNOR.md): the completion barrier carries a wall-
// clock watchdog deadline. On expiry the coordinator *steals* every task its
// worker never claimed (a claim CAS on the task guarantees exactly one
// executor) and re-runs them inline — sound because rule programs are pure
// reads, so re-execution is bit-identical and the identity contract holds
// even on a false-positive steal. A shard whose tasks were stolen is
// quarantined (its monitors evaluate inline at their serial position), its
// worker is retired and a fresh one spawned, and the shard is re-admitted
// after `probe_batches` clean probe flushes. Retired workers park on their
// old ring (every task in it is already claimed) until reaped; the abandoned
// batch storage is retained until then so a stale pop never dangles. The
// chaos sites shard.worker_stall / shard.worker_die inject exactly the
// faults this machinery contains, and the differential tests pin that a
// stormed, stalled, killed sharded run still matches the serial oracle.

#ifndef SRC_RUNTIME_SHARDED_ENGINE_H_
#define SRC_RUNTIME_SHARDED_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/runtime/engine.h"
#include "src/runtime/helper_env.h"
#include "src/runtime/native_exec.h"
#include "src/store/feature_store.h"
#include "src/support/spsc_ring.h"
#include "src/vm/vm.h"

namespace osguard {

struct ShardingOptions {
  bool enabled = false;
  // Worker thread count; 0 = hardware_concurrency() - 1, clamped to [1, 16].
  size_t shards = 0;
  // Export engine.shard.* feature-store keys at callout boundaries. The
  // differential tests turn this off: telemetry is the one store surface
  // where serial and sharded runs legitimately differ.
  bool telemetry = true;
  // Per-shard ring capacity. Validated at construction: 0 is rejected (the
  // engine logs and substitutes the minimum of 2), and any other value is
  // rounded up to a power of two by the ring itself. A batch never holds
  // more than this many in-flight tasks per shard; the coordinator flushes
  // early instead of blocking on a full ring.
  size_t ring_capacity = 256;
  // Watchdog deadline on the flush completion barrier, host nanoseconds;
  // 0 disables the watchdog (and with it the shard.worker_* chaos draws,
  // which would otherwise strand the barrier forever). The default is
  // generous — three orders of magnitude above a typical batch — because a
  // false-positive steal costs only a redundant inline evaluation.
  int64_t watchdog_ns = 500'000'000;
  // Consecutive clean probe flushes before a quarantined shard is re-admitted.
  size_t probe_batches = 3;
  // While quarantined, every `probe_every`-th enqueue opportunity routes to
  // the shard's fresh worker as a probe; the rest evaluate inline.
  size_t probe_every = 4;
};

// Aggregate counters, mirrored to engine.shard.* keys when telemetry is on.
struct ShardedStats {
  uint64_t batches = 0;          // flushes that merged >= 1 parallel task
  uint64_t parallel_evals = 0;   // rule executions on worker threads
  uint64_t serial_evals = 0;     // inline evaluations (per-monitor fallback)
  uint64_t serial_callouts = 0;  // callouts that ran fully serial (global fallback)
  int64_t merge_ns = 0;          // host-clock cost of in-order merges
  // Watchdog / self-healing counters (engine.shard.* telemetry).
  uint64_t watchdog_timeouts = 0;   // barriers that hit the deadline
  uint64_t stolen_evals = 0;        // unclaimed tasks re-run inline by the coordinator
  uint64_t worker_respawns = 0;     // workers retired + replaced
  uint64_t quarantine_evals = 0;    // quarantined-shard tasks evaluated inline
  uint64_t probes = 0;              // probe flushes routed to a quarantined shard
  uint64_t readmissions = 0;        // shards restored to full service
};

// Worker-side HelperContext: the read-only subset of MonitorHelperEnv served
// from a FeatureStore::ReadView instead of the locked accessors. Rules that
// reach a worker have every store access pre-resolved to a slot id
// (kCallKeyed) — dynamic-key rules are classified serial — so the lock-free
// view covers the hot path and everything else (math, NOW, the defensive
// string fallback for unknown slots) delegates to a chaos-free
// MonitorHelperEnv whose locked reads are safe during the quiescent drain.
// Result values and error strings are byte-identical to the serial env's.
class SnapshotHelperEnv : public HelperContext {
 public:
  explicit SnapshotHelperEnv(FeatureStore* store)
      : fallback_(store, /*dispatcher=*/nullptr), view_(store) {}

  // Per-task setup on the worker: envelope + the slot-id space the
  // coordinator captured when the batch was sealed (stamped through the task
  // so workers never touch the store mutex on the hot path).
  void Prepare(const std::string& guardrail, Severity severity, SimTime now,
               size_t key_count) {
    fallback_.UpdateEnvelope(guardrail, severity, now);
    view_.set_key_count(key_count);
  }

  Result<Value> CallHelper(HelperId id, std::span<const Value> args) override;
  Result<Value> CallHelperKeyed(HelperId id, uint32_t slot,
                                std::span<const Value> args) override;
  SimTime now() const override { return fallback_.envelope().now; }

  // The chaos-free env a worker-local NativeExec binds to: native helper
  // escapes route through its locked reads, which are safe (and value-equal
  // to the seqlock view) during the writer-quiescent drain.
  MonitorHelperEnv* fallback() { return &fallback_; }

  uint64_t view_retries() const { return view_.retries(); }

 private:
  MonitorHelperEnv fallback_;  // chaos-free, dispatcher-free
  FeatureStore::ReadView view_;
};

class ShardedEngine {
 public:
  // `engine` is borrowed and must outlive this object. Worker threads start
  // in the constructor and join in the destructor; between callouts they
  // sleep on a doorbell condvar and cost nothing.
  ShardedEngine(Engine* engine, ShardingOptions options);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Drop-in replacements for the engine callouts. AdvanceTo batches due
  // timer entries that share a deadline into one eval wave and flushes at
  // every deadline boundary, rollback, or serial-classified entry, so fires
  // and re-arms stay byte-identical to the serial loop.
  void OnFunctionCall(std::string_view function, SimTime t);
  void AdvanceTo(SimTime t);

  size_t shard_count() const { return shards_.size(); }
  const ShardedStats& stats() const { return stats_; }
  // Ring-occupancy high-water mark of shard `i` (telemetry).
  size_t RingHighWater(size_t i) const { return shards_[i]->hwm; }
  // Max ring-occupancy high-water mark across shards: the governor's
  // queue-depth probe adds this to the sim event-queue depth, and telemetry
  // exports it as engine.shard.ring_high_water.
  size_t RingHighWaterMark() const {
    size_t hwm = 0;
    for (const auto& shard : shards_) {
      hwm = std::max(hwm, shard->hwm);
    }
    return hwm;
  }
  uint64_t ShardEvals(size_t i) const {
    return shards_[i]->evals.load(std::memory_order_relaxed);
  }
  bool ShardQuarantined(size_t i) const { return shards_[i]->quarantined; }
  uint64_t ShardRespawns(size_t i) const { return shards_[i]->respawns; }
  // Workers retired by the watchdog and not yet joined (coordinator thread).
  size_t RetiredWorkerCount() const { return retired_.size(); }

 private:
  struct EvalTask {
    Engine::Monitor* monitor = nullptr;
    SimTime t = 0;
    size_t key_count = 0;  // store slot-id space when the batch was sealed
    Engine::RuleEvalPrep prep;
    // Native-tier composition: non-null when the coordinator picked the AOT
    // rule body at Begin time (promoted, no step cap, not in probation). The
    // pointers stay valid across the flush — the monitor's shared_ptr pins
    // the NativeObject, and demotion never clears it.
    NativeObject::EntryFn native_fn = nullptr;
    const osg_value* native_consts = nullptr;
    // Worker outputs, published by the `done` release store.
    Result<Value> result = Value();
    int64_t steps = 0;
    int64_t wall_ns = 0;
    // Claim CAS: whoever flips claimed false->true executes the task. The
    // worker claims after popping; the watchdog claims when stealing. A task
    // lost to the worker has a live executor, so the coordinator may wait
    // for its `done` without a deadline.
    std::atomic<bool> claimed{false};
    std::atomic<bool> done{false};
  };

  // Per-worker control block, shared between the coordinator and one worker
  // thread (and kept alive by the retired list after a respawn). `exit`
  // retires the worker; `die` / `stall_until_ns` are the chaos payloads.
  struct WorkerCtl {
    std::atomic<bool> exit{false};
    std::atomic<bool> exited{false};
    std::atomic<bool> die{false};
    std::atomic<int64_t> stall_until_ns{0};
  };

  struct Shard {
    Shard(size_t capacity)
        : ring(std::make_unique<SpscRing<EvalTask*>>(capacity)),
          ctl(std::make_shared<WorkerCtl>()) {}
    // unique_ptr so a respawn can hand the old ring to the retired worker
    // that still pops from it.
    std::unique_ptr<SpscRing<EvalTask*>> ring;
    std::shared_ptr<WorkerCtl> ctl;
    std::thread thread;
    // Batch-local producer-side occupancy (coordinator only).
    size_t inflight = 0;
    // Telemetry. Atomic (relaxed) because a slow-but-alive worker may still
    // be finishing its claimed task while the coordinator reads; `hwm` is
    // coordinator-owned.
    std::atomic<uint64_t> evals{0};
    size_t hwm = 0;
    // Watchdog state, coordinator-owned. Quarantine affects only *where* a
    // task runs (inline vs worker), never results — wall-clock-dependent
    // scheduling stays outside the identity surface.
    bool quarantined = false;
    uint64_t clean_probes = 0;
    uint64_t probe_clock = 0;
    uint64_t respawns = 0;
  };

  // A worker retired by the watchdog: it keeps its old ring (whose tasks are
  // all claimed, so it only pops and skips) until it observes `exit` and is
  // joined by ReapRetired or the destructor.
  struct RetiredWorker {
    std::thread thread;
    std::unique_ptr<SpscRing<EvalTask*>> ring;
    std::shared_ptr<WorkerCtl> ctl;
  };

  // Eligibility classification of one monitor (plan entry).
  struct MonitorPlan {
    bool serial = false;  // evaluate inline on the coordinator
    uint32_t shard = 0;
  };

  void WorkerLoop(Shard* shard, SpscRing<EvalTask*>* ring,
                  std::shared_ptr<WorkerCtl> ctl);
  void ExecuteTask(EvalTask& task, Vm& vm, SnapshotHelperEnv& env,
                   NativeExec& nexec);

  void RespawnWorker(Shard& shard);
  // Joins retired workers that have observed their exit flag; once none
  // remain, the abandoned batch storage is released.
  void ReapRetired();
  // Registers the shard.worker_* chaos sites once a chaos engine is attached
  // (AttachChaos can happen after construction), then draws them — one draw
  // per involved shard per flush, in shard-index order, so the sequence
  // replays deterministically.
  void DrawWorkerChaos();

  // Rebuilds the partition + eligibility plan iff the engine's monitor
  // topology changed since the cached plan was built.
  void RefreshPlan();
  // Engine-wide batching disablers re-checked per callout (chaos arming is
  // runtime state, not topology).
  bool GlobalSerialRequired() const;
  // One monitor firing at its serial position: inline (serial-classified /
  // quarantine), or Begin + enqueue on its shard. Shared by the function and
  // timer callouts.
  void DispatchMonitor(Engine::Monitor* monitor, SimTime t);
  // Kicks the workers and merges every in-flight task in sequence order.
  void FlushBatch();
  // Fully serial callout body (global fallback), identical to the engine's.
  void SerialCallout(const std::vector<Engine::Monitor*>& hooked);
  // Sets the engine.shard.* exports; called by Engine::FinishCallout.
  friend class Engine;
  void ExportTelemetry();

  Engine* engine_;
  ShardingOptions options_;
  bool measure_wall_;  // cached engine options_.measure_wall_time

  std::vector<std::unique_ptr<Shard>> shards_;
  // Batch storage: deque for pointer stability (tasks are shared with
  // workers by address); cleared after every flush. A timed-out batch is
  // moved to abandoned_ instead — a retired worker may still pop its task
  // pointers — and released once every retired worker is reaped.
  std::deque<EvalTask> batch_;
  std::vector<Engine::Monitor*> in_batch_;  // dup detection (batches are small)
  std::vector<std::deque<EvalTask>> abandoned_;
  std::vector<RetiredWorker> retired_;

  // Doorbell: workers sleep on the condvar when their ring is empty; the
  // coordinator bumps the counter under the mutex on every flush.
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<uint64_t> doorbell_{0};
  std::atomic<bool> stop_{false};

  // Cached plan, keyed on the engine's topology version.
  uint64_t plan_version_ = 0;
  bool plan_valid_ = false;
  bool plan_global_serial_ = false;  // topology-level: watched infra key /
                                     // dynamic-key action write
  std::unordered_map<const Engine::Monitor*, MonitorPlan> plan_;

  // Chaos sites, registered lazily (off == absent: nothing registers until a
  // chaos engine is attached, and kOff sites consume no randomness).
  const ChaosEngine* chaos_seen_ = nullptr;
  ChaosSiteId stall_site_ = kInvalidChaosSite;
  ChaosSiteId die_site_ = kInvalidChaosSite;

  ShardedStats stats_;
  // engine.shard.* exports in write order (kShardExportKeys, then an
  // evals / ring_hwm pair per shard); empty with telemetry off.
  std::vector<ExportTable::Handle> export_handles_;
};

}  // namespace osguard

#endif  // SRC_RUNTIME_SHARDED_ENGINE_H_
