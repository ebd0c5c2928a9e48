// callout-storm: the E12 overload-governor storm.
//
// Eight FUNCTION monitors on one hook across the critical, standard and
// best-effort tiers, with the governor on at E12's settings. The trace
// repeats 100 ms of calm at 200 callouts/s and 50 ms of storm at 80k/s,
// then ends with a 200 ms tail. Per event the caller pumps Kernel::Run,
// saves sys.pressure and fires Kernel::Callout("hot_path"); those three
// calls are one timed callout. The rules are a single LOAD_OR each, so the
// engine's per-callout work (trigger dispatch, governor admission and
// shedding, action dispatch, boundary publishing) dominates.
//
// Oracle: the existing serial-vs-sharded differential. After the timed
// passes the same trace runs once through the serial engine and once
// through a two-shard ShardedEngine (wall-time measurement and shard
// telemetry off in both). Store slots, report ring and engine image must be
// byte-identical, and every timed pass's decision digest must equal the
// serial one. The sharded replay also gives the runtime/sharded_engine
// layer's counters and its speed against the serial replay.

#include <algorithm>
#include <memory>

#include "driver/harness.h"
#include "src/persist/persist.h"
#include "src/sim/kernel.h"
#include "src/wl/stormgen.h"

namespace perfbench {
namespace {

using osguard::Kernel;
using osguard::StormEvent;
using osguard::Value;

constexpr char kStormSpec[] = R"(
  guardrail crit-gate {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.pressure, 0) <= 90 },
    action: { SAVE(ctl.safe_mode, true); REPORT("pressure gate") },
    meta: { severity = critical, criticality = critical }
  }
  guardrail std-a { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.pressure, 0) <= 95 },
                    action: { REPORT("std-a") } }
  guardrail std-b { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.load, 0) <= 900000 },
                    action: { REPORT("std-b") } }
  guardrail std-c { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.load, 0) >= 0 },
                    action: { REPORT("std-c") } }
  guardrail be-a { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.load, 0) <= 1000000 },
                   action: { REPORT("be-a") },
                   meta: { criticality = besteffort } }
  guardrail be-b { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.pressure, 0) <= 99 },
                   action: { REPORT("be-b") },
                   meta: { criticality = besteffort } }
  guardrail be-c { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.load, 0) >= -1 },
                   action: { REPORT("be-c") },
                   meta: { criticality = besteffort } }
  guardrail be-d { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.pressure, 0) >= -1 },
                   action: { REPORT("be-d") },
                   meta: { criticality = besteffort } }
)";

// Calm/storm cycles per pass: about 4k callouts each.
constexpr uint32_t kCycles = 25;

osguard::EngineOptions StormEngineOptions() {
  osguard::EngineOptions options;
  options.governor.enabled = true;
  options.governor.pressure_up = 20000.0;
  options.governor.pressure_down = 2000.0;
  options.governor.dwell_up = 4;
  options.governor.dwell_down = 8;
  options.governor.sample_every = 4;
  options.governor.alpha = 0.3;
  return options;
}

std::vector<StormEvent> MakeTrace(uint64_t seed) {
  osguard::StormWorkloadOptions options;
  options.calm = osguard::Milliseconds(100);
  options.storm = osguard::Milliseconds(50);
  options.tail = osguard::Milliseconds(200);
  options.cycles = kCycles;
  options.calm_rate = 200.0;
  options.storm_rate = 80000.0;
  return osguard::StormGenerator(options, DeriveSeed(seed, 0x5707)).Generate(
      osguard::Milliseconds(1));
}

Value Pressure(const StormEvent& event) {
  return Value(static_cast<int64_t>(event.storm ? 80 : 10));
}

uint64_t StormDigest(Kernel& kernel) {
  Digest digest;
  DigestEngine(digest, kernel.engine());
  const osguard::GovernorStats& gov = kernel.engine().governor().stats();
  digest.Add("governor.mode", static_cast<uint64_t>(kernel.engine().governor().mode()));
  digest.Add("governor.transitions", gov.transitions);
  digest.Add("governor.sheds_besteffort", gov.sheds_besteffort);
  digest.Add("governor.sheds_standard", gov.sheds_standard);
  digest.Add("governor.sampled_evals", gov.sampled_evals);
  digest.Add("governor.static_applies", gov.static_applies);
  digest.Add("governor.static_suppressed", gov.static_suppressed);
  digest.Add("governor.critical_sheds", gov.critical_sheds);
  return digest.Hash();
}

// Per event: pump the kernel to the event, save the pressure signal and
// fire the hook; the three calls are one callout. `times` may be null.
template <bool kTraced>
void Replay(Kernel& kernel, const std::vector<StormEvent>& events, Tracer* tracer,
            CalloutTimes* times) {
  int64_t step_start = NowNs();
  for (size_t i = 0; i < events.size(); ++i) {
    const StormEvent& event = events[i];
    const int64_t start = NowNs();
    {
      Scope<kTraced> callout(tracer, Layer::kCallout);
      {
        Scope<kTraced> span(tracer, Layer::kRun);
        kernel.Run(event.at);
      }
      {
        Scope<kTraced> span(tracer, Layer::kStoreWrite);
        kernel.store().Save("sys.pressure", Pressure(event));
      }
      {
        Scope<kTraced> span(tracer, Layer::kHook);
        kernel.Callout("hot_path");
      }
    }
    const int64_t end = NowNs();
    if (times != nullptr) {
      times->Record(i, end - start, end - step_start);
    }
    step_start = end;
  }
}

template <bool kTraced>
PassStats RunPass(const std::vector<StormEvent>& events, CalloutTimes* times, Tracer* tracer) {
  PassStats pass;
  if constexpr (kTraced) {
    tracer->Reset();
  }
  const int64_t setup_start = NowNs();
  Kernel kernel(StormEngineOptions());
  bool loaded = false;
  {
    Scope<kTraced> span(tracer, Layer::kLoad);
    loaded = kernel.LoadGuardrails(kStormSpec).ok();
  }
  pass.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  const uint64_t logs_before = LogRecords();
  const int64_t loop_start = NowNs();
  Replay<kTraced>(kernel, events, tracer, times);
  pass.loop_ns = NowNs() - loop_start;
  pass.callouts = events.size();
  pass.failed = EngineFaults(kernel.engine()) + (loaded ? 0 : 1);
  pass.digest = StormDigest(kernel);
  SumEngineCounters(kernel.engine(), pass.sums);
  pass.sums["actions.log_records"] = static_cast<double>(LogRecords() - logs_before);
  return pass;
}

// One replay of the differential pair: full observable state, digest, the
// replay's wall time and (sharded) the scheduling counters.
struct IdentityRun {
  std::string state;
  uint64_t digest = 0;
  int64_t loop_ns = 0;
  uint64_t evals = 0;
  osguard::ShardedStats shard;
};

IdentityRun RunIdentity(const std::vector<StormEvent>& events, bool sharded, Outcome& outcome) {
  osguard::EngineOptions options = StormEngineOptions();
  options.measure_wall_time = false;
  osguard::ShardingOptions sharding;
  sharding.enabled = sharded;
  sharding.shards = 2;
  sharding.telemetry = false;
  Kernel kernel(options, sharding);
  IdentityRun run;
  if (!kernel.LoadGuardrails(kStormSpec).ok()) {
    outcome.Fail("oracle spec failed to load");
    return run;
  }
  const int64_t start = NowNs();
  Replay<false>(kernel, events, nullptr, nullptr);
  run.loop_ns = NowNs() - start;
  osguard::Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  run.state = osguard::EncodeSnapshot(snapshot);
  run.digest = StormDigest(kernel);
  run.evals = kernel.engine().stats().evaluations;
  if (kernel.sharded_engine() != nullptr) {
    run.shard = kernel.sharded_engine()->stats();
  }
  return run;
}

}  // namespace

Outcome RunCalloutStorm(const Args& args) {
  Outcome outcome;
  const std::vector<StormEvent> events = MakeTrace(args.seed);
  Tracer tracer;
  tracer.Reserve(events.size() * 4 + 16);
  PassLog log;
  RunPasses(
      args, log, events.size(),
      [&](CalloutTimes* times) { return RunPass<false>(events, times, nullptr); },
      [&](CalloutTimes* times) {
        PassStats pass = RunPass<true>(events, times, &tracer);
        tracer.Accumulate(log.layers);
        return pass;
      });

  const IdentityRun serial = RunIdentity(events, /*sharded=*/false, outcome);
  const IdentityRun sharded = RunIdentity(events, /*sharded=*/true, outcome);
  if (serial.state != sharded.state) {
    outcome.Fail("sharded state differs from the serial engine");
  }
  CheckDigests(outcome, log, serial.digest, "serial oracle");
  for (const std::vector<PassStats>* passes : {&log.untraced, &log.traced}) {
    for (const PassStats& pass : *passes) {
      if (pass.sums.at("governor.critical_sheds") != 0.0) {
        outcome.Fail("governor shed a critical monitor");
      }
    }
  }

  Finish(args, outcome, log, tracer, Layer::kHook);
  if (args.trace) {
    auto& m = outcome.metrics;
    const osguard::ShardedStats& shard = sharded.shard;
    m["shard.parallel_fraction"] =
        static_cast<double>(shard.parallel_evals) /
        static_cast<double>(std::max<uint64_t>(sharded.evals, 1));
    m["shard.batches"] = static_cast<double>(shard.batches);
    m["shard.merge_ns_per_batch"] = static_cast<double>(shard.merge_ns) /
                                    static_cast<double>(std::max<uint64_t>(shard.batches, 1));
    m["shard.serial_callouts"] = static_cast<double>(shard.serial_callouts);
    m["shard.watchdog_timeouts"] = static_cast<double>(shard.watchdog_timeouts);
    m["shard.speedup_vs_serial"] = static_cast<double>(serial.loop_ns) /
                                   static_cast<double>(std::max<int64_t>(sharded.loop_ns, 1));
  }
  return outcome;
}

}  // namespace perfbench
