// agent-churn: governed agent tool calls under session churn, persisted.
//
// SessionCallGenerator::GenerateChurn at 500 sessions/s (default burst and
// tool mix) feeds Kernel::OnToolCall with specs/agent_governance.osg and
// specs/bounded_store.osg loaded. Kernel::OnSessionEnd runs for each
// session once its end time has passed. A PersistManager is attached and
// opened on a fresh directory per pass, so every callout commits a journal
// frame. Per call the caller pumps Kernel::Run to the call's time and
// delivers it with Kernel::OnToolCall; the two calls are one timed callout.
// Agent admission, ONCHANGE cascades, key churn, retention and the journal
// are all on this path.
//
// Oracle: the same trace with persist detached. Persistence observes the
// engine and must not change a decision (off == absent).

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "driver/harness.h"
#include "src/persist/persist.h"
#include "src/sim/kernel.h"
#include "src/wl/sessiongen.h"

namespace perfbench {
namespace {

using osguard::AgentAdmitVerdict;
using osguard::Kernel;
using osguard::PersistManager;
using osguard::agent::ToolCallEvent;

// Session arrivals span this much simulated time (about 5k calls). The
// short trace keeps a pass near 0.1 s, so each callout's best time comes
// from well over a hundred passes; 1 s and 2 s horizons spread two to four
// times as much from seed to seed.
constexpr osguard::Duration kHorizon = osguard::Milliseconds(500);
// Traced passes sample the store's size every this many calls.
constexpr size_t kStoreSampleEvery = 256;

struct Workload {
  std::vector<std::string> specs;
  osguard::SessionChurnTrace trace;
  std::string work_dir;
  uint64_t next_dir = 0;
};

uint64_t ChurnDigest(Kernel& kernel, const uint64_t (&verdicts)[4], uint64_t eager) {
  Digest digest;
  for (int v = 0; v < 4; ++v) {
    digest.Add(std::string("verdict.") +
                   osguard::AgentAdmitVerdictName(static_cast<AgentAdmitVerdict>(v)),
               verdicts[v]);
  }
  DigestEngine(digest, kernel.engine());
  const osguard::RetentionStats& r = kernel.engine().retention().stats();
  digest.Add("retention.reclaimed_idle", r.reclaimed_idle);
  digest.Add("retention.reclaimed_quota", r.reclaimed_quota);
  digest.Add("retention.quota_breaches", r.quota_breaches);
  digest.Add("retention.eager_reclaimed", eager);
  digest.Add("store.live_keys", static_cast<uint64_t>(kernel.store().live_key_count()));
  digest.Add("store.stale_hits", kernel.store().stale_hits());
  return digest.Hash();
}

// Replays the trace once, recording each callout's time into `times` unless
// it is null. `persist_dir` empty = persist detached.
template <bool kTraced>
PassStats RunPass(Workload& w, CalloutTimes* times, Tracer* tracer,
                  const std::string& persist_dir) {
  PassStats pass;
  if constexpr (kTraced) {
    tracer->Reset();
  }
  const uint64_t logs_before = LogRecords();
  const uint64_t commit_failures_before = PersistCommitFailures();
  const int64_t setup_start = NowNs();
  bool ready = true;
  {
    Kernel kernel;
    // Declared after the kernel so it goes first: it detaches from the
    // kernel's store on destruction.
    std::unique_ptr<PersistManager> persist;
    if (!persist_dir.empty()) {
      osguard::PersistOptions options;
      options.dir = persist_dir;
      persist = std::make_unique<PersistManager>(options);
      kernel.AttachPersist(persist.get());
      ready = persist->Open().ok();
    }
    for (const std::string& spec : w.specs) {
      Scope<kTraced> span(tracer, Layer::kLoad);
      ready = kernel.LoadGuardrails(spec).ok() && ready;
    }
    pass.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;

    uint64_t verdicts[4] = {0, 0, 0, 0};
    uint64_t eager = 0;
    double live_peak = 0.0;
    double bytes_peak = 0.0;
    const std::vector<ToolCallEvent>& calls = w.trace.calls;
    const std::vector<osguard::SessionEndEvent>& ends = w.trace.ends;
    size_t end_cursor = 0;
    const int64_t loop_start = NowNs();
    int64_t step_start = loop_start;
    for (size_t i = 0; i < calls.size(); ++i) {
      const ToolCallEvent& call = calls[i];
      while (end_cursor < ends.size() && ends[end_cursor].at <= call.at) {
        Scope<kTraced> span(tracer, Layer::kSessionEnd);
        eager += kernel.OnSessionEnd(ends[end_cursor].session);
        ++end_cursor;
      }
      const int64_t start = NowNs();
      AgentAdmitVerdict verdict;
      {
        Scope<kTraced> callout(tracer, Layer::kCallout);
        {
          Scope<kTraced> span(tracer, Layer::kRun);
          kernel.Run(call.at);
        }
        {
          Scope<kTraced> span(tracer, Layer::kToolCall);
          verdict = kernel.OnToolCall(call);
        }
      }
      const int64_t end = NowNs();
      if (times != nullptr) {
        times->Record(i, end - start, end - step_start);
      }
      step_start = end;
      ++verdicts[static_cast<int>(verdict)];
      if constexpr (kTraced) {
        if (i % kStoreSampleEvery == 0) {
          live_peak = std::max(live_peak, static_cast<double>(kernel.store().live_key_count()));
          bytes_peak = std::max(bytes_peak, static_cast<double>(kernel.store().approx_bytes()));
        }
      }
    }
    for (; end_cursor < ends.size(); ++end_cursor) {
      Scope<kTraced> span(tracer, Layer::kSessionEnd);
      eager += kernel.OnSessionEnd(ends[end_cursor].session);
    }
    pass.loop_ns = NowNs() - loop_start;
    pass.callouts = calls.size();
    pass.failed = EngineFaults(kernel.engine()) +
                  (PersistCommitFailures() - commit_failures_before) + (ready ? 0 : 1);

    pass.digest = ChurnDigest(kernel, verdicts, eager);

    auto& sums = pass.sums;
    SumEngineCounters(kernel.engine(), sums);
    sums["actions.log_records"] = static_cast<double>(LogRecords() - logs_before);
    sums["agent.rejected"] = static_cast<double>(calls.size() - verdicts[0]);
    const osguard::RetentionStats& r = kernel.engine().retention().stats();
    sums["retention.reclaimed"] =
        static_cast<double>(r.reclaimed_idle + r.reclaimed_quota + eager);
    sums["retention.quota_breaches"] = static_cast<double>(r.quota_breaches);
    live_peak = std::max(live_peak, static_cast<double>(kernel.store().live_key_count()));
    bytes_peak = std::max(bytes_peak, static_cast<double>(kernel.store().approx_bytes()));
    sums["store.live_keys_peak"] = live_peak;
    sums["store.bytes_peak"] = bytes_peak;
    sums["store.stale_hits"] = static_cast<double>(kernel.store().stale_hits());
    if (persist != nullptr) {
      const osguard::PersistStats& p = persist->stats();
      sums["persist.frames"] = static_cast<double>(p.frames_committed);
      sums["persist.bytes"] = static_cast<double>(p.bytes_appended);
      sums["persist.snapshots"] = static_cast<double>(p.snapshots_written);
      sums["persist.snapshot_failures"] = static_cast<double>(p.snapshot_failures);
    }
  }
  if (!persist_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(persist_dir, ec);
  }
  return pass;
}

std::string FreshDir(Workload& w) {
  const std::string dir = w.work_dir + "/persist-" + std::to_string(getpid()) + "-" +
                          std::to_string(w.next_dir++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

void CheckPass(Outcome& outcome, const PassStats& pass) {
  if (pass.sums.at("persist.frames") <= 0.0) {
    outcome.Fail("persist committed no frame");
  }
  if (pass.sums.at("persist.snapshot_failures") != 0.0) {
    outcome.Fail("persist snapshot failed");
  }
  if (pass.sums.at("store.stale_hits") != 0.0) {
    outcome.Fail("store served a stale-generation read");
  }
}

}  // namespace

Outcome RunAgentChurn(const Args& args) {
  Outcome outcome;
  Workload w;
  w.work_dir = args.work_dir;
  for (const char* path : {"specs/agent_governance.osg", "specs/bounded_store.osg"}) {
    w.specs.push_back(ReadFile(args, path));
    if (w.specs.back().empty()) {
      outcome.Fail(std::string("cannot read ") + path);
      return outcome;
    }
  }
  osguard::SessionWorkloadOptions options;
  options.duration = kHorizon;
  options.sessions_per_sec = 500.0;
  w.trace = osguard::SessionCallGenerator(options, DeriveSeed(args.seed, 0xA6E7))
                .GenerateChurn();

  Tracer tracer;
  tracer.Reserve(w.trace.calls.size() * 4 + w.trace.ends.size() + 16);
  PassLog log;
  RunPasses(
      args, log, w.trace.calls.size(),
      [&](CalloutTimes* times) { return RunPass<false>(w, times, nullptr, FreshDir(w)); },
      [&](CalloutTimes* times) {
        PassStats pass = RunPass<true>(w, times, &tracer, FreshDir(w));
        tracer.Accumulate(log.layers);
        return pass;
      });
  for (const std::vector<PassStats>* passes : {&log.untraced, &log.traced}) {
    for (const PassStats& pass : *passes) {
      CheckPass(outcome, pass);
    }
  }

  // Oracle: persist detached.
  const PassStats oracle = RunPass<false>(w, nullptr, nullptr, "");
  CheckDigests(outcome, log, oracle.digest, "persist-detached oracle");

  Finish(args, outcome, log, tracer, Layer::kToolCall);
  if (args.trace) {
    auto& m = outcome.metrics;
    m["agent.tool_call_us"] = MeanSpanNs(log, Layer::kToolCall) / 1e3;
    m["agent.session_end_us"] = MeanSpanNs(log, Layer::kSessionEnd) / 1e3;
    m["agent.rejected_ratio"] = Ratio(log, "agent.rejected", "callouts");
    for (const char* key : {"retention.reclaimed", "retention.quota_breaches",
                            "store.live_keys_peak", "store.bytes_peak", "store.stale_hits",
                            "persist.frames", "persist.snapshots",
                            "persist.snapshot_failures"}) {
      m[key] = LastPass(log, key);
    }
    m["persist.bytes_per_frame"] = Ratio(log, "persist.bytes", "persist.frames");
    // Per-call cost of persistence: the untraced attached passes of this run
    // against the detached oracle replay of the same trace.
    std::vector<double> attached_us;
    for (const PassStats& pass : log.untraced) {
      attached_us.push_back(static_cast<double>(pass.loop_ns) / 1e3 /
                            static_cast<double>(pass.callouts));
    }
    const double detached_us =
        static_cast<double>(oracle.loop_ns) / 1e3 / static_cast<double>(oracle.callouts);
    m["persist.boundary_us"] = Median(attached_us) - detached_us;
  }
  return outcome;
}

}  // namespace perfbench
