// Shared pieces of the guardrail-plane benchmark driver: the per-callout
// best times, the in-memory span tracer, the decision digest, the
// counting log sink and the JSON result line.
//
// One invocation runs one workload. A workload replays a fixed trace
// (generated from --seed before any timing) in *passes*: each pass builds a
// fresh kernel, replays the whole trace in a closed loop with one caller,
// and tears the kernel down. Passes repeat until the measuring time is used
// up. Every pass of one invocation replays the same inputs, so every pass
// must produce the same decision digest, and that digest must equal the
// one of an oracle replay (see each workload's file for its oracle).

#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/engine.h"

namespace perfbench {

int64_t NowNs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  // checkout root; specs/ are read from here
  std::string work_dir;    // persist directories and span dumps
  std::string source_id = "unknown";
};

// Independent 64-bit stream seed for one use of the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// Reads a file below the checkout root; empty on failure.
std::string ReadFile(const Args& args, const std::string& relative);

// ---------------------------------------------------------------------------
// Span tracing (traced passes only). The driver opens a span around each of
// its calls into a public osguard function; nothing inside src/ is
// instrumented. Spans stay in memory and are written out at the end.

enum class Layer : uint8_t {
  kCallout,     // one whole callout as the caller sees it
  kRun,         // Kernel::Run
  kSubmitIo,    // BlockLayer::SubmitIo
  kPredict,     // IoSubmitPolicy::PredictSlow of the learned policy
  kToolCall,    // Kernel::OnToolCall
  kSessionEnd,  // Kernel::OnSessionEnd
  kHook,        // Kernel::Callout
  kStoreWrite,  // FeatureStore::Save / Observe from the driver
  kLoad,        // Kernel::LoadGuardrails
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;  // index into the span vector, or kNoParent
  Layer layer = Layer::kCallout;
};
inline constexpr uint32_t kNoParent = 0xffffffffu;

struct LayerTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time covered by child spans
};
using LayerTable = std::array<LayerTotals, kLayerCount>;

class Tracer {
 public:
  void Reset();
  void Reserve(size_t spans) { spans_.reserve(spans); }
  void Begin(Layer layer);
  void End();
  // Adds this pass's per-layer counts, durations and self times.
  void Accumulate(LayerTable& table) const;
  // Writes the recorded spans as CSV (index,parent,layer,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// RAII span; compiles to nothing in untraced passes.
template <bool kTraced>
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if constexpr (kTraced) {
      tracer_->Begin(layer);
    }
  }
  ~Scope() {
    if constexpr (kTraced) {
      tracer_->End();
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Per-callout wall times of a run, each kept as that callout's best
// (shortest) over the run's passes.
//
// Every pass replays the same inputs, so callout i does the same work in
// every pass, and other work on the host can only ever slow it down. The
// best of many passes is the callout's own cost: a callout needs one
// undisturbed moment among the passes, not a whole undisturbed pass.

class CalloutTimes {
 public:
  // One slot per callout of the trace, none recorded yet.
  void Resize(size_t callouts);
  // Callout i of a pass took `callout_ns`. Its step, from the end of
  // callout i - 1 (or the loop's start) to the end of callout i, also
  // covers the driver's other calls in between, such as session ends.
  void Record(size_t i, int64_t callout_ns, int64_t step_ns) {
    best_callout_[i] = std::min(best_callout_[i], callout_ns);
    best_step_[i] = std::min(best_step_[i], step_ns);
  }
  size_t callouts() const { return best_callout_.size(); }
  // Nearest-rank percentile of the best callout times, in microseconds,
  // q in (0, 1]; 0 before any pass.
  double PercentileUs(double q) const;
  // Callouts per second of the summed best steps; 0 before any pass.
  double RatePerS() const;

 private:
  std::vector<int64_t> best_callout_;
  std::vector<int64_t> best_step_;
};

// What one pass measured. `sums` holds the layer counters the workload read
// from the program after the pass (totals over the pass).
struct PassStats {
  uint64_t callouts = 0;
  int64_t loop_ns = 0;  // wall time of the timed loop
  uint64_t failed = 0;  // monitor faults + exhausted action chains + failed commits
  // Wall time of a full setup before this pass's first timed callout, when
  // the pass ran one.
  std::optional<double> setup_s;
  uint64_t digest = 0;
  std::map<std::string, double> sums;
};

double Median(std::vector<double> values);
// Largest (highest) or smallest value; 0 for none.
double Best(const std::vector<double>& values, bool highest);

// ---------------------------------------------------------------------------
// Decision digest: a canonical text of every decision a pass made, hashed.

class Digest {
 public:
  void Add(std::string_view key, uint64_t value);
  void Add(std::string_view key, int64_t value);
  void Add(std::string_view key, double value);
  void Add(std::string_view key, std::string_view value);
  uint64_t Hash() const;

 private:
  std::string text_;
};

// Per-monitor MonitorStats without the wall-clock fields, the reporter's
// counters, and the retained report sequence as (monitor, kind, sim time).
void DigestEngine(Digest& digest, osguard::Engine& engine);

// Σ over monitors and engine-level counters that the per-layer metrics are
// derived from, added into `sums` (engine.*, vm.*, actions.*, governor.*).
void SumEngineCounters(osguard::Engine& engine, std::map<std::string, double>& sums);

// Monitor faults plus exhausted action chains of an engine.
uint64_t EngineFaults(osguard::Engine& engine);

// ---------------------------------------------------------------------------
// In-memory counting log sink. REPORT records and engine warnings go to
// this sink instead of stderr, so timings do not depend on where stderr
// points; records are still formatted exactly as for stderr.

void InstallCountingLogSink();
uint64_t LogRecords();
uint64_t PersistCommitFailures();  // "persist commit failed" warnings

// ---------------------------------------------------------------------------
// Result of one invocation.

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;        // name -> value
  std::map<std::string, uint64_t> samples;      // percentile metric -> samples behind it
  std::map<std::string, std::vector<double>> per_pass;  // untraced pass values, in run order
  std::vector<std::string> problems;            // why `correct` is false
  uint64_t passes = 0;
  std::string span_file;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Timed passes of one invocation: untraced passes fill the measuring time
// (half of it when tracing), traced passes the other half.
struct PassLog {
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  CalloutTimes untraced_times;  // best over the untraced passes
  CalloutTimes traced_times;    // best over the traced passes
  LayerTable layers{};
  double rss_peak_mb = 0.0;  // after the timed passes, before any oracle replay
};

// Peak resident set of this process image, in MB.
double PeakRssMb();

// Runs `untraced(&log.untraced_times)` passes until the measuring time is
// used up (half of it when tracing), then `traced(&log.traced_times)` passes
// for the other half. A pass replays a trace of `callouts` callouts and
// records each one's time. At least one pass of each kind runs. A pass that
// replayed nothing (its setup failed) ends the run.
template <typename Untraced, typename Traced>
void RunPasses(const Args& args, PassLog& log, size_t callouts, Untraced&& untraced,
               Traced&& traced) {
  log.untraced_times.Resize(callouts);
  log.traced_times.Resize(callouts);
  const double share = args.trace ? 0.5 : 1.0;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * share * 1e9);
  int64_t deadline = NowNs() + budget_ns;
  do {
    log.untraced.push_back(untraced(&log.untraced_times));
  } while (NowNs() < deadline && log.untraced.back().callouts > 0);
  if (args.trace && log.untraced.back().callouts > 0) {
    deadline = NowNs() + budget_ns;
    do {
      log.traced.push_back(traced(&log.traced_times));
    } while (NowNs() < deadline && log.traced.back().callouts > 0);
  }
  log.rss_peak_mb = PeakRssMb();
}

// Completes an outcome from the passes: attempted/failed counts, then
// either the end-to-end metrics (untraced run: callouts_per_s,
// callout_p50_us, callout_p99_us, setup_s, rss_peak_mb, ok_callouts_pct) or
// the per-layer metrics every workload reports the same way (traced run:
// trace.*, engine/vm/actions/governor counters, dsl.load_ms) and the span
// dump. `callout_layer` is the span the engine's own work sits in.
void Finish(const Args& args, Outcome& outcome, const PassLog& log, const Tracer& tracer,
            Layer callout_layer);

// Checks every pass's digest against the oracle's.
void CheckDigests(Outcome& outcome, const PassLog& log, uint64_t oracle_digest,
                  const std::string& oracle_name);

// Σ num / Σ den of summed counters over the traced passes; den "callouts"
// divides by the callout count.
double Ratio(const PassLog& log, const std::string& num, const std::string& den);
// A summed counter of the last traced pass (counts repeat exactly per pass).
double LastPass(const PassLog& log, const std::string& key);
// Mean duration / self time of one layer's spans, in ns.
double MeanSpanNs(const PassLog& log, Layer layer);
double MeanSelfNs(const PassLog& log, Layer layer);

// Prints the host/sample line and then the final JSON result line.
void PrintOutcome(const Args& args, const Outcome& outcome);

Outcome RunLinnosDrift(const Args& args);
Outcome RunAgentChurn(const Args& args);
Outcome RunCalloutStorm(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
