#include "driver/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "src/actions/report.h"
#include "src/support/logging.h"

namespace perfbench {

using osguard::Engine;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finaliser over the seed and a per-use salt.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull + 0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string ReadFile(const Args& args, const std::string& relative) {
  std::ifstream in(args.root + "/" + relative, std::ios::binary);
  if (!in) {
    return "";
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- Tracing -----------------------------------------------------------------

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCallout:
      return "callout";
    case Layer::kRun:
      return "kernel.run";
    case Layer::kSubmitIo:
      return "blk.submit_io";
    case Layer::kPredict:
      return "ml.predict";
    case Layer::kToolCall:
      return "agent.on_tool_call";
    case Layer::kSessionEnd:
      return "agent.on_session_end";
    case Layer::kHook:
      return "kernel.callout";
    case Layer::kStoreWrite:
      return "store.write";
    case Layer::kLoad:
      return "dsl.load_guardrails";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Tracer::Reset() {
  spans_.clear();
  open_.clear();
}

void Tracer::Begin(Layer layer) {
  Span span;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.layer = layer;
  open_.push_back(static_cast<uint32_t>(spans_.size()));
  spans_.push_back(span);
  spans_.back().start_ns = NowNs();
}

void Tracer::End() {
  const int64_t end = NowNs();
  spans_[open_.back()].end_ns = end;
  open_.pop_back();
}

void Tracer::Accumulate(LayerTable& table) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTotals& totals = table[static_cast<size_t>(span.layer)];
    const int64_t duration = span.end_ns - span.start_ns;
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
  }
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "index,parent,layer,start_ns,end_ns\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu,%" PRId64 ",%s,%" PRId64 ",%" PRId64 "\n", i,
                 span.parent == kNoParent ? int64_t{-1} : static_cast<int64_t>(span.parent),
                 LayerName(span.layer), span.start_ns - origin, span.end_ns - origin);
  }
  return std::fclose(out) == 0;
}

// VmHWM, unlike getrusage's ru_maxrss, does not carry over the peak of the
// process that exec'd this one.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Latency -----------------------------------------------------------------

void CalloutTimes::Resize(size_t callouts) {
  best_callout_.assign(callouts, std::numeric_limits<int64_t>::max());
  best_step_.assign(callouts, std::numeric_limits<int64_t>::max());
}

double CalloutTimes::PercentileUs(double q) const {
  if (best_callout_.empty() || best_callout_.front() == std::numeric_limits<int64_t>::max()) {
    return 0.0;
  }
  std::vector<int64_t> best = best_callout_;
  const double rank = std::ceil(q * static_cast<double>(best.size()));
  const size_t index = std::min(best.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(best.begin(), best.begin() + static_cast<ptrdiff_t>(index), best.end());
  return static_cast<double>(best[index]) / 1000.0;
}

double CalloutTimes::RatePerS() const {
  if (best_step_.empty() || best_step_.front() == std::numeric_limits<int64_t>::max()) {
    return 0.0;
  }
  double total_ns = 0.0;
  for (int64_t ns : best_step_) {
    total_ns += static_cast<double>(ns);
  }
  return static_cast<double>(best_step_.size()) * 1e9 / std::max(total_ns, 1.0);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double Best(const std::vector<double>& values, bool highest) {
  if (values.empty()) {
    return 0.0;
  }
  return highest ? *std::max_element(values.begin(), values.end())
                 : *std::min_element(values.begin(), values.end());
}

// --- Digest ------------------------------------------------------------------

void Digest::Add(std::string_view key, uint64_t value) {
  text_ += key;
  text_ += '=';
  text_ += std::to_string(value);
  text_ += '\n';
}

void Digest::Add(std::string_view key, int64_t value) {
  text_ += key;
  text_ += '=';
  text_ += std::to_string(value);
  text_ += '\n';
}

void Digest::Add(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Add(key, std::string_view(buf));
}

void Digest::Add(std::string_view key, std::string_view value) {
  text_ += key;
  text_ += '=';
  text_ += value;
  text_ += '\n';
}

uint64_t Digest::Hash() const {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : text_) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

void DigestEngine(Digest& digest, Engine& engine) {
  for (const std::string& name : engine.MonitorNames()) {
    const osguard::MonitorStats* s = engine.FindStats(name);
    if (s == nullptr) {
      continue;
    }
    const std::string p = "monitor." + name + ".";
    digest.Add(p + "evaluations", s->evaluations);
    digest.Add(p + "violations", s->violations);
    digest.Add(p + "action_firings", s->action_firings);
    digest.Add(p + "satisfy_firings", s->satisfy_firings);
    digest.Add(p + "errors", s->errors);
    digest.Add(p + "suppressed_hysteresis", s->suppressed_hysteresis);
    digest.Add(p + "suppressed_cooldown", s->suppressed_cooldown);
    digest.Add(p + "in_violation", static_cast<uint64_t>(s->in_violation));
    digest.Add(p + "consecutive_violations", static_cast<int64_t>(s->consecutive_violations));
    digest.Add(p + "last_action_time", static_cast<int64_t>(s->last_action_time));
    digest.Add(p + "uptime_evals", s->uptime_evals);
  }
  const osguard::ReporterSnapshot counters = engine.reporter().SnapshotCounters();
  digest.Add("reports.total", counters.next_sequence);
  for (const auto& [name, count] : counters.per_guardrail) {
    digest.Add("reports.by_monitor." + name, count);
  }
  for (const auto& [kind, count] : counters.per_kind) {
    digest.Add("reports.by_kind." + std::to_string(kind), count);
  }
  // The retained tail of the report sequence (the reporter keeps a bounded
  // ring; the counters above cover the rest).
  for (const osguard::ReportRecord& record : engine.reporter().Records()) {
    digest.Add("report", record.guardrail + "/" +
                             std::string(osguard::ReportKindName(record.kind)) + "@" +
                             std::to_string(record.time));
  }
}

void SumEngineCounters(Engine& engine, std::map<std::string, double>& sums) {
  int64_t rule_ns = 0;
  int64_t action_ns = 0;
  uint64_t action_runs = 0;
  for (const std::string& name : engine.MonitorNames()) {
    if (const osguard::MonitorStats* s = engine.FindStats(name)) {
      rule_ns += s->rule_wall_ns;
      action_ns += s->action_wall_ns;
      action_runs += s->action_firings + s->satisfy_firings;
    }
  }
  const osguard::EngineStats stats = engine.stats();
  sums["engine.evals"] += static_cast<double>(stats.evaluations);
  sums["engine.rule_wall_ns"] += static_cast<double>(rule_ns);
  sums["engine.action_wall_ns"] += static_cast<double>(action_ns);
  const osguard::ExecStats& vm = engine.vm().stats();
  sums["vm.insns"] += static_cast<double>(vm.insns_executed);
  sums["vm.helpers"] += static_cast<double>(vm.helper_calls);
  const osguard::ActionStats actions = engine.dispatcher().stats();
  sums["actions.reports"] += static_cast<double>(actions.reports);
  sums["actions.dispatches"] += static_cast<double>(actions.dispatches);
  sums["actions.latency_ns"] += static_cast<double>(actions.latency_total_ns);
  const osguard::GovernorStats& gov = engine.governor().stats();
  // Fail-static defaults run the action program too.
  sums["engine.action_runs"] += static_cast<double>(action_runs + gov.static_applies);
  const uint64_t sheds = gov.sheds_besteffort + gov.sheds_standard + gov.static_suppressed;
  sums["governor.sheds"] += static_cast<double>(sheds);
  sums["governor.attempts"] += static_cast<double>(stats.evaluations + sheds);
  sums["governor.transitions"] += static_cast<double>(gov.transitions);
  sums["governor.critical_sheds"] += static_cast<double>(gov.critical_sheds);
}

uint64_t EngineFaults(Engine& engine) {
  return engine.stats().errors + engine.dispatcher().stats().failures;
}

// --- Log sink ----------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_log_records{0};
std::atomic<uint64_t> g_commit_failures{0};
}  // namespace

void InstallCountingLogSink() {
  osguard::Logger::Global().SetSinks({[](osguard::LogLevel, std::string_view message) {
    g_log_records.fetch_add(1, std::memory_order_relaxed);
    if (message.rfind("persist commit failed", 0) == 0) {
      g_commit_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }});
}

uint64_t LogRecords() { return g_log_records.load(std::memory_order_relaxed); }
uint64_t PersistCommitFailures() { return g_commit_failures.load(std::memory_order_relaxed); }

// --- Metrics -----------------------------------------------------------------

double Ratio(const PassLog& log, const std::string& num, const std::string& den) {
  double n = 0.0;
  double d = 0.0;
  for (const PassStats& pass : log.traced) {
    auto it = pass.sums.find(num);
    n += it == pass.sums.end() ? 0.0 : it->second;
    if (den == "callouts") {
      d += static_cast<double>(pass.callouts);
    } else {
      auto jt = pass.sums.find(den);
      d += jt == pass.sums.end() ? 0.0 : jt->second;
    }
  }
  return d > 0.0 ? n / d : 0.0;
}

double LastPass(const PassLog& log, const std::string& key) {
  if (log.traced.empty()) {
    return 0.0;
  }
  auto it = log.traced.back().sums.find(key);
  return it == log.traced.back().sums.end() ? 0.0 : it->second;
}

double MeanSpanNs(const PassLog& log, Layer layer) {
  const LayerTotals& totals = log.layers[static_cast<size_t>(layer)];
  return totals.count == 0 ? 0.0
                           : static_cast<double>(totals.total_ns) /
                                 static_cast<double>(totals.count);
}

double MeanSelfNs(const PassLog& log, Layer layer) {
  const LayerTotals& totals = log.layers[static_cast<size_t>(layer)];
  return totals.count == 0 ? 0.0
                           : static_cast<double>(totals.self_ns) /
                                 static_cast<double>(totals.count);
}

namespace {

double PassRate(const PassStats& pass) {
  return static_cast<double>(pass.callouts) * 1e9 /
         static_cast<double>(std::max<int64_t>(pass.loop_ns, 1));
}

void AddEndToEnd(Outcome& outcome, const PassLog& log) {
  std::vector<double> rate;
  std::vector<double> setup;
  for (const PassStats& pass : log.untraced) {
    rate.push_back(PassRate(pass));
    if (pass.setup_s) {
      setup.push_back(*pass.setup_s);
    }
  }
  // Latency and throughput come from each callout's best time over the
  // passes (see CalloutTimes). Every setup builds the same state, so
  // setup_s is likewise the best setup of the run. The per-pass throughput
  // and every setup are printed alongside.
  const CalloutTimes& times = log.untraced_times;
  outcome.metrics["callouts_per_s"] = times.RatePerS();
  outcome.metrics["callout_p50_us"] = times.PercentileUs(0.50);
  outcome.metrics["callout_p99_us"] = times.PercentileUs(0.99);
  outcome.metrics["setup_s"] = Best(setup, /*highest=*/false);
  outcome.metrics["rss_peak_mb"] = log.rss_peak_mb;
  outcome.metrics["ok_callouts_pct"] =
      outcome.attempted == 0
          ? 0.0
          : 100.0 * static_cast<double>(outcome.attempted - std::min(outcome.failed,
                                                                     outcome.attempted)) /
                static_cast<double>(outcome.attempted);
  outcome.per_pass["callouts_per_s"] = rate;
  outcome.per_pass["setup_s"] = setup;
  outcome.samples["callouts_per_pass"] = times.callouts();
  outcome.samples["untraced_passes"] = log.untraced.size();
  outcome.samples["setups"] = setup.size();
  outcome.samples["traced_passes"] = log.traced.size();
}

void AddCommonLayers(Outcome& outcome, const PassLog& log, Layer callout_layer) {
  auto& m = outcome.metrics;
  // p999 and the untraced rate come from the untraced half of this run.
  m["trace.callout_p999_us"] = log.untraced_times.PercentileUs(0.999);
  const double base = log.untraced_times.RatePerS();
  m["trace.overhead_pct"] =
      base > 0.0 ? 100.0 * (base - log.traced_times.RatePerS()) / base : 0.0;
  outcome.samples["trace.callout_p999_us"] = log.untraced_times.callouts();
  outcome.samples["untraced_passes"] = log.untraced.size();
  outcome.samples["traced_passes"] = log.traced.size();

  m["engine.evals_per_callout"] = Ratio(log, "engine.evals", "callouts");
  m["engine.rule_exec_ns"] = Ratio(log, "engine.rule_wall_ns", "engine.evals");
  m["engine.action_exec_ns"] = Ratio(log, "engine.action_wall_ns", "engine.action_runs");
  // The callout span minus the rule and action time inside it: trigger
  // dispatch, admission and callout-boundary work.
  const double rule_action_per_callout = Ratio(log, "engine.rule_wall_ns", "callouts") +
                                         Ratio(log, "engine.action_wall_ns", "callouts");
  const double callout_span = MeanSpanNs(log, callout_layer);
  m["engine.callout_self_ns"] =
      callout_span > 0.0 ? callout_span - rule_action_per_callout : 0.0;
  m["vm.insns_per_eval"] = Ratio(log, "vm.insns", "engine.evals");
  m["vm.helpers_per_eval"] = Ratio(log, "vm.helpers", "engine.evals");
  m["governor.shed_ratio"] = Ratio(log, "governor.sheds", "governor.attempts");
  m["governor.transitions"] = LastPass(log, "governor.transitions");
  m["governor.critical_sheds"] = LastPass(log, "governor.critical_sheds");
  m["actions.reports"] = LastPass(log, "actions.reports");
  m["actions.dispatch_ns"] = Ratio(log, "actions.latency_ns", "actions.dispatches");
  m["actions.log_records"] = LastPass(log, "actions.log_records");
  m["dsl.load_ms"] = MeanSpanNs(log, Layer::kLoad) / 1e6;
}

}  // namespace

void Finish(const Args& args, Outcome& outcome, const PassLog& log, const Tracer& tracer,
            Layer callout_layer) {
  for (const std::vector<PassStats>* passes : {&log.untraced, &log.traced}) {
    for (const PassStats& pass : *passes) {
      outcome.attempted += pass.callouts;
      outcome.failed += pass.failed;
    }
  }
  outcome.passes = log.untraced.size() + log.traced.size();
  if (!args.trace) {
    AddEndToEnd(outcome, log);
    return;
  }
  AddCommonLayers(outcome, log, callout_layer);
  outcome.span_file = args.work_dir + "/spans-" + args.workload + ".csv";
  if (!tracer.WriteCsv(outcome.span_file)) {
    outcome.span_file.clear();
  }
}

void CheckDigests(Outcome& outcome, const PassLog& log, uint64_t oracle_digest,
                  const std::string& oracle_name) {
  for (const std::vector<PassStats>* passes : {&log.untraced, &log.traced}) {
    for (const PassStats& pass : *passes) {
      if (pass.digest != oracle_digest) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "decision digest %016" PRIx64 " != %s %016" PRIx64,
                      pass.digest, oracle_name.c_str(), oracle_digest);
        outcome.Fail(buf);
        return;
      }
    }
  }
}

// --- Output ------------------------------------------------------------------

namespace {

// The per-layer metrics every traced run reports (0 where a workload has
// no work in that layer), in BENCHMARK.json order.
constexpr const char* kPerLayer[][2] = {
    {"sim.run_us", "us"},
    {"sim.blk_self_us", "us"},
    {"ml.predict_ns", "ns"},
    {"ml.predictions", "count"},
    {"ml.train_s", "s"},
    {"dsl.load_ms", "ms"},
    {"engine.evals_per_callout", "evals/callout"},
    {"engine.rule_exec_ns", "ns"},
    {"engine.action_exec_ns", "ns"},
    {"engine.callout_self_ns", "ns"},
    {"vm.insns_per_eval", "insns/eval"},
    {"vm.helpers_per_eval", "calls/eval"},
    {"governor.shed_ratio", "ratio"},
    {"governor.transitions", "count"},
    {"governor.critical_sheds", "count"},
    {"actions.reports", "count"},
    {"actions.dispatch_ns", "ns"},
    {"actions.log_records", "count"},
    {"agent.tool_call_us", "us"},
    {"agent.session_end_us", "us"},
    {"agent.rejected_ratio", "ratio"},
    {"retention.reclaimed", "count"},
    {"retention.quota_breaches", "count"},
    {"store.live_keys_peak", "count"},
    {"store.bytes_peak", "bytes"},
    {"store.stale_hits", "count"},
    {"persist.frames", "count"},
    {"persist.bytes_per_frame", "bytes"},
    {"persist.snapshots", "count"},
    {"persist.snapshot_failures", "count"},
    {"persist.boundary_us", "us"},
    {"shard.parallel_fraction", "ratio"},
    {"shard.batches", "count"},
    {"shard.merge_ns_per_batch", "ns"},
    {"shard.serial_callouts", "count"},
    {"shard.watchdog_timeouts", "count"},
    {"shard.speedup_vs_serial", "x"},
    {"trace.callout_p999_us", "us"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kEndToEnd[][2] = {
    {"callouts_per_s", "1/s"},      {"callout_p50_us", "us"}, {"callout_p99_us", "us"},
    {"setup_s", "s"},               {"rss_peak_mb", "MB"},    {"ok_callouts_pct", "%"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintOutcome(const Args& args, const Outcome& outcome) {
  std::string info = "{\"perfbench\": {\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") + ", \"host\": {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"compiler\": " + JsonString(PERFBENCH_CXX_COMPILER) +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"source\": " + JsonString(args.source_id) + "}, \"samples\": {";
  bool first = true;
  for (const auto& [name, count] : outcome.samples) {
    info += (first ? "" : ", ") + JsonString(name) + ": " + std::to_string(count);
    first = false;
  }
  info += "}, \"passes\": " + std::to_string(outcome.passes) + ", \"per_pass\": {";
  first = true;
  for (const auto& [name, values] : outcome.per_pass) {
    info += (first ? "" : ", ") + JsonString(name) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.5g", i > 0 ? ", " : "", values[i]);
      info += buf;
    }
    info += "]";
    first = false;
  }
  info += "}";
  if (!outcome.span_file.empty()) {
    info += ", \"spans\": " + JsonString(outcome.span_file);
  }
  info += ", \"problems\": [";
  for (size_t i = 0; i < outcome.problems.size(); ++i) {
    info += (i > 0 ? ", " : "") + JsonString(outcome.problems[i]);
  }
  info += "]}}";
  std::printf("%s\n", info.c_str());

  // The result schema needs attempted >= 1; a run with none is already
  // marked incorrect.
  const uint64_t attempted = std::max<uint64_t>(outcome.attempted, 1);
  std::string line = "{\"correct\": " + std::string(outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  first = true;
  auto emit = [&](const char* name, const char* unit) {
    auto it = outcome.metrics.find(name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    line += std::string(first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(value) + ", \"unit\": " + JsonString(unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const auto& metric : kPerLayer) {
      emit(metric[0], metric[1]);
    }
  } else {
    for (const auto& metric : kEndToEnd) {
      emit(metric[0], metric[1]);
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
