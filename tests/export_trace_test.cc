// Golden trace of the store keys the engine exports about itself.
//
// The engine publishes its own state into the feature store at callout
// boundaries: per-monitor `monitor.<name>.uptime_evals`, the native tier's
// `engine.tier.*`, the overload governor's `engine.governor.*` and the
// retention manager's `store.retention.*` / `engine.store.*`. Guardrails
// watch these keys like any other (ONCHANGE on store.retention.breaches, a
// rule on engine.governor.mode), so *when* and *with what value* each one is
// written is observable behaviour.
//
// These tests drive fixed-seed runs with the governor, retention namespaces
// and persistence on — one with the native tier, one without — through one
// crash and warm restart, and record every store write to an exported key
// as a (boundary, key, value) row. Host-timed `engine.shard.*` keys are
// excluded. Three fingerprints are pinned:
//
//   * the digest of every row;
//   * the per-key write counts;
//   * the digest of the *effective* rows — the writes that changed the
//     key's stored value. A write that re-saves the value the key already
//     holds is dropped from this digest, so it pins what a guardrail
//     reading the store can observe, independent of redundant re-saves.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "src/actions/policy_registry.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "src/vm/native_aot.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

constexpr char kSpec[] = R"(
persist { interval = 150ms }

retention {
  scan_chunk = 4,
  namespace "tmp." { max_keys = 5, idle_ttl = 30ms }
}

guardrail hot {
  trigger: { FUNCTION(fn) },
  rule: { LOAD_OR(x, 0) <= 5 },
  action: { SAVE(hot.tripped, true) },
  meta: { criticality = critical }
}

guardrail shaky {
  trigger: { FUNCTION(fn) },
  rule: { 10 / LOAD_OR(div, 1) <= 100 },
  action: { REPORT("shaky") },
  health: { quarantine = 2, probe_every = 2, reinstate = 1, flap_threshold = 100 }
}

guardrail sampled {
  trigger: { FUNCTION(fn) },
  rule: { LOAD_OR(x, 0) <= 8 },
  action: { REPORT("sampled") },
  meta: { criticality = besteffort }
}

guardrail ticker {
  trigger: { TIMER(10ms, 10ms) },
  rule: { LOAD_OR(store.retention.evictions, 0) <= 1000000 },
  action: { REPORT("ticker") }
}

guardrail breach-watch {
  trigger: { ONCHANGE(store.retention.breaches) },
  rule: { LOAD_OR(store.retention.breaches, 0) == 0 },
  action: { SAVE(ctl.pressure, LOAD_OR(store.retention.breaches, 0)) }
}

guardrail mode-watch {
  trigger: { ONCHANGE(engine.governor.mode) },
  rule: { LOAD_OR(engine.governor.mode, 0) <= 1 },
  action: { REPORT("degraded") }
}
)";

constexpr int kSteps = 160;
constexpr int kCrashAfterStep = 97;
constexpr uint64_t kSeed = 20250713;

bool NativeAvailable() {
  static const bool available = [] {
    if (!NativeAot::CompiledIn()) {
      return false;
    }
    NativeAot aot;
    return aot.Available();
  }();
  return available;
}

bool IsExportedKey(const std::string& key) {
  const auto starts = [&key](std::string_view prefix) {
    return key.compare(0, prefix.size(), prefix) == 0;
  };
  const auto ends = [&key](std::string_view suffix) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (starts("engine.shard.")) {
    return false;  // host-timed scheduling telemetry
  }
  return starts("engine.tier.") || starts("engine.governor.") || starts("store.retention.") ||
         starts("engine.store.") || (starts("monitor.") && ends(".uptime_evals"));
}

uint64_t Fnv(uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Trace {
  uint64_t boundary = 0;  // callouts completed so far
  uint64_t digest = 14695981039346656037ull;
  uint64_t effective_digest = 14695981039346656037ull;
  std::map<std::string, int> writes;
  std::map<std::string, std::string> stored;  // last value each key holds

  void Record(const std::string& key, const Value& value) {
    const std::string rendered = value.ToString();
    const std::string row =
        std::to_string(boundary) + "|" + key + "|" + rendered + "\n";
    digest = Fnv(digest, row);
    ++writes[key];
    auto it = stored.find(key);
    if (it == stored.end() || it->second != rendered) {
      effective_digest = Fnv(effective_digest, row);
      stored[key] = rendered;
    }
  }

  // After a warm restart the store holds the recovered values; the replay
  // ran with observers suppressed, so re-read what each key now holds.
  void ResyncFrom(const FeatureStore& store) {
    for (auto& [key, rendered] : stored) {
      rendered = store.LoadOr(key, Value()).ToString();
    }
  }

  std::string Summary() const {
    std::ostringstream out;
    out << "digest 0x" << std::hex << digest << " effective 0x" << effective_digest
        << std::dec << "\n";
    for (const auto& [key, count] : writes) {
      out << "      {\"" << key << "\", " << count << "},\n";
    }
    return out.str();
  }
};

struct Boot {
  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<PersistManager> persist;
  std::unique_ptr<Engine> engine;
};

EngineOptions TraceOptions(bool native, const fs::path& cache) {
  EngineOptions options;
  options.measure_wall_time = false;  // host-clock costs are not replayable
  options.governor.enabled = true;
  options.governor.pressure_up = 20000.0;
  options.governor.pressure_down = 2000.0;
  options.governor.dwell_up = 3;
  options.governor.dwell_down = 6;
  options.governor.sample_every = 3;
  options.governor.alpha = 0.3;
  options.tier.enabled = native;
  options.tier.promote_after = 4;
  options.tier.cache_dir = cache.string();
  return options;
}

std::unique_ptr<Boot> StartBoot(bool native, const fs::path& dir, Trace& trace) {
  auto boot = std::make_unique<Boot>();
  Boot* raw = boot.get();
  boot->store.SetWriteObserver(
      [raw, &trace](const StoreWriteInfo& info, const std::string& key) {
        if (IsExportedKey(key)) {
          trace.Record(key, raw->store.LoadOr(info.id, Value()));
        }
        if (raw->engine != nullptr) {
          raw->engine->OnStoreWrite(info, key);
        }
      });
  boot->engine = std::make_unique<Engine>(&boot->store, &boot->registry, nullptr,
                                          TraceOptions(native, dir / "tier-cache"));
  PersistOptions persist;
  persist.dir = (dir / "persist").string();
  boot->persist = std::make_unique<PersistManager>(persist);
  boot->engine->SetPersist(boot->persist.get());
  EXPECT_TRUE(boot->engine->LoadSource(kSpec).ok());
  return boot;
}

// One deterministic step: a timer boundary, feature writes, then one
// FUNCTION callout — or a burst of them, which drives the governor up its
// ladder. Everything derives from (seed, step), so a step re-executed after
// the restart replays exactly.
void RunStep(Boot& boot, Trace& trace, int step) {
  Rng rng(kSeed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(step));
  const SimTime t = static_cast<SimTime>(step) * Milliseconds(5);
  boot.engine->AdvanceTo(t);
  ++trace.boundary;
  boot.store.Save("x", Value(rng.UniformInt(0, 10)));
  // Fault windows: `shaky` divides by zero, trips its breaker and (when
  // promoted) is demoted; probes reinstate it once the window closes.
  const bool fault = (step / 20) % 3 == 1;
  boot.store.Save("div", Value(static_cast<int64_t>(fault ? 0 : 1)));
  const int64_t minted = rng.UniformInt(0, 3);
  for (int64_t i = 0; i < minted; ++i) {
    boot.store.Save("tmp." + std::to_string(rng.UniformInt(0, 11)), Value(step));
  }
  const bool storm = (step / 25) % 2 == 1;
  const int callouts = storm ? 30 : 1;
  for (int i = 0; i < callouts; ++i) {
    boot.engine->OnFunctionCall("fn", t + Milliseconds(1) + i * 5000);
    ++trace.boundary;
  }
}

Trace RunTrace(bool native) {
  const fs::path dir = fs::path(::testing::TempDir()) / "osguard-export-trace" /
                       (native ? "native" : "interp");
  fs::remove_all(dir / "persist");
  fs::create_directories(dir);
  Trace trace;
  auto boot = StartBoot(native, dir, trace);
  EXPECT_TRUE(boot->persist->Open().ok());
  for (int step = 0; step <= kCrashAfterStep; ++step) {
    RunStep(*boot, trace, step);
  }
  // Crash: the process dies after the step's last boundary committed.
  boot.reset();
  boot = StartBoot(native, dir, trace);
  auto recovered = boot->engine->Restore(*boot->persist);
  EXPECT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.ok() && recovered.value().cold_start);
  trace.ResyncFrom(boot->store);
  for (int step = kCrashAfterStep + 1; step < kSteps; ++step) {
    RunStep(*boot, trace, step);
  }
  if (native) {
    // The run must exercise the tier transitions it is meant to pin.
    EXPECT_GT(boot->engine->tier_stats().promotions, 0u);
    EXPECT_GT(boot->engine->tier_stats().demotions, 0u);
  }
  EXPECT_GT(boot->engine->governor().stats().transitions, 0u);
  EXPECT_GT(boot->engine->retention().stats().reclaimed_quota, 0u);
  EXPECT_GT(boot->engine->retention().stats().reclaimed_idle, 0u);
  return trace;
}

class ExportTraceTest : public ::testing::Test {
 protected:
  ExportTraceTest() { Logger::Global().set_level(LogLevel::kOff); }
};

TEST_F(ExportTraceTest, InterpreterRunMatchesGolden) {
  const Trace trace = RunTrace(/*native=*/false);
  const std::map<std::string, int> expected = {
      {"engine.governor.mode", 163},
      {"engine.governor.sheds", 2308},
      {"engine.governor.static_applies", 75},
      {"engine.governor.transitions", 162},
      {"engine.store.bytes.agent.s", 1},
      {"engine.store.bytes.monitor.", 1},
      {"engine.store.bytes.tmp.", 51},
      {"engine.store.bytes.total", 52},
      {"engine.store.keys.agent.s", 1},
      {"engine.store.keys.live", 23},
      {"engine.store.keys.monitor.", 1},
      {"engine.store.keys.tmp.", 23},
      {"monitor.breach-watch.uptime_evals", 29},
      {"monitor.hot.uptime_evals", 1058},
      {"monitor.mode-watch.uptime_evals", 10},
      {"monitor.sampled.uptime_evals", 107},
      {"monitor.shaky.uptime_evals", 106},
      {"monitor.ticker.uptime_evals", 37},
      {"store.retention.breaches", 73},
      {"store.retention.evictions", 73},
      {"store.retention.reclaimed", 14},
  };
  EXPECT_EQ(trace.writes, expected) << trace.Summary();
  EXPECT_EQ(trace.effective_digest, 0x17da6fc037772b9bull) << trace.Summary();
  EXPECT_EQ(trace.digest, 0x17da6fc037772b9bull) << trace.Summary();
}

TEST_F(ExportTraceTest, NativeTierRunMatchesGolden) {
  if (!NativeAvailable()) {
    GTEST_SKIP() << "native tier unavailable on this host";
  }
  const Trace trace = RunTrace(/*native=*/true);
  const std::map<std::string, int> expected = {
      {"engine.governor.mode", 163},
      {"engine.governor.sheds", 2308},
      {"engine.governor.static_applies", 75},
      {"engine.governor.transitions", 162},
      {"engine.store.bytes.agent.s", 1},
      {"engine.store.bytes.monitor.", 1},
      {"engine.store.bytes.tmp.", 51},
      {"engine.store.bytes.total", 52},
      {"engine.store.keys.agent.s", 1},
      {"engine.store.keys.live", 23},
      {"engine.store.keys.monitor.", 1},
      {"engine.store.keys.tmp.", 23},
      {"engine.tier.breach-watch", 4},
      {"engine.tier.demotions", 4},
      {"engine.tier.hot", 4},
      {"engine.tier.interp_evals", 17},
      {"engine.tier.mode-watch", 4},
      {"engine.tier.native_evals", 1181},
      {"engine.tier.promotions", 12},
      {"engine.tier.sampled", 4},
      {"engine.tier.shaky", 7},
      {"engine.tier.ticker", 4},
      {"monitor.breach-watch.uptime_evals", 31},
      {"monitor.hot.uptime_evals", 1058},
      {"monitor.mode-watch.uptime_evals", 10},
      {"monitor.sampled.uptime_evals", 107},
      {"monitor.shaky.uptime_evals", 106},
      {"monitor.ticker.uptime_evals", 37},
      {"store.retention.breaches", 75},
      {"store.retention.evictions", 75},
      {"store.retention.reclaimed", 11},
  };
  EXPECT_EQ(trace.writes, expected) << trace.Summary();
  EXPECT_EQ(trace.effective_digest, 0xd3e6ca955bfb9087ull) << trace.Summary();
  EXPECT_EQ(trace.digest, 0x684571cadb55182dull) << trace.Summary();
}

}  // namespace
}  // namespace osguard
