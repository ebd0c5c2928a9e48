// Bounded-memory feature store: key lifecycle, namespace quotas, and
// memory-pressure governance (docs/STORE.md), under `ctest -L retention`:
//   * the spec-level `retention { }` block — parse + semantic validation;
//   * RetentionManager unit behavior on a bare store — idle-TTL scan with
//     the incremental cursor, LRU quota eviction with the stable tie-break,
//     builtin namespace defaults, telemetry publication, chaos storm/breach
//     injection, self-correcting bookkeeping under external reclaims;
//   * the idle-TTL skip is exact — randomized op sequences and cursor edge
//     cases against a reference model of the plain cursor walk;
//   * engine/kernel integration — TTL reclamation at callout boundaries,
//     quota-breach ONCHANGE corrective hooks, unloaded-monitor counter
//     adoption, live keys staying governed across a spec reload, agent
//     kill-path and session-end eager reclamation, warm restart carrying the
//     retention image;
//   * off == absent — without a retention block nothing is stamped, no
//     store.retention.* keys are interned, and agent/session state keeps
//     the seed lifecycle exactly.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/actions/agent_control.h"
#include "src/agent/tool_call.h"
#include "src/chaos/chaos.h"
#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/retention.h"
#include "src/sim/agent_callout.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/time.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

class RetentionTest : public ::testing::Test {
 protected:
  RetentionTest() { Logger::Global().set_level(LogLevel::kOff); }
};

Result<AnalyzedSpec> AnalyzeSource(const std::string& source) {
  auto spec = ParseSpecSource(source);
  if (!spec.ok()) {
    return spec.status();
  }
  return Analyze(std::move(spec).value());
}

double LoadNum(Kernel& kernel, const std::string& key) {
  return kernel.store().LoadOr(key, Value(0.0)).NumericOr(-1.0);
}

// --- DSL surface ---

TEST_F(RetentionTest, SpecBlockParsesAndAnalyzes) {
  auto analyzed = AnalyzeSource(R"(
    retention {
      scan_chunk = 128
      namespace "agent.s" { max_keys = 1000, idle_ttl = 30s }
      namespace "tmp." { idle_ttl = 500ms }
      namespace "cache." { max_keys = 64 }
    }
  )");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_TRUE(analyzed.value().retention.has_value());
  const AnalyzedRetention& r = *analyzed.value().retention;
  EXPECT_EQ(r.scan_chunk, 128u);
  ASSERT_EQ(r.namespaces.size(), 3u);
  EXPECT_EQ(r.namespaces[0].prefix, "agent.s");
  EXPECT_EQ(r.namespaces[0].max_keys, 1000u);
  EXPECT_EQ(r.namespaces[0].idle_ttl, Seconds(30));
  EXPECT_EQ(r.namespaces[1].max_keys, 0u);
  EXPECT_EQ(r.namespaces[1].idle_ttl, Milliseconds(500));
  EXPECT_EQ(r.namespaces[2].max_keys, 64u);
  EXPECT_EQ(r.namespaces[2].idle_ttl, 0);
}

TEST_F(RetentionTest, SpecBlockRejectsMalformedInput) {
  // Duplicate block (parse), empty prefix, duplicate prefix, unknown
  // attributes, and a namespace with no policy at all (sema).
  const char* bad[] = {
      "retention { } retention { }",
      R"(retention { namespace "" { idle_ttl = 1s } })",
      R"(retention { namespace "a." { idle_ttl = 1s },
                     namespace "a." { idle_ttl = 2s } })",
      R"(retention { frobnicate = 3 })",
      R"(retention { namespace "a." { frobnicate = 3 } })",
      R"(retention { namespace "a." { } })",
  };
  for (const char* source : bad) {
    EXPECT_FALSE(AnalyzeSource(source).ok()) << source;
  }
}

TEST_F(RetentionTest, AbsentBlockMeansAbsentPolicy) {
  auto analyzed = AnalyzeSource(
      "guardrail g { trigger: { TIMER(0, 1s) }, rule: { true }, "
      "action: { REPORT() } }");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_FALSE(analyzed.value().retention.has_value());
}

// --- RetentionManager unit behavior (bare store) ---

struct BareRetention {
  FeatureStore store;
  ExportTable exports{&store};
  RetentionManager manager;
  SimTime now = 0;

  explicit BareRetention(RetentionOptions options) {
    options.enabled = true;
    manager.Configure(options, &store, &exports);
    store.SetWriteObserver(
        [this](const StoreWriteInfo& info, const std::string& key) {
          manager.OnWrite(info, key, now);
        });
  }
};

RetentionOptions OneNamespace(const std::string& prefix, uint64_t max_keys,
                              Duration idle_ttl) {
  RetentionOptions options;
  options.scan_chunk = 64;
  options.namespaces.push_back(RetentionNamespaceOptions{prefix, max_keys, idle_ttl});
  return options;
}

TEST_F(RetentionTest, IdleTtlReclaimsGovernedKeysOnly) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.a", Value(1));
  bare.store.Save("tmp.b", Value(2));
  bare.store.Save("other.c", Value(3));
  bare.now = Milliseconds(900);
  bare.store.Save("tmp.b", Value(4));  // refresh: b's idle clock restarts

  bare.now = Seconds(1);  // a idle 1s (>= ttl), b idle 100ms
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.a"));
  EXPECT_TRUE(bare.store.Contains("tmp.b"));
  EXPECT_TRUE(bare.store.Contains("other.c"));  // ungoverned: never reclaimed
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 1u);

  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.b"));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
}

TEST_F(RetentionTest, IncrementalCursorCoversAllSlotsAcrossBoundaries) {
  RetentionOptions options = OneNamespace("tmp.", 0, Seconds(1));
  options.scan_chunk = 4;  // 32 governed slots need 8 boundaries per lap
  BareRetention bare(options);
  for (int i = 0; i < 32; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  bare.now = Seconds(5);
  for (int boundary = 0; boundary < 16; ++boundary) {
    bare.manager.RunAtBoundary(bare.now);
  }
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(bare.store.Contains("tmp.k" + std::to_string(i))) << i;
  }
}

TEST_F(RetentionTest, QuotaEvictsLeastRecentlyWrittenFirst) {
  BareRetention bare(OneNamespace("q.", 2, 0));
  bare.now = Milliseconds(1);
  bare.store.Save("q.old", Value(1));
  bare.now = Milliseconds(2);
  bare.store.Save("q.mid", Value(2));
  bare.now = Milliseconds(3);
  bare.store.Save("q.new", Value(3));

  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.old"));
  EXPECT_TRUE(bare.store.Contains("q.mid"));
  EXPECT_TRUE(bare.store.Contains("q.new"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 1u);
  EXPECT_EQ(bare.manager.stats().quota_breaches, 1u);

  // Refreshing the survivor demotes the other: LRU is by last WRITE.
  bare.now = Milliseconds(4);
  bare.store.Save("q.mid", Value(5));
  bare.now = Milliseconds(5);
  bare.store.Save("q.back", Value(6));
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.new"));
  EXPECT_TRUE(bare.store.Contains("q.mid"));
  EXPECT_TRUE(bare.store.Contains("q.back"));
}

TEST_F(RetentionTest, QuotaTieBreakIsStableOnSlotId) {
  BareRetention bare(OneNamespace("q.", 2, 0));
  // All four written at the same instant: eviction order must fall back to
  // slot id (intern order), lowest first — deterministically.
  for (const char* key : {"q.a", "q.b", "q.c", "q.d"}) {
    bare.store.Save(key, Value(1));
  }
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.a"));
  EXPECT_FALSE(bare.store.Contains("q.b"));
  EXPECT_TRUE(bare.store.Contains("q.c"));
  EXPECT_TRUE(bare.store.Contains("q.d"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 2u);
}

TEST_F(RetentionTest, PinnedKeysAreLifecycleExempt) {
  BareRetention bare(OneNamespace("tmp.", 1, Seconds(1)));
  bare.store.Save("tmp.pinned", Value(1));
  bare.store.Pin(bare.store.InternKey("tmp.pinned"));
  bare.store.Save("tmp.loose", Value(2));
  bare.now = Seconds(10);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.pinned"));
  EXPECT_FALSE(bare.store.Contains("tmp.loose"));
}

TEST_F(RetentionTest, BookkeepingConvergesUnderExternalReclaims) {
  BareRetention bare(OneNamespace("tmp.", 2, 0));
  for (int i = 0; i < 4; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  // Two keys vanish behind the manager's back (session-teardown style).
  ASSERT_TRUE(bare.store.ReclaimKey("tmp.k0").ok());
  ASSERT_TRUE(bare.store.ReclaimKey("tmp.k1").ok());
  // The census in the quota pass corrects the drifted count: two live keys
  // fit the budget of two, so nothing more is evicted.
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.k2"));
  EXPECT_TRUE(bare.store.Contains("tmp.k3"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 0u);
}

TEST_F(RetentionTest, QuotaCountsSlotsRecycledAcrossNamespaces) {
  // A slot freed from one namespace and recycled into another counts
  // against the new namespace's budget.
  RetentionOptions options = OneNamespace("a.", 0, Seconds(1));
  options.namespaces.push_back(RetentionNamespaceOptions{"b.", 1, 0});
  BareRetention bare(options);
  bare.store.Save("a.x", Value(1));
  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  ASSERT_FALSE(bare.store.Contains("a.x"));
  bare.store.Save("b.y", Value(1));  // recycles a.x's slot
  bare.store.Save("b.z", Value(2));
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("b.y"));  // same stamp: lower slot id first
  EXPECT_TRUE(bare.store.Contains("b.z"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 1u);
  EXPECT_EQ(bare.store.LoadOr("engine.store.keys.b.", Value(-1)).NumericOr(-1.0), 1.0);
}

TEST_F(RetentionTest, RecycledSlotIsTrackedAsNewTenant) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.first", Value(1));
  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  ASSERT_FALSE(bare.store.Contains("tmp.first"));
  // The recycled slot's new tenant gets a fresh stamp and its own lifecycle.
  bare.store.Save("tmp.second", Value(2));
  bare.manager.RunAtBoundary(bare.now);  // same instant: not idle yet
  EXPECT_TRUE(bare.store.Contains("tmp.second"));
  bare.now = Seconds(4);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.second"));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
}

TEST_F(RetentionTest, TelemetryKeysPublishValueDiffed) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.a", Value(std::string("payload")));
  bare.manager.RunAtBoundary(bare.now);
  // First boundary publishes the whole surface.
  EXPECT_TRUE(bare.store.Contains("store.retention.reclaimed"));
  EXPECT_TRUE(bare.store.Contains("store.retention.evictions"));
  EXPECT_TRUE(bare.store.Contains("store.retention.breaches"));
  EXPECT_TRUE(bare.store.Contains("engine.store.bytes.total"));
  EXPECT_TRUE(bare.store.Contains("engine.store.keys.live"));
  EXPECT_TRUE(bare.store.Contains("engine.store.keys.tmp."));
  EXPECT_TRUE(bare.store.Contains("engine.store.bytes.tmp."));
  EXPECT_EQ(bare.store.LoadOr("engine.store.keys.tmp.", Value(0)).NumericOr(-1.0), 1.0);
  const double ns_bytes =
      bare.store.LoadOr("engine.store.bytes.tmp.", Value(0)).NumericOr(0.0);
  EXPECT_GT(ns_bytes, 0.0);

  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_EQ(bare.store.LoadOr("store.retention.reclaimed", Value(0)).NumericOr(-1.0), 1.0);
  EXPECT_EQ(bare.store.LoadOr("engine.store.keys.tmp.", Value(-1)).NumericOr(-1.0), 0.0);
  EXPECT_EQ(bare.store.LoadOr("engine.store.bytes.tmp.", Value(-1)).NumericOr(-1.0), 0.0);
}

TEST_F(RetentionTest, BuiltinNamespacesFillInUnlessSpecGoverns) {
  RetentionOptions options;
  options.enabled = true;
  RetentionOptions with = WithBuiltinNamespaces(options);
  ASSERT_EQ(with.namespaces.size(), 2u);
  EXPECT_EQ(with.namespaces[0].prefix, "agent.s");
  EXPECT_GT(with.namespaces[0].idle_ttl, 0);
  EXPECT_EQ(with.namespaces[1].prefix, "monitor.");
  EXPECT_GT(with.namespaces[1].idle_ttl, 0);

  // A spec that governs "agent.s" itself keeps its own policy; only the
  // missing builtin is appended.
  RetentionOptions custom = OneNamespace("agent.s", 10, Seconds(5));
  custom.enabled = true;
  RetentionOptions merged = WithBuiltinNamespaces(custom);
  ASSERT_EQ(merged.namespaces.size(), 2u);
  EXPECT_EQ(merged.namespaces[0].max_keys, 10u);
  EXPECT_EQ(merged.namespaces[1].prefix, "monitor.");

  // Disabled options pass through untouched (off == absent).
  RetentionOptions off;
  EXPECT_TRUE(WithBuiltinNamespaces(off).namespaces.empty());
}

TEST_F(RetentionTest, LongestPrefixClassificationWins) {
  RetentionOptions options = OneNamespace("a.", 0, Seconds(100));
  options.namespaces.push_back(RetentionNamespaceOptions{"a.b.", 0, Seconds(1)});
  BareRetention bare(options);
  bare.store.Save("a.x", Value(1));
  bare.store.Save("a.b.x", Value(2));
  bare.now = Seconds(2);  // over the specific TTL, under the general one
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("a.x"));
  EXPECT_FALSE(bare.store.Contains("a.b.x"));
}

TEST_F(RetentionTest, ChaosStormReclaimsEverythingGoverned) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(100)));
  ChaosEngine chaos(7);
  bare.manager.AttachChaos(&chaos);
  FaultPlanConfig plan;
  plan.mode = FaultMode::kSchedule;
  plan.nth = {0};  // the first boundary is the storm
  ASSERT_TRUE(chaos.Arm(kChaosSiteStoreEvictStorm, plan).ok());

  for (int i = 0; i < 8; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  bare.now = Milliseconds(1);  // far under the TTL: only the storm reclaims
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_EQ(bare.manager.stats().chaos_storms, 1u);
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(bare.store.Contains("tmp.k" + std::to_string(i))) << i;
  }
  // The next boundary is calm again.
  bare.store.Save("tmp.back", Value(1));
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.back"));
}

TEST_F(RetentionTest, ChaosBreachCollapsesBudgetsToHalf) {
  BareRetention bare(OneNamespace("q.", 100, 0));  // generous real budget
  ChaosEngine chaos(7);
  bare.manager.AttachChaos(&chaos);
  FaultPlanConfig plan;
  plan.mode = FaultMode::kSchedule;
  plan.nth = {0};
  ASSERT_TRUE(chaos.Arm(kChaosSiteStoreQuotaBreach, plan).ok());

  for (int i = 0; i < 8; ++i) {
    bare.now = Milliseconds(i + 1);
    bare.store.Save("q.k" + std::to_string(i), Value(i));
  }
  bare.manager.RunAtBoundary(bare.now);
  // 8 live, budget collapsed to 4: the 4 oldest writes are evicted.
  EXPECT_EQ(bare.manager.stats().chaos_breaches, 1u);
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(bare.store.Contains("q.k" + std::to_string(i))) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(bare.store.Contains("q.k" + std::to_string(i))) << i;
  }
}

TEST_F(RetentionTest, ReclaimPrefixTearsDownAFamily) {
  BareRetention bare(OneNamespace("agent.s", 0, Seconds(100)));
  bare.store.Save("agent.s7.calls", Value(3));
  bare.store.Save("agent.s7.taint", Value(true));
  bare.store.Save("agent.s8.calls", Value(1));
  EXPECT_EQ(bare.manager.ReclaimPrefix("agent.s7."), 2u);
  EXPECT_FALSE(bare.store.Contains("agent.s7.calls"));
  EXPECT_FALSE(bare.store.Contains("agent.s7.taint"));
  EXPECT_TRUE(bare.store.Contains("agent.s8.calls"));
}

// --- The idle-TTL skip is exact ---

// Reference model of the idle-TTL sweep: per-slot stamps and a cursor that
// walks `scan_chunk` slots per boundary, with no recency lists and no skip.
// It covers TTL-only policies (no namespace ever exceeds its key budget), so
// the manager's quota pass has nothing to do.
struct WalkModel {
  struct Slot {
    int32_t ns = -1;  // -1: untracked (ungoverned, pinned, or reclaimed)
    uint32_t generation = 0;
    SimTime last_write = 0;
  };

  FeatureStore store;
  RetentionOptions options;
  std::vector<Slot> slots;
  uint64_t cursor = 0;
  RetentionStats stats;
  SimTime now = 0;

  explicit WalkModel(const RetentionOptions& opts) : options(opts) {
    store.SetWriteObserver([this](const StoreWriteInfo& info, const std::string& key) {
      if (info.id >= slots.size()) {
        slots.resize(info.id + 1);
      }
      Slot& s = slots[info.id];
      if (info.pinned) {
        s.ns = -1;
        return;
      }
      if (s.ns < 0 || s.generation != info.generation) {
        s.generation = info.generation;
        s.ns = Classify(key);
      }
      s.last_write = now;
    });
  }

  int32_t Classify(std::string_view key) const {
    int32_t best = -1;
    size_t best_len = 0;
    for (size_t i = 0; i < options.namespaces.size(); ++i) {
      const std::string& prefix = options.namespaces[i].prefix;
      if (key.substr(0, prefix.size()) == prefix && prefix.size() >= best_len) {
        best = static_cast<int32_t>(i);
        best_len = prefix.size();
      }
    }
    return best;
  }

  bool Reclaim(KeyId id) {
    const Status status = store.ReclaimKeyId(id);
    if (status.ok()) {
      ++stats.reclaimed_idle;
    } else if (status.code() == ErrorCode::kNotFound) {
      ++stats.stale_tracks_fixed;
    }
    slots[id].ns = -1;
    return status.ok();
  }

  void Boundary(bool storm) {
    stats.chaos_storms += storm ? 1 : 0;
    if (slots.empty()) {
      return;
    }
    const uint64_t budget = storm ? slots.size() : options.scan_chunk;
    for (uint64_t step = 0; step < budget; ++step) {
      if (cursor >= slots.size()) {
        cursor = 0;
      }
      const KeyId id = static_cast<KeyId>(cursor++);
      const Slot& s = slots[id];
      if (s.ns < 0) {
        continue;
      }
      const Duration ttl = options.namespaces[s.ns].idle_ttl;
      if (storm || (ttl > 0 && now - s.last_write >= ttl)) {
        Reclaim(id);
      }
    }
  }

  uint64_t ReclaimPrefix(std::string_view prefix) {
    uint64_t reclaimed = 0;
    for (KeyId id = 0; id < slots.size(); ++id) {
      if (slots[id].ns >= 0 && store.KeyName(id).substr(0, prefix.size()) == prefix) {
        reclaimed += Reclaim(id) ? 1 : 0;
      }
    }
    return reclaimed;
  }

  void Adopt(KeyId id) {
    if (id >= store.key_count() || !store.IsLive(id) || store.IsPinned(id)) {
      return;
    }
    const int32_t ns = Classify(store.KeyName(id));
    if (ns < 0) {
      return;
    }
    if (id >= slots.size()) {
      slots.resize(id + 1);
    }
    if (slots[id].ns >= 0) {
      return;
    }
    slots[id] = Slot{ns, store.GenerationOf(id), now};
  }
};

// Drives the manager (on its own store) and the reference model through the
// same operations and compares them after every boundary: the live key set,
// the free-list order, the stats, and the cursor.
class SkipHarness {
 public:
  // `storms`: 0-based boundary indices where store.evict_storm fires.
  SkipHarness(const RetentionOptions& options, std::vector<uint64_t> storms)
      : model_(options), chaos_(1) {
    RetentionOptions enabled = options;
    enabled.enabled = true;
    manager_.Configure(enabled, &store_, nullptr);
    store_.SetWriteObserver([this](const StoreWriteInfo& info, const std::string& key) {
      manager_.OnWrite(info, key, now_);
    });
    for (const uint64_t nth : storms) {
      storm_at_.resize(std::max<size_t>(storm_at_.size(), nth + 1), false);
      storm_at_[nth] = true;
    }
    if (!storms.empty()) {
      FaultPlanConfig plan;
      plan.mode = FaultMode::kSchedule;
      plan.nth = std::move(storms);
      EXPECT_TRUE(chaos_.Arm(kChaosSiteStoreEvictStorm, plan).ok());
      manager_.AttachChaos(&chaos_);
    }
  }

  RetentionManager& manager() { return manager_; }
  WalkModel& model() { return model_; }

  void Advance(Duration d) {
    now_ += d;
    model_.now = now_;
  }
  void Save(const std::string& key, int64_t v) {
    store_.Save(key, Value(v));
    model_.store.Save(key, Value(v));
  }
  void Pin(const std::string& key) {
    store_.Pin(store_.InternKey(key));
    model_.store.Pin(model_.store.InternKey(key));
  }
  // Unpins a live key and hands it to retention, as a monitor unload does.
  void UnpinAndAdopt(const std::string& key) {
    const KeyId id = store_.FindKey(key);
    if (id == kInvalidKeyId || !store_.IsLive(id)) {
      return;
    }
    store_.Unpin(id);
    manager_.AdoptKey(id, now_);
    model_.store.Unpin(id);
    model_.Adopt(id);
  }
  void ExternalReclaim(const std::string& key) {
    EXPECT_EQ(store_.ReclaimKey(key).code(), model_.store.ReclaimKey(key).code()) << key;
  }
  void ReclaimPrefix(const std::string& prefix) {
    EXPECT_EQ(manager_.ReclaimPrefix(prefix), model_.ReclaimPrefix(prefix)) << prefix;
  }
  void Boundary() {
    const bool storm = boundaries_ < storm_at_.size() && storm_at_[boundaries_];
    ++boundaries_;
    manager_.RunAtBoundary(now_);
    model_.Boundary(storm);
    Compare();
  }

  void Compare() {
    const std::string where = "boundary " + std::to_string(boundaries_);
    ASSERT_EQ(store_.key_count(), model_.store.key_count()) << where;
    const std::vector<StoreSlotDump> got = store_.DumpSlots();
    const std::vector<StoreSlotDump> want = model_.store.DumpSlots();
    for (size_t id = 0; id < got.size(); ++id) {
      ASSERT_EQ(got[id].live, want[id].live) << where << " slot " << id;
      ASSERT_EQ(got[id].key, want[id].key) << where << " slot " << id;
      ASSERT_EQ(got[id].generation, want[id].generation) << where << " slot " << id;
      ASSERT_EQ(got[id].free_rank, want[id].free_rank) << where << " slot " << id;
    }
    const RetentionStats& a = manager_.stats();
    const RetentionStats& b = model_.stats;
    EXPECT_EQ(a.reclaimed_idle, b.reclaimed_idle) << where;
    EXPECT_EQ(a.reclaimed_quota, 0u) << where;
    EXPECT_EQ(a.quota_breaches, 0u) << where;
    EXPECT_EQ(a.chaos_storms, b.chaos_storms) << where;
    EXPECT_EQ(a.chaos_breaches, 0u) << where;
    EXPECT_EQ(a.stale_tracks_fixed, b.stale_tracks_fixed) << where;
    EXPECT_EQ(manager_.ExportState().cursor, model_.cursor) << where;
  }

 private:
  FeatureStore store_;
  RetentionManager manager_;
  WalkModel model_;
  ChaosEngine chaos_;
  SimTime now_ = 0;
  uint64_t boundaries_ = 0;
  std::vector<bool> storm_at_;
};

RetentionOptions SkipOptions(uint64_t scan_chunk) {
  RetentionOptions options;
  options.scan_chunk = scan_chunk;
  options.namespaces = {
      RetentionNamespaceOptions{"a.", 0, Milliseconds(50)},
      RetentionNamespaceOptions{"a.b.", 0, Milliseconds(400)},
      // Governed but never idle-reclaimed; the budget is never reached.
      RetentionNamespaceOptions{"c.", uint64_t{1} << 40, 0},
  };
  return options;
}

TEST_F(RetentionTest, IdleSkipMatchesTheCursorWalk) {
  const char* const families[] = {"a.", "a.b.", "c.", "u."};  // u.: ungoverned
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&rng](uint64_t n) { return static_cast<uint64_t>(rng() % n); };
    // Chunks from one slot to past any table size this sequence builds.
    const uint64_t chunks[] = {1, 3, 16, 64, 5000};
    std::vector<uint64_t> storms;
    for (uint64_t b = 0; b < 120; ++b) {
      if (pick(25) == 0) {
        storms.push_back(b);
      }
    }
    SkipHarness h(SkipOptions(chunks[pick(5)]), storms);
    uint64_t pool = 4;  // grows, so the slot table grows mid-sequence
    auto key = [&](uint64_t family) {
      return std::string(families[family]) + "k" + std::to_string(pick(pool));
    };
    for (int boundary = 0; boundary < 120; ++boundary) {
      const uint64_t ops = pick(12);
      for (uint64_t op = 0; op < ops; ++op) {
        const uint64_t kind = pick(20);
        if (kind < 11) {
          h.Save(key(pick(4)), static_cast<int64_t>(rng() % 100));
        } else if (kind < 12) {
          h.Pin(key(pick(4)));
        } else if (kind < 13) {
          h.UnpinAndAdopt(key(pick(4)));
        } else if (kind < 16) {
          h.ExternalReclaim(key(pick(4)));
        } else if (kind < 17) {
          h.ReclaimPrefix(key(pick(2)));
        } else {
          pool += pick(3);
        }
      }
      // Mostly short steps, sometimes far past one or both TTLs.
      const uint64_t jump = pick(10);
      h.Advance(jump < 7 ? Milliseconds(pick(20)) : Milliseconds(50 + pick(700)));
      h.Boundary();
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST_F(RetentionTest, IdleSkipCursorEdgeCases) {
  {
    // Empty table: the walk has nothing to visit and the cursor stays put.
    SkipHarness h(SkipOptions(8), {});
    h.Boundary();
    h.Advance(Seconds(10));
    h.Boundary();
    EXPECT_EQ(h.manager().ExportState().cursor, 0u);
  }
  {
    // A chunk equal to the table leaves the cursor at the table size; the
    // next boundary wraps from there.
    SkipHarness h(SkipOptions(4), {});
    for (int i = 0; i < 4; ++i) {
      h.Save("a.k" + std::to_string(i), i);
    }
    h.Boundary();
    EXPECT_EQ(h.manager().ExportState().cursor, 4u);
    h.Boundary();
    EXPECT_EQ(h.manager().ExportState().cursor, 4u);
    // Restored cursors at and past the table size wrap to the start.
    for (const uint64_t cursor : {uint64_t{4}, uint64_t{9}}) {
      h.manager().RestoreState(RetentionImage{cursor, h.manager().stats()});
      h.model().cursor = cursor;
      h.Boundary();
    }
    h.Advance(Milliseconds(60));  // every "a." key expires: the walk runs
    h.Boundary();
    EXPECT_EQ(h.manager().stats().reclaimed_idle, 4u);
  }
  {
    // A chunk larger than the table laps it several times per boundary.
    SkipHarness h(SkipOptions(10), {});
    for (int i = 0; i < 3; ++i) {
      h.Save("a.b.k" + std::to_string(i), i);
    }
    h.Boundary();
    EXPECT_EQ(h.manager().ExportState().cursor, 1u);  // (0 + 10 - 1) % 3 + 1
    h.Save("c.k0", 0);  // table grows to 4
    h.Boundary();
    EXPECT_EQ(h.manager().ExportState().cursor, 3u);  // (1 + 10 - 1) % 4 + 1
    h.Advance(Milliseconds(400));
    h.Boundary();
    EXPECT_EQ(h.manager().stats().reclaimed_idle, 3u);
  }
}

// --- Engine / kernel integration ---

constexpr char kKernelRetentionSpec[] = R"(
  retention {
    scan_chunk = 1024
    namespace "tmp." { idle_ttl = 1s }
    namespace "q." { max_keys = 2 }
  }
)";

TEST_F(RetentionTest, KernelReclaimsIdleKeysAtCalloutBoundaries) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(kernel.engine().retention().enabled());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.scratch", Value(42));
  kernel.Run(Milliseconds(500));
  EXPECT_TRUE(kernel.store().Contains("tmp.scratch"));  // not idle yet
  kernel.Run(Seconds(2));
  EXPECT_FALSE(kernel.store().Contains("tmp.scratch"));
  EXPECT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
}

TEST_F(RetentionTest, ReloadKeepsGoverningLiveKeys) {
  // Reloading a spec with a retention block reconfigures the manager; keys
  // that are live but never written again must stay governed.
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.scratch", Value(42));
  kernel.Run(Milliseconds(500));
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  kernel.Run(Milliseconds(1400));  // idle 900ms since the reload restamp
  EXPECT_TRUE(kernel.store().Contains("tmp.scratch"));
  kernel.Run(Seconds(6));
  EXPECT_FALSE(kernel.store().Contains("tmp.scratch"));
  EXPECT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
}

TEST_F(RetentionTest, QuotaBreachFiresOnchangeCorrectiveHook) {
  Kernel kernel;
  const std::string spec = std::string(kKernelRetentionSpec) + R"(
    guardrail quota_hook {
      trigger: { ONCHANGE(store.retention.breaches) },
      rule: { LOAD_OR(store.retention.breaches, 0) == 0 },
      action: { INCR(hook.fired) }
    }
  )";
  ASSERT_TRUE(kernel.LoadGuardrails(spec).ok());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("q.a", Value(1));
  kernel.store().Save("q.b", Value(2));
  kernel.store().Save("q.c", Value(3));
  kernel.Run(Milliseconds(2));  // boundary: quota pass evicts and publishes
  kernel.Run(Milliseconds(3));  // one more boundary in case the cascade queued
  EXPECT_EQ(LoadNum(kernel, "store.retention.evictions"), 1.0);
  EXPECT_GE(LoadNum(kernel, "hook.fired"), 1.0);
}

TEST_F(RetentionTest, UnloadedMonitorCountersAgeOut) {
  Kernel kernel;
  const std::string spec = std::string(kKernelRetentionSpec) + R"(
    guardrail beat {
      trigger: { TIMER(10ms, 10ms) },
      rule: { true },
      action: { REPORT() }
    }
  )";
  ASSERT_TRUE(kernel.LoadGuardrails(spec).ok());
  kernel.Run(Milliseconds(100));
  ASSERT_TRUE(kernel.store().Contains("monitor.beat.uptime_evals"));

  // While loaded, the counter is pinned: even ancient idle age cannot touch
  // it (the builtin "monitor." TTL is 600s).
  kernel.Run(Seconds(700));
  EXPECT_TRUE(kernel.store().Contains("monitor.beat.uptime_evals"));

  // Unload hands the orphaned counter to retention; it ages out via the
  // builtin TTL instead of leaking forever.
  ASSERT_TRUE(kernel.engine().Unload("beat").ok());
  kernel.Run(Seconds(700) + Seconds(601));
  EXPECT_FALSE(kernel.store().Contains("monitor.beat.uptime_evals"));
}

agent::ToolCallEvent Call(SimTime at, uint64_t session, agent::ToolClass tool) {
  agent::ToolCallEvent event;
  event.at = at;
  event.session = session;
  event.tool = tool;
  event.fingerprint = 0x1234;
  return event;
}

TEST_F(RetentionTest, SessionEndEagerlyReclaimsTheKeyFamily) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  kernel.Run(Milliseconds(1));
  kernel.OnToolCall(Call(Milliseconds(1), 7, agent::ToolClass::kFile));
  kernel.OnToolCall(Call(Milliseconds(2), 7, agent::ToolClass::kNet));
  kernel.OnToolCall(Call(Milliseconds(2), 8, agent::ToolClass::kFile));
  // Contains() sees scalars only; the "calls" series hides behind the
  // per-session "seen" sentinel and the per-tool counters.
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "seen")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "file")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "net")));

  EXPECT_GT(kernel.OnSessionEnd(7), 0u);
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "seen")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "file")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "net")));
  // The other session is untouched, and the globals (pinned) survive.
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(8, "seen")));
  EXPECT_TRUE(kernel.store().Contains(kAgentKeySessions));
  // A second end is a no-op.
  EXPECT_EQ(kernel.OnSessionEnd(7), 0u);
}

TEST_F(RetentionTest, KillPathReclaimsDataButKeepsTheLatch) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(kernel.agent_governor().reclaim_on_kill());
  kernel.Run(Milliseconds(1));
  kernel.OnToolCall(Call(Milliseconds(1), 4, agent::ToolClass::kFile));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));

  kernel.store().Save(kAgentCtlKillSession, Value(static_cast<int64_t>(4)));
  const AgentAdmitVerdict verdict =
      kernel.OnToolCall(Call(Milliseconds(2), 4, agent::ToolClass::kNet));
  EXPECT_EQ(verdict, AgentAdmitVerdict::kKill);
  // Data keys are gone; the "killed" latch is kept so later calls from the
  // killed session keep short-circuiting.
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_TRUE(kernel.store()
                  .LoadOr(AgentSessionKey(4, "killed"), Value(false))
                  .AsBool()
                  .value_or(false));
  EXPECT_EQ(kernel.OnToolCall(Call(Milliseconds(3), 4, agent::ToolClass::kNet)),
            AgentAdmitVerdict::kKill);
}

TEST_F(RetentionTest, WarmRestartCarriesRetentionState) {
  const fs::path dir =
      fs::temp_directory_path() / "osguard_retention_restart";
  fs::remove_all(dir);
  fs::create_directories(dir);
  PersistOptions popts;
  popts.dir = dir.string();
  PersistManager persist(popts);

  Kernel kernel;
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(persist.Open().ok());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.gone", Value(1));
  kernel.Run(Seconds(2));  // reclaimed at a committed boundary
  ASSERT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
  kernel.store().Save("tmp.alive", Value(2));
  kernel.Run(Seconds(2) + Milliseconds(100));

  kernel.Panic();
  auto recovery = kernel.Reboot();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery.value().cold_start);
  // The retention image restored the counters; membership was resynced from
  // the restored store, so the survivor is governed again and ages out.
  EXPECT_TRUE(kernel.engine().retention().enabled());
  EXPECT_EQ(kernel.engine().retention().stats().reclaimed_idle, 1u);
  EXPECT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
  EXPECT_FALSE(kernel.store().Contains("tmp.gone"));
  EXPECT_TRUE(kernel.store().Contains("tmp.alive"));
  kernel.Run(kernel.now() + Seconds(2));
  EXPECT_FALSE(kernel.store().Contains("tmp.alive"));
  fs::remove_all(dir);
}

// --- Off == absent ---

TEST_F(RetentionTest, WithoutABlockNothingChanges) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(
                  "guardrail g { trigger: { TIMER(10ms, 10ms) }, "
                  "rule: { true }, action: { REPORT() } }")
                  .ok());
  EXPECT_FALSE(kernel.engine().retention().enabled());
  EXPECT_FALSE(kernel.agent_governor().reclaim_on_kill());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.scratch", Value(1));
  kernel.OnToolCall(Call(Milliseconds(1), 4, agent::ToolClass::kFile));
  kernel.store().Save(kAgentCtlKillSession, Value(static_cast<int64_t>(4)));
  kernel.OnToolCall(Call(Milliseconds(2), 4, agent::ToolClass::kNet));
  kernel.Run(Seconds(1000));

  // No retention surface interned, nothing reclaimed: the killed session's
  // data keys and the scratch key live forever, exactly like the seed.
  EXPECT_EQ(kernel.store().FindKey("store.retention.reclaimed"), kInvalidKeyId);
  EXPECT_EQ(kernel.store().FindKey("engine.store.bytes.total"), kInvalidKeyId);
  EXPECT_TRUE(kernel.store().Contains("tmp.scratch"));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_EQ(kernel.OnSessionEnd(4), 0u);
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_EQ(kernel.store().stale_hits(), 0u);
}

}  // namespace
}  // namespace osguard
