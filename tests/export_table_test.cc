// ExportTable — the one mechanism behind the keys the engine exports about
// itself (docs/STORE.md "Exported keys") — and the callout-boundary
// invariant it serves.
//
//   * Unit behaviour: an equal Set writes nothing (so it fires no ONCHANGE),
//     first-write semantics with and without `already_published`, pin and
//     handle lifecycle, and the warm-restart resync of present and absent
//     keys.
//   * Boundary invariant: with persistence attached and shard telemetry on,
//     every callout path — serial AdvanceTo / OnFunctionCall, the sharded
//     parallel paths, the sharded SerialCallout and the sharded
//     global-serial AdvanceTo — ends with every export written *before* the
//     persist commit, so the manager is clean when the callout returns.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "src/actions/policy_registry.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/export_table.h"
#include "src/runtime/sharded_engine.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/time.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

class ExportTableTest : public ::testing::Test {
 protected:
  ExportTableTest() {
    Logger::Global().set_level(LogLevel::kOff);
    store_.SetWriteObserver([this](const StoreWriteInfo&, const std::string& key) {
      ++writes_[key];
    });
  }

  FeatureStore store_;
  ExportTable exports_{&store_};
  std::map<std::string, int> writes_;
};

TEST_F(ExportTableTest, EqualSetDoesNotWrite) {
  const ExportTable::Handle h = exports_.Add("engine.test.counter");
  exports_.Set(h, 5);
  exports_.Set(h, 5);
  EXPECT_EQ(writes_["engine.test.counter"], 1);
  exports_.Set(h, 6);
  exports_.Set(h, 6);
  EXPECT_EQ(writes_["engine.test.counter"], 2);
  EXPECT_EQ(store_.LoadOr("engine.test.counter", Value()).NumericOr(-1), 6.0);
}

TEST_F(ExportTableTest, FirstSetWritesUnlessAlreadyPublished) {
  const ExportTable::Handle fresh = exports_.Add("engine.test.fresh");
  const ExportTable::Handle quiet = exports_.Add("engine.test.quiet", /*already_published=*/true);
  exports_.Set(fresh, 0);
  exports_.Set(quiet, 0);
  // A fresh entry's first value is written even when it is 0; an
  // already-published one counts as holding 0 and stays absent until it moves.
  EXPECT_EQ(writes_["engine.test.fresh"], 1);
  EXPECT_EQ(store_.LoadOr("engine.test.fresh", Value()).NumericOr(-1), 0.0);
  EXPECT_EQ(writes_.count("engine.test.quiet"), 0u);
  EXPECT_FALSE(store_.Load(store_.FindKey("engine.test.quiet")).ok());
  exports_.Set(quiet, 3);
  EXPECT_EQ(writes_["engine.test.quiet"], 1);
}

TEST_F(ExportTableTest, AddPinsAndRemoveUnpinsAndFreesTheHandle) {
  const ExportTable::Handle h = exports_.Add("engine.test.pinned");
  const KeyId id = store_.FindKey("engine.test.pinned");
  ASSERT_NE(id, kInvalidKeyId);
  EXPECT_TRUE(store_.IsPinned(id));
  EXPECT_EQ(exports_.Remove(h), id);
  EXPECT_FALSE(store_.IsPinned(id));
  // The freed handle is reused, with a clean first-write state.
  const ExportTable::Handle again = exports_.Add("engine.test.other");
  EXPECT_EQ(again, h);
  exports_.Set(again, 0);
  EXPECT_EQ(writes_["engine.test.other"], 1);
}

TEST_F(ExportTableTest, ResyncAdoptsPresentKeysAndResetsAbsentOnes) {
  const ExportTable::Handle present = exports_.Add("engine.test.present");
  const ExportTable::Handle absent = exports_.Add("engine.test.absent");
  const ExportTable::Handle quiet = exports_.Add("engine.test.quiet", /*already_published=*/true);
  exports_.Set(absent, 4);
  exports_.Set(quiet, 9);
  // What a warm restart leaves behind: a restored value nobody wrote through
  // the table, and keys the restored store does not hold at all.
  store_.Save("engine.test.present", Value(static_cast<int64_t>(7)));
  ASSERT_TRUE(store_.Erase("engine.test.absent").ok());
  ASSERT_TRUE(store_.Erase("engine.test.quiet").ok());
  writes_.clear();
  exports_.ResyncFromStore();

  exports_.Set(present, 7);  // equal to the restored value: no write
  EXPECT_EQ(writes_.count("engine.test.present"), 0u);
  exports_.Set(present, 8);
  EXPECT_EQ(writes_["engine.test.present"], 1);

  exports_.Set(absent, 4);  // absent: back to "never written"
  EXPECT_EQ(writes_["engine.test.absent"], 1);

  exports_.Set(quiet, 0);  // absent: back to "already holds 0"
  EXPECT_EQ(writes_.count("engine.test.quiet"), 0u);
  exports_.Set(quiet, 9);
  EXPECT_EQ(writes_["engine.test.quiet"], 1);
}

TEST(ExportTableOnChangeTest, EqualSetFiresNoOnChange) {
  Logger::Global().set_level(LogLevel::kOff);
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  store.SetWriteObserver([&engine](const StoreWriteInfo& info, const std::string& key) {
    engine.OnStoreWrite(info, key);
  });
  ASSERT_TRUE(engine
                  .LoadSource(R"(
    guardrail watch {
      trigger: { ONCHANGE(engine.test.mode) },
      rule: { true },
      action: { REPORT() }
    }
  )")
                  .ok());
  ExportTable exports(&store);
  const ExportTable::Handle h = exports.Add("engine.test.mode");
  exports.Set(h, 1);
  exports.Set(h, 1);
  exports.Set(h, 1);
  EXPECT_EQ(engine.stats().change_firings, 1u);
  exports.Set(h, 2);
  EXPECT_EQ(engine.stats().change_firings, 2u);
}

// --- Boundary invariant ---

// Parallel-eligible FUNCTION and same-deadline TIMER monitors, with the
// governor and a retention namespace exporting at every boundary.
constexpr char kBatchSpec[] = R"(
retention { namespace "tmp." { idle_ttl = 20ms } }
guardrail fa { trigger: { FUNCTION(fn) }, rule: { LOAD_OR(x, 0) <= 5 }, action: { REPORT("fa") } }
guardrail fb { trigger: { FUNCTION(fn) }, rule: { LOAD_OR(y, 0) <= 5 }, action: { REPORT("fb") } }
guardrail ta { trigger: { TIMER(10ms, 10ms) }, rule: { LOAD_OR(x, 0) <= 5 }, action: { REPORT("ta") } }
guardrail tb { trigger: { TIMER(10ms, 10ms) }, rule: { LOAD_OR(y, 0) <= 5 }, action: { REPORT("tb") } }
)";

// The same plus a watcher on an engine export: the sharded engine must then
// run every callout fully serial (SerialCallout / global-serial AdvanceTo).
const std::string kGlobalSerialSpec = std::string(kBatchSpec) + R"(
guardrail mode-watch {
  trigger: { ONCHANGE(engine.governor.mode) },
  rule: { true },
  action: { REPORT("mode") }
}
)";

struct Rig {
  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<PersistManager> persist;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ShardedEngine> sharded;  // destroyed before the engine

  Rig(const std::string& spec, bool shard, const std::string& name) {
    EngineOptions options;
    options.measure_wall_time = false;
    options.governor.enabled = true;
    engine = std::make_unique<Engine>(&store, &registry, nullptr, options);
    store.SetWriteObserver([this](const StoreWriteInfo& info, const std::string& key) {
      engine->OnStoreWrite(info, key);
    });
    const fs::path dir = fs::path(::testing::TempDir()) / "osguard-export-boundary" / name;
    fs::remove_all(dir);
    PersistOptions persist_options;
    persist_options.dir = dir.string();
    persist = std::make_unique<PersistManager>(persist_options);
    engine->SetPersist(persist.get());
    EXPECT_TRUE(persist->Open().ok());
    EXPECT_TRUE(engine->LoadSource(spec).ok());
    if (shard) {
      ShardingOptions sharding;
      sharding.enabled = true;
      sharding.shards = 2;
      sharding.telemetry = true;
      sharded = std::make_unique<ShardedEngine>(engine.get(), sharding);
    }
  }

  void AdvanceTo(SimTime t) {
    if (sharded != nullptr) {
      sharded->AdvanceTo(t);
    } else {
      engine->AdvanceTo(t);
    }
  }

  void Call(SimTime t) {
    if (sharded != nullptr) {
      sharded->OnFunctionCall("fn", t);
    } else {
      engine->OnFunctionCall("fn", t);
    }
  }

  // Timer boundary first, so a boundary that exports after its commit
  // leaves the manager dirty on the very first callout.
  void Drive() {
    for (int step = 1; step <= 20; ++step) {
      const SimTime t = Milliseconds(5) * step;
      AdvanceTo(t);
      EXPECT_FALSE(persist->dirty()) << "AdvanceTo, step " << step;
      store.Save("x", Value(step % 9));
      store.Save("y", Value(step % 7));
      store.Save("tmp." + std::to_string(step % 4), Value(step));
      Call(t + Milliseconds(1));
      EXPECT_FALSE(persist->dirty()) << "OnFunctionCall, step " << step;
    }
  }
};

TEST(BoundaryInvariantTest, SerialCalloutsCommitEveryExport) {
  Logger::Global().set_level(LogLevel::kOff);
  Rig rig(kBatchSpec, /*shard=*/false, "serial");
  rig.Drive();
  EXPECT_GT(rig.engine->stats().evaluations, 0u);
}

TEST(BoundaryInvariantTest, ShardedParallelCalloutsCommitEveryExport) {
  Logger::Global().set_level(LogLevel::kOff);
  Rig rig(kBatchSpec, /*shard=*/true, "sharded-parallel");
  rig.Drive();
  EXPECT_GT(rig.sharded->stats().parallel_evals, 0u);
  EXPECT_EQ(rig.sharded->stats().serial_callouts, 0u);
  EXPECT_TRUE(rig.store.Contains("engine.shard.batches"));
}

TEST(BoundaryInvariantTest, ShardedGlobalSerialCalloutsCommitEveryExport) {
  Logger::Global().set_level(LogLevel::kOff);
  Rig rig(kGlobalSerialSpec, /*shard=*/true, "sharded-global-serial");
  rig.Drive();
  // Both fully serial paths ran: SerialCallout (FUNCTION) and the
  // global-serial AdvanceTo (TIMER).
  EXPECT_EQ(rig.sharded->stats().parallel_evals, 0u);
  EXPECT_GE(rig.sharded->stats().serial_callouts, 30u);
  EXPECT_TRUE(rig.store.Contains("engine.shard.count"));
}

}  // namespace
}  // namespace osguard
