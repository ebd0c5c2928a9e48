// Bounded-memory key lifecycle: namespace quotas, idle-TTL reclamation, and
// store memory-pressure telemetry (docs/STORE.md).
//
// The feature store interns keys into a dense slot table that PR 1 made the
// hot path fast precisely by never moving — but "never moving" degenerated
// into "never reclaimed", and the agent domain mints a key family per
// session, so the millions-of-users north star implied unbounded intern
// growth. This module is the policy half of the fix (the store ships the
// mechanism: generation-tagged slots, a free list, Pin/Reclaim):
//
//   * last-write stamps  — every store write is stamped with simulated time
//                          via the engine's write observer (O(1), no lock).
//   * namespaces         — the spec's `retention { namespace "prefix" {..} }`
//                          block declares per-prefix key budgets (max_keys)
//                          and idle TTLs; keys are classified on first write
//                          by longest-prefix match.
//   * idle reclamation   — an incremental cursor walks `scan_chunk` slots
//                          per callout boundary and reclaims governed keys
//                          whose idle age exceeded their namespace TTL. A
//                          per-namespace recency list (oldest write first)
//                          lets a boundary skip the walk in O(namespaces)
//                          when no governed key has expired, leaving the
//                          cursor exactly where the walk would.
//   * quota eviction     — a namespace over its key budget evicts its
//                          least-recently-written members first (stable
//                          tie-break: lower slot id), down to the budget.
//   * telemetry          — `store.retention.*` counters and
//                          `engine.store.bytes.*` gauges, exported through
//                          the engine's ExportTable at callout boundaries
//                          (value-diffed); writes go through the normal
//                          Save path so ONCHANGE guardrails can react to
//                          breaches (the quota-exceeded corrective hook).
//
// Determinism contract: reclamation runs ONLY at callout boundaries, ONLY on
// the coordinator (the sharded engine replicates the serial boundary
// sequence), and is a pure function of simulated state — so serial and
// sharded runs with retention enabled stay bit-identical, and the chaos
// sites `store.evict_storm` / `store.quota_breach` replay exactly.
//
// Self-correction: bookkeeping (namespace counts, byte gauges, membership
// lists) tolerates reclamations it did not perform (agent session teardown
// calls FeatureStore::ReclaimKey directly). A tracked slot that turns out to
// be dead or pinned when touched is untracked on the spot, so counts
// converge instead of drifting.
//
// Off == absent: without a `retention { }` block nothing is stamped, no keys
// are interned, and every boundary pays a single branch.

#ifndef SRC_RUNTIME_RETENTION_H_
#define SRC_RUNTIME_RETENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/dsl/sema.h"
#include "src/runtime/export_table.h"
#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {

struct RetentionNamespaceOptions {
  std::string prefix;
  uint64_t max_keys = 0;  // 0 = no key budget (TTL only)
  Duration idle_ttl = 0;  // <= 0 = no idle reclamation (quota only)
};

struct RetentionOptions {
  bool enabled = false;
  uint64_t scan_chunk = 64;  // slots examined per callout boundary
  std::vector<RetentionNamespaceOptions> namespaces;
};

struct RetentionStats {
  uint64_t reclaimed_idle = 0;    // idle-TTL reclamations (incl. storm)
  uint64_t reclaimed_quota = 0;   // LRU quota evictions
  uint64_t quota_breaches = 0;    // boundaries where a namespace was over budget
  uint64_t chaos_storms = 0;      // store.evict_storm injections taken
  uint64_t chaos_breaches = 0;    // store.quota_breach injections taken
  uint64_t stale_tracks_fixed = 0;  // externally reclaimed slots untracked lazily
};

// Full retention state for the persisted engine image: a panic landing
// mid-scan must warm-restart with the same cursor and counters so the
// post-restore trajectory matches in serial and sharded runs. Membership,
// stamps, and byte gauges are NOT imaged — they are rebuilt exactly by
// ResyncFromStore from the restored store.
struct RetentionImage {
  uint64_t cursor = 0;
  RetentionStats stats;
};

class RetentionManager {
 public:
  // Registers the telemetry exports when enabled. `store` may be null (bare
  // unit tests); the manager is then inert. Safe to call again on spec
  // reload: the previous configuration's exports are removed first.
  void Configure(const RetentionOptions& options, FeatureStore* store, ExportTable* exports);
  // Chaos is attached separately because the kernel wires it before specs
  // load; a null engine detaches.
  void AttachChaos(ChaosEngine* chaos);

  bool enabled() const { return options_.enabled; }
  const RetentionOptions& options() const { return options_; }
  const RetentionStats& stats() const { return stats_; }

  // Write-observer hook, O(1): stamps last-write time, classifies new slot
  // tenants into namespaces, and maintains per-namespace key/byte gauges.
  void OnWrite(const StoreWriteInfo& info, const std::string& key, SimTime now);

  // Callout boundary (coordinator only): chaos sampling, incremental TTL
  // scan, quota enforcement, telemetry exports. The only place reclamation
  // happens.
  void RunAtBoundary(SimTime now);

  // Places an already-live, unpinned slot under governance (stamped with
  // `now`). The write observer only tracks slots as they are written, so a
  // key whose owner just Unpinned it (monitor unload) would otherwise be
  // invisible to the TTL scan forever. No-op for pinned, dead, or ungoverned
  // slots.
  void AdoptKey(KeyId id, SimTime now);

  // Eagerly reclaims every governed, unpinned live key with the given
  // prefix (agent session teardown). Returns the number reclaimed. Unlike
  // boundary reclamation this may run mid-callout, but only from serial
  // coordinator-side effect paths, so determinism is preserved.
  uint64_t ReclaimPrefix(std::string_view prefix);

  RetentionImage ExportState() const;
  void RestoreState(const RetentionImage& image);
  // Rebuilds tracking, counts, byte gauges, and recency lists from the
  // store and stamps every tracked slot with `now`. Runs after a warm
  // restore (deterministic: both sides of a differential restore the same
  // store and resync identically) and after every (re)configuration, which
  // would otherwise drop governance of keys that are live but never written
  // again.
  void ResyncFromStore(SimTime now);

 private:
  // Per-slot tracking. `ns` is an index into options_.namespaces, -1 when
  // the slot's key matches no governed prefix (or the slot is pinned).
  // A slot is linked into recency_[ns] exactly while `valid`, so the list
  // is the namespace's membership; `prev` and `next` are slot ids
  // (kInvalidKeyId at the ends).
  struct Tracked {
    int32_t ns = -1;
    bool valid = false;  // believed live with this tenant
    uint32_t generation = 0;
    uint64_t bytes = 0;
    SimTime last_write = 0;
    KeyId prev = kInvalidKeyId;
    KeyId next = kInvalidKeyId;
  };

  // Intrusive per-namespace list of tracked slots in last-write order.
  // Every stamp is the engine's clock, which only moves forward (a restore
  // restamps everything), so appending at `newest` on each write keeps the
  // list sorted and `oldest` is the namespace's least recently written key.
  struct Recency {
    KeyId oldest = kInvalidKeyId;
    KeyId newest = kInvalidKeyId;
  };

  int32_t Classify(std::string_view key) const;
  void Untrack(Tracked& t);
  // Appends a valid slot (already stamped) as its namespace's newest.
  void Link(KeyId id, Tracked& t);
  void Unlink(Tracked& t);
  // True when some namespace's least recently written key is past its TTL.
  bool AnyIdleExpired(SimTime now) const;
  // Reclaims via the store; fixes tracking on pinned/dead surprises.
  // Returns true when the slot was actually reclaimed.
  bool TryReclaim(KeyId id, Tracked& t, bool quota);
  void ScanChunk(SimTime now, bool storm);
  void EnforceQuota(bool breach_all);

  RetentionOptions options_;
  FeatureStore* store_ = nullptr;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId storm_site_ = kInvalidChaosSite;
  ChaosSiteId breach_site_ = kInvalidChaosSite;

  std::vector<Tracked> tracked_;
  std::vector<uint64_t> ns_keys_;   // tracked keys per namespace (list length)
  std::vector<uint64_t> ns_bytes_;  // tracked approx bytes per namespace
  std::vector<Recency> recency_;    // per namespace
  uint64_t cursor_ = 0;
  RetentionStats stats_;

  // Telemetry exports, in write order: reclaimed, evictions, breaches,
  // bytes total, live keys, then (keys, bytes) per namespace.
  ExportTable* exports_ = nullptr;
  std::vector<ExportTable::Handle> export_handles_;
};

// Built-in namespace defaults applied by the engine when a retention block
// is present but does not itself govern these families: per-session agent
// keys and per-monitor uptime counters leak when their owner dies, so they
// get a conservative TTL even if the spec author forgot them.
RetentionOptions WithBuiltinNamespaces(RetentionOptions options);

}  // namespace osguard

#endif  // SRC_RUNTIME_RETENTION_H_
