#include "src/runtime/retention.h"

#include <algorithm>
#include <cassert>

#include "src/support/logging.h"

namespace osguard {

namespace {
constexpr Duration kBuiltinAgentSessionTtl = Seconds(120);
constexpr Duration kBuiltinMonitorCounterTtl = Seconds(600);
}  // namespace

RetentionOptions WithBuiltinNamespaces(RetentionOptions options) {
  if (!options.enabled) {
    return options;
  }
  auto governs = [&options](std::string_view prefix) {
    for (const RetentionNamespaceOptions& ns : options.namespaces) {
      if (ns.prefix == prefix) {
        return true;
      }
    }
    return false;
  };
  // Per-session agent keys ("agent.s<sid>.*"). The agent globals that share
  // the prefix (agent.sessions, agent.seen_sessions) are pinned by their
  // owners, so the namespace only ever reclaims true session state.
  if (!governs("agent.s")) {
    RetentionNamespaceOptions ns;
    ns.prefix = "agent.s";
    ns.idle_ttl = kBuiltinAgentSessionTtl;
    options.namespaces.push_back(std::move(ns));
  }
  // Per-monitor uptime/tier counters ("monitor.<name>.*") left behind by
  // unloaded monitors. Live monitors pin their counter ids, so only
  // orphaned counters age out.
  if (!governs("monitor.")) {
    RetentionNamespaceOptions ns;
    ns.prefix = "monitor.";
    ns.idle_ttl = kBuiltinMonitorCounterTtl;
    options.namespaces.push_back(std::move(ns));
  }
  return options;
}

void RetentionManager::Configure(const RetentionOptions& options, FeatureStore* store,
                                 ExportTable* exports) {
  options_ = options;
  options_.scan_chunk = std::max<uint64_t>(options_.scan_chunk, 1);
  store_ = store;
  const size_t n = options_.namespaces.size();
  tracked_.clear();
  ns_keys_.assign(n, 0);
  ns_bytes_.assign(n, 0);
  recency_.assign(n, {});
  cursor_ = 0;
  for (const ExportTable::Handle handle : export_handles_) {
    exports_->Remove(handle);
  }
  export_handles_.clear();
  exports_ = options_.enabled && store_ != nullptr ? exports : nullptr;
  if (exports_ != nullptr) {
    // Every key is written at the first boundary.
    for (const char* key : {"store.retention.reclaimed", "store.retention.evictions",
                            "store.retention.breaches", "engine.store.bytes.total",
                            "engine.store.keys.live"}) {
      export_handles_.push_back(exports_->Add(key));
    }
    for (const RetentionNamespaceOptions& ns : options_.namespaces) {
      export_handles_.push_back(exports_->Add("engine.store.keys." + ns.prefix));
      export_handles_.push_back(exports_->Add("engine.store.bytes." + ns.prefix));
    }
  }
  if (chaos_ != nullptr && options_.enabled) {
    storm_site_ = chaos_->RegisterSite(kChaosSiteStoreEvictStorm);
    breach_site_ = chaos_->RegisterSite(kChaosSiteStoreQuotaBreach);
  }
}

void RetentionManager::AttachChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ != nullptr && options_.enabled) {
    storm_site_ = chaos_->RegisterSite(kChaosSiteStoreEvictStorm);
    breach_site_ = chaos_->RegisterSite(kChaosSiteStoreQuotaBreach);
  } else {
    storm_site_ = kInvalidChaosSite;
    breach_site_ = kInvalidChaosSite;
  }
}

int32_t RetentionManager::Classify(std::string_view key) const {
  // Longest-prefix match so "agent.s" and a more specific "agent.s42." can
  // coexist with the expected precedence.
  int32_t best = -1;
  size_t best_len = 0;
  for (size_t i = 0; i < options_.namespaces.size(); ++i) {
    const std::string& prefix = options_.namespaces[i].prefix;
    if (key.size() >= prefix.size() && prefix.size() >= best_len &&
        key.compare(0, prefix.size(), prefix) == 0) {
      best = static_cast<int32_t>(i);
      best_len = prefix.size();
    }
  }
  return best;
}

void RetentionManager::Untrack(Tracked& t) {
  if (t.valid && t.ns >= 0) {
    ns_keys_[t.ns] -= 1;
    ns_bytes_[t.ns] -= t.bytes;
    Unlink(t);
  }
  t.valid = false;
  t.ns = -1;
  t.bytes = 0;
}

void RetentionManager::Link(KeyId id, Tracked& t) {
  Recency& list = recency_[t.ns];
  // The clock only moves forward, so the newest member never postdates t.
  assert(list.newest == kInvalidKeyId || tracked_[list.newest].last_write <= t.last_write);
  t.prev = list.newest;
  t.next = kInvalidKeyId;
  if (list.newest != kInvalidKeyId) {
    tracked_[list.newest].next = id;
  } else {
    list.oldest = id;
  }
  list.newest = id;
}

void RetentionManager::Unlink(Tracked& t) {
  Recency& list = recency_[t.ns];
  if (t.prev != kInvalidKeyId) {
    tracked_[t.prev].next = t.next;
  } else {
    list.oldest = t.next;
  }
  if (t.next != kInvalidKeyId) {
    tracked_[t.next].prev = t.prev;
  } else {
    list.newest = t.prev;
  }
  t.prev = kInvalidKeyId;
  t.next = kInvalidKeyId;
}

void RetentionManager::OnWrite(const StoreWriteInfo& info, const std::string& key,
                               SimTime now) {
  if (!options_.enabled) {
    return;
  }
  if (info.id >= tracked_.size()) {
    tracked_.resize(info.id + 1);
  }
  Tracked& t = tracked_[info.id];
  if (info.pinned) {
    // Pinned keys are lifecycle-exempt; drop any tracking acquired before
    // the owner pinned the id.
    if (t.valid) {
      Untrack(t);
    }
    return;
  }
  if (!t.valid || t.generation != info.generation) {
    // New tenant (first write, or the slot was reclaimed and recycled).
    if (t.valid) {
      Untrack(t);
    }
    const int32_t ns = Classify(key);
    t.generation = info.generation;
    if (ns < 0) {
      t.valid = false;
      t.ns = -1;
      t.bytes = 0;
      t.last_write = now;
      return;
    }
    t.valid = true;
    t.ns = ns;
    t.bytes = 0;
    ns_keys_[ns] += 1;
  } else {
    Unlink(t);  // relinked below as the namespace's newest member
  }
  t.last_write = now;
  Link(info.id, t);
  ns_bytes_[t.ns] += info.approx_bytes - t.bytes;
  t.bytes = info.approx_bytes;
}

bool RetentionManager::TryReclaim(KeyId id, Tracked& t, bool quota) {
  const Status status = store_->ReclaimKeyId(id);
  if (status.ok()) {
    Untrack(t);
    if (quota) {
      ++stats_.reclaimed_quota;
    } else {
      ++stats_.reclaimed_idle;
    }
    return true;
  }
  // Pinned (FailedPrecondition) or already dead (NotFound): either way this
  // slot is not ours to govern right now — untrack so counts converge.
  if (status.code() == ErrorCode::kNotFound) {
    ++stats_.stale_tracks_fixed;
  }
  Untrack(t);
  return false;
}

bool RetentionManager::AnyIdleExpired(SimTime now) const {
  for (size_t i = 0; i < recency_.size(); ++i) {
    const Duration ttl = options_.namespaces[i].idle_ttl;
    const KeyId oldest = recency_[i].oldest;
    if (ttl > 0 && oldest != kInvalidKeyId && now - tracked_[oldest].last_write >= ttl) {
      return true;
    }
  }
  return false;
}

void RetentionManager::ScanChunk(SimTime now, bool storm) {
  if (tracked_.empty()) {
    return;
  }
  const uint64_t size = tracked_.size();
  const uint64_t budget = storm ? size : options_.scan_chunk;
  if (!storm && !AnyIdleExpired(now)) {
    // Every tracked slot is in its namespace's recency list, none of whose
    // oldest members is past its TTL, so the walk would reclaim nothing and
    // change nothing but the cursor. Leave the cursor where the walk would.
    const uint64_t start = cursor_ >= size ? 0 : cursor_;
    cursor_ = (start + budget - 1) % size + 1;
    return;
  }
  for (uint64_t step = 0; step < budget; ++step) {
    if (cursor_ >= tracked_.size()) {
      cursor_ = 0;
    }
    const KeyId id = static_cast<KeyId>(cursor_++);
    Tracked& t = tracked_[id];
    if (!t.valid || t.ns < 0) {
      continue;
    }
    const Duration ttl = options_.namespaces[t.ns].idle_ttl;
    if (storm) {
      TryReclaim(id, t, /*quota=*/false);
    } else if (ttl > 0 && now - t.last_write >= ttl) {
      TryReclaim(id, t, /*quota=*/false);
    }
  }
}

void RetentionManager::EnforceQuota(bool breach_all) {
  for (size_t i = 0; i < options_.namespaces.size(); ++i) {
    const uint64_t configured = options_.namespaces[i].max_keys;
    uint64_t budget = configured;
    if (breach_all) {
      // Injected breach: pretend the namespace budget collapsed to half its
      // live population, forcing LRU eviction pressure deterministically.
      budget = ns_keys_[i] / 2;
    } else if (configured == 0 || ns_keys_[i] <= configured) {
      continue;
    }
    // Census over the namespace's members: a tracked slot only counts
    // against the budget if it still holds the tenant we stamped, since
    // externally reclaimed or recycled slots would inflate the census and
    // evict healthy keys. Untracking the rest leaves ns_keys_[i] exact.
    std::vector<KeyId> live;
    live.reserve(ns_keys_[i]);
    for (KeyId id = recency_[i].oldest; id != kInvalidKeyId;) {
      Tracked& t = tracked_[id];
      const KeyId next = t.next;
      if (!store_->IsLive(id) || store_->GenerationOf(id) != t.generation) {
        ++stats_.stale_tracks_fixed;
        Untrack(t);
      } else if (store_->IsPinned(id)) {
        Untrack(t);  // pinned after tracking: now exempt
      } else {
        live.push_back(id);
      }
      id = next;
    }
    assert(ns_keys_[i] == live.size());
    if (budget >= live.size() || live.empty()) {
      continue;
    }
    ++stats_.quota_breaches;
    // LRU by last write, stable tie-break on slot id.
    std::sort(live.begin(), live.end(), [this](KeyId a, KeyId b) {
      if (tracked_[a].last_write != tracked_[b].last_write) {
        return tracked_[a].last_write < tracked_[b].last_write;
      }
      return a < b;
    });
    const uint64_t excess = live.size() - budget;
    uint64_t evicted = 0;
    for (const KeyId id : live) {
      if (evicted >= excess) {
        break;
      }
      if (TryReclaim(id, tracked_[id], /*quota=*/true)) {
        ++evicted;
      }
    }
    if (evicted > 0) {
      OSGUARD_LOG(kDebug) << "retention evicted " << evicted << " keys from '"
                          << options_.namespaces[i].prefix << "'";
    }
  }
}

void RetentionManager::RunAtBoundary(SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  bool storm = false;
  bool breach = false;
  if (chaos_ != nullptr) {
    if (storm_site_ != kInvalidChaosSite && chaos_->ShouldInject(storm_site_, now)) {
      storm = true;
      ++stats_.chaos_storms;
    }
    if (breach_site_ != kInvalidChaosSite && chaos_->ShouldInject(breach_site_, now)) {
      breach = true;
      ++stats_.chaos_breaches;
    }
  }
  ScanChunk(now, storm);
  EnforceQuota(breach);
  if (exports_ == nullptr) {
    return;
  }
  // One at a time: each write moves the store footprint the next reads.
  exports_->Set(export_handles_[0], stats_.reclaimed_idle);
  exports_->Set(export_handles_[1], stats_.reclaimed_quota);
  exports_->Set(export_handles_[2], stats_.quota_breaches);
  exports_->Set(export_handles_[3], store_->approx_bytes());
  exports_->Set(export_handles_[4], store_->live_key_count());
  for (size_t i = 0; i < ns_keys_.size(); ++i) {
    exports_->Set(export_handles_[5 + 2 * i], ns_keys_[i]);
    exports_->Set(export_handles_[6 + 2 * i], ns_bytes_[i]);
  }
}

void RetentionManager::AdoptKey(KeyId id, SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  if (id >= store_->key_count() || !store_->IsLive(id) || store_->IsPinned(id)) {
    return;
  }
  const int32_t ns = Classify(store_->KeyName(id));
  if (ns < 0) {
    return;
  }
  if (id >= tracked_.size()) {
    tracked_.resize(id + 1);
  }
  Tracked& t = tracked_[id];
  if (t.valid) {
    return;  // already governed
  }
  t.ns = ns;
  t.valid = true;
  t.generation = store_->GenerationOf(id);
  t.bytes = store_->SlotApproxBytes(id);
  t.last_write = now;
  Link(id, t);
  ns_keys_[ns] += 1;
  ns_bytes_[ns] += t.bytes;
}

uint64_t RetentionManager::ReclaimPrefix(std::string_view prefix) {
  if (!options_.enabled || store_ == nullptr) {
    return 0;
  }
  uint64_t reclaimed = 0;
  for (KeyId id = 0; id < tracked_.size(); ++id) {
    Tracked& t = tracked_[id];
    if (!t.valid || t.ns < 0) {
      continue;
    }
    const std::string& key = store_->KeyName(id);
    if (key.size() < prefix.size() || key.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    if (TryReclaim(id, t, /*quota=*/false)) {
      ++reclaimed;
    }
  }
  return reclaimed;
}

RetentionImage RetentionManager::ExportState() const {
  RetentionImage image;
  image.cursor = cursor_;
  image.stats = stats_;
  return image;
}

void RetentionManager::RestoreState(const RetentionImage& image) {
  cursor_ = image.cursor;
  stats_ = image.stats;
}

void RetentionManager::ResyncFromStore(SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  const size_t n = options_.namespaces.size();
  ns_keys_.assign(n, 0);
  ns_bytes_.assign(n, 0);
  recency_.assign(n, {});
  const size_t count = store_->key_count();
  tracked_.assign(count, Tracked{});
  for (KeyId id = 0; id < count; ++id) {
    if (!store_->IsLive(id) || store_->IsPinned(id)) {
      continue;
    }
    const int32_t ns = Classify(store_->KeyName(id));
    if (ns < 0) {
      continue;
    }
    Tracked& t = tracked_[id];
    t.ns = ns;
    t.valid = true;
    t.generation = store_->GenerationOf(id);
    t.bytes = store_->SlotApproxBytes(id);
    // Resync-time stamp: write times are not persisted, and both sides of
    // a differential restore identically, so this stays deterministic.
    t.last_write = now;
    Link(id, t);
    ns_keys_[ns] += 1;
    ns_bytes_[ns] += t.bytes;
  }
  if (cursor_ >= tracked_.size()) {
    cursor_ = 0;
  }
}

}  // namespace osguard
