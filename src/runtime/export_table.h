// The engine's one mechanism for exporting its own state into the feature
// store (docs/STORE.md "Exported keys").
//
// Subsystems register int64 entries once (tier, uptime, governor, retention
// and shard counters) and set them at callout boundaries; the table writes
// a value to the store only when the key was never written or the value
// changed, so guardrails watching an exported key (ONCHANGE, rules) see one
// write per real change. The last written value lives only in the table and
// in the store itself: after a warm restart ResyncFromStore re-reads it from
// the restored store, so nothing about the export is persisted twice.

#ifndef SRC_RUNTIME_EXPORT_TABLE_H_
#define SRC_RUNTIME_EXPORT_TABLE_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/store/feature_store.h"

namespace osguard {

class ExportTable {
 public:
  using Handle = uint32_t;
  static constexpr Handle kNone = 0xffffffffu;

  explicit ExportTable(FeatureStore* store) : store_(store) {}
  ExportTable(const ExportTable&) = delete;
  ExportTable& operator=(const ExportTable&) = delete;

  // Interns and pins `key` (the engine caches its id). The first Set writes
  // unconditionally, unless `already_published`: then the key counts as
  // already holding 0, so it is written only once its value leaves 0.
  Handle Add(std::string_view key, bool already_published = false);

  // Saves `value` to the store if the key was never written or the value
  // differs from the last one written. Callout boundaries only: the write
  // fires ONCHANGE triggers like any store write.
  void Set(Handle handle, int64_t value) {
    Entry& entry = entries_[handle];
    if (entry.written && entry.last == value) {
      return;
    }
    entry.written = true;
    entry.last = value;
    store_->Save(entry.key, Value(value));
  }

  // Unpins the key and frees the handle; returns the key's id so the caller
  // can hand the slot to the retention manager.
  KeyId Remove(Handle handle);

  // Warm restart: each entry whose key holds a scalar in the restored store
  // takes that value as its last written one; an absent key goes back to
  // its registration default.
  void ResyncFromStore();

 private:
  struct Entry {
    KeyId key = kInvalidKeyId;
    int64_t last = 0;
    bool written = false;
    bool already_published = false;  // registration default of `written`
  };

  FeatureStore* store_;
  std::vector<Entry> entries_;
  std::vector<Handle> free_;
};

}  // namespace osguard

#endif  // SRC_RUNTIME_EXPORT_TABLE_H_
