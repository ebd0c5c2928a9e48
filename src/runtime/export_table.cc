#include "src/runtime/export_table.h"

namespace osguard {

ExportTable::Handle ExportTable::Add(std::string_view key, bool already_published) {
  const KeyId id = store_->InternKey(key);
  // The id is cached here, so the slot must never be recycled under it
  // (docs/STORE.md pin contract).
  store_->Pin(id);
  Handle handle;
  if (free_.empty()) {
    handle = static_cast<Handle>(entries_.size());
    entries_.emplace_back();
  } else {
    handle = free_.back();
    free_.pop_back();
  }
  entries_[handle] = Entry{id, 0, already_published, already_published};
  return handle;
}

KeyId ExportTable::Remove(Handle handle) {
  const KeyId id = entries_[handle].key;
  store_->Unpin(id);
  entries_[handle] = Entry{};
  free_.push_back(handle);
  return id;
}

void ExportTable::ResyncFromStore() {
  for (Entry& entry : entries_) {
    if (entry.key == kInvalidKeyId) {
      continue;  // freed handle
    }
    const Value stored = store_->LoadOr(entry.key, Value());
    if (const int64_t* value = stored.IfInt()) {
      entry.written = true;
      entry.last = *value;
    } else {
      entry.written = entry.already_published;
      entry.last = 0;
    }
  }
}

}  // namespace osguard
