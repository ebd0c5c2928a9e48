#include "src/persist/persist.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/support/logging.h"

namespace osguard {

namespace fs = std::filesystem;

namespace {

constexpr char kJournalMagic[4] = {'O', 'G', 'J', '1'};       // key frame
constexpr char kDeltaJournalMagic[4] = {'O', 'G', 'J', '2'};  // image-delta frame
constexpr char kSnapshotMagic[4] = {'O', 'G', 'S', '1'};
constexpr uint32_t kSnapshotVersion = 2;  // v2: slot generation/live/free_rank, reclaim flag
// magic + payload length + CRC.
constexpr size_t kFrameHeaderSize = 12;
// magic + version + body length + CRC.
constexpr size_t kSnapshotHeaderSize = 16;

// Fixed wire sizes used to validate count fields before allocating.
constexpr size_t kSampleWireSize = 40;    // i64 + 3*f64 + u64
constexpr size_t kExtremumWireSize = 24;  // u64 + i64 + f64
constexpr size_t kMinOpWireSize = 5;      // kind + empty key
constexpr size_t kMinSlotWireSize = 5;    // empty key + flags
constexpr size_t kMinRunWireSize = 9;     // offset + length + one byte
// A run header costs as much as this many unchanged bytes, so a shorter gap
// between two changed stretches is cheaper carried than split.
constexpr size_t kRunHeaderSize = 8;

uint32_t ReadU32At(std::string_view data, size_t offset) {
  uint32_t v;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

// Writes all of `bytes` to `fd`, retrying EINTR and short writes.
bool WriteAll(int fd, std::string_view bytes) {
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  return true;
}

// Size of the file behind `fd`; 0 when it cannot be read.
uint64_t FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

Status CountError(std::string_view what, uint64_t count, size_t offset) {
  return OutOfRangeError(std::string(what) + " count " + std::to_string(count) +
                         " exceeds remaining input at offset " + std::to_string(offset));
}

// The wire fields of one store op. A journal StoreOp and a live
// StoreMutation both map onto it, so the mutation observer and WriteOp share
// one encoder.
struct OpFields {
  StoreMutation::Kind kind;
  std::string_view key;
  const Value& value;  // kSave
  SimTime time;        // kObserve
  double sample;       // kObserve
  uint64_t max_samples;
  Duration max_age;
  bool reclaim;  // kErase
};

void WriteOpFields(ByteWriter& w, const OpFields& op) {
  w.U8(static_cast<uint8_t>(op.kind));
  w.Str(op.key);
  switch (op.kind) {
    case StoreMutation::Kind::kSave:
      WriteValue(w, op.value);
      break;
    case StoreMutation::Kind::kObserve:
      w.I64(op.time);
      w.F64(op.sample);
      break;
    case StoreMutation::Kind::kErase:
      w.U8(op.reclaim ? 1 : 0);
      break;
    case StoreMutation::Kind::kSetSeriesOptions:
      w.U64(op.max_samples);
      w.I64(op.max_age);
      break;
  }
}

void WriteOp(ByteWriter& w, const StoreOp& op) {
  WriteOpFields(w, {op.kind, op.key, op.value, op.time, op.sample, op.max_samples, op.max_age,
                    op.reclaim});
}

Result<StoreOp> ReadOp(ByteReader& r) {
  StoreOp op;
  OSGUARD_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(StoreMutation::Kind::kSetSeriesOptions)) {
    return InvalidArgumentError("unknown store-op kind " + std::to_string(kind) +
                                " at offset " + std::to_string(r.offset() - 1));
  }
  op.kind = static_cast<StoreMutation::Kind>(kind);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view key, r.Str());
  op.key = std::string(key);
  switch (op.kind) {
    case StoreMutation::Kind::kSave: {
      OSGUARD_ASSIGN_OR_RETURN(Value value, ReadValue(r));
      op.value = std::move(value);
      break;
    }
    case StoreMutation::Kind::kObserve: {
      OSGUARD_ASSIGN_OR_RETURN(op.time, r.I64());
      OSGUARD_ASSIGN_OR_RETURN(op.sample, r.F64());
      break;
    }
    case StoreMutation::Kind::kErase: {
      OSGUARD_ASSIGN_OR_RETURN(uint8_t reclaim, r.U8());
      if (reclaim > 1) {
        return InvalidArgumentError("bad erase reclaim flag " + std::to_string(reclaim) +
                                    " at offset " + std::to_string(r.offset() - 1));
      }
      op.reclaim = reclaim != 0;
      break;
    }
    case StoreMutation::Kind::kSetSeriesOptions: {
      OSGUARD_ASSIGN_OR_RETURN(op.max_samples, r.U64());
      OSGUARD_ASSIGN_OR_RETURN(op.max_age, r.I64());
      break;
    }
  }
  return op;
}

void WriteSlotDump(ByteWriter& w, const StoreSlotDump& slot) {
  w.Str(slot.key);
  uint8_t flags = 0;
  if (slot.has_scalar) {
    flags |= 1;
  }
  if (slot.has_series) {
    flags |= 2;
  }
  if (slot.live) {
    flags |= 4;
  }
  w.U8(flags);
  w.U32(slot.generation);
  w.U32(slot.free_rank);
  if (slot.has_scalar) {
    WriteValue(w, slot.scalar);
  }
  if (slot.has_series) {
    const StoreSeriesDump& s = slot.series;
    w.U64(s.max_samples);
    w.I64(s.max_age);
    w.U64(s.next_seq);
    w.U32(static_cast<uint32_t>(s.samples.size()));
    for (const StoreSampleDump& sample : s.samples) {
      w.I64(sample.time);
      w.F64(sample.value);
      w.F64(sample.cum_sum);
      w.F64(sample.cum_sumsq);
      w.U64(sample.seq);
    }
    for (const auto* deque : {&s.minima, &s.maxima}) {
      w.U32(static_cast<uint32_t>(deque->size()));
      for (const StoreExtremumDump& e : *deque) {
        w.U64(e.seq);
        w.I64(e.time);
        w.F64(e.value);
      }
    }
  }
}

Result<StoreSlotDump> ReadSlotDump(ByteReader& r, uint32_t version) {
  StoreSlotDump slot;
  OSGUARD_ASSIGN_OR_RETURN(std::string_view key, r.Str());
  slot.key = std::string(key);
  OSGUARD_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
  const uint8_t max_flags = version >= 2 ? 7 : 3;
  if (flags > max_flags) {
    return InvalidArgumentError("unknown slot flags " + std::to_string(flags) +
                                " at offset " + std::to_string(r.offset() - 1));
  }
  slot.has_scalar = (flags & 1) != 0;
  slot.has_series = (flags & 2) != 0;
  if (version >= 2) {
    slot.live = (flags & 4) != 0;
    OSGUARD_ASSIGN_OR_RETURN(slot.generation, r.U32());
    OSGUARD_ASSIGN_OR_RETURN(slot.free_rank, r.U32());
  } else {
    // v1 predates the key lifecycle: every dumped slot was live, at
    // generation zero, with no free list.
    slot.live = true;
    slot.generation = 0;
    slot.free_rank = 0;
  }
  if (slot.has_scalar) {
    OSGUARD_ASSIGN_OR_RETURN(slot.scalar, ReadValue(r));
  }
  if (slot.has_series) {
    StoreSeriesDump& s = slot.series;
    OSGUARD_ASSIGN_OR_RETURN(s.max_samples, r.U64());
    OSGUARD_ASSIGN_OR_RETURN(s.max_age, r.I64());
    OSGUARD_ASSIGN_OR_RETURN(s.next_seq, r.U64());
    OSGUARD_ASSIGN_OR_RETURN(uint32_t nsamples, r.U32());
    if (nsamples > r.remaining() / kSampleWireSize) {
      return CountError("sample", nsamples, r.offset());
    }
    s.samples.reserve(nsamples);
    for (uint32_t i = 0; i < nsamples; ++i) {
      StoreSampleDump sample;
      OSGUARD_ASSIGN_OR_RETURN(sample.time, r.I64());
      OSGUARD_ASSIGN_OR_RETURN(sample.value, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.cum_sum, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.cum_sumsq, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.seq, r.U64());
      s.samples.push_back(sample);
    }
    for (auto* deque : {&s.minima, &s.maxima}) {
      OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      if (count > r.remaining() / kExtremumWireSize) {
        return CountError("extremum", count, r.offset());
      }
      deque->reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        StoreExtremumDump e;
        OSGUARD_ASSIGN_OR_RETURN(e.seq, r.U64());
        OSGUARD_ASSIGN_OR_RETURN(e.time, r.I64());
        OSGUARD_ASSIGN_OR_RETURN(e.value, r.F64());
        deque->push_back(e);
      }
    }
  }
  return slot;
}

// Writes `image` as a delta against `base`: u32 image length, u32 run
// count, then each run of bytes that differ from `base` as u32 offset,
// u32 length, bytes. Runs are sorted and disjoint, changed stretches closer
// than a run header are merged, and bytes past the end of `base` count as
// changed. Gives up and returns false once the delta passes `budget` bytes.
bool WriteImageRuns(ByteWriter& w, std::string_view base, std::string_view image,
                    size_t budget) {
  const size_t start = w.size();
  w.U32(static_cast<uint32_t>(image.size()));
  w.U32(0);
  const size_t common = std::min(base.size(), image.size());
  auto changed = [&](size_t k) { return k >= common || base[k] != image[k]; };
  uint32_t runs = 0;
  size_t i = 0;
  while (i < image.size()) {
    // Skip unchanged bytes, a word at a time where both sides have one.
    while (i + 8 <= common && std::memcmp(base.data() + i, image.data() + i, 8) == 0) {
      i += 8;
    }
    while (i < image.size() && !changed(i)) {
      ++i;
    }
    if (i == image.size()) {
      break;
    }
    const size_t begin = i;
    size_t end = ++i;  // one past the last changed byte
    while (i < image.size() && i - end < kRunHeaderSize) {
      if (changed(i)) {
        end = i + 1;
      }
      ++i;
    }
    w.U32(static_cast<uint32_t>(begin));
    w.U32(static_cast<uint32_t>(end - begin));
    w.Raw(image.substr(begin, end - begin));
    ++runs;
    if (w.size() - start > budget) {
      return false;
    }
    i = end;
  }
  w.PatchU32(start + 4, runs);
  return true;
}

// Reads WriteImageRuns's output, rebuilding the full image on `base`.
Status ReadImageRuns(ByteReader& r, std::string_view base, std::string* image) {
  OSGUARD_ASSIGN_OR_RETURN(uint32_t length, r.U32());
  // Bytes past the base are carried in runs, so growth beyond the remaining
  // input is corrupt — reject before allocating.
  if (length > base.size() && length - base.size() > r.remaining()) {
    return OutOfRangeError("delta image length " + std::to_string(length) +
                           " exceeds base plus remaining input at offset " +
                           std::to_string(r.offset() - 4));
  }
  OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  if (count > r.remaining() / kMinRunWireSize) {
    return CountError("image-run", count, r.offset() - 4);
  }
  image->assign(base.substr(0, std::min<size_t>(length, base.size())));
  image->resize(length, '\0');
  size_t next = 0;                // runs are sorted and disjoint
  size_t grown_to = base.size();  // bytes past the base carried so far
  for (uint32_t i = 0; i < count; ++i) {
    const size_t at = r.offset();
    OSGUARD_ASSIGN_OR_RETURN(uint32_t run_offset, r.U32());
    OSGUARD_ASSIGN_OR_RETURN(uint32_t run_length, r.U32());
    if (run_length == 0 || run_offset < next || run_offset > length ||
        run_length > length - run_offset) {
      return InvalidArgumentError("bad image run (offset " + std::to_string(run_offset) +
                                  ", length " + std::to_string(run_length) +
                                  ") at offset " + std::to_string(at));
    }
    OSGUARD_ASSIGN_OR_RETURN(std::string_view bytes, r.Bytes(run_length));
    std::memcpy(image->data() + run_offset, bytes.data(), bytes.size());
    next = run_offset + run_length;
    if (run_offset <= grown_to && next > grown_to) {
      grown_to = next;
    }
  }
  if (grown_to < length) {
    return InvalidArgumentError("delta image grows to " + std::to_string(length) +
                                " bytes but carries only " + std::to_string(grown_to));
  }
  return OkStatus();
}

// Writes one framed journal record in a single pass: the header goes in
// first with zeroed length and CRC, which are patched once the payload
// behind them is written. `ops` is `op_count` store ops already in wire
// form. With a `base` the image goes as a delta ("OGJ2") unless that is no
// smaller than the whole image; otherwise, and without a base, it is a key
// frame ("OGJ1"). Returns true for a delta.
bool EncodeFrame(uint64_t seq, SimTime now, std::string_view ops, uint32_t op_count,
                 std::string_view report_delta, std::string_view image,
                 const std::string_view* base, ByteWriter& w) {
  const size_t start = w.size();
  w.Raw(std::string_view(kJournalMagic, sizeof(kJournalMagic)));
  w.U32(0);
  w.U32(0);
  w.U64(seq);
  w.I64(now);
  w.U32(op_count);
  w.Raw(ops);
  w.Str(report_delta);
  const size_t image_at = w.size();
  // The key encoding is a u32 length + the image; a delta must beat it.
  const bool delta = base != nullptr && WriteImageRuns(w, *base, image, 3 + image.size());
  if (delta) {
    w.Patch(start, std::string_view(kDeltaJournalMagic, sizeof(kDeltaJournalMagic)));
  } else {
    w.Truncate(image_at);
    w.Str(image);
  }
  const size_t payload_at = start + kFrameHeaderSize;
  const std::string_view payload = w.View(payload_at);
  w.PatchU32(start + 4, static_cast<uint32_t>(payload.size()));
  w.PatchU32(start + 8, Crc32(payload));
  return delta;
}

// Encodes a decoded frame: its ops through WriteOp, then EncodeFrame.
bool EncodeJournalFrame(const JournalFrame& frame, const std::string_view* base,
                        std::string* out) {
  std::string ops;
  {
    ByteWriter w(&ops);
    for (const StoreOp& op : frame.ops) {
      WriteOp(w, op);
    }
  }
  ByteWriter w(out);
  return EncodeFrame(frame.seq, frame.now, ops, static_cast<uint32_t>(frame.ops.size()),
                     frame.report_delta, frame.image, base, w);
}

// Decodes the fields every frame payload starts with: seq, now, the store
// ops and the report delta.
Status ReadFrameHead(ByteReader& r, JournalFrame* frame) {
  OSGUARD_ASSIGN_OR_RETURN(frame->seq, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(frame->now, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t op_count, r.U32());
  if (op_count > r.remaining() / kMinOpWireSize) {
    return CountError("store-op", op_count, r.offset());
  }
  frame->ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(StoreOp op, ReadOp(r));
    frame->ops.push_back(std::move(op));
  }
  OSGUARD_ASSIGN_OR_RETURN(std::string_view delta, r.Str());
  frame->report_delta = std::string(delta);
  return OkStatus();
}

Status CheckFrameEnd(const ByteReader& r) {
  if (!r.done()) {
    return InvalidArgumentError("trailing garbage: " + std::to_string(r.remaining()) +
                                " bytes past the frame payload");
  }
  return OkStatus();
}

// Decodes a delta frame payload, rebuilding its image on `base`, the full
// image of the frame before it.
Result<JournalFrame> DecodeDeltaFramePayload(std::string_view payload, std::string_view base) {
  ByteReader r(payload);
  JournalFrame frame;
  OSGUARD_RETURN_IF_ERROR(ReadFrameHead(r, &frame));
  OSGUARD_RETURN_IF_ERROR(ReadImageRuns(r, base, &frame.image));
  OSGUARD_RETURN_IF_ERROR(CheckFrameEnd(r));
  return frame;
}

// Appends a snapshot file image to `out`, single pass like EncodeFrame.
void EncodeSnapshotTo(uint64_t seq, SimTime now, const std::vector<StoreSlotDump>& store,
                      std::string_view report_ring, std::string_view image, std::string* out) {
  ByteWriter w(out);
  const size_t start = w.size();
  w.Raw(std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic)));
  w.U32(kSnapshotVersion);
  w.U32(0);
  w.U32(0);
  w.U64(seq);
  w.I64(now);
  w.U32(static_cast<uint32_t>(store.size()));
  for (const StoreSlotDump& slot : store) {
    WriteSlotDump(w, slot);
  }
  w.Str(report_ring);
  w.Str(image);
  const std::string_view body = w.View(start + kSnapshotHeaderSize);
  w.PatchU32(start + 8, static_cast<uint32_t>(body.size()));
  w.PatchU32(start + 12, Crc32(body));
}

}  // namespace

// --- Frame codec ---

void AppendFrame(const JournalFrame& frame, std::string* out) {
  EncodeJournalFrame(frame, nullptr, out);
}

bool AppendDeltaFrame(const JournalFrame& frame, std::string_view base, std::string* out) {
  return EncodeJournalFrame(frame, &base, out);
}

Result<JournalFrame> DecodeFramePayload(std::string_view payload) {
  ByteReader r(payload);
  JournalFrame frame;
  OSGUARD_RETURN_IF_ERROR(ReadFrameHead(r, &frame));
  OSGUARD_ASSIGN_OR_RETURN(std::string_view image, r.Str());
  frame.image = std::string(image);
  OSGUARD_RETURN_IF_ERROR(CheckFrameEnd(r));
  return frame;
}

FrameScan ScanJournal(std::string_view data) {
  FrameScan scan;
  size_t offset = 0;
  while (offset < data.size()) {
    const size_t left = data.size() - offset;
    if (left < kFrameHeaderSize) {
      scan.detail = "truncated frame header at offset " + std::to_string(offset) + " (" +
                    std::to_string(left) + " bytes)";
      break;
    }
    const std::string_view magic = data.substr(offset, 4);
    const bool delta = magic == std::string_view(kDeltaJournalMagic, 4);
    if (!delta && magic != std::string_view(kJournalMagic, 4)) {
      scan.detail = "bad frame magic at offset " + std::to_string(offset);
      break;
    }
    // A delta frame's base is the image of the frame just before it.
    if (delta && scan.frames.empty()) {
      scan.detail = "delta frame at offset " + std::to_string(offset) + " has no base frame";
      break;
    }
    const uint32_t len = ReadU32At(data, offset + 4);
    const uint32_t crc = ReadU32At(data, offset + 8);
    if (left - kFrameHeaderSize < len) {
      scan.detail = "torn frame at offset " + std::to_string(offset) + ": payload needs " +
                    std::to_string(len) + " bytes, file has " +
                    std::to_string(left - kFrameHeaderSize);
      break;
    }
    const std::string_view payload = data.substr(offset + kFrameHeaderSize, len);
    if (Crc32(payload) != crc) {
      scan.detail = "crc mismatch at offset " + std::to_string(offset);
      break;
    }
    Result<JournalFrame> frame = delta
                                     ? DecodeDeltaFramePayload(payload, scan.frames.back().image)
                                     : DecodeFramePayload(payload);
    if (!frame.ok()) {
      scan.detail = "undecodable frame at offset " + std::to_string(offset) + ": " +
                    frame.status().ToString();
      break;
    }
    // Frames are written back to back, so a base frame that is missing (a
    // chopped tail the journal kept growing past) shows as a sequence jump.
    if (delta && frame->seq != scan.frames.back().seq + 1) {
      scan.detail = "delta frame at offset " + std::to_string(offset) + " (seq " +
                    std::to_string(frame->seq) + ") does not follow its base frame (seq " +
                    std::to_string(scan.frames.back().seq) + ")";
      break;
    }
    offset += kFrameHeaderSize + len;
    scan.frames.push_back(std::move(*frame));
    scan.frame_ends.push_back(offset);
    scan.valid_bytes = offset;
  }
  scan.discarded_bytes = data.size() - scan.valid_bytes;
  return scan;
}

// --- Snapshot codec ---

std::string EncodeSnapshot(const Snapshot& snapshot) {
  std::string out;
  EncodeSnapshotTo(snapshot.seq, snapshot.now, snapshot.store, snapshot.report_ring,
                   snapshot.image, &out);
  return out;
}

Result<Snapshot> DecodeSnapshot(std::string_view data) {
  if (data.size() < kSnapshotHeaderSize) {
    return OutOfRangeError("truncated snapshot header (" + std::to_string(data.size()) +
                           " bytes)");
  }
  if (data.substr(0, 4) != std::string_view(kSnapshotMagic, 4)) {
    return InvalidArgumentError("bad snapshot magic");
  }
  const uint32_t version = ReadU32At(data, 4);
  if (version == 0 || version > kSnapshotVersion) {
    return InvalidArgumentError("unsupported snapshot version " + std::to_string(version));
  }
  const uint32_t len = ReadU32At(data, 8);
  const uint32_t crc = ReadU32At(data, 12);
  if (data.size() - kSnapshotHeaderSize != len) {
    return OutOfRangeError("snapshot body length " + std::to_string(len) +
                           " does not match file size " +
                           std::to_string(data.size() - kSnapshotHeaderSize));
  }
  const std::string_view body = data.substr(kSnapshotHeaderSize, len);
  if (Crc32(body) != crc) {
    return InvalidArgumentError("snapshot crc mismatch");
  }

  ByteReader r(body);
  Snapshot snapshot;
  OSGUARD_ASSIGN_OR_RETURN(snapshot.seq, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(snapshot.now, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t slot_count, r.U32());
  if (slot_count > r.remaining() / kMinSlotWireSize) {
    return CountError("slot", slot_count, r.offset());
  }
  snapshot.store.reserve(slot_count);
  for (uint32_t i = 0; i < slot_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(StoreSlotDump slot, ReadSlotDump(r, version));
    snapshot.store.push_back(std::move(slot));
  }
  OSGUARD_ASSIGN_OR_RETURN(std::string_view ring, r.Str());
  snapshot.report_ring = std::string(ring);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view image, r.Str());
  snapshot.image = std::string(image);
  if (!r.done()) {
    return InvalidArgumentError("trailing garbage: " + std::to_string(r.remaining()) +
                                " bytes past the snapshot body");
  }
  return snapshot;
}

// --- Manager ---

PersistManager::PersistManager(PersistOptions options) : options_(std::move(options)) {}

PersistManager::~PersistManager() {
  AttachStore(nullptr);
  CloseJournal();
}

void PersistManager::CloseJournal() {
  if (journal_ >= 0) {
    ::close(journal_);
    journal_ = -1;
  }
}

void PersistManager::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ == nullptr) {
    torn_site_ = crc_site_ = truncate_site_ = snapshot_fail_site_ = kInvalidChaosSite;
    return;
  }
  torn_site_ = chaos_->RegisterSite(kChaosSitePersistTornWrite);
  crc_site_ = chaos_->RegisterSite(kChaosSitePersistCrcCorrupt);
  truncate_site_ = chaos_->RegisterSite(kChaosSitePersistTruncateTail);
  snapshot_fail_site_ = chaos_->RegisterSite(kChaosSitePersistSnapshotFail);
}

void PersistManager::Configure(Duration snapshot_interval, uint64_t journal_budget) {
  options_.snapshot_interval = snapshot_interval;
  options_.journal_budget = journal_budget;
}

void PersistManager::AttachStore(FeatureStore* store) {
  if (store_ != nullptr && store_ != store) {
    store_->SetMutationObserver(nullptr);
  }
  store_ = store;
  if (store_ == nullptr) {
    return;
  }
  store_->SetMutationObserver([this](const StoreMutation& m, const std::string& key) {
    WriteOpFields(pending_ops_, {m.kind, key, m.value, m.time, m.sample,
                                 static_cast<uint64_t>(m.options.max_samples),
                                 m.options.max_age, m.reclaim});
    ++pending_op_count_;
  });
}

std::string PersistManager::JournalPath() const { return options_.dir + "/journal.wal"; }

std::string PersistManager::SnapshotPath(uint64_t seq) const {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020" PRIu64 ".snap", seq);
  return options_.dir + "/" + name;
}

Status PersistManager::Open() {
  if (journal_ >= 0) {
    return OkStatus();
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("persist: cannot create '" + options_.dir + "': " + ec.message());
  }
  journal_ = ::open(JournalPath().c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (journal_ < 0) {
    return InternalError("persist: cannot open '" + JournalPath() + "' for append");
  }
  journal_bytes_ = FileSize(journal_);
  has_base_ = false;
  return OkStatus();
}

Status PersistManager::AppendToJournal(SimTime now) {
  const std::string_view bytes = frame_.View(0);
  stats_.bytes_appended += bytes.size();

  // Fault decisions. Each site is queried exactly once per append so the
  // per-site RNG streams replay bit-identically regardless of which faults
  // fire. Damage is applied to the file only — the caller's in-memory state
  // and sequence numbers advance as if the write had landed, exactly like a
  // kernel that loses a buffered write in a crash.
  bool torn = false;
  double torn_frac = 0.5;
  bool chop_tail = false;
  double chop_frac = 0.5;
  if (chaos_ != nullptr) {
    const FaultDecision corrupt = chaos_->Query(crc_site_, now);
    if (corrupt.inject && bytes.size() > kFrameHeaderSize) {
      const char flipped = static_cast<char>(bytes[kFrameHeaderSize] ^ 1);
      frame_.Patch(kFrameHeaderSize, std::string_view(&flipped, 1));
      ++stats_.faults_injected;
    }
    const FaultDecision tear = chaos_->Query(torn_site_, now);
    if (tear.inject) {
      torn = true;
      if (tear.value > 0.0 && tear.value <= 1.0) {
        torn_frac = tear.value;
      }
      ++stats_.faults_injected;
    }
    const FaultDecision chop = chaos_->Query(truncate_site_, now);
    if (chop.inject) {
      chop_tail = true;
      if (chop.value > 0.0 && chop.value <= 1.0) {
        chop_frac = chop.value;
      }
      ++stats_.faults_injected;
    }
  }

  size_t to_write = bytes.size();
  if (torn) {
    const auto partial = static_cast<size_t>(static_cast<double>(bytes.size()) * torn_frac);
    to_write = std::min(bytes.size() - 1, std::max<size_t>(1, partial));
  }
  if (!WriteAll(journal_, bytes.substr(0, to_write))) {
    const int error = errno;
    // Whatever part of the frame landed must not stay: a later frame
    // appended after it would be unreadable, and so would every frame after
    // that. Cut the file back to the last good frame; if that fails too,
    // stop appending.
    if (::ftruncate(journal_, static_cast<off_t>(journal_bytes_)) != 0) {
      CloseJournal();
    }
    return InternalError("persist: journal append failed at '" + JournalPath() +
                         "': " + std::strerror(error));
  }
  journal_bytes_ += to_write;

  if (chop_tail && !torn) {
    const auto chop_want = static_cast<size_t>(static_cast<double>(bytes.size()) * chop_frac);
    const uint64_t chop = std::min<uint64_t>(journal_bytes_, std::max<size_t>(1, chop_want));
    if (::ftruncate(journal_, static_cast<off_t>(journal_bytes_ - chop)) == 0) {
      journal_bytes_ -= chop;
    }
  }
  return OkStatus();
}

Status PersistManager::CommitFrame(SimTime now, std::string_view report_delta,
                                   std::string_view image) {
  if (!dirty()) {
    return OkStatus();
  }
  if (journal_ < 0) {
    return FailedPreconditionError("persist journal not open (call Open() first)");
  }
  frame_.Truncate(0);
  const std::string_view base = last_image_;
  EncodeFrame(seq_ + 1, now, pending_ops_.View(0), pending_op_count_, report_delta, image,
              has_base_ ? &base : nullptr, frame_);
  // A frame that failed to land cannot be the next frame's base. Its ops
  // stay pending, so the next frame carries them.
  has_base_ = false;
  OSGUARD_RETURN_IF_ERROR(AppendToJournal(now));
  pending_ops_.Truncate(0);
  pending_op_count_ = 0;
  last_image_.assign(image);
  has_base_ = true;
  ++seq_;
  dirty_ = false;
  ++stats_.frames_committed;
  return OkStatus();
}

bool PersistManager::SnapshotDue(SimTime now) const {
  if (journal_ < 0) {
    return false;
  }
  if (options_.journal_budget > 0 && journal_bytes_ > options_.journal_budget) {
    return true;
  }
  return options_.snapshot_interval > 0 &&
         now - last_snapshot_time_ >= options_.snapshot_interval;
}

Status PersistManager::WriteSnapshot(SimTime now, const std::vector<StoreSlotDump>& store,
                                     std::string_view report_ring, std::string_view image) {
  if (journal_ < 0) {
    return FailedPreconditionError("persist journal not open (call Open() first)");
  }
  if (chaos_ != nullptr && chaos_->Query(snapshot_fail_site_, now).inject) {
    // Aborted before the temp file exists: the previous snapshot and the
    // (un-rotated) journal stay authoritative, and the next due point
    // retries. Silent by design — lost writes are not synchronous errors.
    ++stats_.snapshot_failures;
    ++stats_.faults_injected;
    return OkStatus();
  }

  std::string bytes;
  EncodeSnapshotTo(seq_, now, store, report_ring, image, &bytes);

  const std::string tmp = options_.dir + "/snap.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    ++stats_.snapshot_failures;
    return InternalError("persist: cannot open '" + tmp + "'");
  }
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  // A failed close can lose buffered bytes too: the file is not a good
  // snapshot and must not be renamed into place.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !flushed || !closed) {
    ++stats_.snapshot_failures;
    std::error_code ec;
    fs::remove(tmp, ec);
    return InternalError("persist: snapshot write failed at '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, SnapshotPath(seq_), ec);
  if (ec) {
    ++stats_.snapshot_failures;
    fs::remove(tmp, ec);
    return InternalError("persist: snapshot rename failed: " + ec.message());
  }
  ++stats_.snapshots_written;
  last_snapshot_time_ = now;

  // Rotation: frames covered by the snapshot are dead weight. A crash
  // between the rename above and this truncation is handled at recovery by
  // skipping journal frames with seq <= snapshot.seq.
  if (::ftruncate(journal_, 0) == 0) {
    journal_bytes_ = 0;
    ++stats_.rotations;
    has_base_ = false;  // the emptied journal restarts with a key frame
  }
  PruneSnapshots();
  return OkStatus();
}

void PersistManager::PruneSnapshots() {
  std::vector<std::string> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(entry.path().string());
    }
  }
  // Zero-padded sequence numbers: lexical descending == newest first.
  std::sort(snaps.rbegin(), snaps.rend());
  for (size_t i = 2; i < snaps.size(); ++i) {
    fs::remove(snaps[i], ec);
  }
}

Result<RecoveredState> PersistManager::LoadForRecovery() {
  RecoveredState out;
  RecoveryInfo& info = out.info;

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("persist: cannot create '" + options_.dir + "': " + ec.message());
  }

  auto read_file = [](const std::string& path) -> std::string {
    std::string data;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return data;
    }
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.append(buf, n);
    }
    std::fclose(f);
    return data;
  };

  // Rung 1 and 2: newest decodable snapshot, else the previous one. A stale
  // temp file from an interrupted snapshot write is ignored entirely (it
  // never carries the .snap suffix).
  std::vector<std::string> snaps;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(entry.path().string());
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  bool have_snapshot = false;
  for (size_t i = 0; i < snaps.size(); ++i) {
    const std::string data = read_file(snaps[i]);
    Result<Snapshot> snapshot = DecodeSnapshot(data);
    if (snapshot.ok()) {
      out.base = std::move(*snapshot);
      have_snapshot = true;
      info.used_snapshot = true;
      info.used_previous_snapshot = i > 0;
      break;
    }
    ++info.snapshots_rejected;
    info.detail += "rejected " + snaps[i] + ": " +
                   Annotate(snapshot.status(), snaps[i]).message() + "; ";
  }

  // Rung 3: the journal's contiguous valid suffix on top of the base (or on
  // top of nothing — a journal-only warm start — when its first frame is
  // seq 1 and no snapshot survived).
  const std::string journal_data = read_file(JournalPath());
  FrameScan scan = ScanJournal(journal_data);
  if (!scan.detail.empty()) {
    info.detail += JournalPath() + ": " + scan.detail + "; ";
  }
  info.bytes_discarded = scan.discarded_bytes;

  uint64_t expected = out.base.seq + 1;
  size_t keep_bytes = 0;  // journal prefix that stays on disk
  bool gap = false;
  for (size_t i = 0; i < scan.frames.size(); ++i) {
    JournalFrame& frame = scan.frames[i];
    if (frame.seq <= out.base.seq) {
      keep_bytes = scan.frame_ends[i];  // pre-rotation remnant, superseded
      continue;
    }
    if (frame.seq != expected) {
      gap = true;
      info.frames_discarded += scan.frames.size() - i;
      info.detail += JournalPath() + ": sequence gap (frame " + std::to_string(frame.seq) +
                     ", expected " + std::to_string(expected) + "); ";
      break;
    }
    out.frames.push_back(std::move(frame));
    keep_bytes = scan.frame_ends[i];
    ++expected;
  }
  (void)gap;

  // Drop the invalid tail (and any post-gap frames) so future appends start
  // at a clean frame boundary.
  if (!journal_data.empty() && keep_bytes < journal_data.size()) {
    fs::resize_file(JournalPath(), keep_bytes, ec);
  }

  info.last_seq = out.frames.empty() ? out.base.seq : out.frames.back().seq;
  info.frames_replayed = out.frames.size();
  info.cold_start = !have_snapshot && out.frames.empty();

  // Prime the manager to continue the sequence.
  seq_ = info.last_seq;
  const SimTime recovered_now = out.frames.empty() ? out.base.now : out.frames.back().now;
  last_snapshot_time_ = recovered_now;
  dirty_ = false;
  pending_ops_.Truncate(0);
  pending_op_count_ = 0;
  has_base_ = false;
  // A journal still open from before (a reboot reuses its manager) has just
  // been cut to its usable prefix; a failed append cuts back to this size.
  if (journal_ >= 0) {
    journal_bytes_ = FileSize(journal_);
  }

  if (info.cold_start) {
    if (info.detail.empty()) {
      info.detail = "cold start (no persisted state)";
    }
    OSGUARD_LOG(kInfo) << "persist: cold start in '" << options_.dir << "' — " << info.detail;
  } else {
    OSGUARD_LOG(kInfo) << "persist: recovered seq " << info.last_seq << " ("
                       << (info.used_snapshot
                               ? (info.used_previous_snapshot ? "previous snapshot"
                                                              : "snapshot")
                               : "journal only")
                       << " + " << info.frames_replayed << " frames, "
                       << info.frames_discarded << " discarded, " << info.bytes_discarded
                       << " bytes dropped)"
                       << (info.detail.empty() ? "" : " — ") << info.detail;
  }
  return out;
}

}  // namespace osguard
