// osguard::persist — crash-consistency suite.
//
// The load-bearing property is the 1000-seed crash/replay differential: a run
// that crashes at a random commit boundary and warm-restarts through
// Engine::Restore must end bit-identical (feature store, report ring, full
// engine image) to the same run uninterrupted — including when the persist
// chaos sites were tearing frames, flipping CRC-covered bits, and chopping
// journal tails the whole time. Around it: codec round-trips, the recovery
// ladder's graceful degradation, the MonitorStats survival matrix
// (cold start / hot replace / warm restart), and the kernel panic/reboot
// wiring.
//
// CI sweeps this binary (`ctest -L persist`) under ASan/UBSan with several
// OSGUARD_CHAOS_SEED values, like the chaos suite.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/actions/policy_registry.h"
#include "src/actions/report.h"
#include "src/chaos/chaos.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/rng.h"
#include "src/support/time.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "osguard-persist" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return data;
}

void WriteFile(const fs::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// --- Codec ---

JournalFrame MakeFrame(uint64_t seq) {
  JournalFrame frame;
  frame.seq = seq;
  frame.now = static_cast<SimTime>(seq) * Milliseconds(10);
  StoreOp save;
  save.kind = StoreMutation::Kind::kSave;
  save.key = "k" + std::to_string(seq);
  save.value = Value(static_cast<double>(seq) * 1.5);
  frame.ops.push_back(save);
  StoreOp observe;
  observe.kind = StoreMutation::Kind::kObserve;
  observe.key = "series";
  observe.time = frame.now;
  observe.sample = static_cast<double>(seq);
  frame.ops.push_back(observe);
  frame.report_delta = "report-" + std::to_string(seq);
  frame.image = std::string("image-") + std::to_string(seq);
  return frame;
}

TEST(PersistCodec, JournalRoundTrip) {
  std::string buffer;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    AppendFrame(MakeFrame(seq), &buffer);
  }
  const FrameScan scan = ScanJournal(buffer);
  EXPECT_TRUE(scan.detail.empty()) << scan.detail;
  EXPECT_EQ(scan.valid_bytes, buffer.size());
  EXPECT_EQ(scan.discarded_bytes, 0u);
  ASSERT_EQ(scan.frames.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    const JournalFrame& frame = scan.frames[seq - 1];
    EXPECT_EQ(frame.seq, seq);
    ASSERT_EQ(frame.ops.size(), 2u);
    EXPECT_EQ(frame.ops[0].key, "k" + std::to_string(seq));
    EXPECT_EQ(frame.ops[1].sample, static_cast<double>(seq));
    EXPECT_EQ(frame.report_delta, "report-" + std::to_string(seq));
    EXPECT_EQ(frame.image, "image-" + std::to_string(seq));
  }
}

TEST(PersistCodec, TornTailKeepsThePrefix) {
  std::string buffer;
  AppendFrame(MakeFrame(1), &buffer);
  AppendFrame(MakeFrame(2), &buffer);
  const size_t two_frames = buffer.size();
  AppendFrame(MakeFrame(3), &buffer);
  // Tear the third frame: every truncation point inside it must yield exactly
  // the two-frame prefix plus a non-empty damage description.
  for (size_t cut = two_frames + 1; cut < buffer.size(); ++cut) {
    const FrameScan scan = ScanJournal(std::string_view(buffer).substr(0, cut));
    EXPECT_EQ(scan.frames.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, two_frames) << "cut at " << cut;
    EXPECT_FALSE(scan.detail.empty()) << "cut at " << cut;
  }
}

TEST(PersistCodec, BitFlipStopsTheScanAtTheDamage) {
  std::string buffer;
  AppendFrame(MakeFrame(1), &buffer);
  const size_t one_frame = buffer.size();
  AppendFrame(MakeFrame(2), &buffer);
  AppendFrame(MakeFrame(3), &buffer);
  // Flip one bit inside the second frame's bytes: frame 1 survives, the rest
  // is discarded (CRC or framing failure — either is acceptable, crashing or
  // decoding garbage is not).
  for (size_t at = one_frame; at < buffer.size(); at += 7) {
    std::string damaged = buffer;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    const FrameScan scan = ScanJournal(damaged);
    ASSERT_LE(scan.frames.size(), 3u);
    ASSERT_GE(scan.frames.size(), 1u) << "flip at " << at;
    EXPECT_EQ(scan.frames[0].seq, 1u) << "flip at " << at;
    if (scan.frames.size() < 3) {
      EXPECT_FALSE(scan.detail.empty()) << "flip at " << at;
      EXPECT_GT(scan.discarded_bytes, 0u) << "flip at " << at;
    }
  }
}

TEST(PersistCodec, SnapshotRoundTripAndDamageRejection) {
  Snapshot snapshot;
  snapshot.seq = 42;
  snapshot.now = Seconds(3);
  StoreSlotDump slot;
  slot.key = "lat.flag";
  slot.has_scalar = true;
  slot.scalar = Value(true);
  snapshot.store.push_back(slot);
  snapshot.report_ring = "ring-bytes";
  snapshot.image = "image-bytes";

  const std::string encoded = EncodeSnapshot(snapshot);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().seq, 42u);
  EXPECT_EQ(decoded.value().now, Seconds(3));
  ASSERT_EQ(decoded.value().store.size(), 1u);
  EXPECT_EQ(decoded.value().store[0].key, "lat.flag");
  EXPECT_EQ(decoded.value().report_ring, "ring-bytes");
  EXPECT_EQ(decoded.value().image, "image-bytes");

  // Every truncation must be a clean error.
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto truncated = DecodeSnapshot(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
    EXPECT_FALSE(truncated.status().message().empty()) << "cut at " << cut;
  }
  // And every single-bit flip in the CRC-covered body must be rejected.
  for (size_t at = 0; at < encoded.size(); at += 3) {
    std::string damaged = encoded;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    auto result = DecodeSnapshot(damaged);
    if (result.ok()) {
      // Flips in the length/version header can still be caught as framing
      // errors; a flip that decodes successfully would be a CRC hole.
      FAIL() << "bit flip at " << at << " decoded successfully";
    }
  }
}

// Bit-at-a-time CRC-32 straight from the IEEE polynomial: the reference the
// sliced table implementation must match.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(PersistCrc, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string_view()), 0u);
}

TEST(PersistCrc, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(4242);
  std::string buffer(8 + 64, '\0');
  for (char& ch : buffer) {
    ch = static_cast<char>(rng.UniformInt(0, 255));
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view data(buffer.data() + align, len);
      EXPECT_EQ(Crc32(data), BitwiseCrc32(data)) << "align " << align << " len " << len;
    }
  }
}

// --- ByteWriter ---
// The writer stores fields at a cursor into the string's full capacity and
// sets the string's size once, when it goes out of scope.

template <typename T>
void AppendWord(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(PersistWriter, GrowsPastCapacityAndPatchesAfterGrowth) {
  std::string out = "head";  // appends to what is already there
  const size_t capacity = out.capacity();
  {
    ByteWriter w(&out);
    EXPECT_EQ(w.size(), 4u);
    w.U32(0);  // a count patched once the buffer has grown several times
    for (uint32_t i = 0; i < 1000; ++i) {
      w.U32(i * 3);
    }
    w.PatchU32(4, 1000);
    w.Str("tail");
    EXPECT_EQ(w.size(), 4u + 4 + 4000 + 8);
    EXPECT_EQ(w.View(4).size(), 4u + 4000 + 8);
  }
  EXPECT_GT(out.capacity(), capacity);
  ASSERT_EQ(out.size(), 4u + 4 + 4000 + 8);
  EXPECT_EQ(out.substr(0, 4), "head");
  ByteReader r(std::string_view(out).substr(4));
  ASSERT_EQ(r.U32().value(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(r.U32().value(), i * 3) << i;
  }
  EXPECT_EQ(r.Str().value(), "tail");
  EXPECT_TRUE(r.done());
}

TEST(PersistWriter, TruncateAndTheExactFinalSize) {
  std::string out;
  out.reserve(256);
  {
    ByteWriter w(&out);
    w.U64(7);
    w.Str("abc");
    const size_t mark = w.size();
    w.Raw(std::string(100, 'x'));
    w.Truncate(mark);
    w.U8(9);
    w.Patch(0, "\x05");
  }
  std::string want;
  AppendWord(&want, uint64_t{5});
  AppendWord(&want, uint32_t{3});
  want += "abc";
  want += '\x09';
  EXPECT_EQ(out, want);
  EXPECT_GE(out.capacity(), 256u);  // the slack is still there, outside size()
  // A writer that writes nothing leaves the string as it was.
  { ByteWriter w(&out); }
  EXPECT_EQ(out, want);
  // A later writer appends after the earlier one's bytes, and Truncate can
  // reach back into them.
  {
    ByteWriter w(&out);
    w.F64(0.5);
    EXPECT_EQ(w.View(want.size()).size(), 8u);
    w.Truncate(8);
  }
  EXPECT_EQ(out, want.substr(0, 8));
}

// Random field sequences against a reference that appends each field to a
// std::string, from non-empty and empty starts and across many growths.
TEST(PersistWriter, RandomFieldsMatchAnAppendReference) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    std::string prefix(static_cast<size_t>(rng.UniformInt(0, 40)), 'p');
    std::string out = prefix;
    std::string want = prefix;
    const int fields = static_cast<int>(rng.UniformInt(0, 200));
    {
      ByteWriter w(&out);
      for (int i = 0; i < fields; ++i) {
        const uint64_t bits = rng.NextU64();
        switch (rng.UniformInt(0, 8)) {
          case 0:
            w.U8(static_cast<uint8_t>(bits));
            want += static_cast<char>(static_cast<uint8_t>(bits));
            break;
          case 1:
            w.U32(static_cast<uint32_t>(bits));
            AppendWord(&want, static_cast<uint32_t>(bits));
            break;
          case 2:
            w.U64(bits);
            AppendWord(&want, bits);
            break;
          case 3:
            w.I64(static_cast<int64_t>(bits));
            AppendWord(&want, static_cast<int64_t>(bits));
            break;
          case 4:
            w.F64(static_cast<double>(bits) * 1e-9);
            AppendWord(&want, static_cast<double>(bits) * 1e-9);
            break;
          case 5: {
            const std::string s(static_cast<size_t>(rng.UniformInt(0, 300)),
                                static_cast<char>('a' + bits % 26));
            w.Str(s);
            AppendWord(&want, static_cast<uint32_t>(s.size()));
            want += s;
            break;
          }
          case 6: {
            const std::string s(static_cast<size_t>(rng.UniformInt(0, 300)), 'r');
            w.Raw(s);
            want += s;
            break;
          }
          case 7:
            if (want.size() >= prefix.size() + 4) {
              const size_t at = static_cast<size_t>(rng.UniformInt(
                  static_cast<int64_t>(prefix.size()), static_cast<int64_t>(want.size()) - 4));
              w.PatchU32(at, static_cast<uint32_t>(bits));
              std::memcpy(want.data() + at, &bits, 4);
            }
            break;
          default: {
            const size_t at = static_cast<size_t>(rng.UniformInt(
                static_cast<int64_t>(prefix.size()), static_cast<int64_t>(want.size())));
            w.Truncate(at);
            want.resize(at);
            break;
          }
        }
        ASSERT_EQ(w.size(), want.size()) << "seed " << seed << " field " << i;
      }
    }
    ASSERT_EQ(out, want) << "seed " << seed;
  }
}

// --- Golden wire bytes ---
// Journal key frames ("OGJ1") and snapshots ("OGS1") must never change on
// disk: an older journal has to replay on a newer build, and the binary
// corpus under tests/corpus pins the same property for the decoders. These
// tests pin exact encoder output, so a codec rewrite that changes a single
// byte fails here.

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull) {
  for (const char ch : bytes) {
    h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001b3ull;
  }
  return h;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    out += kDigits[static_cast<uint8_t>(ch) >> 4];
    out += kDigits[static_cast<uint8_t>(ch) & 0xf];
  }
  return out;
}

// Every store-op kind and every Value type, including a nested list.
JournalFrame GoldenFrame(uint64_t seq) {
  JournalFrame frame;
  frame.seq = seq;
  frame.now = static_cast<SimTime>(seq) * Milliseconds(7) + 3;
  StoreOp save;
  save.kind = StoreMutation::Kind::kSave;
  save.key = "save." + std::to_string(seq);
  save.value = Value(std::vector<Value>{Value(), Value(int64_t{-5} * static_cast<int64_t>(seq)),
                                        Value(0.25 * static_cast<double>(seq)), Value(true),
                                        Value(std::string("str")),
                                        Value(std::vector<Value>{Value(false)})});
  frame.ops.push_back(save);
  StoreOp observe;
  observe.kind = StoreMutation::Kind::kObserve;
  observe.key = "series";
  observe.time = frame.now - 1;
  observe.sample = -1.0e-3 * static_cast<double>(seq);
  frame.ops.push_back(observe);
  StoreOp erase;
  erase.kind = StoreMutation::Kind::kErase;
  erase.key = "gone";
  erase.reclaim = seq % 2 == 0;
  frame.ops.push_back(erase);
  StoreOp options;
  options.kind = StoreMutation::Kind::kSetSeriesOptions;
  options.key = "series";
  options.max_samples = 64 + seq;
  options.max_age = Seconds(2);
  frame.ops.push_back(options);
  frame.report_delta = std::string("\x01\x00\x00\x00report", 10) + std::to_string(seq);
  frame.image = std::string(40, static_cast<char>(0x80 + seq)) + "image";
  return frame;
}

TEST(PersistWire, KeyFrameBytesArePinned) {
  JournalFrame tiny;
  tiny.seq = 1;
  tiny.now = 2;
  tiny.image = "img";
  std::string one;
  AppendFrame(tiny, &one);
  EXPECT_EQ(Hex(one),
            "4f474a311f000000ab9c13ff"  // "OGJ1", payload length 31, CRC
            "0100000000000000"          // seq
            "0200000000000000"          // now
            "00000000"                  // no store ops
            "00000000"                  // empty report delta
            "03000000696d67");          // image "img"

  std::string journal;
  for (uint64_t seq = 1; seq <= 4; ++seq) {
    AppendFrame(GoldenFrame(seq), &journal);
  }
  EXPECT_EQ(journal.size(), 848u);
  EXPECT_EQ(Fnv1a(journal), 12624668717661992762ull) << std::hex << Fnv1a(journal);
}

TEST(PersistWire, SnapshotBytesArePinned) {
  Snapshot snapshot;
  snapshot.seq = 77;
  snapshot.now = Seconds(9) + 5;
  StoreSlotDump scalar;
  scalar.key = "flag";
  scalar.has_scalar = true;
  scalar.live = true;
  scalar.generation = 3;
  scalar.scalar = Value(std::string("on"));
  snapshot.store.push_back(scalar);
  StoreSlotDump series;
  series.key = "io.lat";
  series.has_series = true;
  series.has_scalar = true;
  series.live = true;
  series.scalar = Value(int64_t{42});
  series.series.max_samples = 128;
  series.series.max_age = Milliseconds(400);
  series.series.next_seq = 9;
  for (uint64_t i = 0; i < 3; ++i) {
    series.series.samples.push_back(StoreSampleDump{
        static_cast<SimTime>(i) * 1000, 1.5 * static_cast<double>(i),
        2.5 * static_cast<double>(i), 3.5 * static_cast<double>(i), 6 + i});
  }
  series.series.minima.push_back(StoreExtremumDump{6, 0, 0.0});
  series.series.maxima.push_back(StoreExtremumDump{8, 2000, 3.0});
  snapshot.store.push_back(series);
  StoreSlotDump freed;
  freed.key = "";
  freed.generation = 7;
  freed.free_rank = 1;
  snapshot.store.push_back(freed);
  snapshot.report_ring = "ring";
  snapshot.image = std::string(33, '\x5a');
  const std::string encoded = EncodeSnapshot(snapshot);
  EXPECT_EQ(encoded.size(), 350u);
  EXPECT_EQ(Fnv1a(encoded), 13487093203918435147ull) << std::hex << Fnv1a(encoded);
}

// --- Image-delta frames ---
// A key frame ("OGJ1") carries the engine image whole; a delta frame
// ("OGJ2") carries the runs of bytes that differ from the previous frame's
// image. ScanJournal hands back full images either way.

// An image of `size` bytes that varies with `seq` in a few places.
std::string DeltaImage(uint64_t seq, size_t size = 96) {
  std::string image(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    image[i] = static_cast<char>('a' + i % 23);
  }
  for (size_t at : {size_t{3}, size / 2, size - 1}) {
    image[at] = static_cast<char>(seq * 7 + at);
  }
  return image;
}

// The magic of every frame ScanJournal accepted, in order.
std::vector<std::string> FrameMagics(const std::string& journal) {
  const FrameScan scan = ScanJournal(journal);
  std::vector<std::string> magics;
  size_t start = 0;
  for (const size_t end : scan.frame_ends) {
    magics.push_back(journal.substr(start, 4));
    start = end;
  }
  return magics;
}

TEST(PersistWire, DeltaFrameBytesArePinned) {
  // One changed byte in a 32-byte image travels as a single one-byte run.
  JournalFrame tiny;
  tiny.seq = 2;
  tiny.now = 3;
  tiny.image = std::string(31, 'a') + "b";
  std::string one;
  EXPECT_TRUE(AppendDeltaFrame(tiny, std::string(32, 'a'), &one));
  EXPECT_EQ(Hex(one),
            "4f474a3229000000a7595420"  // "OGJ2", payload length 41, CRC
            "0200000000000000"          // seq
            "0300000000000000"          // now
            "00000000"                  // no store ops
            "00000000"                  // empty report delta
            "20000000"                  // image length 32
            "01000000"                  // one run
            "1f00000001000000"          // at offset 31, one byte
            "62");                      // "b"

  // GoldenFrame(2)'s image differs from GoldenFrame(1)'s in 40 of its 45
  // bytes, so the delta does not pay and the frame goes as a key frame.
  std::string fallback;
  EXPECT_FALSE(AppendDeltaFrame(GoldenFrame(2), GoldenFrame(1).image, &fallback));
  EXPECT_EQ(fallback.size(), 212u);
  EXPECT_EQ(Fnv1a(fallback), 15665447914306350817ull) << std::hex << Fnv1a(fallback);

  // Every op kind and Value type ahead of a real delta image.
  JournalFrame golden = GoldenFrame(2);
  golden.image = DeltaImage(2);
  std::string delta;
  EXPECT_TRUE(AppendDeltaFrame(golden, DeltaImage(1), &delta));
  EXPECT_EQ(delta.substr(0, 4), "OGJ2");
  EXPECT_EQ(delta.size(), 198u);
  EXPECT_EQ(Fnv1a(delta), 4047368313753243644ull) << std::hex << Fnv1a(delta);
}

TEST(PersistDelta, MixedKeyAndDeltaFramesRoundTrip) {
  std::vector<JournalFrame> frames;
  for (uint64_t seq = 1; seq <= 8; ++seq) {
    JournalFrame frame = MakeFrame(seq);
    // Frame 5 changes every byte, and frame 6 every byte back, so their
    // deltas would not pay and they go as key frames even with a base.
    frame.image = seq == 5 ? std::string(96, 'Z') : DeltaImage(seq);
    frames.push_back(frame);
  }
  std::string journal;
  AppendFrame(frames[0], &journal);
  for (size_t i = 1; i < frames.size(); ++i) {
    const bool delta = AppendDeltaFrame(frames[i], frames[i - 1].image, &journal);
    EXPECT_EQ(delta, i != 4 && i != 5) << "frame " << i + 1;
  }
  const FrameScan scan = ScanJournal(journal);
  EXPECT_TRUE(scan.detail.empty()) << scan.detail;
  EXPECT_EQ(scan.valid_bytes, journal.size());
  ASSERT_EQ(scan.frames.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(scan.frames[i].seq, frames[i].seq);
    EXPECT_EQ(scan.frames[i].now, frames[i].now);
    ASSERT_EQ(scan.frames[i].ops.size(), 2u);
    EXPECT_EQ(scan.frames[i].ops[0].key, frames[i].ops[0].key);
    EXPECT_EQ(scan.frames[i].report_delta, frames[i].report_delta);
    EXPECT_EQ(scan.frames[i].image, frames[i].image) << "frame " << i + 1;
  }
  EXPECT_EQ(FrameMagics(journal), (std::vector<std::string>{"OGJ1", "OGJ2", "OGJ2", "OGJ2",
                                                            "OGJ1", "OGJ1", "OGJ2", "OGJ2"}));
  // Three changed bytes cost three runs, far less than the 96-byte image.
  std::string key_only;
  for (const JournalFrame& frame : frames) {
    AppendFrame(frame, &key_only);
  }
  EXPECT_LT(journal.size() + 5 * 40, key_only.size());
}

TEST(PersistDelta, DeltaThatChangesTheImageLength) {
  const std::string base = DeltaImage(1, 96);
  std::vector<std::string> images = {
      base + "tail",                                   // grows, change far from the end
      DeltaImage(2, 97) + std::string(40, 'q'),        // grows, change next to the old end
      base.substr(0, 50),                              // shrinks, no change inside
      DeltaImage(3, 60).substr(0, 58),                 // shrinks, with a change
      std::string(),                                   // shrinks to nothing
  };
  for (size_t i = 0; i < images.size(); ++i) {
    JournalFrame first = MakeFrame(1);
    first.image = base;
    JournalFrame second = MakeFrame(2);
    second.image = images[i];
    std::string journal;
    AppendFrame(first, &journal);
    AppendDeltaFrame(second, base, &journal);
    const FrameScan scan = ScanJournal(journal);
    EXPECT_TRUE(scan.detail.empty()) << "case " << i << ": " << scan.detail;
    ASSERT_EQ(scan.frames.size(), 2u) << "case " << i;
    EXPECT_EQ(scan.frames[1].image, images[i]) << "case " << i;
  }
  // Shrinking without a change carries no run at all, so it goes as a delta.
  JournalFrame shrunk = MakeFrame(2);
  shrunk.image = base.substr(0, 50);
  std::string unused;
  EXPECT_TRUE(AppendDeltaFrame(shrunk, base, &unused));
}

TEST(PersistDelta, JournalOpeningWithADeltaFrameStopsAtOffsetZero) {
  JournalFrame first = MakeFrame(1);
  first.image = DeltaImage(1);
  JournalFrame second = MakeFrame(2);
  second.image = DeltaImage(2);
  std::string key;
  AppendFrame(first, &key);
  std::string delta;
  ASSERT_TRUE(AppendDeltaFrame(second, first.image, &delta));
  const FrameScan scan = ScanJournal(delta + key);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.discarded_bytes, delta.size() + key.size());
  EXPECT_NE(scan.detail.find("no base frame"), std::string::npos) << scan.detail;
}

TEST(PersistDelta, CrcDamageInAMiddleDeltaFrameKeepsThePrefix) {
  std::string journal;
  std::string previous;
  std::vector<size_t> ends;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    JournalFrame frame = MakeFrame(seq);
    frame.image = DeltaImage(seq);
    if (seq == 1) {
      AppendFrame(frame, &journal);
    } else {
      ASSERT_TRUE(AppendDeltaFrame(frame, previous, &journal));
    }
    previous = frame.image;
    ends.push_back(journal.size());
  }
  // Flip one payload byte of frame 3 (a delta frame): frames 1-2 survive
  // with their images, and the scan stops at the damage.
  std::string damaged = journal;
  damaged[ends[1] + 20] = static_cast<char>(damaged[ends[1] + 20] ^ 0x04);
  const FrameScan scan = ScanJournal(damaged);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, ends[1]);
  EXPECT_EQ(scan.discarded_bytes, journal.size() - ends[1]);
  EXPECT_EQ(scan.frames[1].image, DeltaImage(2));
  EXPECT_NE(scan.detail.find("crc mismatch"), std::string::npos) << scan.detail;

  // Cutting frame 3 out entirely leaves frame 4 after frame 2: a delta whose
  // base is missing ends the scan instead of decoding against frame 2.
  const std::string cut = journal.substr(0, ends[1]) + journal.substr(ends[2]);
  const FrameScan gap = ScanJournal(cut);
  ASSERT_EQ(gap.frames.size(), 2u);
  EXPECT_EQ(gap.valid_bytes, ends[1]);
  EXPECT_NE(gap.detail.find("does not follow its base"), std::string::npos) << gap.detail;
}

TEST(PersistDelta, ManagerWritesKeyFramesAfterOpenRotationAndRecovery) {
  const fs::path dir = FreshDir("delta-key-frames");
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  FeatureStore store;
  auto commit = [&store](PersistManager& manager, uint64_t step) {
    store.Save("step", Value(static_cast<int64_t>(step)));
    return manager.CommitFrame(static_cast<SimTime>(step), "", DeltaImage(step));
  };
  const fs::path journal = dir / "journal.wal";
  {
    PersistManager manager(options);
    manager.AttachStore(&store);
    ASSERT_TRUE(manager.Open().ok());
    for (uint64_t step = 1; step <= 3; ++step) {
      ASSERT_TRUE(commit(manager, step).ok());
    }
    EXPECT_EQ(FrameMagics(ReadFile(journal)),
              (std::vector<std::string>{"OGJ1", "OGJ2", "OGJ2"}));
    // Rotation empties the journal; the next frame cannot lean on a frame
    // that is gone.
    ASSERT_TRUE(manager.WriteSnapshot(3, store.DumpSlots(), "", DeltaImage(3)).ok());
    EXPECT_EQ(manager.stats().rotations, 1u);
    for (uint64_t step = 4; step <= 5; ++step) {
      ASSERT_TRUE(commit(manager, step).ok());
    }
    EXPECT_EQ(FrameMagics(ReadFile(journal)), (std::vector<std::string>{"OGJ1", "OGJ2"}));
  }
  {
    // Recovery keeps the journal's valid prefix and appends after it.
    PersistManager manager(options);
    auto recovered = manager.LoadForRecovery();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->info.last_seq, 5u);
    ASSERT_EQ(recovered->frames.size(), 2u);
    EXPECT_EQ(recovered->frames[1].image, DeltaImage(5));
    ASSERT_TRUE(manager.Open().ok());
    manager.AttachStore(&store);
    for (uint64_t step = 6; step <= 7; ++step) {
      ASSERT_TRUE(commit(manager, step).ok());
    }
  }
  const std::string bytes = ReadFile(journal);
  EXPECT_EQ(FrameMagics(bytes), (std::vector<std::string>{"OGJ1", "OGJ2", "OGJ1", "OGJ2"}));
  const FrameScan scan = ScanJournal(bytes);
  ASSERT_EQ(scan.frames.size(), 4u);
  for (size_t i = 0; i < scan.frames.size(); ++i) {
    EXPECT_EQ(scan.frames[i].image, DeltaImage(scan.frames[i].seq)) << "frame " << i;
  }
}

// The per-frame report delta is the tail of the ring found by walking back
// from the newest record. After recovery re-inserts persisted records with
// RestoreRecord (evicting at capacity), it must still match a plain filter
// over the ring, in the same order.
TEST(PersistDelta, RecordsSinceOrderAfterRestoreRecord) {
  Reporter reporter(8);
  for (uint64_t seq = 0; seq < 12; ++seq) {
    ReportRecord record;
    record.sequence = seq;
    record.guardrail = "g" + std::to_string(seq % 3);
    reporter.RestoreRecord(record);
  }
  ReporterSnapshot counters;
  counters.next_sequence = 12;
  reporter.RestoreCounters(counters);
  ReportRecord fresh;
  fresh.guardrail = "g-new";
  reporter.Report(fresh);

  const std::vector<ReportRecord> ring = reporter.Records();
  ASSERT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.front().sequence, 5u);
  EXPECT_EQ(ring.back().sequence, 12u);
  for (uint64_t from = 0; from <= 14; ++from) {
    std::vector<uint64_t> expected;
    for (const ReportRecord& record : ring) {
      if (record.sequence >= from) {
        expected.push_back(record.sequence);
      }
    }
    std::vector<uint64_t> since;
    for (const ReportRecord& record : reporter.RecordsSince(from)) {
      since.push_back(record.sequence);
    }
    std::vector<uint64_t> visited;
    reporter.VisitSince(from, [&](const ReportRecord& record) {
      visited.push_back(record.sequence);
    });
    EXPECT_EQ(since, expected) << "from " << from;
    EXPECT_EQ(visited, expected) << "from " << from;
  }
}

// --- Differential crash/replay harness ---

// The spec drives three trigger kinds (TIMER / ONCHANGE), window aggregates,
// the violation protocol (hysteresis + cooldown + on_satisfy), the
// supervisor (health block), and the persist DSL surface itself.
constexpr char kDiffSpec[] = R"(
guardrail lat-p99 {
  trigger: { TIMER(100ms, 40ms) },
  rule: { COUNT(io.lat, 400ms) == 0 || P99(io.lat, 400ms) <= 5ms },
  action: { SAVE(lat.flag, true); REPORT("p99 high", MEAN(io.lat, 400ms)) },
  on_satisfy: { SAVE(lat.flag, false) },
  meta: { severity = warning, cooldown = 120ms, hysteresis = 2 }
}
guardrail err-watch {
  trigger: { TIMER(60ms, 30ms), ONCHANGE(err.rate) },
  rule: { LOAD_OR(err.rate, 0) <= 0.5 },
  action: { INCR(err.trips); REPORT("err rate tripped") },
  meta: { hysteresis = 1 }
}
guardrail supervised-probe {
  trigger: { TIMER(80ms, 80ms) },
  rule: { LOAD_OR(probe.value, 0) <= 40 },
  action: { SAVE(probe.flag, true) },
  health: {
    budget_steps = 4096, flap_window = 500ms, flap_threshold = 3,
    quarantine = 2, probe_every = 2, reinstate = 2
  }
}
persist { interval = 250ms, journal_budget = 4096 }
)";

constexpr Duration kStepWindow = Milliseconds(50);

// One self-contained engine run: store + engine + persist manager over `dir`.
struct DiffRun {
  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PersistManager> persist;
};

EngineOptions DiffOptions() {
  EngineOptions options;
  options.measure_wall_time = false;  // host-clock costs are not replayable
  return options;
}

std::unique_ptr<DiffRun> StartRun(const fs::path& dir, ChaosEngine* chaos) {
  auto run = std::make_unique<DiffRun>();
  run->engine = std::make_unique<Engine>(&run->store, &run->registry, nullptr, DiffOptions());
  run->store.SetWriteObserver(
      [engine = run->engine.get()](const StoreWriteInfo& info, const std::string& key) {
        engine->OnStoreWrite(info, key);
      });
  PersistOptions options;
  options.dir = dir.string();
  run->persist = std::make_unique<PersistManager>(options);
  if (chaos != nullptr) {
    run->persist->SetChaos(chaos);
  }
  // SetPersist before LoadSource so the spec's persist block configures the
  // manager; Restore/Open is the caller's choice (fresh start vs recovery).
  run->engine->SetPersist(run->persist.get());
  EXPECT_TRUE(run->engine->LoadSource(kDiffSpec).ok());
  return run;
}

// One deterministic workload step. Everything is derived from (seed, step),
// so re-executing a step after recovery replays the exact same transitions.
// Each step ends with AdvanceTo — the commit boundary — so the journal
// sequence observed after step i identifies the resume point exactly.
void RunStep(DiffRun& run, uint64_t seed, int step) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(step) + 1);
  const SimTime start = static_cast<SimTime>(step) * kStepWindow;
  const int observations = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < observations; ++i) {
    const SimTime t = start + rng.UniformInt(1, kStepWindow - 1);
    const double sample =
        rng.Bernoulli(0.2) ? rng.Uniform(5.0e6, 2.0e7) : rng.Uniform(1.0e5, 4.0e6);
    run.store.Observe("io.lat", t, sample);
  }
  if (rng.Bernoulli(0.4)) {
    run.store.Save("err.rate", Value(rng.Uniform(0.0, 1.0)));
  }
  if (rng.Bernoulli(0.3)) {
    run.store.Save("probe.value", Value(rng.Uniform(0.0, 80.0)));
  }
  if (rng.Bernoulli(0.15)) {
    run.store.Increment("step.counter", 1.0);
  }
  if (rng.Bernoulli(0.05)) {
    (void)run.store.Erase("lat.flag");
  }
  if (rng.Bernoulli(0.05)) {
    SeriesOptions options;
    options.max_samples = static_cast<size_t>(rng.UniformInt(16, 64));
    options.max_age = Milliseconds(rng.UniformInt(100, 1000));
    run.store.SetSeriesOptions("io.lat", options);
  }
  run.engine->AdvanceTo(start + kStepWindow);
}

// The full observable state, wire-encoded: feature store (scalar + series
// internals), report ring, and the engine's state image. Two runs are
// equivalent iff these bytes match.
std::string Fingerprint(DiffRun& run) {
  Snapshot snapshot;
  snapshot.store = run.store.DumpSlots();
  snapshot.report_ring = run.engine->EncodeReportRing();
  snapshot.image = run.engine->EncodeImage();
  return EncodeSnapshot(snapshot);
}

// Runs `total_steps` uninterrupted and returns the final fingerprint.
std::string ReferenceFingerprint(const fs::path& dir, uint64_t seed, int total_steps) {
  auto run = StartRun(dir, nullptr);
  EXPECT_TRUE(run->persist->Open().ok());
  for (int step = 0; step < total_steps; ++step) {
    RunStep(*run, seed, step);
  }
  return Fingerprint(*run);
}

// Crash at `crash_step`, recover, re-execute from the recovered sequence
// number, and return the final fingerprint (plus recovery info via out-param).
std::string CrashedFingerprint(const fs::path& dir, uint64_t seed, int total_steps,
                               int crash_step, ChaosEngine* chaos, RecoveryInfo* info_out) {
  std::vector<uint64_t> seq_after(static_cast<size_t>(crash_step), 0);
  {
    auto run = StartRun(dir, chaos);
    EXPECT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < crash_step; ++step) {
      RunStep(*run, seed, step);
      seq_after[static_cast<size_t>(step)] = run->persist->last_committed_seq();
    }
    // Crash: the run is abandoned here. Only what reached the files survives.
  }
  auto run = StartRun(dir, chaos);
  auto recovered = run->engine->Restore(*run->persist);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) {
    return "";
  }
  const RecoveryInfo info = recovered.value();
  if (info_out != nullptr) {
    *info_out = info;
  }
  // Resume point: the first step whose end-of-step sequence matches the
  // recovered sequence. Later steps with the same sequence were no-ops
  // (nothing committed), so re-executing them is safe and necessary — they
  // advance the clock to the reference timeline.
  int resume = 0;
  if (info.last_seq != 0) {
    resume = -1;
    for (int step = 0; step < crash_step; ++step) {
      if (seq_after[static_cast<size_t>(step)] == info.last_seq) {
        resume = step + 1;
        break;
      }
    }
    EXPECT_NE(resume, -1) << "recovered seq " << info.last_seq
                          << " matches no commit boundary (seed " << seed << ")";
    if (resume == -1) {
      return "";
    }
  }
  for (int step = resume; step < total_steps; ++step) {
    RunStep(*run, seed, step);
  }
  return Fingerprint(*run);
}

TEST(PersistDifferential, CrashReplayIsBitIdenticalOver1000Seeds) {
  const uint64_t base = SeedBase();
  constexpr int kTotalSteps = 16;
  const fs::path root = FreshDir("diff-clean");
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t seed = base * 1000 + i;
    Rng rng(seed ^ 0xD1F7ull);
    const int crash_step = static_cast<int>(rng.UniformInt(1, kTotalSteps));
    const fs::path ref_dir = root / ("ref-" + std::to_string(i));
    const fs::path crash_dir = root / ("crash-" + std::to_string(i));
    fs::create_directories(ref_dir);
    fs::create_directories(crash_dir);
    const std::string reference = ReferenceFingerprint(ref_dir, seed, kTotalSteps);
    RecoveryInfo info;
    const std::string crashed =
        CrashedFingerprint(crash_dir, seed, kTotalSteps, crash_step, nullptr, &info);
    ASSERT_EQ(crashed.size(), reference.size())
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    ASSERT_EQ(crashed, reference)
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    // Keep the temp tree small: done with this seed's directories.
    fs::remove_all(ref_dir);
    fs::remove_all(crash_dir);
  }
}

TEST(PersistDifferential, CrashReplaySurvivesPersistChaos) {
  // Same differential, but the persist chaos sites damage the files the
  // whole way: torn appends, CRC bit flips, chopped tails, aborted
  // snapshots. Damage costs recovery point (more steps re-executed), never
  // correctness — the final state must still match bit-for-bit.
  const uint64_t base = SeedBase();
  constexpr int kTotalSteps = 16;
  const fs::path root = FreshDir("diff-chaos");
  uint64_t damaged_runs = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = base * 1000 + i;
    Rng rng(seed ^ 0xC405ull);
    const int crash_step = static_cast<int>(rng.UniformInt(1, kTotalSteps));

    ChaosEngine chaos(seed);
    FaultPlanConfig torn;
    torn.mode = FaultMode::kBernoulli;
    torn.p = 0.15;
    torn.value = 0.25 + 0.5 * rng.NextDouble();  // fraction of the frame that lands
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistTornWrite, torn).ok());
    FaultPlanConfig flip;
    flip.mode = FaultMode::kBernoulli;
    flip.p = 0.1;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistCrcCorrupt, flip).ok());
    FaultPlanConfig chop;
    chop.mode = FaultMode::kBernoulli;
    chop.p = 0.1;
    chop.value = 0.5;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistTruncateTail, chop).ok());
    FaultPlanConfig snap_fail;
    snap_fail.mode = FaultMode::kBernoulli;
    snap_fail.p = 0.3;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistSnapshotFail, snap_fail).ok());

    const fs::path ref_dir = root / ("ref-" + std::to_string(i));
    const fs::path crash_dir = root / ("crash-" + std::to_string(i));
    fs::create_directories(ref_dir);
    fs::create_directories(crash_dir);
    const std::string reference = ReferenceFingerprint(ref_dir, seed, kTotalSteps);
    RecoveryInfo info;
    const std::string crashed =
        CrashedFingerprint(crash_dir, seed, kTotalSteps, crash_step, &chaos, &info);
    ASSERT_EQ(crashed, reference)
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    damaged_runs += (info.bytes_discarded > 0 || info.snapshots_rejected > 0 ||
                     info.frames_discarded > 0)
                        ? 1
                        : 0;
    fs::remove_all(ref_dir);
    fs::remove_all(crash_dir);
  }
  // The chaos plan is not vacuous: a decent share of recoveries actually had
  // to climb down the ladder.
  EXPECT_GT(damaged_runs, 20u);
}

// An engine run with interval-only snapshots (no journal budget, so the
// rotation points do not depend on frame sizes). Pins the snapshot files
// byte for byte and every journal frame as it decodes, re-encoded as a key
// frame, so the engine's image and report blobs are covered as well as the
// persist codec.
TEST(PersistWire, EngineJournalAndSnapshotsArePinned) {
  const fs::path dir = FreshDir("wire-golden");
  std::set<std::string> seen;
  std::string snapshots;
  std::string frames;
  size_t frame_count = 0;
  size_t frames_with_reports = 0;
  {
    auto run = StartRun(dir, nullptr);
    run->persist->Configure(Seconds(1), 0);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 50; ++step) {
      RunStep(*run, 17, step);
      // Collect each snapshot as soon as it is cut, before pruning drops it.
      for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("snap-", 0) == 0 && seen.insert(name).second) {
          snapshots += name + ":" + ReadFile(entry.path()) + ";";
        }
      }
    }
    const FrameScan scan = ScanJournal(ReadFile(dir / "journal.wal"));
    ASSERT_TRUE(scan.detail.empty()) << scan.detail;
    for (const JournalFrame& frame : scan.frames) {
      AppendFrame(frame, &frames);
      frames_with_reports += frame.report_delta.size() > 4 ? 1 : 0;  // past the count
    }
    frame_count = scan.frames.size();
  }
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(frame_count, 10u);
  EXPECT_GT(frames_with_reports, 0u);
  EXPECT_EQ(Fnv1a(snapshots), 7819614181632079089ull) << std::hex << Fnv1a(snapshots);
  EXPECT_EQ(Fnv1a(frames), 6663281286487313727ull) << std::hex << Fnv1a(frames);
  fs::remove_all(dir);
}

// The journal file as the manager writes it, byte for byte: key and delta
// frames, and the store ops as the mutation observer records them. No
// snapshots, so the journal is never rotated.
TEST(PersistWire, RawEngineJournalBytesArePinned) {
  const fs::path dir = FreshDir("wire-raw-journal");
  std::string journal;
  {
    auto run = StartRun(dir, nullptr);
    run->persist->Configure(0, 0);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 40; ++step) {
      RunStep(*run, 23, step);
    }
    EXPECT_EQ(run->persist->stats().snapshots_written, 0u);
    journal = ReadFile(dir / "journal.wal");
  }
  const std::vector<std::string> magics = FrameMagics(journal);
  EXPECT_EQ(ScanJournal(journal).valid_bytes, journal.size());
  EXPECT_EQ(magics.size(), 40u);
  EXPECT_EQ(std::count(magics.begin(), magics.end(), "OGJ1"), 1);
  EXPECT_EQ(journal.size(), 39121u);
  EXPECT_EQ(Fnv1a(journal), 772029982809317266ull) << std::hex << Fnv1a(journal);
  fs::remove_all(dir);
}

// A random Value of any type; lists nest up to three levels.
Value RandomValue(Rng& rng, int depth = 0) {
  switch (rng.UniformInt(0, depth < 3 ? 5 : 4)) {
    case 0:
      return Value();
    case 1:
      return Value(static_cast<int64_t>(rng.NextU64()));
    case 2:
      return Value(rng.Normal(0.0, 1e6));
    case 3:
      return Value(rng.Bernoulli(0.5));
    case 4:  // short (in place) and long (heap) strings
      return Value(std::string(static_cast<size_t>(rng.UniformInt(0, 40)),
                               static_cast<char>(rng.UniformInt(32, 126))));
    default: {
      std::vector<Value> items(static_cast<size_t>(rng.UniformInt(0, 4)));
      for (Value& item : items) {
        item = RandomValue(rng, depth + 1);
      }
      return Value(std::move(items));
    }
  }
}

// The mutation observer encodes each store op as the store commits it.
// AppendFrame encodes StoreOps through WriteOp. For the same ops, of all
// four kinds and every Value type, the two must give the same bytes.
TEST(PersistWire, ObserverOpBytesMatchWriteOp) {
  const fs::path root = FreshDir("observer-ops");
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const fs::path dir = root / std::to_string(seed);
    PersistOptions options;
    options.dir = dir.string();
    options.snapshot_interval = 0;
    options.journal_budget = 0;
    FeatureStore store;
    PersistManager manager(options);
    manager.AttachStore(&store);
    ASSERT_TRUE(manager.Open().ok());
    JournalFrame frame;
    frame.seq = 1;
    frame.now = static_cast<SimTime>(seed);
    frame.report_delta = "r";
    frame.image = "image";
    auto expect = [&frame](StoreMutation::Kind kind, const std::string& key) -> StoreOp& {
      StoreOp& op = frame.ops.emplace_back();
      op.kind = kind;
      op.key = key;
      return op;
    };
    const int ops = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < ops; ++i) {
      // Keys up to well past the in-place string length.
      const std::string key = std::string(static_cast<size_t>(rng.UniformInt(0, 24)), 'k') +
                              std::to_string(rng.UniformInt(0, 5));
      switch (rng.UniformInt(0, 4)) {
        case 0: {
          const Value value = RandomValue(rng);
          store.Save(key, value);
          expect(StoreMutation::Kind::kSave, key).value = value;
          break;
        }
        case 1: {
          const SimTime t = i * 10 + rng.UniformInt(0, 9);
          const double sample = rng.Uniform(-1e3, 1e3);
          store.Observe(key, t, sample);
          StoreOp& op = expect(StoreMutation::Kind::kObserve, key);
          op.time = t;
          op.sample = sample;
          break;
        }
        case 2: {  // plain erase of a scalar
          store.Save(key, Value(int64_t{i}));
          expect(StoreMutation::Kind::kSave, key).value = Value(int64_t{i});
          ASSERT_TRUE(store.Erase(key).ok());
          expect(StoreMutation::Kind::kErase, key).reclaim = false;
          break;
        }
        case 3: {  // reclaim of the whole slot
          store.Save(key, Value(true));
          expect(StoreMutation::Kind::kSave, key).value = Value(true);
          ASSERT_TRUE(store.ReclaimKey(key).ok());
          expect(StoreMutation::Kind::kErase, key).reclaim = true;
          break;
        }
        default: {
          SeriesOptions series;
          series.max_samples = static_cast<size_t>(rng.UniformInt(1, 1 << 20));
          series.max_age = rng.UniformInt(0, Seconds(60));
          store.SetSeriesOptions(key, series);
          StoreOp& op = expect(StoreMutation::Kind::kSetSeriesOptions, key);
          op.max_samples = series.max_samples;
          op.max_age = series.max_age;
          break;
        }
      }
    }
    ASSERT_TRUE(manager.CommitFrame(frame.now, frame.report_delta, frame.image).ok());
    std::string want;
    AppendFrame(frame, &want);
    ASSERT_EQ(Hex(ReadFile(dir / "journal.wal")), Hex(want)) << "seed " << seed;
  }
  fs::remove_all(root);
}

// --- Failed appends ---

// Runs `commit` with the file-size limit at `limit` bytes, so a write past
// it fails with EFBIG (SIGXFSZ ignored). The limit is this process's own
// and is restored before returning.
Status CommitUnderFileSizeLimit(uintmax_t limit, const std::function<Status()>& commit) {
  struct rlimit saved;
  EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit limited = saved;
  limited.rlim_cur = static_cast<rlim_t>(limit);
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
  const Status status = commit();
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);
  return status;
}

// A journal append that fails part way must not leave the bytes that did
// land in the file: every frame appended after them would be unreadable.
// Here the sixth frame lands only its first 20 bytes.
TEST(PersistJournal, FailedAppendIsCutBackAndLaterFramesSurvive) {
  const fs::path dir = FreshDir("failed-append");
  const fs::path journal = dir / "journal.wal";
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  FeatureStore store;
  PersistManager manager(options);
  manager.AttachStore(&store);
  ASSERT_TRUE(manager.Open().ok());
  auto commit = [&](uint64_t step) {
    store.Save("step", Value(static_cast<int64_t>(step)));
    return manager.CommitFrame(static_cast<SimTime>(step), "", DeltaImage(step));
  };
  for (uint64_t step = 1; step <= 5; ++step) {
    ASSERT_TRUE(commit(step).ok());
  }
  const uintmax_t good_size = fs::file_size(journal);
  store.Save("kept", Value(std::string("after a failed append")));
  const Status failed = CommitUnderFileSizeLimit(good_size + 20, [&] { return commit(6); });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(manager.last_committed_seq(), 5u);
  EXPECT_EQ(fs::file_size(journal), good_size);
  for (uint64_t step = 7; step <= 10; ++step) {
    ASSERT_TRUE(commit(step).ok());
  }
  EXPECT_EQ(manager.last_committed_seq(), 9u);

  const std::string bytes = ReadFile(journal);
  EXPECT_EQ(FrameMagics(bytes), (std::vector<std::string>{"OGJ1", "OGJ2", "OGJ2", "OGJ2",
                                                           "OGJ2", "OGJ1", "OGJ2", "OGJ2",
                                                           "OGJ2"}));
  PersistManager recovery(options);
  auto recovered = recovery.LoadForRecovery();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->info.last_seq, 9u) << recovered->info.detail;
  EXPECT_EQ(recovered->info.bytes_discarded, 0u);
  ASSERT_EQ(recovered->frames.size(), 9u);
  // Seq 6 carries the failed commit's ops as well as its own.
  const std::vector<StoreOp>& ops = recovered->frames[5].ops;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].key, "kept");
  EXPECT_EQ(ops[1].value, Value(int64_t{6}));
  EXPECT_EQ(ops[2].value, Value(int64_t{7}));
  EXPECT_EQ(recovered->frames[8].image, DeltaImage(10));
  fs::remove_all(dir);
}

// A reboot reuses its manager, journal still open. Recovery cuts the
// journal to its usable prefix, and a failed append afterwards must cut
// back to that prefix, not to the size the journal had before the reboot.
TEST(PersistJournal, FailedAppendAfterRecoveryCutsBackToTheRecoveredPrefix) {
  const fs::path dir = FreshDir("failed-append-recovered");
  const fs::path journal = dir / "journal.wal";
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  FeatureStore store;
  PersistManager manager(options);
  manager.AttachStore(&store);
  ASSERT_TRUE(manager.Open().ok());
  auto commit = [&](uint64_t step) {
    store.Save("step", Value(static_cast<int64_t>(step)));
    return manager.CommitFrame(static_cast<SimTime>(step), "", DeltaImage(step));
  };
  for (uint64_t step = 1; step <= 4; ++step) {
    ASSERT_TRUE(commit(step).ok());
  }
  // Damage the third frame's payload: recovery keeps frames 1 and 2.
  std::string bytes = ReadFile(journal);
  const std::vector<size_t> ends = ScanJournal(bytes).frame_ends;
  ASSERT_EQ(ends.size(), 4u);
  bytes[ends[1] + 12] = static_cast<char>(bytes[ends[1] + 12] ^ 1);
  WriteFile(journal, bytes);
  auto first = manager.LoadForRecovery();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->info.last_seq, 2u);
  ASSERT_TRUE(manager.Open().ok());
  EXPECT_EQ(fs::file_size(journal), ends[1]);

  const Status failed =
      CommitUnderFileSizeLimit(ends[1] + 20, [&] { return commit(5); });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(fs::file_size(journal), ends[1]);
  ASSERT_TRUE(commit(6).ok());
  PersistManager recovery(options);
  auto recovered = recovery.LoadForRecovery();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->info.last_seq, 3u) << recovered->info.detail;
  EXPECT_EQ(recovered->info.bytes_discarded, 0u);
  ASSERT_EQ(recovered->frames.size(), 3u);
  EXPECT_EQ(recovered->frames[2].image, DeltaImage(6));
  fs::remove_all(dir);
}

// --- Recovery ladder ---

TEST(PersistRecovery, FallsBackToPreviousSnapshotAndColdStart) {
  const fs::path dir = FreshDir("ladder");
  // Produce a run with at least two snapshots (tight interval + budget).
  {
    auto run = StartRun(dir, nullptr);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 40; ++step) {
      RunStep(*run, 7, step);
    }
    ASSERT_GE(run->persist->stats().snapshots_written, 2u);
  }
  // Baseline recovery: usable snapshot, no damage.
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered.value().cold_start);
    EXPECT_TRUE(recovered.value().used_snapshot);
    EXPECT_FALSE(recovered.value().used_previous_snapshot);
  }
  // Corrupt the newest snapshot: recovery must step down to the previous one.
  std::vector<fs::path> snapshots;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      snapshots.push_back(entry.path());
    }
  }
  ASSERT_GE(snapshots.size(), 2u);
  std::sort(snapshots.begin(), snapshots.end());
  {
    std::string bytes = ReadFile(snapshots.back());
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    WriteFile(snapshots.back(), bytes);
  }
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered.value().cold_start);
    EXPECT_TRUE(recovered.value().used_previous_snapshot);
    EXPECT_GE(recovered.value().snapshots_rejected, 1u);
  }
  // Destroy everything: recovery must degrade to a cold start, not fail.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes = ReadFile(entry.path());
    for (size_t at = 0; at < bytes.size(); at += 2) {
      bytes[at] = static_cast<char>(~bytes[at]);
    }
    WriteFile(entry.path(), bytes);
  }
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered.value().cold_start);
    // A cold-started engine keeps working.
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, 7, step);
    }
  }
}

TEST(PersistRecovery, ArbitraryFileDamageNeverCrashesRecovery) {
  const uint64_t base = SeedBase();
  const fs::path root = FreshDir("damage-sweep");
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t seed = base + i;
    const fs::path dir = root / std::to_string(i);
    fs::create_directories(dir);
    {
      auto run = StartRun(dir, nullptr);
      ASSERT_TRUE(run->persist->Open().ok());
      for (int step = 0; step < 12; ++step) {
        RunStep(*run, seed, step);
      }
    }
    // Randomly damage every persist file: flips, truncations, garbage
    // prepends. Recovery must always return cleanly and the recovered
    // engine must keep running.
    Rng rng(seed ^ 0xDA11ull);
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::string bytes = ReadFile(entry.path());
      switch (rng.UniformInt(0, 3)) {
        case 0:
          if (!bytes.empty()) {
            const size_t at = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.UniformInt(0, 7)));
          }
          break;
        case 1:
          bytes = bytes.substr(0, bytes.size() / 2);
          break;
        case 2:
          bytes = std::string("garbage") + bytes;
          break;
        default:
          break;  // leave this file intact
      }
      WriteFile(entry.path(), bytes);
    }
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok()) << "seed " << seed << ": " << recovered.status().ToString();
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, seed, step);
    }
    fs::remove_all(dir);
  }
}

// --- MonitorStats survival matrix (pins the semantics documented on the
// struct: cold start / hot replace / warm restart) ---

TEST(PersistSemantics, MonitorStatsSemantics) {
  constexpr char kV1[] = R"(
guardrail pinned {
  trigger: { TIMER(10ms, 10ms) },
  rule: { LOAD_OR(x, 0) <= 5 },
  action: { SAVE(tripped, true) },
  meta: { hysteresis = 2, cooldown = 50ms }
}
persist { interval = 1s, journal_budget = 0 }
)";
  // Same name, different program — a hot replace.
  constexpr char kV2[] = R"(
guardrail pinned {
  trigger: { TIMER(10ms, 10ms) },
  rule: { LOAD_OR(x, 0) <= 7 },
  action: { SAVE(tripped, true) },
  meta: { hysteresis = 2, cooldown = 50ms }
}
)";
  const fs::path dir = FreshDir("stats-matrix");

  auto run = std::make_unique<DiffRun>();
  run->engine = std::make_unique<Engine>(&run->store, &run->registry, nullptr, DiffOptions());
  PersistOptions options;
  options.dir = dir.string();
  run->persist = std::make_unique<PersistManager>(options);
  run->engine->SetPersist(run->persist.get());
  ASSERT_TRUE(run->engine->LoadSource(kV1).ok());
  ASSERT_TRUE(run->persist->Open().ok());

  // Cold start: everything zero, uptime_evals tracks evaluations.
  auto stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().evaluations, 0u);
  EXPECT_EQ(stats.value().uptime_evals, 0u);

  run->store.Save("x", Value(9.0));  // violating
  run->engine->AdvanceTo(Milliseconds(45));
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats before = stats.value();
  EXPECT_GT(before.evaluations, 0u);
  EXPECT_EQ(before.uptime_evals, before.evaluations);
  EXPECT_TRUE(before.in_violation);
  EXPECT_GT(before.consecutive_violations, 0);
  // The uptime counter is exported at the callout boundary.
  auto exported = run->store.Load("monitor.pinned.uptime_evals");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(static_cast<uint64_t>(exported.value().NumericOr(-1)), before.uptime_evals);

  // Hot replace: per-version counters reset; the violation-protocol clocks
  // (in_violation, consecutive_violations, last_action_time) and
  // uptime_evals — which describe the monitored name — survive.
  ASSERT_TRUE(run->engine->LoadSource(kV2).ok());
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().evaluations, 0u);
  EXPECT_EQ(stats.value().violations, 0u);
  EXPECT_EQ(stats.value().action_firings, 0u);
  EXPECT_EQ(stats.value().uptime_evals, before.uptime_evals);
  EXPECT_EQ(stats.value().in_violation, before.in_violation);
  EXPECT_EQ(stats.value().consecutive_violations, before.consecutive_violations);
  EXPECT_EQ(stats.value().last_action_time, before.last_action_time);

  // Accumulate a bit more history on v2, then crash.
  run->engine->AdvanceTo(Milliseconds(95));
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats at_crash = stats.value();
  EXPECT_GT(at_crash.uptime_evals, before.uptime_evals);
  run.reset();  // crash

  // Warm restart: every field is restored verbatim — a reboot is invisible.
  auto rebooted = std::make_unique<DiffRun>();
  rebooted->engine =
      std::make_unique<Engine>(&rebooted->store, &rebooted->registry, nullptr, DiffOptions());
  rebooted->persist = std::make_unique<PersistManager>(options);
  rebooted->engine->SetPersist(rebooted->persist.get());
  ASSERT_TRUE(rebooted->engine->LoadSource(kV1).ok());
  ASSERT_TRUE(rebooted->engine->LoadSource(kV2).ok());
  auto recovered = rebooted->engine->Restore(*rebooted->persist);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start);
  stats = rebooted->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats after = stats.value();
  EXPECT_EQ(after.evaluations, at_crash.evaluations);
  EXPECT_EQ(after.violations, at_crash.violations);
  EXPECT_EQ(after.action_firings, at_crash.action_firings);
  EXPECT_EQ(after.errors, at_crash.errors);
  EXPECT_EQ(after.suppressed_hysteresis, at_crash.suppressed_hysteresis);
  EXPECT_EQ(after.suppressed_cooldown, at_crash.suppressed_cooldown);
  EXPECT_EQ(after.in_violation, at_crash.in_violation);
  EXPECT_EQ(after.consecutive_violations, at_crash.consecutive_violations);
  EXPECT_EQ(after.last_action_time, at_crash.last_action_time);
  EXPECT_EQ(after.uptime_evals, at_crash.uptime_evals);
}

// --- DSL surface ---

TEST(PersistSpec, PersistBlockConfiguresTheManagerAndOffIsAbsent) {
  const fs::path dir = FreshDir("dsl-surface");
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry, nullptr, DiffOptions());
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = Seconds(10);
  options.journal_budget = 1 << 20;
  PersistManager persist(options);
  engine.SetPersist(&persist);

  // No persist block: the manager keeps its constructor-time options.
  ASSERT_TRUE(engine
                  .LoadSource("guardrail g { trigger: { TIMER(1s, 1s) }, "
                              "rule: { true }, action: { REPORT(\"x\") } }")
                  .ok());
  EXPECT_EQ(persist.options().snapshot_interval, Seconds(10));
  EXPECT_EQ(persist.options().journal_budget, static_cast<uint64_t>(1) << 20);

  // With a persist block, the spec wins.
  ASSERT_TRUE(engine.LoadSource("persist { interval = 2s, journal_budget = 4096 }").ok());
  EXPECT_EQ(persist.options().snapshot_interval, Seconds(2));
  EXPECT_EQ(persist.options().journal_budget, 4096u);

  // Validation: bad attributes are clean spec errors.
  EXPECT_FALSE(engine.LoadSource("persist { interval = 0 }").ok());
  EXPECT_FALSE(engine.LoadSource("persist { journal_budget = -1 }").ok());
  EXPECT_FALSE(engine.LoadSource("persist { cadence = 1s }").ok());

  // And with no manager attached, the block is validated but inert.
  FeatureStore bare_store;
  Engine bare(&bare_store, &registry, nullptr, DiffOptions());
  EXPECT_TRUE(bare.LoadSource("persist { interval = 2s }").ok());
  EXPECT_FALSE(bare.LoadSource("persist { interval = teapot }").ok());
}

// --- Kernel wiring ---

constexpr char kKernelSpec[] = R"(
guardrail io-watch {
  trigger: { TIMER(20ms, 20ms), FUNCTION(io_submit) },
  rule: { COUNT(io.lat, 100ms) == 0 || MEAN(io.lat, 100ms) <= 3ms },
  action: { SAVE(io.flag, true); REPORT("io slow") },
  on_satisfy: { SAVE(io.flag, false) },
  meta: { hysteresis = 2, cooldown = 40ms }
}
persist { interval = 100ms, journal_budget = 0 }
)";

// Schedules segment `segment`'s workload events on the kernel. Deterministic
// in (seed, segment) so a rebooted kernel re-schedules identical work.
void ScheduleSegment(Kernel& kernel, uint64_t seed, int segment) {
  Rng rng(seed * 131071ull + static_cast<uint64_t>(segment));
  const SimTime start = static_cast<SimTime>(segment) * Milliseconds(50);
  const int events = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < events; ++i) {
    const SimTime at = start + rng.UniformInt(1, Milliseconds(50) - 1);
    const double sample = rng.Uniform(5.0e5, 6.0e6);
    const bool callout = rng.Bernoulli(0.4);
    kernel.queue().ScheduleAt(at, [&kernel, at, sample, callout](SimTime) {
      kernel.store().Observe("io.lat", at, sample);
      if (callout) {
        kernel.Callout("io_submit");
      }
    });
  }
}

std::string KernelFingerprint(Kernel& kernel) {
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

TEST(PersistKernel, PanicRebootMatchesUninterruptedRun) {
  const uint64_t seed = SeedBase() + 11;
  constexpr int kSegments = 8;

  // Reference: no crash.
  const fs::path ref_dir = FreshDir("kernel-ref");
  Kernel reference(DiffOptions());
  PersistOptions ref_options;
  ref_options.dir = ref_dir.string();
  PersistManager ref_persist(ref_options);
  reference.AttachPersist(&ref_persist);
  ASSERT_TRUE(ref_persist.Open().ok());
  ASSERT_TRUE(reference.LoadGuardrails(kKernelSpec).ok());
  for (int segment = 0; segment < kSegments; ++segment) {
    ScheduleSegment(reference, seed, segment);
    reference.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  const std::string want = KernelFingerprint(reference);

  // Crash run: panic at a segment boundary, reboot, finish the run.
  const fs::path crash_dir = FreshDir("kernel-crash");
  Kernel kernel(DiffOptions());
  PersistOptions options;
  options.dir = crash_dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  constexpr int kPanicAfter = 4;
  for (int segment = 0; segment < kPanicAfter; ++segment) {
    ScheduleSegment(kernel, seed, segment);
    kernel.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  kernel.Panic();
  EXPECT_TRUE(kernel.panicked());
  kernel.Run(Seconds(10));  // a panicked kernel does not run
  EXPECT_EQ(kernel.now(), static_cast<SimTime>(kPanicAfter) * Milliseconds(50));

  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start) << recovered.value().detail;
  for (int segment = kPanicAfter; segment < kSegments; ++segment) {
    ScheduleSegment(kernel, seed, segment);
    kernel.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  EXPECT_EQ(KernelFingerprint(kernel), want);
}

TEST(PersistKernel, ScheduledPanicDropsEventsAndRebootRecovers) {
  const fs::path dir = FreshDir("kernel-sched-panic");
  Kernel kernel(DiffOptions());
  PersistOptions options;
  options.dir = dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());

  for (int segment = 0; segment < 4; ++segment) {
    ScheduleSegment(kernel, 23, segment);
  }
  int late_events = 0;
  kernel.queue().ScheduleAt(Milliseconds(150), [&](SimTime) { ++late_events; });
  kernel.SchedulePanicAt(Milliseconds(110));
  kernel.Run(Milliseconds(200));
  EXPECT_TRUE(kernel.panicked());
  EXPECT_EQ(late_events, 0);  // dropped by the panic
  EXPECT_TRUE(kernel.queue().empty());

  const auto before = kernel.engine().StatsFor("io-watch");
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(kernel.panicked());
  // The monitor is back, and its committed uptime history survived.
  auto after = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(before.ok());
  EXPECT_LE(after.value().uptime_evals, before.value().uptime_evals);
  EXPECT_GT(after.value().uptime_evals, 0u);
  // And the rebooted kernel keeps running.
  ScheduleSegment(kernel, 23, 4);
  kernel.Run(Milliseconds(250));
  EXPECT_FALSE(kernel.panicked());
}

// A panic while the overload governor is mid-degradation must warm-restart
// into the same ladder state: the rung, the EWMA signals, the per-monitor
// sampling stride positions, and the already-pinned fail-static episode all
// ride the engine image (v2). If any of them reset, the resumed run would
// re-apply the static default or shift the stride — visible as a fingerprint
// divergence from the uninterrupted oracle.
TEST(PersistKernel, PanicMidDegradationRestoresTheGovernorLadder) {
  constexpr char kGovernedSpec[] = R"(
    guardrail gov-crit {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.pressure, 0) <= 50 },
      action: { SAVE(ctl.safe_mode, true); REPORT("static default") },
      meta: { severity = critical, criticality = critical }
    }
    guardrail gov-std {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.pressure, 0) <= 60 },
      action: { REPORT() }
    }
    guardrail gov-be {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.load, 0) <= 70 },
      action: { REPORT() },
      meta: { criticality = besteffort }
    }
    persist { interval = 100ms, journal_budget = 0 }
  )";
  EngineOptions governed = DiffOptions();
  governed.governor.enabled = true;
  governed.governor.pressure_up = 5000.0;
  governed.governor.pressure_down = 500.0;
  governed.governor.dwell_up = 2;
  governed.governor.dwell_down = 3;
  governed.governor.sample_every = 3;
  governed.governor.alpha = 0.5;

  // Deterministic drive: a hot phase that walks the ladder down to
  // fail-static (pinning the critical default), then a calm phase that walks
  // it back up. `crash_at` callouts land mid-degradation.
  constexpr int kHotCallouts = 30;
  constexpr int kCalmCallouts = 14;
  constexpr int kCrashAt = 18;
  const auto drive = [](Kernel& kernel, int from, int to) {
    for (int i = from; i < to; ++i) {
      const SimTime t = (i < kHotCallouts) ? Milliseconds(1) + Microseconds(100) * i
                                           : Milliseconds(10) + Seconds(i - kHotCallouts);
      kernel.Run(t);
      kernel.Callout("hot");
    }
  };

  // Reference: no crash.
  const fs::path ref_dir = FreshDir("gov-ladder-ref");
  Kernel reference(governed);
  PersistOptions ref_options;
  ref_options.dir = ref_dir.string();
  PersistManager ref_persist(ref_options);
  reference.AttachPersist(&ref_persist);
  ASSERT_TRUE(ref_persist.Open().ok());
  ASSERT_TRUE(reference.LoadGuardrails(kGovernedSpec).ok());
  drive(reference, 0, kHotCallouts + kCalmCallouts);
  // The scenario is only meaningful if the ladder actually bottomed out and
  // recovered: a pinned episode, and full service again by the end.
  ASSERT_GE(reference.engine().governor().fail_static_epoch(), 1u);
  ASSERT_GE(reference.engine().governor().stats().static_applies, 1u);
  ASSERT_EQ(reference.engine().governor().mode(), GovernorMode::kFull);
  const std::string want = KernelFingerprint(reference);

  // Crash run: panic mid-degradation, warm-restart, finish the drive.
  const fs::path crash_dir = FreshDir("gov-ladder-crash");
  Kernel kernel(governed);
  PersistOptions options;
  options.dir = crash_dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kGovernedSpec).ok());
  drive(kernel, 0, kCrashAt);
  const GovernorMode mode_before = kernel.engine().governor().mode();
  const GovernorStats stats_before = kernel.engine().governor().stats();
  const uint64_t epoch_before = kernel.engine().governor().fail_static_epoch();
  ASSERT_NE(mode_before, GovernorMode::kFull);  // genuinely mid-degradation

  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start) << recovered.value().detail;

  // The rebooted engine resumes on the same rung with the same counters —
  // not at kFull with a blank ladder.
  const OverloadGovernor& after = kernel.engine().governor();
  EXPECT_EQ(after.mode(), mode_before);
  EXPECT_EQ(after.fail_static_epoch(), epoch_before);
  EXPECT_EQ(after.stats().transitions, stats_before.transitions);
  EXPECT_EQ(after.stats().static_applies, stats_before.static_applies);
  EXPECT_EQ(after.stats().sheds_besteffort, stats_before.sheds_besteffort);

  drive(kernel, kCrashAt, kHotCallouts + kCalmCallouts);
  EXPECT_EQ(KernelFingerprint(kernel), want);
}

TEST(PersistKernel, RebootWithoutPersistIsACleanColdStart) {
  Kernel kernel(DiffOptions());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  kernel.Run(Milliseconds(100));
  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().cold_start);
  auto stats = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().uptime_evals, 0u);
  kernel.Run(Milliseconds(200));  // still functional
}

}  // namespace
}  // namespace osguard
