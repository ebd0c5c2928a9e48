// Little-endian wire primitives for the persistence layer.
//
// Everything osguard::persist puts on disk — journal frames, snapshots, the
// engine's opaque state images — is built from this one vocabulary: fixed
// little-endian integers, IEEE-754 doubles by bit pattern, u32
// length-prefixed strings, and a recursive tagged encoding for Value. The
// encoding is deliberately position-independent and free of host types so a
// journal written by one build replays on another.
//
// ByteReader is written for hostile input (the decoder fuzz target feeds it
// torn, bit-flipped, and truncated frames): every read is bounds-checked and
// fails with the byte offset in the message, and Value decoding is
// depth-limited. Decoders never crash and never allocate proportionally to a
// length field they have not yet validated against the remaining input.

#ifndef SRC_PERSIST_WIRE_H_
#define SRC_PERSIST_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/store/value.h"
#include "src/support/status.h"

namespace osguard {

// The wire format is little-endian, and the codec copies whole words in host
// order.
static_assert(std::endian::native == std::endian::little,
              "the persist wire codec assumes a little-endian host");

// CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8: eight 256-entry
// tables fold eight input bytes per step. No zlib dependency; the persist
// layer frames every payload with this.
uint32_t Crc32(std::string_view data);

// Appends primitives to a caller-owned buffer. Multi-byte values are
// appended as whole words.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Word(v); }
  void U64(uint64_t v) { Word(v); }
  void I64(int64_t v) { Word(v); }
  void F64(double v) { Word(v); }
  // u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Raw(std::string_view bytes) { out_->append(bytes); }
  // Overwrites four already-written bytes at `offset` (a length or count
  // that is only known once what follows it has been written).
  void PatchU32(size_t offset, uint32_t v) { std::memcpy(out_->data() + offset, &v, sizeof(v)); }

  std::string* out() { return out_; }

 private:
  template <typename T>
  void Word(T v) {
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out_->append(bytes, sizeof(T));
  }

  std::string* out_;
};

// Sequential bounds-checked reads over a borrowed buffer. All errors carry
// the failing byte offset so persist can annotate them with the file name.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return offset_ == data_.size(); }

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> F64();
  // u32 length prefix + raw bytes; the view aliases the underlying buffer.
  Result<std::string_view> Str();
  Result<std::string_view> Bytes(size_t n);

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

// Tagged Value encoding: ValueType byte, then the payload (recursive for
// lists, depth-limited to 32 on decode).
void WriteValue(ByteWriter& w, const Value& value);
Result<Value> ReadValue(ByteReader& r, int depth = 0);

}  // namespace osguard

#endif  // SRC_PERSIST_WIRE_H_
