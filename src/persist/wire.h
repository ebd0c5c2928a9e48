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

// Appends primitives to a caller-owned buffer. Each field is stored at a
// cursor behind one inline bounds check; only growth leaves the inline path,
// and it doubles the buffer. While the writer is live the string is held at
// its full capacity (the bytes past the cursor are scratch); the destructor
// cuts it to what was written. Offsets (size(), PatchU32, Truncate, View)
// count from the start of the string, as they would after the writer is
// gone. At most one writer may be live on a string at a time.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out), pos_(out->size()) {
    out_->resize(out_->capacity());
    buf_ = out_->data();
    cap_ = out_->size();
  }
  ~ByteWriter() { out_->resize(pos_); }
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void U8(uint8_t v) {
    Reserve(1);
    buf_[pos_++] = static_cast<char>(v);
  }
  void U32(uint32_t v) { Word(v); }
  void U64(uint64_t v) { Word(v); }
  void I64(int64_t v) { Word(v); }
  void F64(double v) { Word(v); }
  // u32 length prefix + raw bytes.
  void Str(std::string_view s) {
    Reserve(sizeof(uint32_t) + s.size());
    const auto len = static_cast<uint32_t>(s.size());
    std::memcpy(buf_ + pos_, &len, sizeof(len));
    Copy(pos_ + sizeof(len), s);
    pos_ += sizeof(len) + s.size();
  }
  void Raw(std::string_view bytes) {
    Reserve(bytes.size());
    Copy(pos_, bytes);
    pos_ += bytes.size();
  }
  // Overwrites four already-written bytes at `offset` (a length or count
  // that is only known once what follows it has been written).
  void PatchU32(size_t offset, uint32_t v) { std::memcpy(buf_ + offset, &v, sizeof(v)); }
  // Overwrites already-written bytes at `offset`.
  void Patch(size_t offset, std::string_view bytes) { Copy(offset, bytes); }
  // Drops everything written past `size` (which must not exceed size()).
  void Truncate(size_t size) { pos_ = size; }

  // Bytes in the string so far, as size() will read once the writer is gone.
  size_t size() const { return pos_; }
  // The bytes written from `offset` up to the cursor. Valid until the next
  // write.
  std::string_view View(size_t offset) const { return {buf_ + offset, pos_ - offset}; }

 private:
  void Reserve(size_t n) {
    if (n > cap_ - pos_) [[unlikely]] {
      Grow(n);
    }
  }
  // Doubles the buffer (at least to fit `n` more bytes). Out of line.
  void Grow(size_t n);
  void Copy(size_t offset, std::string_view bytes) {
    if (!bytes.empty()) {
      std::memcpy(buf_ + offset, bytes.data(), bytes.size());
    }
  }
  template <typename T>
  void Word(T v) {
    Reserve(sizeof(T));
    std::memcpy(buf_ + pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }

  std::string* out_;
  char* buf_;
  size_t pos_;
  size_t cap_;
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
