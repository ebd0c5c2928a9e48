#include "src/persist/wire.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

namespace osguard {

namespace {

// kCrcTables[0] is the classic byte-at-a-time table; kCrcTables[k][i] is the
// CRC of byte i followed by k zero bytes, so one step can fold eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

Status TruncatedError(size_t offset, size_t need, size_t have) {
  return OutOfRangeError("truncated: need " + std::to_string(need) + " bytes at offset " +
                         std::to_string(offset) + ", have " + std::to_string(have));
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  uint32_t crc = 0xffffffffu;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<uint8_t>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void ByteWriter::Grow(size_t n) {
  out_->resize(std::max(2 * cap_, pos_ + n));
  out_->resize(out_->capacity());
  buf_ = out_->data();
  cap_ = out_->size();
}

Result<uint8_t> ByteReader::U8() {
  if (remaining() < 1) {
    return TruncatedError(offset_, 1, remaining());
  }
  return static_cast<uint8_t>(data_[offset_++]);
}

Result<uint32_t> ByteReader::U32() {
  if (remaining() < 4) {
    return TruncatedError(offset_, 4, remaining());
  }
  uint32_t v;
  std::memcpy(&v, data_.data() + offset_, sizeof(v));
  offset_ += 4;
  return v;
}

Result<uint64_t> ByteReader::U64() {
  if (remaining() < 8) {
    return TruncatedError(offset_, 8, remaining());
  }
  uint64_t v;
  std::memcpy(&v, data_.data() + offset_, sizeof(v));
  offset_ += 8;
  return v;
}

Result<int64_t> ByteReader::I64() {
  OSGUARD_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::F64() {
  OSGUARD_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string_view> ByteReader::Str() {
  OSGUARD_ASSIGN_OR_RETURN(uint32_t len, U32());
  return Bytes(len);
}

Result<std::string_view> ByteReader::Bytes(size_t n) {
  if (remaining() < n) {
    return TruncatedError(offset_, n, remaining());
  }
  std::string_view view = data_.substr(offset_, n);
  offset_ += n;
  return view;
}

void WriteValue(ByteWriter& w, const Value& value) {
  w.U8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNil:
      break;
    case ValueType::kInt:
      w.I64(*value.IfInt());
      break;
    case ValueType::kFloat:
      w.F64(*value.IfFloat());
      break;
    case ValueType::kBool:
      w.U8(*value.IfBool() ? 1 : 0);
      break;
    case ValueType::kString:
      w.Str(*value.IfString());
      break;
    case ValueType::kList: {
      const std::vector<Value>& items = *value.IfList();
      w.U32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) {
        WriteValue(w, item);
      }
      break;
    }
  }
}

Result<Value> ReadValue(ByteReader& r, int depth) {
  if (depth > 32) {
    return OutOfRangeError("value nesting exceeds depth 32 at offset " +
                           std::to_string(r.offset()));
  }
  OSGUARD_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNil:
      return Value();
    case ValueType::kInt: {
      OSGUARD_ASSIGN_OR_RETURN(int64_t v, r.I64());
      return Value(v);
    }
    case ValueType::kFloat: {
      OSGUARD_ASSIGN_OR_RETURN(double v, r.F64());
      return Value(v);
    }
    case ValueType::kBool: {
      OSGUARD_ASSIGN_OR_RETURN(uint8_t v, r.U8());
      return Value(v != 0);
    }
    case ValueType::kString: {
      OSGUARD_ASSIGN_OR_RETURN(std::string_view s, r.Str());
      return Value(std::string(s));
    }
    case ValueType::kList: {
      OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      // Every element is at least one tag byte, so a count beyond the
      // remaining input is corrupt — reject before allocating.
      if (count > r.remaining()) {
        return OutOfRangeError("list count " + std::to_string(count) +
                               " exceeds remaining input at offset " +
                               std::to_string(r.offset()));
      }
      std::vector<Value> items;
      items.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        OSGUARD_ASSIGN_OR_RETURN(Value item, ReadValue(r, depth + 1));
        items.push_back(std::move(item));
      }
      return Value(std::move(items));
    }
  }
  return InvalidArgumentError("unknown value tag " + std::to_string(tag) + " at offset " +
                              std::to_string(r.offset() - 1));
}

}  // namespace osguard
