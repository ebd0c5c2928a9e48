// Declarative schema for the DSL's attribute blocks.
//
// Five blocks share one shape: `key = literal` attributes, plus labelled
// child blocks in chaos and retention.
//
//   guardrail sections   meta: { ... }    health: { ... }
//   top-level blocks     chaos { ... site IDENT { ... } }
//                        persist { ... }
//                        retention { ... namespace STRING { ... } }
//
// A BlockSchema row names a block and its child form; an AttrSchema row
// gives one attribute's key, type, range, diagnostic and the field it sets
// in the block's analyzed struct (src/dsl/sema.h). The parser reads the
// block rows; semantic analysis validates and assigns attributes from the
// attribute rows. The tables are static and searched linearly, so loading
// a spec builds no lookup structures. docs/DSL.md mirrors them.

#ifndef SRC_DSL_SCHEMA_H_
#define SRC_DSL_SCHEMA_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/dsl/ast.h"
#include "src/dsl/token.h"
#include "src/store/value.h"

namespace osguard {

enum class AttrType {
  kInt,       // integer (a float literal is truncated)
  kDuration,  // integer nanoseconds: 250ms, 1s
  kBytes,     // integer byte count
  kNumber,    // integer or float
  kBool,      // true / false (a number counts as nonzero)
  kString,    // string literal or bare word
  kEnum,      // one of a fixed list of names, as a bare word or string
  kIntList,   // {a, b, ...} or a single integer; sorted and deduplicated
};

constexpr double kNoBound = std::numeric_limits<double>::infinity();
// Upper bound of attributes stored in an `int` field.
constexpr double kIntMax = std::numeric_limits<int32_t>::max();

struct AttrSchema {
  const char* key;
  AttrType type;
  // Stores a checked value into its field of the block's output struct:
  // `i` holds an integer, bool or enum value, `d` a number.
  void (*set)(void* out, const Value& value, int64_t i, double d);
  // Diagnostic for a value below `min`, a kNumber value outside the range
  // or not a number, or a kEnum value outside `names`. Integers above `max`
  // get "<key> must be <= <max>".
  const char* message = nullptr;
  // Inclusive range of an integer or number (of each kIntList element).
  double min = -kNoBound;
  double max = kNoBound;
  std::span<const char* const> names = {};  // kEnum: the names of values 0, 1, ...
};

struct BlockSchema {
  const char* name;     // in diagnostics: "chaos site"
  const char* keyword;  // opening keyword: "meta", "chaos", "site"
  std::span<const AttrSchema> attrs;  // at most 64 (sema tracks them in a bitmask)
  // The labelled child block this block may contain (chaos sites,
  // retention namespaces), or null.
  const BlockSchema* child = nullptr;
  // A child's label token after its keyword (IDENT or STRING) and what
  // diagnostics call it ("name", "prefix"); kEof for unlabelled blocks.
  TokenKind label = TokenKind::kEof;
  const char* label_what = nullptr;
  // Whether attribute values may be {...} lists. Meta takes scalars only,
  // and its literal diagnostic names the block.
  bool lists = true;
  // Top-level blocks: the SpecFile member that holds the parsed block.
  std::optional<BlockDecl> SpecFile::*slot = nullptr;
};

// Guardrail sections (meta: { }, health: { }).
extern const BlockSchema kMetaSchema;
extern const BlockSchema kHealthSchema;
// Top-level blocks and their children.
extern const BlockSchema kChaosSchema;
extern const BlockSchema kChaosSiteSchema;
extern const BlockSchema kPersistSchema;
extern const BlockSchema kRetentionSchema;
extern const BlockSchema kRetentionNamespaceSchema;
extern const BlockSchema* const kTopLevelBlocks[3];

// The attribute row for `key`, or null.
const AttrSchema* FindAttr(const BlockSchema& block, std::string_view key);

// A list value's elements, or the value itself as a one-element list.
inline std::span<const Value> Elements(const Value& value) {
  const std::vector<Value>* list = value.IfList();
  return list != nullptr ? std::span<const Value>(*list) : std::span<const Value>(&value, 1);
}

}  // namespace osguard

#endif  // SRC_DSL_SCHEMA_H_
