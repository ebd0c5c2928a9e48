// Abstract syntax tree for guardrail specifications.
//
// The shape mirrors Listing 1 of the paper:
//
//   <Guardrail> ::= <Property> (<Action>)+
//   <Property>  ::= (<Trigger>)+ (<Rule>)+
//   <Trigger>   ::= TIMER | FUNCTION
//   <Rule>      ::= <Expression>
//   <Action>    ::= REPORT | REPLACE | RETRAIN | DEPRIORITIZE
//
// plus the extensions the paper's prose asks for: SAVE as an action (used by
// Listing 2's `SAVE(ml_enabled, false)`), an optional `on_satisfy` block so
// guardrails can re-enable a policy when the property holds again, and a
// `meta` block for severity / cooldown attributes.

#ifndef SRC_DSL_AST_H_
#define SRC_DSL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/store/value.h"
#include "src/support/time.h"

namespace osguard {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,   // 42, 0.05, 1s, true, "text"
  kIdent,     // bare identifier: implicit LOAD of a feature-store key
  kUnary,     // -x, !x
  kBinary,    // arithmetic / comparison / logical
  kCall,      // LOAD(x), MEAN(lat, 10s), REPORT(...), ...
  kList,      // {a, b, c} — only valid as a call argument
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

std::string_view UnaryOpName(UnaryOp op);
std::string_view BinaryOpName(BinaryOp op);

struct Expr {
  ExprKind kind;
  int line = 0;
  int column = 0;

  // kLiteral
  Value literal;

  // kIdent / kCall
  std::string name;

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kUnary: children[0]; kBinary: children[0], children[1];
  // kCall / kList: all arguments/elements.
  std::vector<ExprPtr> children;

  // Reconstructs surface syntax (for diagnostics and golden tests).
  std::string ToString() const;
};

ExprPtr MakeLiteral(Value value, int line = 0, int column = 0);
ExprPtr MakeIdent(std::string name, int line = 0, int column = 0);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand, int line = 0, int column = 0);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, int line = 0, int column = 0);
ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args, int line = 0, int column = 0);
ExprPtr MakeList(std::vector<ExprPtr> elements, int line = 0, int column = 0);

enum class TriggerKind {
  kTimer,     // TIMER(start, interval [, stop])
  kFunction,  // FUNCTION(function_name)
  kOnChange,  // ONCHANGE(store_key) — dependency-driven checking (paper §6)
};

struct TriggerDecl {
  TriggerKind kind = TriggerKind::kTimer;
  int line = 0;

  // kTimer: constant-folded by semantic analysis.
  SimTime start = 0;
  Duration interval = 0;
  SimTime stop = 0;  // 0 means "never stop"

  // kFunction.
  std::string function_name;

  // kOnChange: evaluate whenever this feature-store key is written.
  std::string watch_key;

  // Raw argument expressions as parsed (sema folds kTimer args into the
  // fields above).
  std::vector<ExprPtr> args;
};

// A `key = literal` attribute of an attribute block (meta, health, chaos,
// persist, retention; see src/dsl/schema.h).
struct MetaAttr {
  std::string key;
  Value value;
  int line = 0;
};

struct GuardrailDecl {
  std::string name;
  int line = 0;
  std::vector<TriggerDecl> triggers;
  std::vector<ExprPtr> rules;           // conjunction: all must hold
  std::vector<ExprPtr> actions;         // run top-to-bottom on violation
  std::vector<ExprPtr> satisfy_actions; // run on violated -> satisfied edge
  std::vector<MetaAttr> meta;
  // `health: { ... }` supervisor attributes (budgets, breaker, probation).
  // Empty means unsupervised; has_health distinguishes an empty block.
  std::vector<MetaAttr> health;
  bool has_health = false;
};

// A top-level attribute block or one of its labelled children:
//   chaos { seed = 7, site ssd.latency_spike { mode = bernoulli, p = 0.01 } }
//   persist { interval = 10s, journal_budget = 1048576 }
//   retention { scan_chunk = 64, namespace "agent.s" { idle_ttl = 30s } }
// Attributes reuse the meta `key = literal` shape (plus {..} lists);
// src/dsl/schema.h lists each block's attributes and child form, and
// semantic analysis validates them. An absent block leaves its subsystem
// off.
struct BlockDecl {
  std::string label;  // a child's site name or namespace prefix
  int line = 0;
  std::vector<MetaAttr> attrs;
  std::vector<BlockDecl> children;
};

// A parsed spec file: guardrail declarations plus optional chaos / persist /
// retention blocks.
struct SpecFile {
  std::vector<GuardrailDecl> guardrails;
  std::optional<BlockDecl> chaos;
  std::optional<BlockDecl> persist;
  std::optional<BlockDecl> retention;
};

}  // namespace osguard

#endif  // SRC_DSL_AST_H_
