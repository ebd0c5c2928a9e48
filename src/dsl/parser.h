// Recursive-descent parser for the guardrail DSL.
//
// Grammar (extends Listing 1 / Listing 2 of the paper):
//
//   spec       := (guardrail | chaos | persist | retention)+
//   guardrail  := "guardrail" IDENT ("-" word)* "{" (section [","])* "}"
//   section    := "trigger"    ":" "{" trigger ("," trigger)* [","] "}"
//              |  "rule"       ":" "{" expr ("," expr)* [","] "}"
//              |  "action"     ":" "{" stmt* "}"
//              |  "on_satisfy" ":" "{" stmt* "}"
//              |  "meta"       ":" body            -- scalar values only
//              |  "health"     ":" body            -- supervisor
//   chaos      := "chaos" body                     -- fault injection
//   persist    := "persist" body                   -- crash consistency
//   retention  := "retention" body                 -- bounded store
//   body       := "{" ((attr | child) [","|";"])* "}"
//   child      := "site" IDENT body                -- in chaos only
//              |  "namespace" STRING body          -- in retention only
//   attr       := IDENT "=" (literal | "{" [literal ("," literal)* [","]] "}")
//   literal    := INT | FLOAT | DURATION | STRING | "true" | "false" | IDENT
//   trigger    := "TIMER" "(" expr "," expr ["," expr] ")"
//              |  "FUNCTION" "(" IDENT ")"
//              |  "ONCHANGE" "(" IDENT ")"
//   stmt       := call [";" | ","]
//   expr       := or-chain of and-chains of comparisons of additive terms
//   primary    := literal | IDENT | call | "(" expr ")" | "{" exprlist "}"
//   call       := IDENT "(" [expr ("," expr)*] ")"
//
// A spec holds each top-level block and each guardrail section at most
// once. src/dsl/schema.h lists every block's attributes.
//
// Notes:
//  * Bare identifiers in rule expressions are implicit LOADs of feature-store
//    keys, so `latency <= 20ms` works as the paper writes it.
//  * Duration literals (1s, 250ms, 1e9) are int nanoseconds.
//  * Comparisons are non-associative (a < b < c is a parse error).
//  * health, chaos, persist, retention, site and namespace are contextual
//    keywords, so feature-store keys may still use those names.

#ifndef SRC_DSL_PARSER_H_
#define SRC_DSL_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/dsl/ast.h"
#include "src/dsl/schema.h"
#include "src/dsl/token.h"
#include "src/support/status.h"

namespace osguard {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens);

  // Parses a complete spec file (one or more guardrail declarations).
  Result<SpecFile> ParseSpec();

  // Parses a single standalone expression (used by tests and the property
  // library's programmatic rule construction).
  Result<ExprPtr> ParseExpressionOnly();

 private:
  const Token& Peek(int ahead = 0) const;
  const Token& Advance();
  bool Check(TokenKind kind) const { return Peek().kind == kind; }
  bool Match(TokenKind kind);
  Result<Token> Expect(TokenKind kind, std::string_view context);
  Status ErrorAt(const Token& token, const std::string& message) const;

  Result<GuardrailDecl> ParseGuardrail();
  Status ParseTriggerSection(GuardrailDecl& decl);
  Status ParseRuleSection(GuardrailDecl& decl);
  Status ParseActionSection(std::vector<ExprPtr>& out);
  Status ParseSection(const BlockSchema& block, bool& seen, std::vector<MetaAttr>& attrs);
  Result<TriggerDecl> ParseTrigger();
  Status ParseBlockBody(const BlockSchema& block, BlockDecl& out);
  Result<MetaAttr> ParseAttr(const BlockSchema& block);

  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseCall(Token name_token);

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// Convenience: lex + parse a spec source string.
Result<SpecFile> ParseSpecSource(const std::string& source);

// Convenience: lex + parse a single expression.
Result<ExprPtr> ParseExprSource(const std::string& source);

}  // namespace osguard

#endif  // SRC_DSL_PARSER_H_
