#include "src/dsl/parser.h"

#include "src/dsl/builtins.h"
#include "src/dsl/lexer.h"

namespace osguard {

Parser::Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {
  if (tokens_.empty() || tokens_.back().kind != TokenKind::kEof) {
    Token eof;
    eof.kind = TokenKind::kEof;
    tokens_.push_back(eof);
  }
}

const Token& Parser::Peek(int ahead) const {
  const size_t i = pos_ + static_cast<size_t>(ahead);
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::Advance() {
  const Token& token = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) {
    ++pos_;
  }
  return token;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::ErrorAt(const Token& token, const std::string& message) const {
  return ParseError(message + " (found " + token.Describe() + " at line " +
                    std::to_string(token.line) + ", column " + std::to_string(token.column) + ")");
}

Result<Token> Parser::Expect(TokenKind kind, std::string_view context) {
  if (!Check(kind)) {
    return ErrorAt(Peek(), "expected " + std::string(TokenKindName(kind)) + " " +
                               std::string(context));
  }
  return Advance();
}

Result<SpecFile> Parser::ParseSpec() {
  SpecFile spec;
  while (!Check(TokenKind::kEof)) {
    // Top-level block keywords are contextual: only `chaos {` opens a chaos
    // block, so feature-store keys named "chaos" keep working.
    const BlockSchema* block = nullptr;
    for (const BlockSchema* top : kTopLevelBlocks) {
      if (Check(TokenKind::kIdent) && Peek().text == top->keyword &&
          Peek(1).kind == TokenKind::kLBrace) {
        block = top;
      }
    }
    if (block == nullptr) {
      OSGUARD_ASSIGN_OR_RETURN(GuardrailDecl decl, ParseGuardrail());
      spec.guardrails.push_back(std::move(decl));
      continue;
    }
    std::optional<BlockDecl>& slot = spec.*block->slot;
    if (slot.has_value()) {
      return ErrorAt(Peek(), "duplicate " + std::string(block->keyword) + " block");
    }
    slot.emplace().line = Advance().line;
    OSGUARD_RETURN_IF_ERROR(ParseBlockBody(*block, *slot));
  }
  if (spec.guardrails.empty() && !spec.chaos.has_value() && !spec.persist.has_value() &&
      !spec.retention.has_value()) {
    return ParseError(
        "spec file contains no guardrail declarations (and no chaos, persist, "
        "or retention block) at line 1");
  }
  return spec;
}

Result<ExprPtr> Parser::ParseExpressionOnly() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
  if (!Check(TokenKind::kEof)) {
    return ErrorAt(Peek(), "unexpected trailing input after expression");
  }
  return expr;
}

Result<GuardrailDecl> Parser::ParseGuardrail() {
  OSGUARD_ASSIGN_OR_RETURN(Token kw, Expect(TokenKind::kGuardrail, "to start a declaration"));
  GuardrailDecl decl;
  decl.line = kw.line;
  // Guardrail names may be identifiers with dashes (the paper writes
  // `guardrail low-false-submit`): accept IDENT ("-" IDENT)*.
  OSGUARD_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdent, "as the guardrail name"));
  decl.name = name.text;
  // Keywords may appear as name segments ("low-false-submit" contains the
  // token `false`), so accept any word-like token after a dash.
  auto is_name_segment = [](TokenKind kind) {
    return kind == TokenKind::kIdent || kind == TokenKind::kTrue ||
           kind == TokenKind::kFalse || kind == TokenKind::kRule ||
           kind == TokenKind::kTrigger || kind == TokenKind::kAction ||
           kind == TokenKind::kMeta || kind == TokenKind::kGuardrail;
  };
  while (Check(TokenKind::kMinus) && is_name_segment(Peek(1).kind)) {
    Advance();
    decl.name += "-";
    decl.name += Advance().text;
  }
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kLBrace, "to open the guardrail body").status());

  bool saw_trigger = false;
  bool saw_rule = false;
  bool saw_action = false;
  bool saw_meta = false;
  while (!Check(TokenKind::kRBrace)) {
    const Token& section = Peek();
    switch (section.kind) {
      case TokenKind::kTrigger:
        if (saw_trigger) {
          return ErrorAt(section, "duplicate trigger section");
        }
        saw_trigger = true;
        Advance();
        OSGUARD_RETURN_IF_ERROR(ParseTriggerSection(decl));
        break;
      case TokenKind::kRule:
        if (saw_rule) {
          return ErrorAt(section, "duplicate rule section");
        }
        saw_rule = true;
        Advance();
        OSGUARD_RETURN_IF_ERROR(ParseRuleSection(decl));
        break;
      case TokenKind::kAction:
        if (saw_action) {
          return ErrorAt(section, "duplicate action section");
        }
        saw_action = true;
        Advance();
        OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after 'action'").status());
        OSGUARD_RETURN_IF_ERROR(ParseActionSection(decl.actions));
        break;
      case TokenKind::kOnSatisfy:
        if (!decl.satisfy_actions.empty()) {
          return ErrorAt(section, "duplicate on_satisfy section");
        }
        Advance();
        OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after 'on_satisfy'").status());
        OSGUARD_RETURN_IF_ERROR(ParseActionSection(decl.satisfy_actions));
        break;
      case TokenKind::kMeta:
        OSGUARD_RETURN_IF_ERROR(ParseSection(kMetaSchema, saw_meta, decl.meta));
        break;
      default:
        // `health` is contextual (an ident, not a keyword) so specs remain
        // free to use it as a store key or guardrail-name segment.
        if (section.kind == TokenKind::kIdent && section.text == kHealthSchema.keyword) {
          OSGUARD_RETURN_IF_ERROR(ParseSection(kHealthSchema, decl.has_health, decl.health));
          break;
        }
        return ErrorAt(section,
                       "expected a section (trigger / rule / action / on_satisfy / meta / health)");
    }
    Match(TokenKind::kComma);  // optional separator between sections
  }
  Advance();  // consume '}'

  if (!saw_trigger) {
    return ParseError("guardrail '" + decl.name + "' (line " +
                      std::to_string(decl.line) + ") has no trigger section");
  }
  if (!saw_rule) {
    return ParseError("guardrail '" + decl.name + "' (line " +
                      std::to_string(decl.line) + ") has no rule section");
  }
  if (!saw_action) {
    return ParseError("guardrail '" + decl.name + "' (line " +
                      std::to_string(decl.line) + ") has no action section");
  }
  return decl;
}

Status Parser::ParseTriggerSection(GuardrailDecl& decl) {
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after 'trigger'").status());
  OSGUARD_ASSIGN_OR_RETURN(Token open,
                           Expect(TokenKind::kLBrace, "to open the trigger block"));
  while (!Check(TokenKind::kRBrace)) {
    auto trigger = ParseTrigger();
    OSGUARD_RETURN_IF_ERROR(trigger.status());
    decl.triggers.push_back(std::move(trigger).value());
    if (!Match(TokenKind::kComma)) {
      break;
    }
  }
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "to close the trigger block").status());
  if (decl.triggers.empty()) {
    return ParseError("trigger block of guardrail '" + decl.name + "' is empty (line " +
                      std::to_string(open.line) + ")");
  }
  return OkStatus();
}

Result<TriggerDecl> Parser::ParseTrigger() {
  OSGUARD_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdent, "as the trigger kind"));
  TriggerDecl trigger;
  trigger.line = name.line;
  if (name.text == "TIMER") {
    trigger.kind = TriggerKind::kTimer;
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after TIMER").status());
    while (!Check(TokenKind::kRParen)) {
      OSGUARD_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      trigger.args.push_back(std::move(arg));
      if (!Match(TokenKind::kComma)) {
        break;
      }
    }
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close TIMER arguments").status());
    if (trigger.args.size() < 2 || trigger.args.size() > 3) {
      return ErrorAt(name, "TIMER takes (start_time, interval [, stop_time])");
    }
    return trigger;
  }
  if (name.text == "FUNCTION") {
    trigger.kind = TriggerKind::kFunction;
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after FUNCTION").status());
    OSGUARD_ASSIGN_OR_RETURN(Token fn, Expect(TokenKind::kIdent, "as the hooked function name"));
    trigger.function_name = fn.text;
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close FUNCTION").status());
    return trigger;
  }
  if (name.text == "ONCHANGE") {
    trigger.kind = TriggerKind::kOnChange;
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after ONCHANGE").status());
    OSGUARD_ASSIGN_OR_RETURN(Token key, Expect(TokenKind::kIdent, "as the watched key"));
    trigger.watch_key = key.text;
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close ONCHANGE").status());
    return trigger;
  }
  return ErrorAt(name, "unknown trigger kind '" + name.text +
                           "' (expected TIMER, FUNCTION, or ONCHANGE)");
}

Status Parser::ParseRuleSection(GuardrailDecl& decl) {
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kColon, "after 'rule'").status());
  OSGUARD_ASSIGN_OR_RETURN(Token open,
                           Expect(TokenKind::kLBrace, "to open the rule block"));
  while (!Check(TokenKind::kRBrace)) {
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr rule, ParseExpr());
    decl.rules.push_back(std::move(rule));
    if (!Match(TokenKind::kComma)) {
      break;
    }
  }
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "to close the rule block").status());
  if (decl.rules.empty()) {
    return ParseError("rule block of guardrail '" + decl.name + "' is empty (line " +
                      std::to_string(open.line) + ")");
  }
  return OkStatus();
}

Status Parser::ParseActionSection(std::vector<ExprPtr>& out) {
  OSGUARD_ASSIGN_OR_RETURN(Token open,
                           Expect(TokenKind::kLBrace, "to open the action block"));
  while (!Check(TokenKind::kRBrace)) {
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr stmt, ParseExpr());
    if (stmt->kind != ExprKind::kCall) {
      return ParseError("action statements must be calls, got: " + stmt->ToString() +
                        " (line " + std::to_string(stmt->line) + ")");
    }
    out.push_back(std::move(stmt));
    // Statements may be separated by ';' or ','; both optional before '}'.
    if (!Match(TokenKind::kSemicolon)) {
      Match(TokenKind::kComma);
    }
  }
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "to close the action block").status());
  if (out.empty()) {
    return ParseError("action block is empty (line " + std::to_string(open.line) + ")");
  }
  return OkStatus();
}

// section := keyword ":" body, at most once per guardrail.
Status Parser::ParseSection(const BlockSchema& block, bool& seen, std::vector<MetaAttr>& attrs) {
  if (seen) {
    return ErrorAt(Peek(), "duplicate " + std::string(block.keyword) + " section");
  }
  seen = true;
  Advance();
  if (!Match(TokenKind::kColon)) {
    return Expect(TokenKind::kColon, "after '" + std::string(block.keyword) + "'").status();
  }
  BlockDecl body;
  OSGUARD_RETURN_IF_ERROR(ParseBlockBody(block, body));
  attrs = std::move(body.attrs);
  return OkStatus();
}

// body  := "{" ((attr | child) [","|";"])* "}"
// child := keyword label body, for the block's child row: site IDENT in
// chaos, namespace STRING in retention (prefixes contain dots, which the
// identifier grammar would split).
Status Parser::ParseBlockBody(const BlockSchema& block, BlockDecl& out) {
  // Diagnostic contexts are built only on failure: spec load stays
  // allocation-light.
  if (!Match(TokenKind::kLBrace)) {
    return Expect(TokenKind::kLBrace, std::string("to open the ") + block.keyword +
                                          (block.label == TokenKind::kEof ? " block" : " body"))
        .status();
  }
  const BlockSchema* child = block.child;
  while (!Check(TokenKind::kRBrace)) {
    if (child != nullptr && Check(TokenKind::kIdent) && Peek().text == child->keyword) {
      BlockDecl& node = out.children.emplace_back();
      node.line = Advance().line;
      if (!Check(child->label)) {
        return Expect(child->label, std::string("as the ") + child->name + " " + child->label_what)
            .status();
      }
      node.label = Advance().text;
      OSGUARD_RETURN_IF_ERROR(ParseBlockBody(*child, node));
    } else {
      OSGUARD_ASSIGN_OR_RETURN(MetaAttr attr, ParseAttr(block));
      out.attrs.push_back(std::move(attr));
    }
    if (!Match(TokenKind::kComma)) {
      Match(TokenKind::kSemicolon);
    }
  }
  Advance();  // consume '}'
  return OkStatus();
}

// attr := IDENT "=" (literal | "{" [literal ("," literal)* [","]] "}")
// Bare-word values become strings (mode = bernoulli); the schema's
// semantic checks give them meaning.
Result<MetaAttr> Parser::ParseAttr(const BlockSchema& block) {
  if (!Check(TokenKind::kIdent)) {
    return Expect(TokenKind::kIdent, std::string("as a ") + block.name + " attribute name")
        .status();
  }
  MetaAttr attr;
  attr.line = Peek().line;
  attr.key = Advance().text;
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kAssign, "after the attribute name").status());

  auto literal_value = [&](const Token& token) -> Result<Value> {
    switch (token.kind) {
      case TokenKind::kIntLiteral:
      case TokenKind::kDurationLiteral:
        return Value(token.int_value);
      case TokenKind::kFloatLiteral:
        return Value(token.float_value);
      case TokenKind::kTrue:
        return Value(true);
      case TokenKind::kFalse:
        return Value(false);
      case TokenKind::kStringLiteral:
      case TokenKind::kIdent:
        return Value(token.text);
      default:
        return ErrorAt(token, block.lists ? std::string("attribute values must be literals")
                                          : std::string(block.name) +
                                                " attribute values must be literals");
    }
  };

  if (block.lists && Check(TokenKind::kLBrace)) {
    // {10, 20, 30} — list-valued attribute (the schedule mode's `nth`).
    Advance();
    std::vector<Value> elements;
    while (!Check(TokenKind::kRBrace)) {
      OSGUARD_ASSIGN_OR_RETURN(Value element, literal_value(Peek()));
      Advance();
      elements.push_back(std::move(element));
      if (!Match(TokenKind::kComma)) {
        break;
      }
    }
    OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "to close the attribute list").status());
    attr.value = Value(std::move(elements));
  } else {
    OSGUARD_ASSIGN_OR_RETURN(attr.value, literal_value(Peek()));
    Advance();
  }
  return attr;
}

Result<ExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<ExprPtr> Parser::ParseOr() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (Check(TokenKind::kOrOr)) {
    const Token& op = Advance();
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs), op.line, op.column);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparison());
  while (Check(TokenKind::kAndAnd)) {
    const Token& op = Advance();
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparison());
    lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs), op.line, op.column);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseComparison() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
  BinaryOp op;
  switch (Peek().kind) {
    case TokenKind::kLt:
      op = BinaryOp::kLt;
      break;
    case TokenKind::kLe:
      op = BinaryOp::kLe;
      break;
    case TokenKind::kGt:
      op = BinaryOp::kGt;
      break;
    case TokenKind::kGe:
      op = BinaryOp::kGe;
      break;
    case TokenKind::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenKind::kNe:
      op = BinaryOp::kNe;
      break;
    default:
      return lhs;
  }
  const Token& op_token = Advance();
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
  ExprPtr cmp =
      MakeBinary(op, std::move(lhs), std::move(rhs), op_token.line, op_token.column);
  // Reject chained comparisons explicitly — `a < b < c` is almost always a
  // bug in a rule.
  switch (Peek().kind) {
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:
    case TokenKind::kEq:
    case TokenKind::kNe:
      return ErrorAt(Peek(), "comparisons cannot be chained; use '&&'");
    default:
      return cmp;
  }
}

Result<ExprPtr> Parser::ParseAdditive() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (Check(TokenKind::kPlus) || Check(TokenKind::kMinus)) {
    const Token& op = Advance();
    const BinaryOp bop = op.kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = MakeBinary(bop, std::move(lhs), std::move(rhs), op.line, op.column);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  OSGUARD_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (Check(TokenKind::kStar) || Check(TokenKind::kSlash) || Check(TokenKind::kPercent)) {
    const Token& op = Advance();
    BinaryOp bop;
    if (op.kind == TokenKind::kStar) {
      bop = BinaryOp::kMul;
    } else if (op.kind == TokenKind::kSlash) {
      bop = BinaryOp::kDiv;
    } else {
      bop = BinaryOp::kMod;
    }
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = MakeBinary(bop, std::move(lhs), std::move(rhs), op.line, op.column);
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Check(TokenKind::kMinus)) {
    const Token& op = Advance();
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return MakeUnary(UnaryOp::kNeg, std::move(operand), op.line, op.column);
  }
  if (Check(TokenKind::kBang)) {
    const Token& op = Advance();
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return MakeUnary(UnaryOp::kNot, std::move(operand), op.line, op.column);
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& token = Peek();
  switch (token.kind) {
    case TokenKind::kIntLiteral: {
      Advance();
      return MakeLiteral(Value(token.int_value), token.line, token.column);
    }
    case TokenKind::kDurationLiteral: {
      Advance();
      return MakeLiteral(Value(token.int_value), token.line, token.column);
    }
    case TokenKind::kFloatLiteral: {
      Advance();
      return MakeLiteral(Value(token.float_value), token.line, token.column);
    }
    case TokenKind::kStringLiteral: {
      Advance();
      return MakeLiteral(Value(token.text), token.line, token.column);
    }
    case TokenKind::kTrue: {
      Advance();
      return MakeLiteral(Value(true), token.line, token.column);
    }
    case TokenKind::kFalse: {
      Advance();
      return MakeLiteral(Value(false), token.line, token.column);
    }
    case TokenKind::kIdent: {
      Token name = Advance();
      if (Check(TokenKind::kLParen)) {
        return ParseCall(std::move(name));
      }
      return MakeIdent(name.text, name.line, name.column);
    }
    case TokenKind::kLParen: {
      Advance();
      OSGUARD_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close the parenthesis").status());
      return inner;
    }
    case TokenKind::kLBrace: {
      // Brace list, e.g. DEPRIORITIZE({taskA, taskB}, {1, 2}).
      Advance();
      std::vector<ExprPtr> elements;
      while (!Check(TokenKind::kRBrace)) {
        OSGUARD_ASSIGN_OR_RETURN(ExprPtr element, ParseExpr());
        elements.push_back(std::move(element));
        if (!Match(TokenKind::kComma)) {
          break;
        }
      }
      OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRBrace, "to close the list").status());
      return MakeList(std::move(elements), token.line, token.column);
    }
    default:
      return ErrorAt(token, "expected an expression");
  }
}

Result<ExprPtr> Parser::ParseCall(Token name_token) {
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after the function name").status());
  std::vector<ExprPtr> args;
  while (!Check(TokenKind::kRParen)) {
    OSGUARD_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    args.push_back(std::move(arg));
    if (!Match(TokenKind::kComma)) {
      break;
    }
  }
  OSGUARD_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close the call").status());

  // Quantile sugar: P99(key, window) -> QUANTILE(key, 0.99, window).
  const double q = QuantileSugar(name_token.text);
  if (q >= 0.0) {
    if (args.size() != 2) {
      return ErrorAt(name_token, name_token.text + " takes (key, window)");
    }
    std::vector<ExprPtr> rewritten;
    rewritten.push_back(std::move(args[0]));
    rewritten.push_back(MakeLiteral(Value(q), name_token.line, name_token.column));
    rewritten.push_back(std::move(args[1]));
    return MakeCall("QUANTILE", std::move(rewritten), name_token.line, name_token.column);
  }
  return MakeCall(name_token.text, std::move(args), name_token.line, name_token.column);
}

Result<SpecFile> ParseSpecSource(const std::string& source) {
  Lexer lexer(source);
  OSGUARD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseSpec();
}

Result<ExprPtr> ParseExprSource(const std::string& source) {
  Lexer lexer(source);
  OSGUARD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseExpressionOnly();
}

}  // namespace osguard
