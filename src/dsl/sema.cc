#include "src/dsl/sema.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_set>

#include "src/dsl/schema.h"

namespace osguard {

std::string_view ChaosModeName(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kOff:
      return "off";
    case ChaosMode::kBernoulli:
      return "bernoulli";
    case ChaosMode::kSchedule:
      return "schedule";
    case ChaosMode::kBurst:
      return "burst";
  }
  return "?";
}

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "?";
}

std::string_view TierHintName(TierHint tier) {
  switch (tier) {
    case TierHint::kAuto:
      return "auto";
    case TierHint::kInterpreter:
      return "interpreter";
    case TierHint::kNative:
      return "native";
  }
  return "?";
}

std::string_view CriticalityName(Criticality criticality) {
  switch (criticality) {
    case Criticality::kStandard:
      return "standard";
    case Criticality::kCritical:
      return "critical";
    case Criticality::kBestEffort:
      return "besteffort";
  }
  return "?";
}

namespace {

std::string Where(const Expr& expr) {
  return " at line " + std::to_string(expr.line) + ", column " + std::to_string(expr.column);
}

// Context of the expression being checked: rules must be pure, actions may
// mutate and invoke the corrective-action helpers.
enum class ExprContext { kRule, kAction };

bool IsMutatingHelper(HelperId id) {
  return id == HelperId::kSave || id == HelperId::kIncr || id == HelperId::kObserve;
}

Status CheckExpr(const Expr& expr, ExprContext context);

Status CheckCallArgs(const Expr& call, const Builtin& builtin, ExprContext context) {
  const int argc = static_cast<int>(call.children.size());
  if (argc < builtin.min_args ||
      (builtin.max_args >= 0 && argc > builtin.max_args)) {
    std::string arity = std::to_string(builtin.min_args);
    if (builtin.max_args < 0) {
      arity += "+";
    } else if (builtin.max_args != builtin.min_args) {
      arity += ".." + std::to_string(builtin.max_args);
    }
    return SemanticError(std::string(builtin.name) + " expects " + arity + " argument(s), got " +
                         std::to_string(argc) + Where(call));
  }
  for (int i = 0; i < argc; ++i) {
    const Expr& arg = *call.children[static_cast<size_t>(i)];
    ArgMode mode = ArgMode::kValue;
    if (!builtin.arg_modes.empty()) {
      const size_t mode_index =
          std::min(static_cast<size_t>(i), builtin.arg_modes.size() - 1);
      mode = builtin.arg_modes[mode_index];
    }
    switch (mode) {
      case ArgMode::kKey:
        if (arg.kind != ExprKind::kIdent &&
            !(arg.kind == ExprKind::kLiteral && arg.literal.type() == ValueType::kString)) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) +
                               " must be a key identifier or string literal, got " +
                               arg.ToString() + Where(arg));
        }
        break;
      case ArgMode::kNameList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) + " must be a {name, ...} list" +
                               Where(arg));
        }
        for (const ExprPtr& element : arg.children) {
          if (element->kind != ExprKind::kIdent &&
              !(element->kind == ExprKind::kLiteral &&
                element->literal.type() == ValueType::kString)) {
            return SemanticError("list elements of " + std::string(builtin.name) +
                                 " must be identifiers" + Where(*element));
          }
        }
        break;
      }
      case ArgMode::kValueList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) + " must be a {value, ...} list" +
                               Where(arg));
        }
        for (const ExprPtr& element : arg.children) {
          OSGUARD_RETURN_IF_ERROR(CheckExpr(*element, context));
        }
        break;
      }
      case ArgMode::kValue:
        OSGUARD_RETURN_IF_ERROR(CheckExpr(arg, context));
        break;
    }
  }
  return OkStatus();
}

Status CheckExpr(const Expr& expr, ExprContext context) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      if (expr.literal.type() == ValueType::kList) {
        return SemanticError("list literals are only valid as call arguments" + Where(expr));
      }
      return OkStatus();
    case ExprKind::kIdent:
      // Implicit LOAD of a feature-store key; always legal.
      return OkStatus();
    case ExprKind::kList:
      return SemanticError("a {...} list is only valid as a call argument" + Where(expr));
    case ExprKind::kUnary:
      return CheckExpr(*expr.children[0], context);
    case ExprKind::kBinary: {
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*expr.children[0], context));
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*expr.children[1], context));
      const DslType lhs = InferType(*expr.children[0]);
      const DslType rhs = InferType(*expr.children[1]);
      auto is_numeric_ok = [](DslType t) {
        return t == DslType::kNum || t == DslType::kBool || t == DslType::kAny;
      };
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (!is_numeric_ok(lhs) || !is_numeric_ok(rhs)) {
            return SemanticError(std::string("operator '") +
                                 std::string(BinaryOpName(expr.binary_op)) +
                                 "' needs numeric operands, got " + std::string(DslTypeName(lhs)) +
                                 " and " + std::string(DslTypeName(rhs)) + Where(expr));
          }
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
          // Equality is defined for every value type.
          break;
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lhs == DslType::kStr || rhs == DslType::kStr || lhs == DslType::kList ||
              rhs == DslType::kList) {
            return SemanticError("logical operators need boolean operands" + Where(expr));
          }
          break;
      }
      return OkStatus();
    }
    case ExprKind::kCall: {
      const Builtin* builtin = FindBuiltin(expr.name);
      if (builtin == nullptr) {
        return SemanticError("unknown function '" + expr.name + "'" + Where(expr));
      }
      if (context == ExprContext::kRule &&
          (builtin->is_action || IsMutatingHelper(builtin->id))) {
        return SemanticError("'" + expr.name +
                             "' has side effects and is not allowed in rule expressions" +
                             Where(expr));
      }
      return CheckCallArgs(expr, *builtin, context);
    }
  }
  return InternalError("unhandled expression kind");
}

Status CheckActionStatement(const Expr& stmt) {
  if (stmt.kind != ExprKind::kCall) {
    return SemanticError("action statements must be calls" + Where(stmt));
  }
  const Builtin* builtin = FindBuiltin(stmt.name);
  if (builtin == nullptr) {
    return SemanticError("unknown action '" + stmt.name + "'" + Where(stmt));
  }
  if (!builtin->is_action && !IsMutatingHelper(builtin->id)) {
    return SemanticError("'" + stmt.name +
                         "' is not an action (REPORT / REPLACE / RETRAIN / DEPRIORITIZE / "
                         "SAVE / INCR / OBSERVE)" +
                         Where(stmt));
  }
  return CheckCallArgs(stmt, *builtin, ExprContext::kAction);
}

Status FoldTimerTrigger(TriggerDecl& trigger, const std::string& guardrail_name) {
  auto fold_arg = [&](size_t i, const char* what) -> Result<int64_t> {
    OSGUARD_ASSIGN_OR_RETURN(Value v, EvalConst(*trigger.args[i]));
    if (!v.is_numeric()) {
      return SemanticError(std::string("TIMER ") + what + " of guardrail '" + guardrail_name +
                           "' must be a constant number");
    }
    return static_cast<int64_t>(v.NumericOr(0.0));
  };
  OSGUARD_ASSIGN_OR_RETURN(trigger.start, fold_arg(0, "start_time"));
  OSGUARD_ASSIGN_OR_RETURN(trigger.interval, fold_arg(1, "interval"));
  if (trigger.args.size() == 3) {
    OSGUARD_ASSIGN_OR_RETURN(trigger.stop, fold_arg(2, "stop_time"));
  } else {
    trigger.stop = 0;
  }
  if (trigger.start < 0) {
    return SemanticError("TIMER start_time of guardrail '" + guardrail_name +
                         "' must be >= 0");
  }
  if (trigger.interval <= 0) {
    return SemanticError("TIMER interval of guardrail '" + guardrail_name + "' must be > 0");
  }
  if (trigger.stop != 0 && trigger.stop <= trigger.start) {
    return SemanticError("TIMER stop_time of guardrail '" + guardrail_name +
                         "' must be after start_time");
  }
  return OkStatus();
}

// Line context of a block diagnostic: " (guardrail 'g', line 3)" and
// " (chaos site 's', line 3)" for labelled blocks, " (persist block,
// line 2)" for unlabelled ones.
std::string At(std::string_view owner, const std::string* label, int line) {
  std::string out = " (" + std::string(owner);
  out += label != nullptr ? " '" + *label + "'" : std::string(" block");
  return out + ", line " + std::to_string(line) + ")";
}

// "a", "a or b", "a, b, or c": the keys a block accepts.
std::string KeyList(const BlockSchema& block) {
  const size_t n = block.attrs.size();
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      out += n == 2 ? " or " : (i + 1 == n ? ", or " : ", ");
    }
    out += block.attrs[i].key;
  }
  return out;
}

// Validates each attribute against `block`'s rows and stores it into its
// field of `out`, the block's output struct. Returns the rows seen: bit i
// stands for block.attrs[i].
Result<uint64_t> AssignAttrs(const BlockSchema& block, const std::vector<MetaAttr>& attrs,
                             std::string_view owner, const std::string* label, void* out) {
  uint64_t seen = 0;
  for (const MetaAttr& attr : attrs) {
    auto error = [&](const std::string& message) {
      return SemanticError(message + At(owner, label, attr.line));
    };
    // A value of the wrong type keeps its code and gains the same context.
    auto mismatch = [&](const Status& status) {
      return Status(status.code(), status.message() + At(owner, label, attr.line));
    };
    const AttrSchema* row = FindAttr(block, attr.key);
    if (row == nullptr) {
      return error("unknown " + std::string(block.name) + " attribute '" + attr.key +
                   "' (expected " + KeyList(block) + ")");
    }
    const uint64_t bit = uint64_t{1} << (row - block.attrs.data());
    if ((seen & bit) != 0) {
      return error("duplicate " + std::string(block.name) + " attribute '" + attr.key + "'");
    }
    seen |= bit;
    const Value& value = attr.value;
    int64_t i = 0;
    double d = 0.0;
    switch (row->type) {
      case AttrType::kInt:
      case AttrType::kDuration:
      case AttrType::kBytes:
      case AttrType::kIntList:
        for (const Value& element :
             row->type == AttrType::kIntList ? Elements(value) : std::span(&value, 1)) {
          // AsInt truncates a float; one outside int64 would be undefined.
          if (element.type() == ValueType::kFloat && !(element.NumericOr(0.0) < 0x1p63)) {
            return error(std::string(row->key) + " must fit in 64 bits");
          }
          const Result<int64_t> n = element.AsInt();
          if (!n.ok()) {
            return mismatch(n.status());
          }
          i = n.value();
          if (i < row->min) {
            return error(row->message);
          }
          if (i > row->max) {
            return error(std::string(row->key) + " must be <= " +
                         std::to_string(static_cast<int64_t>(row->max)));
          }
        }
        break;
      case AttrType::kNumber:
        d = value.NumericOr(0.0);
        if (!value.is_numeric() || d < row->min || d > row->max) {
          return error(row->message);
        }
        break;
      case AttrType::kBool: {
        const Result<bool> b = value.AsBool();
        if (!b.ok()) {
          return mismatch(b.status());
        }
        i = b.value();
        break;
      }
      case AttrType::kString:
      case AttrType::kEnum: {
        const std::string* s = value.IfString();
        if (s == nullptr) {
          return mismatch(value.AsString().status());
        }
        if (row->type == AttrType::kEnum) {
          auto name = std::find(row->names.begin(), row->names.end(), *s);
          if (name == row->names.end()) {
            return error(row->message);
          }
          i = name - row->names.begin();
        }
        break;
      }
    }
    row->set(out, value, i, d);
  }
  return seen;
}

// Whether the rows `seen` (as returned by AssignAttrs) include `key`.
bool Declared(const BlockSchema& block, uint64_t seen, std::string_view key) {
  return (seen >> (FindAttr(block, key) - block.attrs.data()) & 1) != 0;
}

// Rejects a child whose label repeats an earlier sibling's.
Status CheckNewLabel(const BlockSchema& child, const std::vector<BlockDecl>& siblings,
                     const BlockDecl& node) {
  for (const BlockDecl* prev = siblings.data(); prev != &node; ++prev) {
    if (prev->label == node.label) {
      return SemanticError("duplicate " + std::string(child.name) + " '" + node.label +
                           "' (line " + std::to_string(node.line) + ")");
    }
  }
  return OkStatus();
}

Result<GuardrailMeta> AnalyzeMeta(const GuardrailDecl& decl) {
  GuardrailMeta meta;
  OSGUARD_RETURN_IF_ERROR(
      AssignAttrs(kMetaSchema, decl.meta, "guardrail", &decl.name, &meta).status());
  meta.health.supervised = decl.has_health;
  OSGUARD_RETURN_IF_ERROR(
      AssignAttrs(kHealthSchema, decl.health, "guardrail", &decl.name, &meta.health).status());
  return meta;
}

// The first of its mode's requirements a chaos site misses, or null.
const char* ChaosModeError(AnalyzedChaosSite& site, bool has_mode) {
  if (!has_mode) {
    return "chaos site must declare a mode";
  }
  switch (site.mode) {
    case ChaosMode::kOff:
      break;
    case ChaosMode::kBernoulli:
      if (site.p <= 0.0) {
        return "bernoulli mode needs p > 0";
      }
      break;
    case ChaosMode::kSchedule:
      if (site.nth.empty()) {
        return "schedule mode needs a non-empty nth list";
      }
      break;
    case ChaosMode::kBurst:
      if (site.period <= 0 || site.burst <= 0) {
        return "burst mode needs period > 0 and burst > 0";
      }
      if (site.burst > site.period) {
        return "burst must not exceed period";
      }
      if (site.p <= 0.0) {
        site.p = 1.0;  // a storm with unspecified p injects every in-window event
      }
      break;
  }
  return nullptr;
}

Result<AnalyzedChaos> AnalyzeChaos(const BlockDecl& decl) {
  AnalyzedChaos out;
  OSGUARD_ASSIGN_OR_RETURN(uint64_t seen,
                           AssignAttrs(kChaosSchema, decl.attrs, kChaosSchema.name, nullptr, &out));
  out.has_seed = Declared(kChaosSchema, seen, "seed");
  for (const BlockDecl& site : decl.children) {
    OSGUARD_RETURN_IF_ERROR(CheckNewLabel(kChaosSiteSchema, decl.children, site));
    AnalyzedChaosSite& out_site = out.sites.emplace_back();
    out_site.name = site.label;
    OSGUARD_ASSIGN_OR_RETURN(
        uint64_t site_seen,
        AssignAttrs(kChaosSiteSchema, site.attrs, kChaosSiteSchema.name, &site.label, &out_site));
    const bool has_mode = Declared(kChaosSiteSchema, site_seen, "mode");
    if (const char* error = ChaosModeError(out_site, has_mode)) {
      return SemanticError(error + At(kChaosSiteSchema.name, &site.label, site.line));
    }
  }
  return out;
}

Result<AnalyzedRetention> AnalyzeRetention(const BlockDecl& decl) {
  AnalyzedRetention out;
  OSGUARD_RETURN_IF_ERROR(
      AssignAttrs(kRetentionSchema, decl.attrs, kRetentionSchema.name, nullptr, &out).status());
  for (const BlockDecl& ns : decl.children) {
    auto error = [&ns](const std::string& message) {
      return SemanticError(message + " (line " + std::to_string(ns.line) + ")");
    };
    if (ns.label.empty()) {
      return error("retention namespace prefix must not be empty");
    }
    OSGUARD_RETURN_IF_ERROR(CheckNewLabel(kRetentionNamespaceSchema, decl.children, ns));
    AnalyzedRetentionNamespace& out_ns = out.namespaces.emplace_back();
    out_ns.prefix = ns.label;
    out_ns.line = ns.line;
    OSGUARD_RETURN_IF_ERROR(AssignAttrs(kRetentionNamespaceSchema, ns.attrs,
                                        kRetentionNamespaceSchema.name, &ns.label, &out_ns)
                                .status());
    if (out_ns.max_keys == 0 && out_ns.idle_ttl <= 0) {
      return error("retention namespace '" + ns.label + "' declares neither max_keys nor idle_ttl");
    }
  }
  return out;
}

}  // namespace

Result<Value> EvalConst(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kUnary: {
      OSGUARD_ASSIGN_OR_RETURN(Value operand, EvalConst(*expr.children[0]));
      if (expr.unary_op == UnaryOp::kNeg) {
        if (operand.type() == ValueType::kInt) {
          return Value(-operand.AsInt().value());
        }
        if (operand.type() == ValueType::kFloat) {
          return Value(-operand.AsFloat().value());
        }
        return SemanticError("cannot negate " + operand.ToString());
      }
      OSGUARD_ASSIGN_OR_RETURN(bool b, operand.AsBool());
      return Value(!b);
    }
    case ExprKind::kBinary: {
      OSGUARD_ASSIGN_OR_RETURN(Value lhs, EvalConst(*expr.children[0]));
      OSGUARD_ASSIGN_OR_RETURN(Value rhs, EvalConst(*expr.children[1]));
      const bool both_int =
          lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt;
      const double a = lhs.NumericOr(0.0);
      const double b = rhs.NumericOr(0.0);
      const bool lhs_ok = lhs.is_numeric() || lhs.type() == ValueType::kBool;
      const bool rhs_ok = rhs.is_numeric() || rhs.type() == ValueType::kBool;
      if (!lhs_ok || !rhs_ok) {
        return SemanticError("constant expression needs numeric operands: " + expr.ToString());
      }
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
          return both_int ? Value(lhs.AsInt().value() + rhs.AsInt().value()) : Value(a + b);
        case BinaryOp::kSub:
          return both_int ? Value(lhs.AsInt().value() - rhs.AsInt().value()) : Value(a - b);
        case BinaryOp::kMul:
          return both_int ? Value(lhs.AsInt().value() * rhs.AsInt().value()) : Value(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) {
            return SemanticError("constant division by zero: " + expr.ToString());
          }
          return Value(a / b);
        case BinaryOp::kMod:
          if (b == 0.0) {
            return SemanticError("constant modulo by zero: " + expr.ToString());
          }
          return Value(std::fmod(a, b));
        case BinaryOp::kLt:
          return Value(a < b);
        case BinaryOp::kLe:
          return Value(a <= b);
        case BinaryOp::kGt:
          return Value(a > b);
        case BinaryOp::kGe:
          return Value(a >= b);
        case BinaryOp::kEq:
          return Value(a == b);
        case BinaryOp::kNe:
          return Value(a != b);
        case BinaryOp::kAnd:
          return Value(a != 0.0 && b != 0.0);
        case BinaryOp::kOr:
          return Value(a != 0.0 || b != 0.0);
      }
      return InternalError("unhandled binary op");
    }
    default:
      return SemanticError("expression is not a constant: " + expr.ToString());
  }
}

DslType InferType(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      switch (expr.literal.type()) {
        case ValueType::kInt:
        case ValueType::kFloat:
          return DslType::kNum;
        case ValueType::kBool:
          return DslType::kBool;
        case ValueType::kString:
          return DslType::kStr;
        case ValueType::kList:
          return DslType::kList;
        case ValueType::kNil:
          return DslType::kNil;
      }
      return DslType::kAny;
    case ExprKind::kIdent:
      return DslType::kAny;  // implicit LOAD: dynamically typed
    case ExprKind::kList:
      return DslType::kList;
    case ExprKind::kUnary:
      return expr.unary_op == UnaryOp::kNot ? DslType::kBool : DslType::kNum;
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return DslType::kNum;
        default:
          return DslType::kBool;
      }
    case ExprKind::kCall: {
      const Builtin* builtin = FindBuiltin(expr.name);
      return builtin != nullptr ? builtin->result : DslType::kAny;
    }
  }
  return DslType::kAny;
}

Result<AnalyzedSpec> Analyze(SpecFile spec) {
  AnalyzedSpec analyzed;
  std::unordered_set<std::string> names;
  for (GuardrailDecl& decl : spec.guardrails) {
    if (!names.insert(decl.name).second) {
      return SemanticError("duplicate guardrail name '" + decl.name + "'");
    }
    for (TriggerDecl& trigger : decl.triggers) {
      switch (trigger.kind) {
        case TriggerKind::kTimer:
          OSGUARD_RETURN_IF_ERROR(FoldTimerTrigger(trigger, decl.name));
          break;
        case TriggerKind::kFunction:
          if (trigger.function_name.empty()) {
            return SemanticError("FUNCTION trigger of guardrail '" + decl.name +
                                 "' names no function");
          }
          break;
        case TriggerKind::kOnChange:
          if (trigger.watch_key.empty()) {
            return SemanticError("ONCHANGE trigger of guardrail '" + decl.name +
                                 "' names no key");
          }
          break;
      }
    }
    for (const ExprPtr& rule : decl.rules) {
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*rule, ExprContext::kRule));
      const DslType type = InferType(*rule);
      if (type == DslType::kStr || type == DslType::kList || type == DslType::kNil) {
        return SemanticError("rule of guardrail '" + decl.name +
                             "' does not evaluate to a truth value: " + rule->ToString());
      }
    }
    for (const ExprPtr& stmt : decl.actions) {
      OSGUARD_RETURN_IF_ERROR(CheckActionStatement(*stmt));
    }
    for (const ExprPtr& stmt : decl.satisfy_actions) {
      OSGUARD_RETURN_IF_ERROR(CheckActionStatement(*stmt));
    }
    AnalyzedGuardrail out;
    OSGUARD_ASSIGN_OR_RETURN(out.meta, AnalyzeMeta(decl));
    out.decl = std::move(decl);
    analyzed.guardrails.push_back(std::move(out));
  }
  if (spec.chaos.has_value()) {
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedChaos chaos, AnalyzeChaos(*spec.chaos));
    analyzed.chaos = std::move(chaos);
  }
  if (spec.persist.has_value()) {
    OSGUARD_RETURN_IF_ERROR(AssignAttrs(kPersistSchema, spec.persist->attrs, kPersistSchema.name,
                                        nullptr, &analyzed.persist.emplace())
                                .status());
  }
  if (spec.retention.has_value()) {
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedRetention retention, AnalyzeRetention(*spec.retention));
    analyzed.retention = std::move(retention);
  }
  return analyzed;
}

}  // namespace osguard
