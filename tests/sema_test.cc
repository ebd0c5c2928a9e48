// Semantic-analysis tests: trigger folding, rule purity, action validation,
// meta vocabulary, constant evaluation, and type inference.

#include <gtest/gtest.h>

#include <sstream>

#include "src/dsl/parser.h"
#include "src/dsl/sema.h"

namespace osguard {
namespace {

Result<AnalyzedSpec> AnalyzeSource(const std::string& source) {
  auto spec = ParseSpecSource(source);
  if (!spec.ok()) {
    return spec.status();
  }
  return Analyze(std::move(spec).value());
}

AnalyzedSpec AnalyzeOk(const std::string& source) {
  auto analyzed = AnalyzeSource(source);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return analyzed.ok() ? std::move(analyzed).value() : AnalyzedSpec{};
}

Status AnalyzeFailure(const std::string& source) {
  auto analyzed = AnalyzeSource(source);
  EXPECT_FALSE(analyzed.ok()) << "expected semantic failure";
  return analyzed.ok() ? OkStatus() : analyzed.status();
}

TEST(SemaTest, TimerArgsAreConstantFolded) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(2s + 500ms, 2 * 250ms, 60s) },
      rule: { true }, action: { REPORT() }
    }
  )");
  const TriggerDecl& trigger = spec.guardrails[0].decl.triggers[0];
  EXPECT_EQ(trigger.start, 2500000000);
  EXPECT_EQ(trigger.interval, 500000000);
  EXPECT_EQ(trigger.stop, 60000000000);
}

TEST(SemaTest, TimerWithoutStopIsForever) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0, 1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_EQ(spec.guardrails[0].decl.triggers[0].stop, 0);
}

TEST(SemaTest, TimerNonConstantArgsRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(LOAD(x), 1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_EQ(status.code(), ErrorCode::kSemanticError);
}

TEST(SemaTest, TimerZeroIntervalRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0, 0) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, TimerNegativeStartRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0 - 5s, 1s) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, TimerStopBeforeStartRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(10s, 1s, 5s) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, DuplicateGuardrailNamesRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail same { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
    guardrail same { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(SemaTest, SideEffectsForbiddenInRules) {
  for (const char* rule : {"SAVE(x, 1) == 1", "INCR(x) > 0", "OBSERVE(x, 1) == 0"}) {
    const std::string source = std::string(R"(
      guardrail g { trigger: { TIMER(0,1s) }, rule: { )") +
                               rule + R"( }, action: { REPORT() } }
    )";
    auto analyzed = AnalyzeSource(source);
    EXPECT_FALSE(analyzed.ok()) << rule;
    if (!analyzed.ok()) {
      EXPECT_NE(analyzed.status().message().find("side effects"), std::string::npos) << rule;
    }
  }
}

TEST(SemaTest, ActionsForbiddenInRules) {
  for (const char* rule :
       {"REPORT() == 0", "REPLACE(a, b) == 0", "RETRAIN(m) == 0"}) {
    const std::string source = std::string(R"(
      guardrail g { trigger: { TIMER(0,1s) }, rule: { )") +
                               rule + R"( }, action: { REPORT() } }
    )";
    EXPECT_FALSE(AnalyzeSource(source).ok()) << rule;
  }
}

TEST(SemaTest, PureBuiltinsAllowedInRules) {
  AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) },
      rule: { ABS(LOAD_OR(x, 0)) <= SQRT(MEAN(lat, 1s)) && EXISTS(flag) || NOW() > 1s },
      action: { REPORT() }
    }
  )");
}

TEST(SemaTest, NonActionCallRejectedAsActionStatement) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { MEAN(x, 1s) } }
  )");
  EXPECT_NE(status.message().find("not an action"), std::string::npos);
}

TEST(SemaTest, StoreMutationsAllowedAsActions) {
  AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) }, rule: { true },
      action: { SAVE(a, 1); INCR(b); OBSERVE(c, 2.5) }
    }
  )");
}

TEST(SemaTest, UnknownFunctionRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { FROBNICATE(x) <= 1 }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("FROBNICATE"), std::string::npos);
}

TEST(SemaTest, ArityChecked) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(a, b, c) <= 1 }, action: { REPORT() } }
  )").ok());
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { MEAN(a) <= 1 }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, KeyArgumentsMustBeIdentifiersOrStrings) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(1 + 2) <= 1 }, action: { REPORT() } }
  )").ok());
  AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD("dotted.key") <= 1 || true },
                  action: { REPORT() } }
  )");
}

TEST(SemaTest, DeprioritizeListShapesChecked) {
  AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE({a, b}, {1, 0.5}) } }
  )");
  // Non-list arguments rejected.
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE(a, {1}) } }
  )").ok());
  // Name list with a number rejected.
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE({1, 2}, {1, 2}) } }
  )").ok());
}

TEST(SemaTest, RuleMustBeTruthValued) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { "just a string" }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("truth value"), std::string::npos);
}

TEST(SemaTest, StringArithmeticRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { "a" + 1 <= 2 }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, MetaDefaults) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
  )");
  const GuardrailMeta& meta = spec.guardrails[0].meta;
  EXPECT_EQ(meta.severity, Severity::kWarning);
  EXPECT_EQ(meta.cooldown, 0);
  EXPECT_EQ(meta.hysteresis, 1);
  EXPECT_TRUE(meta.enabled);
}

TEST(SemaTest, MetaParsedIntoTypedFields) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
      meta: { severity = critical, cooldown = 5s, hysteresis = 4, enabled = false,
              description = "x" }
    }
  )");
  const GuardrailMeta& meta = spec.guardrails[0].meta;
  EXPECT_EQ(meta.severity, Severity::kCritical);
  EXPECT_EQ(meta.cooldown, Seconds(5));
  EXPECT_EQ(meta.hysteresis, 4);
  EXPECT_FALSE(meta.enabled);
  EXPECT_EQ(meta.description, "x");
}

TEST(SemaTest, UnknownMetaKeyRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { cooldwon = 5s } }
  )");
  EXPECT_NE(status.message().find("cooldwon"), std::string::npos);
}

TEST(SemaTest, BadMetaValuesRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { severity = catastrophic } }
  )").ok());
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { hysteresis = 0 } }
  )").ok());
}

// --- Golden diagnostics for the attribute blocks ---
//
// One row per reject site in the meta / health / chaos / persist / retention
// paths of the parser and semantic analysis: the source, the error code and
// the exact message. The lexer has no negative literals, so the `>= 0`
// bounds are reachable only from a built AST: `negate` names an attribute
// whose integer value (or list elements) is negated after parsing.

std::string Guarded(const std::string& sections) {
  return "guardrail g { trigger: { TIMER(0, 1s) }, rule: { true }, action: { REPORT() }, " +
         sections + " }";
}

Value Negated(const Value& value) {
  if (const std::vector<Value>* list = value.IfList()) {
    std::vector<Value> out;
    for (const Value& element : *list) {
      out.push_back(Negated(element));
    }
    return Value(std::move(out));
  }
  return Value(-value.AsInt().value());
}

void NegateAttr(std::vector<MetaAttr>& attrs, const std::string& key) {
  for (MetaAttr& attr : attrs) {
    if (attr.key == key) {
      attr.value = Negated(attr.value);
    }
  }
}

void NegateAttr(SpecFile& spec, const std::string& key) {
  for (GuardrailDecl& decl : spec.guardrails) {
    NegateAttr(decl.meta, key);
    NegateAttr(decl.health, key);
  }
  for (std::optional<BlockDecl>* block : {&spec.chaos, &spec.persist, &spec.retention}) {
    if (block->has_value()) {
      NegateAttr((*block)->attrs, key);
      for (BlockDecl& child : (*block)->children) {
        NegateAttr(child.attrs, key);
      }
    }
  }
}

struct RejectRow {
  std::string source;
  ErrorCode code;
  std::string message;
  std::string negate = {};  // attribute to negate after parsing, if any
};

TEST(SemaGoldenTest, BlockRejectSitesKeepTheirDiagnostics) {
  constexpr ErrorCode kParse = ErrorCode::kParseError;
  constexpr ErrorCode kSema = ErrorCode::kSemanticError;
  constexpr ErrorCode kType = ErrorCode::kInvalidArgument;
  const std::vector<RejectRow> rows = {
      // --- parser: top-level dispatch ---
      {"chaos { } chaos { }", kParse,
       "duplicate chaos block (found identifier 'chaos' at line 1, column 11)"},
      {"persist { } persist { }", kParse,
       "duplicate persist block (found identifier 'persist' at line 1, column 13)"},
      {"retention { } retention { }", kParse,
       "duplicate retention block (found identifier 'retention' at line 1, column 15)"},
      {"", kParse,
       "spec file contains no guardrail declarations (and no chaos, persist, or retention block) "
       "at line 1"},
      // --- parser: guardrail sections ---
      {Guarded("meta: { severity = info }, meta: { cooldown = 1s }"), kParse,
       "duplicate meta section (found 'meta' at line 1, column 107)"},
      {Guarded("health: { }, health: { }"), kParse,
       "duplicate health section (found identifier 'health' at line 1, column 93)"},
      {Guarded("healthy: { }"), kParse,
       "expected a section (trigger / rule / action / on_satisfy / meta / health) (found "
       "identifier 'healthy' at line 1, column 80)"},
      {Guarded("meta { }"), kParse, "expected ':' after 'meta' (found '{' at line 1, column 85)"},
      {Guarded("meta: ( )"), kParse,
       "expected '{' to open the meta block (found '(' at line 1, column 86)"},
      {Guarded("meta: { 5 = 1 }"), kParse,
       "expected identifier as a meta attribute name (found integer '5' at line 1, column 88)"},
      {Guarded("meta: { severity info }"), kParse,
       "expected '=' after the attribute name (found identifier 'info' at line 1, column 97)"},
      {Guarded("meta: { severity = (info) }"), kParse,
       "meta attribute values must be literals (found '(' at line 1, column 99)"},
      {Guarded("meta: { tags = {a, b} }"), kParse,
       "meta attribute values must be literals (found '{' at line 1, column 95)"},
      {Guarded("health { }"), kParse,
       "expected ':' after 'health' (found '{' at line 1, column 87)"},
      {Guarded("health: ( )"), kParse,
       "expected '{' to open the health block (found '(' at line 1, column 88)"},
      {Guarded("health: { 5 = 1 }"), kParse,
       "expected identifier as a health attribute name (found integer '5' at line 1, column 90)"},
      {Guarded("health: { quarantine 2 }"), kParse,
       "expected '=' after the attribute name (found integer '2' at line 1, column 101)"},
      {Guarded("health: { quarantine = -2 }"), kParse,
       "attribute values must be literals (found '-' at line 1, column 103)"},
      // --- parser: chaos / persist / retention blocks ---
      {"chaos { site s { mode = schedule, nth = {1, -2} } }", kParse,
       "attribute values must be literals (found '-' at line 1, column 45)"},
      {"chaos { site s { mode = schedule, nth = {1 2} } }", kParse,
       "expected '}' to close the attribute list (found integer '2' at line 1, column 44)"},
      {"chaos { 5 = 1 }", kParse,
       "expected identifier as a chaos attribute name (found integer '5' at line 1, column 9)"},
      {"chaos { seed = 1", kParse,
       "expected identifier as a chaos attribute name (found <eof> at line 1, column 17)"},
      {"chaos { site 5 { } }", kParse,
       "expected identifier as the chaos site name (found integer '5' at line 1, column 14)"},
      {"chaos { site s mode = off }", kParse,
       "expected '{' to open the site body (found identifier 'mode' at line 1, column 16)"},
      {"chaos { site s { 5 } }", kParse,
       "expected identifier as a chaos site attribute name (found integer '5' at line 1, column "
       "18)"},
      {"persist { 5 = 1 }", kParse,
       "expected identifier as a persist attribute name (found integer '5' at line 1, column 11)"},
      {"persist { interval = 1s", kParse,
       "expected identifier as a persist attribute name (found <eof> at line 1, column 24)"},
      {"retention { 5 = 1 }", kParse,
       "expected identifier as a retention attribute name (found integer '5' at line 1, "
       "column 13)"},
      {"retention { namespace agent { } }", kParse,
       "expected string as the retention namespace prefix (found identifier 'agent' at line 1, "
       "column 23)"},
      {"retention { namespace \"a.\" max_keys = 1 }", kParse,
       "expected '{' to open the namespace body (found identifier 'max_keys' at line 1, "
       "column 28)"},
      {"retention { namespace \"a.\" { 5 } }", kParse,
       "expected identifier as a retention namespace attribute name (found integer '5' at line 1, "
       "column 30)"},
      // --- sema: meta ---
      {Guarded("meta: { severity = loud }"), kSema,
       "severity must be info|warning|critical (guardrail 'g', line 1)"},
      {Guarded("meta: { severity = 3 }"), kType,
       "value is not a string: 3 (guardrail 'g', line 1)"},
      {Guarded("meta: { cooldown = soon }"), kType,
       "value is not numeric: \"soon\" (guardrail 'g', line 1)"},
      {Guarded("meta: { cooldown = 1s }"), kSema,
       "cooldown must be >= 0 (guardrail 'g', line 1)", "cooldown"},
      {Guarded("meta: { hysteresis = 0 }"), kSema,
       "hysteresis must be >= 1 (guardrail 'g', line 1)"},
      {Guarded("meta: { enabled = \"yes\" }"), kType,
       "value is not boolean: \"yes\" (guardrail 'g', line 1)"},
      {Guarded("meta: { description = 5 }"), kType,
       "value is not a string: 5 (guardrail 'g', line 1)"},
      {Guarded("meta: { tier = turbo }"), kSema,
       "tier must be auto|interpreter|native (guardrail 'g', line 1)"},
      {Guarded("meta: { criticality = vital }"), kSema,
       "criticality must be critical|standard|besteffort (guardrail 'g', line 1)"},
      {Guarded("meta: { cooldwon = 1s }"), kSema,
       "unknown meta attribute 'cooldwon' (expected severity, cooldown, hysteresis, enabled, "
       "description, tier, or criticality) (guardrail 'g', line 1)"},
      // --- sema: health ---
      {Guarded("health: { budget_steps = 5 }"), kSema,
       "budget_steps must be >= 0 (guardrail 'g', line 1)", "budget_steps"},
      {Guarded("health: { budget_ns = 5ms }"), kSema,
       "budget_ns must be >= 0 (guardrail 'g', line 1)", "budget_ns"},
      {Guarded("health: { flap_window = 0 }"), kSema,
       "flap_window must be > 0 (guardrail 'g', line 1)"},
      {Guarded("health: { flap_threshold = 0 }"), kSema,
       "flap_threshold must be >= 1 (guardrail 'g', line 1)"},
      {Guarded("health: { quarantine = 0 }"), kSema,
       "quarantine must be >= 1 (guardrail 'g', line 1)"},
      {Guarded("health: { probe_every = 0 }"), kSema,
       "probe_every must be >= 1 (guardrail 'g', line 1)"},
      {Guarded("health: { reinstate = 0 }"), kSema,
       "reinstate must be >= 1 (guardrail 'g', line 1)"},
      {Guarded("health: { probation = 1s }"), kSema,
       "probation must be >= 0 (guardrail 'g', line 1)", "probation"},
      {Guarded("health: { ewma_alpha = 1.5 }"), kSema,
       "ewma_alpha must be a number in (0, 1] (guardrail 'g', line 1)"},
      {Guarded("health: { ewma_alpha = 0 }"), kSema,
       "ewma_alpha must be a number in (0, 1] (guardrail 'g', line 1)"},
      {Guarded("health: { ewma_alpha = fast }"), kSema,
       "ewma_alpha must be a number in (0, 1] (guardrail 'g', line 1)"},
      {Guarded("health: { budget_steps = true }"), kType,
       "value is not numeric: true (guardrail 'g', line 1)"},
      {Guarded("health: { teapot = 4 }"), kSema,
       "unknown health attribute 'teapot' (expected budget_steps, budget_ns, flap_window, "
       "flap_threshold, quarantine, probe_every, reinstate, probation, or ewma_alpha) "
       "(guardrail 'g', line 1)"},
      {Guarded("health: {\n  quarantine = 2,\n  reinstate = 0\n}"), kSema,
       "reinstate must be >= 1 (guardrail 'g', line 3)"},
      // --- sema: chaos sites ---
      {"chaos { site s { mode = teapot } }", kSema,
       "mode must be off|bernoulli|schedule|burst (chaos site 's', line 1)"},
      {"chaos { site s { mode = 1 } }", kType,
       "value is not a string: 1 (chaos site 's', line 1)"},
      {"chaos { site s { mode = bernoulli, p = 1.5 } }", kSema,
       "p must be a number in [0, 1] (chaos site 's', line 1)"},
      {"chaos { site s { mode = bernoulli, p = high } }", kSema,
       "p must be a number in [0, 1] (chaos site 's', line 1)"},
      {"chaos { site s { mode = schedule, nth = 3 } }", kSema,
       "nth indices must be >= 0 (chaos site 's', line 1)", "nth"},
      {"chaos { site s { mode = schedule, nth = {1, 2} } }", kSema,
       "nth indices must be >= 0 (chaos site 's', line 1)", "nth"},
      {"chaos { site s { mode = schedule, nth = {1, \"x\"} } }", kType,
       "value is not numeric: \"x\" (chaos site 's', line 1)"},
      {"chaos { site s { mode = burst, period = 0 } }", kSema,
       "period must be > 0 (chaos site 's', line 1)"},
      {"chaos { site s { mode = burst, burst = 0 } }", kSema,
       "burst must be > 0 (chaos site 's', line 1)"},
      {"chaos { site s { mode = off, latency = 1ms } }", kSema,
       "latency must be >= 0 (chaos site 's', line 1)", "latency"},
      {"chaos { site s { mode = off, value = \"big\" } }", kSema,
       "value must be a number (chaos site 's', line 1)"},
      {"chaos { site s { mode = off, frequency = 3 } }", kSema,
       "unknown chaos site attribute 'frequency' (expected mode, p, nth, period, burst, "
       "latency, or value) (chaos site 's', line 1)"},
      {"chaos { site s { p = 0.5 } }", kSema,
       "chaos site must declare a mode (chaos site 's', line 1)"},
      {"chaos { site s { mode = bernoulli } }", kSema,
       "bernoulli mode needs p > 0 (chaos site 's', line 1)"},
      {"chaos { site s { mode = schedule, nth = {} } }", kSema,
       "schedule mode needs a non-empty nth list (chaos site 's', line 1)"},
      {"chaos { site s { mode = burst, period = 1s } }", kSema,
       "burst mode needs period > 0 and burst > 0 (chaos site 's', line 1)"},
      {"chaos { site s { mode = burst, period = 1ms, burst = 2ms } }", kSema,
       "burst must not exceed period (chaos site 's', line 1)"},
      {"chaos {\n"
       "  seed = 1,\n"
       "  site a { mode = off },\n"
       "  site b {\n"
       "    mode = bernoulli\n"
       "  }\n"
       "}",
       kSema, "bernoulli mode needs p > 0 (chaos site 'b', line 4)"},
      // --- sema: chaos block ---
      {"chaos { seed = 3 }", kSema, "seed must be >= 0 (chaos block, line 1)", "seed"},
      {"chaos { seed = x }", kType, "value is not numeric: \"x\" (chaos block, line 1)"},
      {"chaos { tea = 4 }", kSema,
       "unknown chaos attribute 'tea' (expected seed) (chaos block, line 1)"},
      {"chaos { site s { mode = off }, site s { mode = off } }", kSema,
       "duplicate chaos site 's' (line 1)"},
      // --- sema: persist ---
      {"persist { interval = 0 }", kSema,
       "interval must be a positive duration (persist block, line 1)"},
      {"persist { interval = soon }", kType,
       "value is not numeric: \"soon\" (persist block, line 1)"},
      {"persist { journal_budget = 4 }", kSema,
       "journal_budget must be >= 0 bytes (0 = unbounded) (persist block, line 1)",
       "journal_budget"},
      {"persist { cadence = 1s }", kSema,
       "unknown persist attribute 'cadence' (expected interval or journal_budget) (persist block, "
       "line 1)"},
      // --- sema: retention ---
      {"retention { scan_chunk = 0 }", kSema,
       "scan_chunk must be > 0 slots (retention block, line 1)"},
      {"retention { scan_chunk = many }", kType,
       "value is not numeric: \"many\" (retention block, line 1)"},
      {"retention { frobnicate = 3 }", kSema,
       "unknown retention attribute 'frobnicate' (expected scan_chunk) (retention block, line 1)"},
      {"retention { namespace \"\" { idle_ttl = 1s } }", kSema,
       "retention namespace prefix must not be empty (line 1)"},
      {"retention { namespace \"a.\" { idle_ttl = 1s }, namespace \"a.\" { max_keys = 2 } }", kSema,
       "duplicate retention namespace 'a.' (line 1)"},
      {"retention { namespace \"a.\" { max_keys = 2 } }", kSema,
       "max_keys must be >= 0 (0 = no key budget) (retention namespace 'a.', line 1)", "max_keys"},
      {"retention { namespace \"a.\" { idle_ttl = 1s } }", kSema,
       "idle_ttl must be a non-negative duration (retention namespace 'a.', line 1)", "idle_ttl"},
      {"retention { namespace \"a.\" { max_keys = lots } }", kType,
       "value is not numeric: \"lots\" (retention namespace 'a.', line 1)"},
      {"retention { namespace \"a.\" { frobnicate = 3 } }", kSema,
       "unknown retention namespace attribute 'frobnicate' (expected max_keys or idle_ttl) "
       "(retention namespace 'a.', line 1)"},
      {"retention {\n  namespace \"a.\" {\n  }\n}", kSema,
       "retention namespace 'a.' declares neither max_keys nor idle_ttl (line 2)"},
      // --- attributes stored in an `int` are capped at INT32_MAX ---
      {Guarded("meta: { hysteresis = 2147483648 }"), kSema,
       "hysteresis must be <= 2147483647 (guardrail 'g', line 1)"},
      {Guarded("health: { flap_threshold = 4294967296 }"), kSema,
       "flap_threshold must be <= 2147483647 (guardrail 'g', line 1)"},
      {Guarded("health: { quarantine = 4294967296 }"), kSema,
       "quarantine must be <= 2147483647 (guardrail 'g', line 1)"},
      {Guarded("health: { probe_every = 4294967296 }"), kSema,
       "probe_every must be <= 2147483647 (guardrail 'g', line 1)"},
      {Guarded("health: {\n  reinstate = 3e9\n}"), kSema,
       "reinstate must be <= 2147483647 (guardrail 'g', line 2)"},
      // --- a float outside int64 is rejected before it is truncated ---
      {Guarded("meta: { cooldown = 1e19 }"), kSema,
       "cooldown must fit in 64 bits (guardrail 'g', line 1)"},
      {"chaos { site s { mode = schedule, nth = {1, 1e999} } }", kSema,
       "nth must fit in 64 bits (chaos site 's', line 1)"},
      // --- a key repeated inside one block, site or namespace ---
      {Guarded("meta: { cooldown = 1s, cooldown = 2s }"), kSema,
       "duplicate meta attribute 'cooldown' (guardrail 'g', line 1)"},
      {Guarded("health: {\n  quarantine = 2,\n  quarantine = 3\n}"), kSema,
       "duplicate health attribute 'quarantine' (guardrail 'g', line 3)"},
      {"chaos { site s { mode = bernoulli, p = 0.5, p = 1 } }", kSema,
       "duplicate chaos site attribute 'p' (chaos site 's', line 1)"},
      {"chaos { site s { mode = schedule, nth = 1, nth = {2} } }", kSema,
       "duplicate chaos site attribute 'nth' (chaos site 's', line 1)"},
      {"chaos { seed = 1; seed = 2 }", kSema,
       "duplicate chaos attribute 'seed' (chaos block, line 1)"},
      {"persist { interval = 1s interval = 2s }", kSema,
       "duplicate persist attribute 'interval' (persist block, line 1)"},
      {"retention { scan_chunk = 8, scan_chunk = 8 }", kSema,
       "duplicate retention attribute 'scan_chunk' (retention block, line 1)"},
      {"retention { namespace \"a.\" { max_keys = 1, max_keys = 2 } }", kSema,
       "duplicate retention namespace attribute 'max_keys' (retention namespace 'a.', line 1)"},
      {Guarded("meta: { }, meta: { severity = info }"), kParse,
       "duplicate meta section (found 'meta' at line 1, column 91)"},
  };
  for (const RejectRow& row : rows) {
    auto spec = ParseSpecSource(row.source);
    Status status = spec.status();
    if (spec.ok()) {
      if (!row.negate.empty()) {
        NegateAttr(spec.value(), row.negate);
      }
      status = Analyze(std::move(spec).value()).status();
    }
    EXPECT_EQ(status.code(), row.code) << row.source << "\n" << status.ToString();
    EXPECT_EQ(status.message(), row.message) << row.source;
  }
}

// Renders every field of every Analyzed* block struct, so the accept rows
// below pin defaults and set values alike.
std::string Render(const AnalyzedSpec& spec) {
  std::ostringstream out;
  for (const AnalyzedGuardrail& g : spec.guardrails) {
    const GuardrailMeta& m = g.meta;
    const GuardrailHealth& h = m.health;
    out << "meta severity=" << SeverityName(m.severity) << " cooldown=" << m.cooldown
        << " hysteresis=" << m.hysteresis << " enabled=" << m.enabled << " description='"
        << m.description << "' tier=" << TierHintName(m.tier)
        << " criticality=" << CriticalityName(m.criticality) << "\n";
    out << "health supervised=" << h.supervised << " budget_steps=" << h.budget_steps
        << " budget_ns=" << h.budget_ns << " flap_window=" << h.flap_window
        << " flap_threshold=" << h.flap_threshold << " quarantine=" << h.quarantine
        << " probe_every=" << h.probe_every << " reinstate=" << h.reinstate
        << " probation=" << h.probation << " ewma_alpha=" << h.ewma_alpha << "\n";
  }
  if (spec.chaos.has_value()) {
    out << "chaos has_seed=" << spec.chaos->has_seed << " seed=" << spec.chaos->seed << "\n";
    for (const AnalyzedChaosSite& s : spec.chaos->sites) {
      out << "site " << s.name << " mode=" << ChaosModeName(s.mode) << " p=" << s.p << " nth=[";
      for (uint64_t n : s.nth) {
        out << " " << n;
      }
      out << " ] period=" << s.period << " burst=" << s.burst << " latency=" << s.latency
          << " value=" << s.value << "\n";
    }
  }
  if (spec.persist.has_value()) {
    out << "persist interval=" << spec.persist->snapshot_interval
        << " journal_budget=" << spec.persist->journal_budget << "\n";
  }
  if (spec.retention.has_value()) {
    out << "retention scan_chunk=" << spec.retention->scan_chunk << "\n";
    for (const AnalyzedRetentionNamespace& ns : spec.retention->namespaces) {
      out << "namespace '" << ns.prefix << "' max_keys=" << ns.max_keys
          << " idle_ttl=" << ns.idle_ttl << " line=" << ns.line << "\n";
    }
  }
  return out.str();
}

struct AcceptRow {
  std::string source;
  std::string rendered;
};

TEST(SemaGoldenTest, BlockAcceptRowsPinEveryAnalyzedField) {
  const std::vector<AcceptRow> rows = {
      {Guarded(""),
       "meta severity=warning cooldown=0 hysteresis=1 enabled=1 description='' tier=auto "
       "criticality=standard\n"
       "health supervised=0 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=8 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("meta: { severity = info, cooldown = 250ms, hysteresis = 3, enabled = false, "
               "description = \"d\", tier = interpreter, criticality = critical }"),
       "meta severity=info cooldown=250000000 hysteresis=3 enabled=0 description='d' "
       "tier=interpreter criticality=critical\n"
       "health supervised=0 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=8 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("meta: { severity = \"critical\"; tier = native; criticality = besteffort }"),
       "meta severity=critical cooldown=0 hysteresis=1 enabled=1 description='' tier=native "
       "criticality=besteffort\n"
       "health supervised=0 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=8 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("meta: { severity = warning tier = auto criticality = standard enabled = 0 }"),
       "meta severity=warning cooldown=0 hysteresis=1 enabled=0 description='' tier=auto "
       "criticality=standard\n"
       "health supervised=0 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=8 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("meta: { hysteresis = 2147483647 }, health: { probe_every = 2147483647 }"),
       "meta severity=warning cooldown=0 hysteresis=2147483647 enabled=1 description='' tier=auto "
       "criticality=standard\n"
       "health supervised=1 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=2147483647 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("health: { }"),
       "meta severity=warning cooldown=0 hysteresis=1 enabled=1 description='' tier=auto "
       "criticality=standard\n"
       "health supervised=1 budget_steps=0 budget_ns=0 flap_window=60000000000 flap_threshold=8 "
       "quarantine=3 probe_every=8 reinstate=2 probation=0 ewma_alpha=0.2\n"},
      {Guarded("health: { budget_steps = 500, budget_ns = 2ms; flap_window = 30s "
               "flap_threshold = 4, quarantine = 2, probe_every = 5, reinstate = 3, "
               "probation = 60s, ewma_alpha = 1 }"),
       "meta severity=warning cooldown=0 hysteresis=1 enabled=1 description='' tier=auto "
       "criticality=standard\n"
       "health supervised=1 budget_steps=500 budget_ns=2000000 flap_window=30000000000 "
       "flap_threshold=4 quarantine=2 probe_every=5 reinstate=3 probation=60000000000 "
       "ewma_alpha=1\n"},
      {"chaos { }", "chaos has_seed=0 seed=0\n"},
      {"chaos {\n  seed = 7;\n  site a { mode = bernoulli, p = 0.25, latency = 2ms, value = 1.5 }\n"
       "  site b { mode = schedule; nth = {9, 2, 2,} }\n"
       "  site c { mode = burst, period = 10ms, burst = 2ms },\n"
       "  site d { mode = off }; site e { mode = schedule, nth = 5 }\n}",
       "chaos has_seed=1 seed=7\n"
       "site a mode=bernoulli p=0.25 nth=[ ] period=0 burst=0 latency=2000000 value=1.5\n"
       "site b mode=schedule p=0 nth=[ 2 9 ] period=0 burst=0 latency=0 value=0\n"
       "site c mode=burst p=1 nth=[ ] period=10000000 burst=2000000 latency=0 value=0\n"
       "site d mode=off p=0 nth=[ ] period=0 burst=0 latency=0 value=0\n"
       "site e mode=schedule p=0 nth=[ 5 ] period=0 burst=0 latency=0 value=0\n"},
      {"persist { }", "persist interval=10000000000 journal_budget=1048576\n"},
      {"persist { interval = 2s, journal_budget = 0 }",
       "persist interval=2000000000 journal_budget=0\n"},
      {"retention { }", "retention scan_chunk=64\n"},
      {"retention {\n  scan_chunk = 8\n  namespace \"a.\" { max_keys = 10 };\n"
       "  namespace \"b.\" { idle_ttl = 1s, max_keys = 0 }\n}",
       "retention scan_chunk=8\n"
       "namespace 'a.' max_keys=10 idle_ttl=0 line=3\n"
       "namespace 'b.' max_keys=0 idle_ttl=1000000000 line=4\n"},
  };
  for (const AcceptRow& row : rows) {
    auto analyzed = AnalyzeSource(row.source);
    ASSERT_TRUE(analyzed.ok()) << row.source << "\n" << analyzed.status().ToString();
    EXPECT_EQ(Render(analyzed.value()), row.rendered) << row.source;
  }
}

// --- EvalConst ---

Value EvalConstSource(const std::string& source) {
  auto expr = ParseExprSource(source);
  EXPECT_TRUE(expr.ok());
  auto value = EvalConst(*expr.value());
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  return value.ok() ? value.value() : Value();
}

TEST(EvalConstTest, FoldsArithmetic) {
  EXPECT_EQ(EvalConstSource("2 + 3 * 4").AsInt().value(), 14);
  EXPECT_DOUBLE_EQ(EvalConstSource("7 / 2").AsFloat().value(), 3.5);
  EXPECT_EQ(EvalConstSource("-(2 + 3)").AsInt().value(), -5);
  EXPECT_EQ(EvalConstSource("1s + 250ms").AsInt().value(), 1250000000);
}

TEST(EvalConstTest, FoldsComparisonsAndLogic) {
  EXPECT_TRUE(EvalConstSource("1 < 2").AsBool().value());
  EXPECT_TRUE(EvalConstSource("true && !false").AsBool().value());
  EXPECT_FALSE(EvalConstSource("1 > 2 || false").AsBool().value());
}

TEST(EvalConstTest, RejectsNonConstants) {
  auto expr = ParseExprSource("LOAD(x) + 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
  expr = ParseExprSource("free_ident");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
}

TEST(EvalConstTest, RejectsDivisionByZero) {
  auto expr = ParseExprSource("1 / 0");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
}

// --- InferType ---

DslType TypeOf(const std::string& source) {
  auto expr = ParseExprSource(source);
  EXPECT_TRUE(expr.ok());
  return InferType(*expr.value());
}

TEST(InferTypeTest, CoversExpressionShapes) {
  EXPECT_EQ(TypeOf("42"), DslType::kNum);
  EXPECT_EQ(TypeOf("1.5"), DslType::kNum);
  EXPECT_EQ(TypeOf("true"), DslType::kBool);
  EXPECT_EQ(TypeOf("\"s\""), DslType::kStr);
  EXPECT_EQ(TypeOf("x"), DslType::kAny);
  EXPECT_EQ(TypeOf("1 + 2"), DslType::kNum);
  EXPECT_EQ(TypeOf("1 < 2"), DslType::kBool);
  EXPECT_EQ(TypeOf("a && b"), DslType::kBool);
  EXPECT_EQ(TypeOf("!x"), DslType::kBool);
  EXPECT_EQ(TypeOf("-x"), DslType::kNum);
  EXPECT_EQ(TypeOf("MEAN(k, 1s)"), DslType::kNum);
  EXPECT_EQ(TypeOf("EXISTS(k)"), DslType::kBool);
  EXPECT_EQ(TypeOf("LOAD(k)"), DslType::kAny);
  EXPECT_EQ(TypeOf("SAVE(k, 1)"), DslType::kNil);
}

// --- Builtins registry ---

TEST(BuiltinsTest, LookupByNameAndId) {
  const Builtin* load = FindBuiltin("LOAD");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->id, HelperId::kLoad);
  EXPECT_EQ(FindBuiltinById(HelperId::kLoad), load);
  EXPECT_EQ(FindBuiltin("NOPE"), nullptr);
}

TEST(BuiltinsTest, ActionsAreFlagged) {
  for (const char* name : {"REPORT", "REPLACE", "RETRAIN", "DEPRIORITIZE"}) {
    const Builtin* builtin = FindBuiltin(name);
    ASSERT_NE(builtin, nullptr) << name;
    EXPECT_TRUE(builtin->is_action) << name;
  }
  EXPECT_FALSE(FindBuiltin("SAVE")->is_action);
}

TEST(BuiltinsTest, RegistryIsConsistent) {
  for (const Builtin& builtin : AllBuiltins()) {
    EXPECT_EQ(FindBuiltin(builtin.name), &builtin);
    EXPECT_EQ(FindBuiltinById(builtin.id), &builtin);
    EXPECT_GE(builtin.min_args, 0);
    if (builtin.max_args >= 0) {
      EXPECT_LE(builtin.min_args, builtin.max_args);
    }
  }
}

TEST(BuiltinsTest, QuantileSugarTable) {
  EXPECT_DOUBLE_EQ(QuantileSugar("P50"), 0.50);
  EXPECT_DOUBLE_EQ(QuantileSugar("P99"), 0.99);
  EXPECT_DOUBLE_EQ(QuantileSugar("P999"), 0.999);
  EXPECT_LT(QuantileSugar("MEAN"), 0.0);
}

}  // namespace
}  // namespace osguard
