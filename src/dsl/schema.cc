#include "src/dsl/schema.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "src/dsl/sema.h"

namespace osguard {
namespace {

template <typename S, typename T>
S OwnerOf(T S::*);
template <typename S, typename T>
T FieldOf(T S::*);

// The AttrSchema::set of the attribute stored in `Field`.
template <auto Field>
void Set(void* out, const Value& value, int64_t i, double d) {
  using T = decltype(FieldOf(Field));
  T& field = static_cast<decltype(OwnerOf(Field))*>(out)->*Field;
  if constexpr (std::is_same_v<T, std::string>) {
    field = *value.IfString();
  } else if constexpr (std::is_same_v<T, std::vector<uint64_t>>) {
    field.clear();
    for (const Value& element : Elements(value)) {
      field.push_back(static_cast<uint64_t>(element.AsInt().value()));
    }
    std::sort(field.begin(), field.end());
    field.erase(std::unique(field.begin(), field.end()), field.end());
  } else if constexpr (std::is_floating_point_v<T>) {
    field = d;
  } else {
    field = static_cast<T>(i);  // integers, bools and enums
  }
}

using enum AttrType;
using Meta = GuardrailMeta;
using Health = GuardrailHealth;
using Site = AnalyzedChaosSite;
using Namespace = AnalyzedRetentionNamespace;

// Enum names in value order.
constexpr const char* kSeverityNames[] = {"info", "warning", "critical"};
constexpr const char* kTierNames[] = {"auto", "interpreter", "native"};
constexpr const char* kCriticalityNames[] = {"standard", "critical", "besteffort"};
constexpr const char* kChaosModeNames[] = {"off", "bernoulli", "schedule", "burst"};

constexpr AttrSchema kMetaAttrs[] = {
    {"severity", kEnum, Set<&Meta::severity>, "severity must be info|warning|critical", 0, 0,
     kSeverityNames},
    {"cooldown", kDuration, Set<&Meta::cooldown>, "cooldown must be >= 0", 0},
    {"hysteresis", kInt, Set<&Meta::hysteresis>, "hysteresis must be >= 1", 1, kIntMax},
    {"enabled", kBool, Set<&Meta::enabled>},
    {"description", kString, Set<&Meta::description>},
    {"tier", kEnum, Set<&Meta::tier>, "tier must be auto|interpreter|native", 0, 0, kTierNames},
    {"criticality", kEnum, Set<&Meta::criticality>,
     "criticality must be critical|standard|besteffort", 0, 0, kCriticalityNames},
};

constexpr AttrSchema kHealthAttrs[] = {
    {"budget_steps", kInt, Set<&Health::budget_steps>, "budget_steps must be >= 0", 0},
    {"budget_ns", kDuration, Set<&Health::budget_ns>, "budget_ns must be >= 0", 0},
    {"flap_window", kDuration, Set<&Health::flap_window>, "flap_window must be > 0", 1},
    {"flap_threshold", kInt, Set<&Health::flap_threshold>, "flap_threshold must be >= 1", 1,
     kIntMax},
    {"quarantine", kInt, Set<&Health::quarantine>, "quarantine must be >= 1", 1, kIntMax},
    {"probe_every", kInt, Set<&Health::probe_every>, "probe_every must be >= 1", 1, kIntMax},
    {"reinstate", kInt, Set<&Health::reinstate>, "reinstate must be >= 1", 1, kIntMax},
    {"probation", kDuration, Set<&Health::probation>, "probation must be >= 0", 0},
    // (0, 1]: denorm_min is the least double above 0.
    {"ewma_alpha", kNumber, Set<&Health::ewma_alpha>, "ewma_alpha must be a number in (0, 1]",
     std::numeric_limits<double>::denorm_min(), 1},
};

constexpr AttrSchema kChaosAttrs[] = {
    {"seed", kInt, Set<&AnalyzedChaos::seed>, "seed must be >= 0", 0},
};

constexpr AttrSchema kChaosSiteAttrs[] = {
    {"mode", kEnum, Set<&Site::mode>, "mode must be off|bernoulli|schedule|burst", 0, 0,
     kChaosModeNames},
    {"p", kNumber, Set<&Site::p>, "p must be a number in [0, 1]", 0, 1},
    {"nth", kIntList, Set<&Site::nth>, "nth indices must be >= 0", 0},
    {"period", kDuration, Set<&Site::period>, "period must be > 0", 1},
    {"burst", kDuration, Set<&Site::burst>, "burst must be > 0", 1},
    {"latency", kDuration, Set<&Site::latency>, "latency must be >= 0", 0},
    {"value", kNumber, Set<&Site::value>, "value must be a number"},
};

constexpr AttrSchema kPersistAttrs[] = {
    {"interval", kDuration, Set<&AnalyzedPersist::snapshot_interval>,
     "interval must be a positive duration", 1},
    {"journal_budget", kBytes, Set<&AnalyzedPersist::journal_budget>,
     "journal_budget must be >= 0 bytes (0 = unbounded)", 0},
};

constexpr AttrSchema kRetentionAttrs[] = {
    {"scan_chunk", kInt, Set<&AnalyzedRetention::scan_chunk>, "scan_chunk must be > 0 slots", 1},
};

constexpr AttrSchema kRetentionNamespaceAttrs[] = {
    {"max_keys", kInt, Set<&Namespace::max_keys>, "max_keys must be >= 0 (0 = no key budget)", 0},
    {"idle_ttl", kDuration, Set<&Namespace::idle_ttl>, "idle_ttl must be a non-negative duration",
     0},
};

}  // namespace

const BlockSchema kMetaSchema = {"meta", "meta", kMetaAttrs, nullptr, TokenKind::kEof, nullptr,
                                 /*lists=*/false};
const BlockSchema kHealthSchema = {"health", "health", kHealthAttrs};
const BlockSchema kChaosSiteSchema = {"chaos site", "site", kChaosSiteAttrs, nullptr,
                                      TokenKind::kIdent, "name"};
const BlockSchema kChaosSchema = {"chaos", "chaos", kChaosAttrs, &kChaosSiteSchema,
                                  TokenKind::kEof, nullptr, true, &SpecFile::chaos};
const BlockSchema kPersistSchema = {"persist", "persist", kPersistAttrs, nullptr,
                                    TokenKind::kEof, nullptr, true, &SpecFile::persist};
const BlockSchema kRetentionNamespaceSchema = {"retention namespace", "namespace",
                                               kRetentionNamespaceAttrs, nullptr,
                                               TokenKind::kStringLiteral, "prefix"};
const BlockSchema kRetentionSchema = {"retention", "retention", kRetentionAttrs,
                                      &kRetentionNamespaceSchema, TokenKind::kEof, nullptr, true,
                                      &SpecFile::retention};
const BlockSchema* const kTopLevelBlocks[3] = {&kChaosSchema, &kPersistSchema,
                                               &kRetentionSchema};

const AttrSchema* FindAttr(const BlockSchema& block, std::string_view key) {
  for (const AttrSchema& attr : block.attrs) {
    if (key == attr.key) {
      return &attr;
    }
  }
  return nullptr;
}

}  // namespace osguard
