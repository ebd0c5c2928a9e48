#include "src/runtime/governor/governor.h"

#include <algorithm>

#include "src/support/logging.h"

namespace osguard {

std::string_view GovernorModeName(GovernorMode mode) {
  switch (mode) {
    case GovernorMode::kFull:
      return "full";
    case GovernorMode::kSampled:
      return "sampled";
    case GovernorMode::kCriticalOnly:
      return "critical-only";
    case GovernorMode::kFailStatic:
      return "fail-static";
  }
  return "?";
}

void OverloadGovernor::Configure(const GovernorOptions& options, ExportTable* exports) {
  options_ = options;
  options_.sample_every = std::max<uint64_t>(options_.sample_every, 1);
  options_.dwell_up = std::max(options_.dwell_up, 1);
  options_.dwell_down = std::max(options_.dwell_down, 1);
  options_.alpha = std::clamp(options_.alpha, 1e-6, 1.0);
  if (options_.enabled && exports != nullptr) {
    // The mode is written at the first boundary; the counters only once
    // they leave zero.
    exports_ = exports;
    x_mode_ = exports->Add("engine.governor.mode");
    x_transitions_ = exports->Add("engine.governor.transitions", /*already_published=*/true);
    x_sheds_ = exports->Add("engine.governor.sheds", /*already_published=*/true);
    x_static_ = exports->Add("engine.governor.static_applies", /*already_published=*/true);
  }
}

GovernorDecision OverloadGovernor::Admit(Criticality criticality, uint64_t attempt,
                                         uint64_t static_epoch_seen) {
  switch (mode_) {
    case GovernorMode::kFull:
      return GovernorDecision::kEvaluate;
    case GovernorMode::kSampled:
      if (criticality == Criticality::kBestEffort) {
        if ((attempt - 1) % options_.sample_every != 0) {
          ++stats_.sheds_besteffort;
          return GovernorDecision::kShed;
        }
        ++stats_.sampled_evals;
      }
      return GovernorDecision::kEvaluate;
    case GovernorMode::kCriticalOnly:
      if (criticality == Criticality::kCritical) {
        return GovernorDecision::kEvaluate;
      }
      if (criticality == Criticality::kBestEffort) {
        ++stats_.sheds_besteffort;
      } else {
        ++stats_.sheds_standard;
      }
      return GovernorDecision::kShed;
    case GovernorMode::kFailStatic:
      if (criticality == Criticality::kCritical) {
        if (static_epoch_seen != fail_static_epoch_) {
          // Entering this episode: the caller pins the corrective action as
          // the fail-static default (counted via CountStaticApply).
          return GovernorDecision::kStatic;
        }
        ++stats_.static_suppressed;
        return GovernorDecision::kShed;
      }
      if (criticality == Criticality::kBestEffort) {
        ++stats_.sheds_besteffort;
      } else {
        ++stats_.sheds_standard;
      }
      return GovernorDecision::kShed;
  }
  return GovernorDecision::kEvaluate;
}

void OverloadGovernor::OnCalloutEnd(SimTime now, uint64_t evals_cum, int64_t wall_cum_ns) {
  if (!options_.enabled) {
    return;
  }
  ++stats_.callouts;
  const double cost = options_.wall_cost
                          ? static_cast<double>(wall_cum_ns - last_wall_ns_)
                          : static_cast<double>(evals_cum - last_evals_);
  const double gap = static_cast<double>(std::max<SimTime>(now - last_now_, 1));
  last_evals_ = evals_cum;
  last_wall_ns_ = wall_cum_ns;
  last_now_ = now;
  const double depth =
      probe_ ? static_cast<double>(probe_()) : 0.0;
  const double bytes =
      bytes_probe_ ? static_cast<double>(bytes_probe_()) : 0.0;
  if (!primed_) {
    // Seed the EWMAs with the first observation instead of decaying up from
    // zero — the ladder must not spend its first dwell window blind.
    primed_ = true;
    cost_ewma_ = cost;
    gap_ewma_ = gap;
    depth_ewma_ = depth;
    bytes_ewma_ = bytes;
  } else {
    const double a = options_.alpha;
    cost_ewma_ = a * cost + (1.0 - a) * cost_ewma_;
    gap_ewma_ = a * gap + (1.0 - a) * gap_ewma_;
    depth_ewma_ = a * depth + (1.0 - a) * depth_ewma_;
    bytes_ewma_ = a * bytes + (1.0 - a) * bytes_ewma_;
  }
  // Pressure: cost per unit time. Sim mode: evaluations per simulated
  // second. Wall mode: host-busy ns per simulated ns (utilization ratio).
  pressure_ = options_.wall_cost
                  ? cost_ewma_ / std::max(gap_ewma_, 1.0)
                  : cost_ewma_ / std::max(gap_ewma_, 1.0) * 1e9;
  const double up = options_.wall_cost ? options_.wall_up : options_.pressure_up;
  const double down = options_.wall_cost ? options_.wall_down : options_.pressure_down;
  const bool bytes_gated = options_.store_bytes_up > 0.0;
  const bool over = pressure_ > up || depth_ewma_ > options_.depth_up ||
                    (bytes_gated && bytes_ewma_ > options_.store_bytes_up);
  const bool under = pressure_ < down && depth_ewma_ < options_.depth_down &&
                     (!bytes_gated || bytes_ewma_ < options_.store_bytes_down);
  streak_up_ = over ? streak_up_ + 1 : 0;
  streak_down_ = under ? streak_down_ + 1 : 0;
  if (over && streak_up_ >= options_.dwell_up && mode_ != GovernorMode::kFailStatic) {
    mode_ = static_cast<GovernorMode>(static_cast<uint8_t>(mode_) + 1);
    streak_up_ = 0;
    streak_down_ = 0;
    ++stats_.transitions;
    ++stats_.escalations;
    if (mode_ == GovernorMode::kFailStatic) {
      ++fail_static_epoch_;
    }
    OSGUARD_LOG(kDebug) << "governor escalated to " << GovernorModeName(mode_)
                        << " (pressure " << pressure_ << ", depth " << depth_ewma_ << ")";
  } else if (under && streak_down_ >= options_.dwell_down &&
             mode_ != GovernorMode::kFull) {
    mode_ = static_cast<GovernorMode>(static_cast<uint8_t>(mode_) - 1);
    streak_up_ = 0;
    streak_down_ = 0;
    ++stats_.transitions;
    ++stats_.deescalations;
    OSGUARD_LOG(kDebug) << "governor de-escalated to " << GovernorModeName(mode_)
                        << " (pressure " << pressure_ << ")";
  }
  if (exports_ != nullptr) {
    exports_->Set(x_mode_, static_cast<int64_t>(mode_));
    exports_->Set(x_transitions_, stats_.transitions);
    exports_->Set(x_sheds_, stats_.sheds_besteffort + stats_.sheds_standard +
                                stats_.static_suppressed);
    exports_->Set(x_static_, stats_.static_applies);
  }
}

GovernorImage OverloadGovernor::ExportState() const {
  GovernorImage image;
  image.mode = static_cast<uint8_t>(mode_);
  image.primed = primed_;
  image.cost_ewma = cost_ewma_;
  image.gap_ewma = gap_ewma_;
  image.depth_ewma = depth_ewma_;
  image.last_now = last_now_;
  image.last_evals = last_evals_;
  image.last_wall_ns = last_wall_ns_;
  image.bytes_ewma = bytes_ewma_;
  image.streak_up = streak_up_;
  image.streak_down = streak_down_;
  image.fail_static_epoch = fail_static_epoch_;
  image.stats = stats_;
  return image;
}

void OverloadGovernor::RestoreState(const GovernorImage& image) {
  mode_ = static_cast<GovernorMode>(
      std::min<uint8_t>(image.mode, static_cast<uint8_t>(GovernorMode::kFailStatic)));
  primed_ = image.primed;
  cost_ewma_ = image.cost_ewma;
  gap_ewma_ = image.gap_ewma;
  depth_ewma_ = image.depth_ewma;
  last_now_ = image.last_now;
  last_evals_ = image.last_evals;
  last_wall_ns_ = image.last_wall_ns;
  bytes_ewma_ = image.bytes_ewma;
  streak_up_ = image.streak_up;
  streak_down_ = image.streak_down;
  fail_static_epoch_ = image.fail_static_epoch;
  stats_ = image.stats;
}

}  // namespace osguard
