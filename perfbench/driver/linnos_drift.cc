// linnos-drift: the paper's Fig. 2 run with the Listing-2 guardrail.
//
// LinnOS predicts slow I/Os on the primary and fails them over to the
// replica. At the drift point the primary's GC pressure rises 25x; the
// Listing-2 TIMER(1s) guardrail sees the false-submit rate pass 5% and
// turns the model off. The trace is Fig. 2's: 2000 I/O/s, Zipf 0.6, 5%
// writes, kBeforeDrift + kAfterDrift long. The pre-drift phase is the
// longer one so that most I/Os run with the model on: with equal phases the
// model-on and model-off modes split the I/Os about evenly, and the p50 sat
// on the boundary between them and moved by half from seed to seed. Per I/O
// the caller pumps Kernel::Run to the I/O's arrival time and submits it
// with BlockLayer::SubmitIo; the two calls are one timed callout. The
// engine evaluates about once per simulated second here, so the simulator,
// the model and the feature-store write path do nearly all the work.
//
// Setup (timed as setup_s): train the model on a clean trace, build the
// kernel, devices and block layer, bind the learned policy and load the
// guardrail. Every kTrainEvery-th pass runs this whole setup; the passes in
// between build a fresh rig around the latest model. Training is
// deterministic, so every pass uses the same model. Interleaving the
// setups spreads them over the run, and keeping most passes short gives
// each callout's best time many samples.
//
// Oracle: the library's own Fig. 2 harness (RunLinnosConfiguration) on the
// same options and model must give the same block-layer counters, trigger
// time and final model state.

#include <memory>

#include "driver/harness.h"
#include "src/linnos/harness.h"
#include "src/linnos/policy.h"
#include "src/sim/blk_layer.h"
#include "src/sim/kernel.h"
#include "src/wl/iogen.h"

namespace perfbench {
namespace {

using osguard::BlockLayer;
using osguard::BlockLayerStats;
using osguard::IoRequest;
using osguard::Kernel;
using osguard::LinnosModel;

constexpr osguard::Duration kBeforeDrift = osguard::Seconds(15);
constexpr osguard::Duration kAfterDrift = osguard::Seconds(5);
constexpr uint64_t kTrainEvery = 8;

osguard::Figure2Options MakeOptions(uint64_t seed) {
  osguard::Figure2Options options;
  options.before_drift = kBeforeDrift;
  options.after_drift = kAfterDrift;
  options.trace_seed = DeriveSeed(seed, 0x11);
  options.device.seed = DeriveSeed(seed, 0x12);
  return options;
}

// The evaluation trace, generated exactly as RunLinnosConfiguration does.
std::vector<IoRequest> MakeTrace(const osguard::Figure2Options& options) {
  osguard::IoPhase phase;
  phase.duration = options.before_drift + options.after_drift;
  phase.arrivals_per_sec = options.arrivals_per_sec;
  phase.write_fraction = 0.05;
  phase.zipf_skew = 0.6;
  return osguard::IoTraceGenerator({phase}, options.trace_seed).Generate();
}

// Times each prediction of the learned policy and counts them. Registered
// in place of LinnosSubmitPolicy (same name) in traced passes only.
class TracedPolicy : public osguard::IoSubmitPolicy {
 public:
  TracedPolicy(std::shared_ptr<osguard::LinnosSubmitPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::string name() const override { return inner_->name(); }
  bool is_learned() const override { return true; }
  bool PredictSlow(const osguard::IoContext& context) override {
    Scope<true> span(tracer_, Layer::kPredict);
    ++predictions_;
    last_prediction_at_ = context.now;
    return inner_->PredictSlow(context);
  }
  osguard::Duration inference_cost() const override { return inner_->inference_cost(); }

  uint64_t predictions() const { return predictions_; }
  osguard::SimTime last_prediction_at() const { return last_prediction_at_; }

 private:
  std::shared_ptr<osguard::LinnosSubmitPolicy> inner_;
  Tracer* tracer_;
  uint64_t predictions_ = 0;
  osguard::SimTime last_prediction_at_ = -1;
};

// One kernel with devices, block layer, bound policy and loaded guardrail.
struct Rig {
  explicit Rig(const osguard::Figure2Options& options)
      : primary("primary", options.device),
        replica("replica", ReplicaConfig(options.device)),
        blk(kernel, &primary, &replica, options.blk) {}

  static osguard::SsdConfig ReplicaConfig(osguard::SsdConfig config) {
    config.seed += 1;
    return config;
  }

  Kernel kernel;
  osguard::SsdDevice primary;
  osguard::SsdDevice replica;
  BlockLayer blk;
};

template <bool kTraced>
bool BuildRig(Rig& rig, const osguard::Figure2Options& options,
              std::shared_ptr<osguard::IoSubmitPolicy> policy, Tracer* tracer) {
  if (!rig.kernel.registry().Register(policy).ok() ||
      !rig.kernel.registry().BindSlot(options.blk.policy_slot, policy->name()).ok()) {
    return false;
  }
  Scope<kTraced> span(tracer, Layer::kLoad);
  return rig.kernel.LoadGuardrails(osguard::kListing2Guardrail).ok();
}

struct LinnosDecisions {
  uint64_t digest = 0;
  BlockLayerStats blk;
  double trigger_time_s = -1.0;
  bool ml_enabled_at_end = true;
};

LinnosDecisions Decide(Rig& rig) {
  LinnosDecisions out;
  out.blk = rig.blk.stats();
  out.ml_enabled_at_end = rig.kernel.store()
                              .LoadOr("blk.ml_enabled", osguard::Value(true))
                              .AsBool()
                              .value_or(true);
  for (const osguard::ReportRecord& record : rig.kernel.engine().reporter().Records()) {
    if (record.kind == osguard::ReportKind::kViolation) {
      out.trigger_time_s = osguard::ToSeconds(record.time);
      break;
    }
  }
  Digest digest;
  DigestEngine(digest, rig.kernel.engine());
  const BlockLayerStats& s = out.blk;
  digest.Add("blk.total_ios", s.total_ios);
  digest.Add("blk.model_decisions", s.model_decisions);
  digest.Add("blk.redirects", s.redirects);
  digest.Add("blk.revokes", s.revokes);
  digest.Add("blk.false_submits", s.false_submits);
  digest.Add("blk.slow_ios", s.slow_ios);
  digest.Add("blk.io_errors", s.io_errors);
  digest.Add("blk.mispredictions", s.mispredictions);
  digest.Add("blk.inference_ns_total", s.inference_ns_total);
  digest.Add("blk.latency_ns_total", s.latency_ns_total);
  digest.Add("trigger_time_s", out.trigger_time_s);
  digest.Add("ml_enabled_at_end", static_cast<uint64_t>(out.ml_enabled_at_end));
  out.digest = digest.Hash();
  return out;
}

struct Workload {
  osguard::Figure2Options options;
  std::vector<IoRequest> trace;
  osguard::IoPhase baseline;  // the training trace's phase
  osguard::TrainingRunOptions training;
  std::shared_ptr<LinnosModel> model;  // trained by the latest setup
  uint64_t passes = 0;
};

template <bool kTraced>
PassStats RunPass(Workload& w, CalloutTimes* times, Tracer* tracer, LinnosDecisions* decisions) {
  PassStats pass;
  if constexpr (kTraced) {
    tracer->Reset();
  }
  const uint64_t logs_before = LogRecords();
  const int64_t setup_start = NowNs();
  const bool train = w.passes++ % kTrainEvery == 0;
  int64_t trained = setup_start;
  if (train) {
    auto model = osguard::TrainLinnosModel(w.baseline, w.training, w.options.model);
    trained = NowNs();
    if (!model.ok()) {
      w.model.reset();
      pass.failed = 1;
      return pass;
    }
    w.model = std::move(model).value();
  }
  auto learned = std::make_shared<osguard::LinnosSubmitPolicy>(w.model);
  std::shared_ptr<osguard::IoSubmitPolicy> policy = learned;
  std::shared_ptr<TracedPolicy> traced_policy;
  if constexpr (kTraced) {
    traced_policy = std::make_shared<TracedPolicy>(learned, tracer);
    policy = traced_policy;
  }
  Rig rig(w.options);
  const bool built = BuildRig<kTraced>(rig, w.options, policy, tracer);
  if (train) {
    pass.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
    pass.sums["ml.train_s"] = static_cast<double>(trained - setup_start) / 1e9;
  }
  const double factor = w.options.drift_gc_factor;
  rig.kernel.queue().ScheduleAt(w.options.before_drift, [&rig, factor](osguard::SimTime) {
    rig.primary.ScaleGcPressure(factor);
  });

  const int64_t loop_start = NowNs();
  int64_t step_start = loop_start;
  for (size_t i = 0; i < w.trace.size(); ++i) {
    const IoRequest& request = w.trace[i];
    const int64_t start = NowNs();
    {
      Scope<kTraced> callout(tracer, Layer::kCallout);
      {
        Scope<kTraced> span(tracer, Layer::kRun);
        rig.kernel.Run(request.at);
      }
      {
        Scope<kTraced> span(tracer, Layer::kSubmitIo);
        rig.blk.SubmitIo(request.lba, request.is_write);
      }
    }
    const int64_t end = NowNs();
    times->Record(i, end - start, end - step_start);
    step_start = end;
  }
  pass.loop_ns = NowNs() - loop_start;
  rig.kernel.Run(w.options.before_drift + w.options.after_drift);
  pass.callouts = w.trace.size();
  pass.failed = EngineFaults(rig.kernel.engine()) + (built ? 0 : 1);
  *decisions = Decide(rig);
  pass.digest = decisions->digest;
  SumEngineCounters(rig.kernel.engine(), pass.sums);
  pass.sums["actions.log_records"] = static_cast<double>(LogRecords() - logs_before);
  if constexpr (kTraced) {
    pass.sums["ml.predictions"] = static_cast<double>(traced_policy->predictions());
    pass.sums["ml.last_prediction_s"] = osguard::ToSeconds(traced_policy->last_prediction_at());
  }
  return pass;
}

}  // namespace

Outcome RunLinnosDrift(const Args& args) {
  Outcome outcome;
  Workload w;
  w.options = MakeOptions(args.seed);
  w.trace = MakeTrace(w.options);

  // Offline training on a clean baseline-phase trace, as Fig. 2 does, with
  // a seed of its own.
  w.training.device = w.options.device;
  w.training.blk = w.options.blk;
  w.training.trace_seed = DeriveSeed(args.seed, 0x13);
  w.training.duration = osguard::Seconds(10);
  w.training.arrivals_per_sec = w.options.arrivals_per_sec;
  w.baseline = osguard::MakeDriftPhases(w.options.before_drift, w.options.after_drift,
                                        w.options.arrivals_per_sec)[0];

  PassLog log;
  Tracer tracer;
  tracer.Reserve(w.trace.size() * 5 + 16);
  LinnosDecisions decisions;
  RunPasses(
      args, log, w.trace.size(),
      [&](CalloutTimes* times) { return RunPass<false>(w, times, nullptr, &decisions); },
      [&](CalloutTimes* times) {
        PassStats pass = RunPass<true>(w, times, &tracer, &decisions);
        tracer.Accumulate(log.layers);
        return pass;
      });

  if (w.model == nullptr) {
    outcome.Fail("model training failed");
    Finish(args, outcome, log, tracer, Layer::kRun);
    return outcome;
  }
  // Oracle: the library's Fig. 2 harness on the same options and model.
  auto reference =
      osguard::RunLinnosConfiguration(w.options, w.model, osguard::kListing2Guardrail);
  if (!reference.ok()) {
    outcome.Fail("reference run failed: " + reference.status().ToString());
  } else {
    const osguard::LinnosRunResult& ref = reference.value();
    const BlockLayerStats& a = decisions.blk;
    const BlockLayerStats& b = ref.blk;
    if (a.total_ios != b.total_ios || a.model_decisions != b.model_decisions ||
        a.redirects != b.redirects || a.revokes != b.revokes ||
        a.false_submits != b.false_submits || a.slow_ios != b.slow_ios ||
        a.latency_ns_total != b.latency_ns_total ||
        a.inference_ns_total != b.inference_ns_total) {
      outcome.Fail("block-layer counters differ from the Fig. 2 harness");
    }
    if (decisions.trigger_time_s != ref.trigger_time_s ||
        decisions.ml_enabled_at_end != ref.ml_enabled_at_end) {
      outcome.Fail("guardrail trigger differs from the Fig. 2 harness");
    }
  }
  const double drift_s = osguard::ToSeconds(w.options.before_drift);
  if (decisions.trigger_time_s < drift_s) {
    outcome.Fail("guardrail did not trip after the drift");
  }
  if (decisions.ml_enabled_at_end) {
    outcome.Fail("model still enabled at the end of the run");
  }
  CheckDigests(outcome, log, decisions.digest, "last pass");

  Finish(args, outcome, log, tracer, Layer::kRun);
  if (args.trace) {
    auto& m = outcome.metrics;
    m["sim.run_us"] = MeanSpanNs(log, Layer::kRun) / 1e3;
    m["sim.blk_self_us"] = MeanSelfNs(log, Layer::kSubmitIo) / 1e3;
    m["ml.predict_ns"] = MeanSpanNs(log, Layer::kPredict);
    m["ml.predictions"] = LastPass(log, "ml.predictions");
    // Tracing does not reach into training, so every setup of the run counts.
    std::vector<double> train_s;
    for (const std::vector<PassStats>* passes : {&log.untraced, &log.traced}) {
      for (const PassStats& pass : *passes) {
        if (auto it = pass.sums.find("ml.train_s"); it != pass.sums.end()) {
          train_s.push_back(it->second);
        }
      }
    }
    m["ml.train_s"] = Best(train_s, /*highest=*/false);
    // The guardrail turns the model off: no prediction may follow the trip.
    if (LastPass(log, "ml.last_prediction_s") > decisions.trigger_time_s) {
      outcome.Fail("model predicted after the guardrail tripped");
    }
  }
  return outcome;
}

}  // namespace perfbench
