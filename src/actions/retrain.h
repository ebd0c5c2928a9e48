// Retrain queue: the RETRAIN action (A3).
//
// The paper envisions retraining as an *offline, asynchronous* process that
// "must be protected to prevent abuse from malicious processes by
// intentionally triggering frequent retraining" (§3.2). The queue therefore
// enforces, per model:
//   * a minimum interval between accepted requests (token-style throttle),
//   * a bound on outstanding requests (duplicates for the same model
//     coalesce rather than queue), and
//   * a global queue-depth cap.
// Consumers (the ML substrate's trainer loop) drain requests with Pop().

#ifndef SRC_ACTIONS_RETRAIN_H_
#define SRC_ACTIONS_RETRAIN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

struct RetrainRequest {
  std::string model;
  std::string data_key;  // feature-store key naming the new training window
  SimTime requested_at = 0;
};

struct RetrainQueueOptions {
  // Minimum simulated time between accepted requests for one model.
  Duration min_interval = Seconds(60);
  // Global cap on outstanding (un-popped) requests.
  size_t max_depth = 64;
};

struct RetrainQueueStats {
  uint64_t accepted = 0;
  uint64_t throttled = 0;   // rejected by min_interval
  uint64_t coalesced = 0;   // duplicate for an already-queued model
  uint64_t overflowed = 0;  // rejected by max_depth
  uint64_t drained = 0;
};

// Full queue state in deterministic (sorted) order, for osguard::persist.
// The throttle map matters across a reboot: forgetting last_accepted would
// let a crash bypass the §3.2 anti-abuse rate limit.
struct RetrainQueueState {
  std::vector<RetrainRequest> queue;  // FIFO order
  std::vector<std::pair<std::string, SimTime>> last_accepted;  // sorted by model
  std::vector<std::pair<std::string, int>> queued_count;       // sorted by model
  RetrainQueueStats stats;
};

class RetrainQueue {
 public:
  explicit RetrainQueue(RetrainQueueOptions options = {}) : options_(options) {}
  RetrainQueue(const RetrainQueue&) = delete;
  RetrainQueue& operator=(const RetrainQueue&) = delete;

  // Requests retraining of `model` on `data_key`. Returns true if the
  // request was queued, false if it was throttled/coalesced/overflowed
  // (never an error — RETRAIN is best-effort by design).
  bool Request(const std::string& model, const std::string& data_key, SimTime now);

  // Next request to service, FIFO. nullopt when empty.
  std::optional<RetrainRequest> Pop();

  size_t depth() const;
  RetrainQueueStats stats() const;
  void Clear();

  // --- Persistence (osguard::persist) ---
  void RestoreState(const RetrainQueueState& state);
  // Calls fn(queue, last_accepted, queued_count, stats) with the queue's
  // state (the maps in model order, as the engine image lists them)
  // under its lock and without copying. `fn` must not call back into the
  // queue.
  template <typename Fn>
  void VisitState(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    fn(queue_, last_accepted_, queued_count_, stats_);
  }

 private:
  RetrainQueueOptions options_;
  mutable std::mutex mu_;
  std::deque<RetrainRequest> queue_;
  // Ordered, so the persisted image walks them in place.
  std::map<std::string, SimTime> last_accepted_;
  std::map<std::string, int> queued_count_;
  RetrainQueueStats stats_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_RETRAIN_H_
