// SLA-aware pack-formation policy: the reorder buffer and admission-control
// decisions behind the StepScheduler. Three formation orders
// are supported — FIFO (arrival order, the legacy behavior), BINNED
// (length-aware: a batch anchors on the oldest pending request and fills from
// its prompt-length bin, so packs carry near-uniform sequence lengths and
// forward_hidden_batch wastes less work on ragged tails), and EDF
// (earliest-deadline-first within the same bins: effective priority first,
// then remaining deadline slack, with time-based aging so low-priority
// requests cannot starve). Admission control runs on every formation pass:
// requests whose remaining slack crosses the configured thresholds are
// degraded (rerouted to a cheaper norm provider lane) or shed (completed
// unserved with shed=true).
//
// Reordering never touches numerics: policies change WHICH requests share a
// pack, and per-request outputs are bit-identical under any pack composition
// (the PR 4/6 invariant), so FIFO/binned/EDF runs all match the
// single-threaded reference oracle bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace haan::serve {

/// Batch/pack formation order.
enum class SchedPolicy {
  kFifo,    ///< strict arrival order (the legacy scheduler)
  kBinned,  ///< oldest request anchors, batch fills from its length bin
  kEdf,     ///< earliest-deadline-first (priority, then slack) within bins
};

std::optional<SchedPolicy> try_policy_from_string(const std::string& name);
SchedPolicy policy_from_string(const std::string& name);  ///< aborts on unknown
std::string to_string(SchedPolicy policy);

/// Admission-control outcome for one pending request.
enum class OverloadAction {
  kServe,    ///< meets its deadline (or has none): serve normally
  kDegrade,  ///< slack below degrade threshold: serve on the cheap provider
  kShed,     ///< slack below shed threshold: complete unserved
};

/// Policy knobs, carried inside SchedulerConfig.
struct PolicyConfig {
  SchedPolicy policy = SchedPolicy::kFifo;

  /// Prompt-length bin width for kBinned/kEdf (bin = len / bin_width). Wider
  /// bins trade pack uniformity for fill speed. Must be > 0.
  std::size_t bin_width = 16;

  /// EDF anti-starvation: a request gains +1 effective priority per aging_us
  /// waited (0 = aging off). Bounds how long sustained high-priority load can
  /// overtake a low-priority request.
  double aging_us = 0.0;

  /// Overload admission control (only requests WITH a deadline are ever shed
  /// or degraded). Shed takes precedence over degrade.
  bool allow_shed = false;
  bool allow_degrade = false;

  /// Shed when remaining slack (deadline_us - waited_us) < this. The default
  /// 0 sheds exactly the requests that have already missed their deadline.
  double shed_slack_us = 0.0;

  /// Degrade when remaining slack < this (and shed did not fire). Set it to
  /// roughly the cheap provider's latency advantage.
  double degrade_slack_us = 0.0;
};

/// Pure admission decision for a request with `slack_us` microseconds of
/// remaining deadline budget. Monotone in slack: as slack shrinks a request
/// escalates serve -> degrade -> shed and never de-escalates (the scheduler
/// stamps degrade stickily).
OverloadAction decide_admission(double slack_us, bool has_deadline,
                                const PolicyConfig& config);

/// Policy-ordered reorder buffer between the FIFO RequestQueue and batch
/// formation. NOT thread-safe: the owning scheduler serializes all access
/// under its formation lock. Selection is an O(n) scan (pending sets are
/// bounded by queue capacity, and the comparator depends on `now`).
class PendingPool {
 public:
  explicit PendingPool(PolicyConfig config);

  void push(Request request);

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Prompt-length bin index.
  std::size_t bin_of(std::size_t prompt_len) const {
    return prompt_len / config_.bin_width;
  }

  /// True when some pending request has `degraded == lane`.
  bool has_lane(bool lane) const;

  /// One admission-control pass over every pending request at `now`:
  /// requests past the shed threshold move (stamped dequeued_at = now) into
  /// `shed`; requests past the degrade threshold get degraded stamped sticky.
  /// Emits "shed"/"degrade" trace instants carrying the deadline slack.
  void apply_admission(Clock::time_point now, std::vector<Request>& shed);

  /// Index of the next request under the policy order, or nullopt if no
  /// pending request matches the constraints. `lane` (when set) is a hard
  /// filter on the degraded flag — degraded and normal requests never share
  /// a pack (a pack runs exactly one provider). `bin` (when set) restricts
  /// to that prompt-length bin; with `relax_bin` the nearest bins become
  /// eligible instead (top-off after the gather window expires), preferring
  /// smaller bin distance before the policy order.
  std::optional<std::size_t> select(Clock::time_point now,
                                    std::optional<bool> lane,
                                    std::optional<std::size_t> bin,
                                    bool relax_bin) const;

  const Request& peek(std::size_t index) const {
    return entries_[index].request;
  }

  /// Removes and returns the request at `index` (from select()).
  Request extract(std::size_t index);

  /// Effective priority at `now`: priority plus the aging credit
  /// floor(waited_us / aging_us). Exposed for tests.
  double effective_priority(const Request& request,
                            Clock::time_point now) const;

  /// Remaining deadline budget at `now` (+infinity when no deadline).
  static double slack_us(const Request& request, Clock::time_point now);

  const PolicyConfig& config() const { return config_; }

 private:
  struct Entry {
    Request request;
    std::uint64_t seq = 0;  ///< insertion order (FIFO tie-break)
  };

  PolicyConfig config_;
  std::deque<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace haan::serve
