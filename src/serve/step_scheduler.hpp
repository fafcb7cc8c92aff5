// Step scheduler: continuous batching over LIVE SESSIONS. Every request
// becomes a session on admission, and the scheduler hands each worker a PACK
// of per-session steps — prefill chunks of some sessions mixed with
// single-row decode steps of others — that the worker executes as one packed
// forward, so every norm layer amortizes across all sessions aboard. Sessions
// needing more steps are requeued by the worker after each pack;
// end-of-stream drains them to completion (a closed queue never drops a live
// decode).
//
// A pack opens on the first step it takes and closes when it holds max_batch
// sessions, when the row budget is reached, when max_wait has elapsed, or
// early when no other work could join it.
//
// Admission order is a policy (serve/policy.hpp): FIFO admits in arrival
// order; binned/EDF admit from the policy reorder pool, with the first
// admission fixing the pack's prompt-length bin. Admission control may shed
// deadline-missing arrivals (they ride out in StepPack.shed, never becoming
// sessions) or degrade them onto the cheap-provider lane; a pack is
// lane-uniform (one provider per pack) and formation alternates lanes so
// neither starves.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/policy.hpp"
#include "serve/queue.hpp"
#include "serve/session.hpp"

namespace haan::serve {

/// Batching knobs shared by every pack.
struct SchedulerConfig {
  /// Maximum sessions per pack; must be > 0.
  std::size_t max_batch = 8;

  /// Maximum time to hold an open pack waiting for more work.
  std::chrono::microseconds max_wait{1000};

  /// Row budget: cap on the rows one pack feeds (0 = unlimited). With a
  /// budget, mixed-length FIFO packs exhaust rows with few sessions while
  /// binned packs fill every max_batch slot — the lever that lets length
  /// binning raise pack occupancy.
  std::size_t max_rows = 0;

  /// Formation order + overload admission control (serve/policy.hpp).
  PolicyConfig policy;
};

/// Pack formation knobs.
struct StepSchedulerConfig {
  /// Batching knobs: max sessions per pack, max hold on an open pack, row
  /// budget, and the formation policy (SchedulerConfig.policy).
  SchedulerConfig batching;

  /// Prompt rows a prefill step feeds (0 = the whole remaining prompt in one
  /// step). Smaller chunks interleave long prompts with live decodes at the
  /// cost of more steps per prompt.
  std::size_t prefill_chunk = 0;

  /// Poll quantum while waiting for work that cannot signal the scheduler
  /// directly (new queue arrivals); bounds idle wake-up latency.
  std::chrono::microseconds poll{200};
};

/// One session's contribution to a pack.
struct StepEntry {
  Session* session = nullptr;
  std::size_t rows = 0;  ///< rows this step feeds (1 for decode)
  bool decode = false;   ///< true: single generated-token row; false: prefill
};

/// One formed pack: the unit a worker executes as a single packed forward.
struct StepPack {
  std::uint64_t sequence = 0;  ///< monotone formation order
  std::vector<StepEntry> entries;

  /// True: every session aboard is degraded; the worker runs its degrade
  /// provider. Lanes never mix in one pack.
  bool degraded = false;

  /// Requests shed by admission control during this formation pass (never
  /// admitted as sessions). The worker records them as unserved results. A
  /// pack may carry shed requests and no entries.
  std::vector<Request> shed;
};

/// Pulls step packs from ready sessions + the request queue. Thread-safe:
/// workers call next_pack() concurrently (formation serialized);
/// requeue()/finish() are called by workers after executing a pack.
///
/// Scheduling policy: ready sessions (decode steps, continuing prefills) are
/// taken before new arrivals — finishing live sessions bounds KV residency
/// and inter-token latency; admission only uses leftover pack slots. An open
/// pack closes early when no other candidate work could join it (empty
/// same-lane ready queue and pool, empty request queue, every same-lane live
/// session already aboard), so a lone decode stream is not taxed max_wait
/// per token.
class StepScheduler {
 public:
  StepScheduler(RequestQueue& queue, SessionTable& sessions,
                StepSchedulerConfig config);

  /// Blocks for the next pack. Returns nullopt only at end-of-stream: queue
  /// closed AND drained AND reorder pool empty AND no live session remains
  /// (drain semantics — close() with live decodes keeps packing until they
  /// finish).
  std::optional<StepPack> next_pack();

  /// Returns an unfinished session to its lane's ready queue (worker,
  /// post-step).
  void requeue(Session* session);

  /// Retires a finished session: releases it from the table and wakes
  /// waiters (possibly onto end-of-stream).
  void finish(Session* session);

  std::uint64_t packs_formed() const;

  const StepSchedulerConfig& config() const { return config_; }

 private:
  StepEntry make_entry(Session* session) const;

  /// Drains everything currently queued into the pool without blocking;
  /// returns the queue state seen at the end (kEmpty or kDrained).
  TryPopResult drain_queue_into_pool();

  static std::size_t lane_index(bool degraded) { return degraded ? 1 : 0; }

  RequestQueue& queue_;
  SessionTable& sessions_;
  StepSchedulerConfig config_;

  std::mutex form_mu_;  ///< serializes pack formation
  PendingPool pool_;    ///< policy reorder buffer (guarded by form_mu_)
  bool next_lane_ = false;  ///< lane alternation cursor (form_mu_)

  std::mutex state_mu_;
  std::condition_variable work_cv_;
  std::deque<Session*> ready_[2];   ///< per-lane (normal / degraded)
  std::size_t lane_live_[2] = {0, 0};  ///< live sessions per lane
  /// Bumped by every requeue() / finish(); next_pack() waits for it to move.
  std::uint64_t work_generation_ = 0;

  std::atomic<std::uint64_t> next_sequence_{0};
};

}  // namespace haan::serve
