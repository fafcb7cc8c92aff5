#include "serve/step_scheduler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace haan::serve {

StepScheduler::StepScheduler(RequestQueue& queue, SessionTable& sessions,
                             StepSchedulerConfig config)
    : queue_(queue),
      sessions_(sessions),
      config_(config),
      pool_(config.batching.policy) {
  HAAN_EXPECTS(config_.batching.max_batch > 0);
  HAAN_EXPECTS(config_.poll.count() > 0);
}

StepEntry StepScheduler::make_entry(Session* session) const {
  return {session, session->next_rows(config_.prefill_chunk),
          session->prompt_done()};
}

TryPopResult StepScheduler::drain_queue_into_pool() {
  for (;;) {
    Request request;
    const TryPopResult result = queue_.try_pop(request);
    if (result != TryPopResult::kItem) return result;
    pool_.push(std::move(request));
  }
}

std::optional<StepPack> StepScheduler::next_pack() {
  std::unique_lock<std::mutex> form(form_mu_);
  StepPack pack;
  std::optional<Clock::time_point> deadline;
  std::optional<bool> lane;
  std::optional<std::size_t> bin;
  bool relax_bin = false;
  std::size_t rows = 0;
  const std::size_t max_batch = config_.batching.max_batch;
  const std::size_t max_rows = config_.batching.max_rows;
  const SchedPolicy policy = config_.batching.policy.policy;
  const bool binned =
      policy == SchedPolicy::kBinned || policy == SchedPolicy::kEdf;

  for (;;) {
    // Work handed back after this snapshot (requeue / finish) bumps the
    // generation, so a wait below returns at once instead of missing a
    // notify that fired between a ready_ check and the wait.
    std::uint64_t seen_generation = 0;
    {
      std::lock_guard<std::mutex> state(state_mu_);
      seen_generation = work_generation_;
    }
    const auto work_returned = [&] {
      return work_generation_ != seen_generation;
    };
    const TryPopResult queue_state = drain_queue_into_pool();
    const Clock::time_point now = Clock::now();
    pool_.apply_admission(now, pack.shed);

    // The pack's provider lane is chosen lazily from whichever lane has
    // work, alternating between packs so neither lane starves the other.
    if (!lane.has_value()) {
      std::lock_guard<std::mutex> state(state_mu_);
      for (const bool candidate : {next_lane_, !next_lane_}) {
        if (!ready_[lane_index(candidate)].empty() ||
            pool_.has_lane(candidate)) {
          lane = candidate;
          pack.degraded = candidate;
          break;
        }
      }
    }

    bool budget_blocked = false;
    if (lane.has_value()) {
      // Ready sessions of this lane first (decode steps, continuing
      // prefills): finishing live sessions bounds KV residency and
      // inter-token latency; admission only uses leftover slots.
      {
        std::lock_guard<std::mutex> state(state_mu_);
        std::deque<Session*>& ready = ready_[lane_index(*lane)];
        while (pack.entries.size() < max_batch && !ready.empty()) {
          Session* session = ready.front();
          const std::size_t step_rows =
              session->next_rows(config_.prefill_chunk);
          if (max_rows > 0 && !pack.entries.empty() &&
              rows + step_rows > max_rows) {
            budget_blocked = true;
            break;
          }
          ready.pop_front();
          pack.entries.push_back(make_entry(session));
          rows += step_rows;
        }
      }
      // Admit new arrivals from the reorder pool under the policy order; the
      // first admission fixes the pack's length bin (binned/EDF).
      while (!budget_blocked && pack.entries.size() < max_batch) {
        const std::optional<std::size_t> index =
            pool_.select(now, *lane, bin, relax_bin);
        if (!index.has_value()) break;
        const std::size_t prompt_len = pool_.peek(*index).tokens.size();
        const std::size_t step_rows =
            config_.prefill_chunk == 0
                ? prompt_len
                : std::min(config_.prefill_chunk, prompt_len);
        if (max_rows > 0 && !pack.entries.empty() &&
            rows + step_rows > max_rows) {
          budget_blocked = true;
          break;
        }
        Request request = pool_.extract(*index);
        if (binned && !bin.has_value()) bin = pool_.bin_of(prompt_len);
        request.dequeued_at = now;
        Session* session = sessions_.create(std::move(request));
        {
          std::lock_guard<std::mutex> state(state_mu_);
          ++lane_live_[lane_index(*lane)];
        }
        pack.entries.push_back(make_entry(session));
        rows += step_rows;
      }
    }

    if (pack.entries.size() >= max_batch) break;
    if (budget_blocked) break;
    if (max_rows > 0 && rows >= max_rows) break;

    if (!pack.entries.empty()) {
      if (!deadline.has_value()) {
        deadline = now + config_.batching.max_wait;
      }
      if (now >= *deadline) {
        // Gather window expired: top off once from the nearest bins, then
        // ship whatever the pack holds.
        if (binned && bin.has_value() && !relax_bin) {
          relax_bin = true;
          continue;
        }
        break;
      }
      {
        // Close early when no other candidate work could join this pack:
        // nothing queued, no same-lane pending or ready work, and every
        // same-lane live session already aboard. Waiting out max_wait could
        // only pack future arrivals, and would charge every token of a lone
        // decode stream the full batching delay.
        std::lock_guard<std::mutex> state(state_mu_);
        if (!pool_.has_lane(*lane) && ready_[lane_index(*lane)].empty() &&
            lane_live_[lane_index(*lane)] == pack.entries.size()) {
          break;
        }
      }
      std::unique_lock<std::mutex> state(state_mu_);
      work_cv_.wait_for(
          state, std::min<Clock::duration>(config_.poll, *deadline - now),
          work_returned);
      continue;
    }

    // Empty-handed. Shed decisions made while looking for work ride out
    // immediately (a shed-only pack) rather than waiting on a serveable one.
    if (!pack.shed.empty()) {
      pack.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
      return pack;
    }
    // End-of-stream only once the queue is drained, the pool is empty AND
    // every session has finished — a closed queue still owes its live
    // decodes.
    if (queue_state == TryPopResult::kDrained && pool_.empty()) {
      std::lock_guard<std::mutex> state(state_mu_);
      if (ready_[0].empty() && ready_[1].empty() && sessions_.live() == 0) {
        return std::nullopt;
      }
    }
    std::unique_lock<std::mutex> state(state_mu_);
    work_cv_.wait_for(state, config_.poll, work_returned);
  }

  pack.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  HAAN_TRACE_SPAN("pack-form", "serve",
                  static_cast<std::uint32_t>(pack.sequence),
                  static_cast<std::uint32_t>(pack.entries.size()));
  next_lane_ = !*lane;  // alternate lanes across packs
  return pack;
}

void StepScheduler::requeue(Session* session) {
  HAAN_EXPECTS(session != nullptr && !session->finished());
  {
    std::lock_guard<std::mutex> state(state_mu_);
    ready_[lane_index(session->request.degraded)].push_back(session);
    ++work_generation_;
  }
  work_cv_.notify_all();
}

void StepScheduler::finish(Session* session) {
  // No finished() assert: the worker moves result fields (generated, hidden)
  // out of the session before retiring it.
  HAAN_EXPECTS(session != nullptr);
  const bool lane = session->request.degraded;
  sessions_.release(session->request.id);
  {
    std::lock_guard<std::mutex> state(state_mu_);
    HAAN_ASSERT(lane_live_[lane_index(lane)] > 0);
    --lane_live_[lane_index(lane)];
    ++work_generation_;
  }
  work_cv_.notify_all();
}

std::uint64_t StepScheduler::packs_formed() const {
  return next_sequence_.load(std::memory_order_relaxed);
}

}  // namespace haan::serve
