#include "serve/policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace haan::serve {

std::optional<SchedPolicy> try_policy_from_string(const std::string& name) {
  if (name == "fifo") return SchedPolicy::kFifo;
  if (name == "binned") return SchedPolicy::kBinned;
  if (name == "edf") return SchedPolicy::kEdf;
  return std::nullopt;
}

SchedPolicy policy_from_string(const std::string& name) {
  const auto policy = try_policy_from_string(name);
  HAAN_EXPECTS(policy.has_value() &&
               "unknown policy (expected fifo | binned | edf)");
  return *policy;
}

std::string to_string(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kBinned: return "binned";
    case SchedPolicy::kEdf: return "edf";
  }
  return "?";
}

OverloadAction decide_admission(double slack_us, bool has_deadline,
                                const PolicyConfig& config) {
  // Requests without a deadline made no latency promise; there is nothing to
  // protect by dropping them, so they always serve (at EDF's lowest urgency).
  if (!has_deadline) return OverloadAction::kServe;
  if (config.allow_shed && slack_us < config.shed_slack_us) {
    return OverloadAction::kShed;
  }
  if (config.allow_degrade && slack_us < config.degrade_slack_us) {
    return OverloadAction::kDegrade;
  }
  return OverloadAction::kServe;
}

PendingPool::PendingPool(PolicyConfig config) : config_(config) {
  HAAN_EXPECTS(config_.bin_width > 0);
  HAAN_EXPECTS(config_.aging_us >= 0.0);
}

void PendingPool::push(Request request) {
  entries_.push_back(Entry{std::move(request), next_seq_++});
}

bool PendingPool::has_lane(bool lane) const {
  return std::any_of(entries_.begin(), entries_.end(), [lane](const Entry& e) {
    return e.request.degraded == lane;
  });
}

double PendingPool::slack_us(const Request& request, Clock::time_point now) {
  if (request.deadline_us <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return request.deadline_us - elapsed_us(request.enqueued_at, now);
}

double PendingPool::effective_priority(const Request& request,
                                       Clock::time_point now) const {
  double priority = static_cast<double>(request.priority);
  if (config_.aging_us > 0.0) {
    priority += std::floor(elapsed_us(request.enqueued_at, now) / config_.aging_us);
  }
  return priority;
}

void PendingPool::apply_admission(Clock::time_point now,
                                  std::vector<Request>& shed) {
  if (!config_.allow_shed && !config_.allow_degrade) return;
  for (std::size_t i = 0; i < entries_.size();) {
    Request& request = entries_[i].request;
    const bool has_deadline = request.deadline_us > 0.0;
    const double slack = slack_us(request, now);
    const OverloadAction action = decide_admission(slack, has_deadline, config_);
    if (action == OverloadAction::kShed) {
      obs::instant("shed", "serve", static_cast<std::uint32_t>(request.id),
                   static_cast<std::uint32_t>(std::min(
                       std::max(-slack, 0.0),
                       static_cast<double>(std::numeric_limits<std::uint32_t>::max()))));
      request.dequeued_at = now;
      shed.push_back(std::move(request));
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (action == OverloadAction::kDegrade && !request.degraded) {
      obs::instant("degrade", "serve", static_cast<std::uint32_t>(request.id),
                   static_cast<std::uint32_t>(std::min(
                       std::max(slack, 0.0),
                       static_cast<double>(std::numeric_limits<std::uint32_t>::max()))));
      request.degraded = true;  // sticky: slack only shrinks from here
    }
    ++i;
  }
}

std::optional<std::size_t> PendingPool::select(Clock::time_point now,
                                               std::optional<bool> lane,
                                               std::optional<std::size_t> bin,
                                               bool relax_bin) const {
  // Lexicographic key, smaller = served earlier: bin distance (0 unless
  // relaxing onto neighbor bins), then the policy order — EDF ranks by
  // effective priority (descending, so negated) then slack then insertion;
  // FIFO/binned rank by insertion alone.
  using Key = std::tuple<std::size_t, double, double, std::uint64_t>;
  std::optional<std::size_t> best;
  Key best_key{};
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (lane.has_value() && entry.request.degraded != *lane) continue;
    std::size_t distance = 0;
    if (bin.has_value()) {
      const std::size_t entry_bin = bin_of(entry.request.tokens.size());
      distance = entry_bin > *bin ? entry_bin - *bin : *bin - entry_bin;
      if (distance != 0 && !relax_bin) continue;
    }
    Key key{distance, 0.0, 0.0, entry.seq};
    if (config_.policy == SchedPolicy::kEdf) {
      key = Key{distance, -effective_priority(entry.request, now),
                slack_us(entry.request, now), entry.seq};
    }
    if (!best.has_value() || key < best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

Request PendingPool::extract(std::size_t index) {
  HAAN_EXPECTS(index < entries_.size());
  Request request = std::move(entries_[index].request);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  return request;
}

}  // namespace haan::serve
