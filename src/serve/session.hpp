// Live per-request decode state. A Session is born when the scheduler admits
// a Request, carries its KV cache and pending-token state across steps (a
// step = one span of a packed forward: a prefill chunk or a single decode
// row), and dies when the last token is generated. The SessionTable owns all
// live sessions for a worker pool and accounts KV bytes resident so metrics
// can report cache pressure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/config.hpp"
#include "model/kv_cache.hpp"
#include "serve/request.hpp"

namespace haan::serve {

/// State of one request served incrementally. Owned by the SessionTable; at
/// any instant a session is EITHER inside exactly one worker's pack OR parked
/// in the scheduler's ready queue, so its fields need no lock of their own.
struct Session {
  Request request;
  model::KvCache cache;

  /// request.max_new_tokens clamped so fed tokens (prompt + all generated but
  /// the last) never exceed the model's max_seq_len.
  std::size_t max_new_tokens = 0;

  /// Tokens fed through the model so far (== cache.position()).
  std::size_t fed = 0;

  /// Stable storage for the single decode token a step feeds (spans point at
  /// this; `generated` may reallocate).
  int pending_token = -1;

  std::vector<int> generated;

  /// Running FNV-1a over the final hidden states of fed rows, in order.
  std::uint64_t hidden_hash = kChecksumSeed;

  /// Fed rows' final hidden states, accumulated only under keep_hidden.
  std::vector<float> hidden;

  double compute_us = 0.0;  ///< Σ forward durations of packs this session rode
  double ttft_us = 0.0;
  bool first_token_done = false;
  Clock::time_point last_token_at{};
  std::size_t steps = 0;

  /// KV bytes currently charged to the table's resident gauge.
  std::size_t kv_bytes_accounted = 0;

  std::size_t prompt_len() const { return request.tokens.size(); }
  bool prompt_done() const { return fed >= prompt_len(); }

  /// A session finishes when the prompt is fed and every token is generated.
  /// The last generated token is returned, never fed.
  bool finished() const {
    return prompt_done() && generated.size() >= max_new_tokens;
  }

  /// Rows the next step feeds: min(prefill_chunk, remaining prompt) while
  /// prefilling (prefill_chunk 0 = the whole remaining prompt), else 1 (the
  /// pending decode token).
  std::size_t next_rows(std::size_t prefill_chunk) const;
};

/// Registry of live sessions plus KV residency accounting. Thread-safe;
/// create/release serialize under one lock, but Session field access is
/// lock-free by the ownership rule above.
class SessionTable {
 public:
  /// `config` supplies KV cache shape and the max_seq_len decode clamp.
  explicit SessionTable(const model::ModelConfig& config);

  /// Admits a request: builds its KV cache, clamps max_new_tokens, stamps
  /// nothing. The returned pointer stays valid until release(id).
  Session* create(Request request);

  /// Removes a finished session, un-charging its KV bytes.
  void release(std::uint64_t id);

  std::size_t live() const;

  /// Re-charges `session`'s KV allocation to the resident gauge (call after
  /// each step; caches only grow).
  void account_kv(Session& session);

  /// KV bytes currently resident across live sessions (LOGICAL bytes — rows
  /// actually stored, not reserved capacity).
  std::size_t kv_bytes_resident() const;

  /// High watermark of kv_bytes_resident() over the table's lifetime.
  std::size_t max_kv_bytes() const;

 private:
  const std::size_t n_blocks_;
  const std::size_t d_model_;
  const std::size_t max_seq_len_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::size_t kv_bytes_ = 0;
  std::size_t max_kv_bytes_ = 0;
};

}  // namespace haan::serve
