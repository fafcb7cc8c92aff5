// Request/result types flowing through the serving runtime. A Request is a
// token prompt plus its workload arrival offset; the runtime stamps queue
// timestamps on it as it moves. A RequestResult carries the latency breakdown
// and a checksum of the final hidden states so multi-threaded runs can be
// compared bit-for-bit against a single-threaded reference.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

namespace haan::serve {

using Clock = std::chrono::steady_clock;

/// One inference request.
struct Request {
  std::uint64_t id = 0;
  std::vector<int> tokens;

  /// Tokens to greedily decode after the prompt (0 = prefill-only request,
  /// the pre-decode behavior). Served incrementally: the prompt prefills the
  /// session's KV cache (possibly in chunks), then each generated token feeds
  /// back as a single-row decode step. The runtime clamps this so the fed
  /// sequence never exceeds the model's max_seq_len.
  std::size_t max_new_tokens = 0;

  /// Arrival offset from workload start, microseconds (open-loop pacing).
  double arrival_us = 0.0;

  /// Scheduling class, higher = more urgent. EDF formation orders by
  /// effective priority (priority plus a time-based aging credit, so lower
  /// classes cannot starve) before deadline slack.
  int priority = 0;

  /// Latency budget from enqueue, microseconds (0 = no deadline). Admission
  /// control may shed or degrade a request whose remaining slack crosses the
  /// policy thresholds; requests without a deadline are never shed/degraded.
  double deadline_us = 0.0;

  /// Workload tenant id (multi-tenant mixes; 0 when single-tenant).
  std::uint32_t tenant = 0;

  /// Stamped sticky by admission control: serve on the cheaper degrade
  /// provider. Degraded and normal requests never share a pack (one pack
  /// runs exactly one provider).
  bool degraded = false;

  /// Stamped by the server when the request enters the queue.
  Clock::time_point enqueued_at{};

  /// Stamped by the scheduler when the request leaves the queue into a batch.
  Clock::time_point dequeued_at{};
};

/// Completion record for one request.
struct RequestResult {
  std::uint64_t id = 0;
  std::size_t worker = 0;       ///< worker index that executed the request
  std::uint64_t batch = 0;      ///< batch sequence number it rode in
  std::size_t batch_size = 0;   ///< size of that batch
  std::size_t prompt_len = 0;

  /// FNV-1a over the raw bits of the final hidden states of every FED row, in
  /// position order. For prefill-only requests that is the prompt's (L x
  /// d_model) hidden block, exactly as before; for decode requests the fed
  /// rows are prompt + generated[0..n-2] (the last generated token is
  /// returned but never fed), and incremental execution accumulates the hash
  /// step by step — bit-identical to hashing a one-shot forward over the same
  /// fed tokens.
  std::uint64_t hidden_checksum = 0;

  /// Greedily decoded tokens (argmax over tied-embedding logits), length
  /// max_new_tokens after clamping; empty for prefill-only requests.
  std::vector<int> generated;

  /// Time to first token: enqueue -> completion of the step that consumed the
  /// last prompt token (the first decoded token's step, or the final prefill
  /// chunk for prefill-only requests). Zero in reference mode.
  double ttft_us = 0.0;

  /// Full final hidden states of the fed rows, kept only when the server's
  /// keep_hidden flag is set (tests); empty otherwise to bound memory.
  std::vector<float> hidden;

  double queue_us = 0.0;    ///< enqueue -> dequeue (batch formation)
  double compute_us = 0.0;  ///< forward pass (summed over steps for sessions)
  double total_us = 0.0;    ///< enqueue -> completion

  int priority = 0;           ///< scheduling class (copied from the request)
  std::uint32_t tenant = 0;   ///< workload tenant (copied from the request)
  bool degraded = false;      ///< served on the cheap degrade provider
  bool shed = false;          ///< completed UNSERVED by admission control
                              ///< (no forward ran; checksum/hidden empty)
  bool rejected = false;      ///< completed UNSERVED at enqueue: the prompt
                              ///< was empty, longer than the model's
                              ///< max_seq_len, or held a token outside its
                              ///< vocabulary (no forward ran)
  bool failed = false;        ///< completed UNSERVED because its pack's
                              ///< forward threw (checksum/hidden empty)
  bool deadline_missed = false;  ///< had a deadline and finished past it
};

/// FNV-1a seed for checksum_floats (the offset basis); pass a previous
/// checksum as `seed` to continue hashing across row chunks.
inline constexpr std::uint64_t kChecksumSeed = 0xCBF29CE484222325ULL;

/// FNV-1a over the bit patterns of a float span. Bit-exact: two runs agree
/// iff every float is binary-identical. Chaining invariant:
/// checksum_floats(ab) == checksum_floats(b, checksum_floats(a)).
inline std::uint64_t checksum_floats(std::span<const float> values,
                                     std::uint64_t seed = kChecksumSeed) {
  std::uint64_t hash = seed;
  for (const float v : values) {
    std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

/// Microseconds between two clock points (negative-clamped to 0).
inline double elapsed_us(Clock::time_point from, Clock::time_point to) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(to - from);
  const double us = static_cast<double>(ns.count()) / 1000.0;
  return us < 0.0 ? 0.0 : us;
}

}  // namespace haan::serve
