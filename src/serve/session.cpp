#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"

namespace haan::serve {

std::size_t Session::next_rows(std::size_t prefill_chunk) const {
  HAAN_EXPECTS(!finished());
  if (!prompt_done()) {
    const std::size_t remaining = prompt_len() - fed;
    return prefill_chunk == 0 ? remaining : std::min(prefill_chunk, remaining);
  }
  return 1;
}

SessionTable::SessionTable(const model::ModelConfig& config)
    : n_blocks_(config.n_blocks),
      d_model_(config.d_model),
      max_seq_len_(config.max_seq_len) {}

Session* SessionTable::create(Request request) {
  HAAN_EXPECTS(!request.tokens.empty());
  HAAN_EXPECTS(request.tokens.size() <= max_seq_len_);
  auto session = std::make_unique<Session>();
  // Fed tokens = prompt + (max_new - 1) decode feeds; clamp so the sequence
  // fits the model's positional range.
  const std::size_t decode_cap = max_seq_len_ - request.tokens.size() + 1;
  session->max_new_tokens = std::min(request.max_new_tokens, decode_cap);
  // The cache never stores more rows than prompt + max_new - 1 (the last
  // generated token is returned, never fed), so reserving prompt + max_new
  // rows makes every layer allocate exactly once.
  const std::size_t reserve_rows =
      request.tokens.size() + session->max_new_tokens;
  session->cache = model::KvCache(n_blocks_, d_model_, reserve_rows);
  session->request = std::move(request);
  Session* raw = session.get();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      sessions_.emplace(raw->request.id, std::move(session));
  HAAN_EXPECTS(inserted);
  (void)it;
  return raw;
}

void SessionTable::release(std::uint64_t id) {
  std::unique_ptr<Session> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    HAAN_EXPECTS(it != sessions_.end());
    kv_bytes_ -= it->second->kv_bytes_accounted;
    dead = std::move(it->second);
    sessions_.erase(it);
  }
  // `dead` (and its KV cache) is freed here, outside the lock.
}

std::size_t SessionTable::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionTable::account_kv(Session& session) {
  // Logical bytes (rows stored), not the reserved capacity, so the gauge
  // tracks the rows a session has actually fed.
  const std::size_t bytes = session.cache.logical_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  kv_bytes_ += bytes - session.kv_bytes_accounted;
  session.kv_bytes_accounted = bytes;
  max_kv_bytes_ = std::max(max_kv_bytes_, kv_bytes_);
}

std::size_t SessionTable::kv_bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kv_bytes_;
}

std::size_t SessionTable::max_kv_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_kv_bytes_;
}

}  // namespace haan::serve
