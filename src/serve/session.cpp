#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "mem/topology.hpp"

namespace haan::serve {

std::size_t Session::next_rows(std::size_t prefill_chunk) const {
  HAAN_EXPECTS(!finished());
  if (!prompt_done()) {
    const std::size_t remaining = prompt_len() - fed;
    return prefill_chunk == 0 ? remaining : std::min(prefill_chunk, remaining);
  }
  return 1;
}

SessionTable::SessionTable(const model::ModelConfig& config,
                           mem::ArenaPool& kv_pool)
    : n_blocks_(config.n_blocks),
      d_model_(config.d_model),
      max_seq_len_(config.max_seq_len),
      kv_pool_(kv_pool) {}

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
  if (mem::placement_enabled()) {
    mem::ArenaOptions opts;
    // K + V per block, plus headroom for allocator rounding. A recycled arena
    // ignores this and grows (then consolidates) if the session outsizes it.
    opts.initial_bytes =
        n_blocks_ * 2 * reserve_rows * d_model_ * sizeof(float) + (64 << 10);
    // node stays -1: pages are placed by first touch on the worker that
    // prefills the session, which is where decode steps will read them.
    opts.interleave = mem::numa_mode() == mem::NumaMode::kInterleave;
    session->kv_arena = kv_pool_.acquire(opts);
    session->kv_arena_base = session->kv_arena->stats();
  }
  session->cache = model::KvCache(n_blocks_, d_model_, session->kv_arena.get(),
                                  reserve_rows);
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
  // Destroy the session (and its cache) while the arena is still alive, then
  // reset the arena — consolidating it to one slab at its high watermark —
  // and return it to the pool for the next create().
  std::unique_ptr<mem::Arena> arena = std::move(dead->kv_arena);
  const mem::ArenaStats base = dead->kv_arena_base;
  dead.reset();
  if (arena) {
    arena->reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_usage_.add_counters(arena->stats().since(base));
    }
    kv_pool_.release(std::move(arena));
  }
}

std::size_t SessionTable::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void SessionTable::account_kv(Session& session) {
  // Logical bytes (rows stored), not allocator capacity: capacity depends on
  // whether an arena or the heap backs the cache, and the resident gauge must
  // compare across HAAN_NUMA modes.
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

mem::ArenaStats SessionTable::arena_usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return released_usage_;
}

}  // namespace haan::serve
