// Per-sequence attention K/V cache for chunked prefill and incremental
// decode. One KvCache accompanies one live sequence across forward steps:
// each transformer block appends the K/V projections of the step's new rows
// during attention, and commit() advances the committed position once every
// block has appended. Cached rows are the exact float bits the block computed,
// so a partial forward over new rows attends over precisely the values a
// one-shot forward would have recomputed — the foundation of the runtime's
// bit-identity guarantee for incremental decoding.
//
// The serve-side SessionTable builds each session's cache with a row
// reservation covering the session's whole lifetime, so every layer allocates
// exactly once and decode-step appends never reallocate.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace haan::model {

/// Append-only K/V storage, one (rows x d_model) pair per transformer block.
class KvCache {
 public:
  KvCache() = default;

  /// Sized for `n_blocks` attention layers of width `d_model`.
  /// `reserve_rows` pre-reserves capacity for that many rows per block so
  /// appends up to the reservation never reallocate.
  KvCache(std::size_t n_blocks, std::size_t d_model,
          std::size_t reserve_rows = 0);

  bool valid() const { return d_model_ > 0; }
  std::size_t blocks() const { return layers_.size(); }
  std::size_t d_model() const { return d_model_; }

  /// Committed sequence length: rows every block holds after the last
  /// commit(). The next step's rows continue at this token position.
  std::size_t position() const { return position_; }

  /// Rows currently stored for `block` (>= position() mid-step, after this
  /// step's append and before commit()).
  std::size_t rows(std::size_t block) const;

  /// All cached K rows of `block` as one contiguous (rows x d_model) span.
  std::span<const float> k(std::size_t block) const;
  std::span<const float> v(std::size_t block) const;

  /// Appends equally-sized row blocks to `block`'s K and V storage.
  void append(std::size_t block, std::span<const float> k_rows,
              std::span<const float> v_rows);

  /// Commits one step of `rows` new rows: every block must have appended
  /// exactly `rows` rows since the previous commit.
  void commit(std::size_t rows);

  /// Bytes RESERVED for K/V storage (vector capacity). Reports cache
  /// pressure; for cross-baseline comparisons use logical_bytes().
  std::size_t memory_bytes() const;

  /// Bytes of K/V rows actually stored (size, not capacity) — independent of
  /// any reservation, so serve residency metrics compare across baselines.
  std::size_t logical_bytes() const;

 private:
  struct LayerKV {
    std::vector<float> k;
    std::vector<float> v;
  };
  std::vector<LayerKV> layers_;
  std::size_t d_model_ = 0;
  std::size_t position_ = 0;
};

}  // namespace haan::model
