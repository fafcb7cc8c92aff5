// Per-sequence attention K/V cache for chunked prefill and incremental
// decode. One KvCache accompanies one live sequence across forward steps:
// each transformer block appends the K/V projections of the step's new rows
// during attention, and commit() advances the committed position once every
// block has appended. Cached rows are the exact float bits the block computed,
// so a partial forward over new rows attends over precisely the values a
// one-shot forward would have recomputed — the foundation of the runtime's
// bit-identity guarantee for incremental decoding.
//
// K is stored once, transposed, in the layout causal_attention reads
// (kernels.hpp): each block keeps K^T as a (d_model x capacity) buffer, key j
// in column j, so head h is rows [h*d_head, (h+1)*d_head) and a decode step
// attends over it without copying. append() writes new K rows transposed
// (transpose_keys). V stays row-major (rows x d_model).
//
// The serve-side SessionTable builds each session's cache with a row
// reservation covering the session's whole lifetime, so every layer allocates
// exactly once and decode-step appends never reallocate. An unreserved cache
// doubles a block's capacity when an append outgrows it and re-lays out the
// rows it holds.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace haan::model {

/// Writes `rows` row-major K rows (row stride d_model) into K^T at `kt`, row
/// stride ldk >= rows: component c of row i goes to kt[c * ldk + i]. A bit
/// copy; kt must not overlap k_rows. KvCache::append and a cache-free span's
/// attention write the K^T layout causal_attention reads through it.
void transpose_keys(const float* k_rows, std::size_t rows, std::size_t d_model,
                    float* kt, std::size_t ldk);

/// Append-only K/V storage, one K^T / V pair per transformer block.
class KvCache {
 public:
  KvCache() = default;

  /// Sized for `n_blocks` attention layers of width `d_model`.
  /// `reserve_rows` sets every block's capacity to that many rows up front
  /// (left uninitialised), so appends up to the reservation never reallocate.
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

  /// `block`'s cached K, transposed: component c of key j at
  /// kt(block)[c * ldk(block) + j] for j < rows(block). Columns past
  /// rows(block) are unspecified. Valid until the next append to `block`.
  const float* kt(std::size_t block) const;

  /// Row stride of kt(block): the block's capacity in rows.
  std::size_t ldk(std::size_t block) const;

  /// All cached V rows of `block` as one contiguous (rows x d_model) span.
  std::span<const float> v(std::size_t block) const;

  /// Appends equally-sized row-major (rows x d_model) blocks to `block`'s K
  /// and V storage.
  void append(std::size_t block, std::span<const float> k_rows,
              std::span<const float> v_rows);

  /// Commits one step of `rows` new rows: every block must have appended
  /// exactly `rows` rows since the previous commit.
  void commit(std::size_t rows);

  /// Bytes RESERVED for K/V storage (capacity). Reports cache pressure; for
  /// cross-baseline comparisons use logical_bytes().
  std::size_t memory_bytes() const;

  /// Bytes of K/V rows actually stored (rows, not capacity) — independent of
  /// any reservation, so serve residency metrics compare across baselines.
  std::size_t logical_bytes() const;

 private:
  struct LayerKV {
    std::unique_ptr<float[]> kt;  // d_model x capacity
    std::size_t capacity = 0;
    std::size_t rows = 0;
    std::vector<float> v;
  };
  /// Gives `layer` room for `rows` rows, doubling its capacity (at least).
  void grow(LayerKV& layer, std::size_t rows);

  std::vector<LayerKV> layers_;
  std::size_t d_model_ = 0;
  std::size_t position_ = 0;
};

}  // namespace haan::model
