#include "model/kv_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace haan::model {

void transpose_keys(const float* k_rows, std::size_t rows, std::size_t d_model,
                    float* kt, std::size_t ldk) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < d_model; ++c) {
      kt[c * ldk + i] = k_rows[i * d_model + c];
    }
  }
}

KvCache::KvCache(std::size_t n_blocks, std::size_t d_model,
                 std::size_t reserve_rows)
    : layers_(n_blocks), d_model_(d_model) {
  HAAN_EXPECTS(d_model > 0);
  if (reserve_rows == 0) return;
  for (LayerKV& layer : layers_) {
    // Not value-initialised: a session's reservation costs one malloc, and
    // its pages are touched only as rows arrive.
    layer.kt = std::make_unique_for_overwrite<float[]>(d_model_ * reserve_rows);
    layer.capacity = reserve_rows;
    layer.v.reserve(reserve_rows * d_model_);
  }
}

std::size_t KvCache::rows(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].rows;
}

const float* KvCache::kt(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].kt.get();
}

std::size_t KvCache::ldk(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].capacity;
}

std::span<const float> KvCache::v(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].v;
}

void KvCache::grow(LayerKV& layer, std::size_t rows) {
  const std::size_t capacity = std::max(rows, 2 * layer.capacity);
  auto kt = std::make_unique_for_overwrite<float[]>(d_model_ * capacity);
  for (std::size_t c = 0; c < d_model_; ++c) {
    std::copy_n(layer.kt.get() + c * layer.capacity, layer.rows,
                kt.get() + c * capacity);
  }
  layer.kt = std::move(kt);
  layer.capacity = capacity;
}

void KvCache::append(std::size_t block, std::span<const float> k_rows,
                     std::span<const float> v_rows) {
  HAAN_EXPECTS(block < layers_.size());
  HAAN_EXPECTS(k_rows.size() == v_rows.size());
  HAAN_EXPECTS(k_rows.size() % d_model_ == 0);
  const std::size_t n = k_rows.size() / d_model_;
  LayerKV& layer = layers_[block];
  if (layer.rows + n > layer.capacity) grow(layer, layer.rows + n);
  transpose_keys(k_rows.data(), n, d_model_, layer.kt.get() + layer.rows,
                 layer.capacity);
  layer.v.insert(layer.v.end(), v_rows.begin(), v_rows.end());
  layer.rows += n;
}

void KvCache::commit(std::size_t rows) {
  const std::size_t expected = position_ + rows;
  for (std::size_t b = 0; b < layers_.size(); ++b) {
    HAAN_EXPECTS(this->rows(b) == expected);
  }
  position_ = expected;
}

std::size_t KvCache::memory_bytes() const {
  std::size_t bytes = 0;
  for (const LayerKV& layer : layers_) {
    bytes += (layer.capacity * d_model_ + layer.v.capacity()) * sizeof(float);
  }
  return bytes;
}

std::size_t KvCache::logical_bytes() const {
  std::size_t bytes = 0;
  for (const LayerKV& layer : layers_) {
    bytes += (layer.rows * d_model_ + layer.v.size()) * sizeof(float);
  }
  return bytes;
}

}  // namespace haan::model
