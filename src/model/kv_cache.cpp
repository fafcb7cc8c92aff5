#include "model/kv_cache.hpp"

#include "common/assert.hpp"

namespace haan::model {

KvCache::KvCache(std::size_t n_blocks, std::size_t d_model,
                 std::size_t reserve_rows)
    : layers_(n_blocks), d_model_(d_model) {
  HAAN_EXPECTS(d_model > 0);
  if (reserve_rows == 0) return;
  for (LayerKV& layer : layers_) {
    layer.k.reserve(reserve_rows * d_model_);
    layer.v.reserve(reserve_rows * d_model_);
  }
}

std::size_t KvCache::rows(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].k.size() / d_model_;
}

std::span<const float> KvCache::k(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].k;
}

std::span<const float> KvCache::v(std::size_t block) const {
  HAAN_EXPECTS(block < layers_.size());
  return layers_[block].v;
}

void KvCache::append(std::size_t block, std::span<const float> k_rows,
                     std::span<const float> v_rows) {
  HAAN_EXPECTS(block < layers_.size());
  HAAN_EXPECTS(k_rows.size() == v_rows.size());
  HAAN_EXPECTS(k_rows.size() % d_model_ == 0);
  LayerKV& layer = layers_[block];
  layer.k.insert(layer.k.end(), k_rows.begin(), k_rows.end());
  layer.v.insert(layer.v.end(), v_rows.begin(), v_rows.end());
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
    bytes += (layer.k.capacity() + layer.v.capacity()) * sizeof(float);
  }
  return bytes;
}

std::size_t KvCache::logical_bytes() const {
  std::size_t bytes = 0;
  for (const LayerKV& layer : layers_) {
    bytes += (layer.k.size() + layer.v.size()) * sizeof(float);
  }
  return bytes;
}

}  // namespace haan::model
