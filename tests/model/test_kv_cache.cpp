// KvCache storage: K is kept transposed (kt(b)[c * ldk(b) + j] is component
// c of key j) and V row-major. An unreserved cache that takes rows one at a
// time, or in uneven blocks, past several capacity doublings must keep every
// K and V bit, checked against a row-major record of what was appended; a
// reserved cache must never reallocate up to its reservation; memory_bytes
// reports capacity and logical_bytes the rows stored. transpose_keys, which
// writes K^T, must copy exactly the block it is given.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "model/kv_cache.hpp"

namespace haan::model {
namespace {

constexpr std::size_t kBlocks = 3;
constexpr std::size_t kDModel = 12;  // not a multiple of a SIMD width

std::vector<float> random_rows(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(rows * kDModel);
  rng.fill_gaussian(v, 0.0, 1.0);
  return v;
}

/// Row-major K and V of everything appended to one block.
struct Record {
  std::vector<float> k;
  std::vector<float> v;
};

/// Appends `rows` fresh rows to every block of `cache` and its record.
void append_rows(KvCache& cache, std::vector<Record>& record, std::size_t rows,
                 std::uint64_t seed) {
  for (std::size_t b = 0; b < cache.blocks(); ++b) {
    const std::vector<float> k = random_rows(rows, seed * 10 + 2 * b);
    const std::vector<float> v = random_rows(rows, seed * 10 + 2 * b + 1);
    cache.append(b, k, v);
    record[b].k.insert(record[b].k.end(), k.begin(), k.end());
    record[b].v.insert(record[b].v.end(), v.begin(), v.end());
  }
  cache.commit(rows);
}

/// Every cached K and V bit equals the record's.
void expect_matches(const KvCache& cache, const std::vector<Record>& record) {
  for (std::size_t b = 0; b < cache.blocks(); ++b) {
    const std::size_t rows = record[b].k.size() / kDModel;
    ASSERT_EQ(cache.rows(b), rows);
    ASSERT_GE(cache.ldk(b), rows);
    const float* kt = cache.kt(b);
    for (std::size_t j = 0; j < rows; ++j) {
      for (std::size_t c = 0; c < kDModel; ++c) {
        ASSERT_EQ(std::memcmp(&kt[c * cache.ldk(b) + j],
                              &record[b].k[j * kDModel + c], sizeof(float)),
                  0)
            << "block " << b << " key " << j << " component " << c;
      }
    }
    const auto v = cache.v(b);
    ASSERT_EQ(v.size(), record[b].v.size());
    ASSERT_EQ(std::memcmp(v.data(), record[b].v.data(),
                          v.size() * sizeof(float)),
              0)
        << "block " << b;
  }
}

TEST(KvCache, UnreservedCacheKeepsEveryBitAcrossDoublings) {
  KvCache cache(kBlocks, kDModel);
  std::vector<Record> record(kBlocks);
  std::vector<std::size_t> capacities;
  // One row at a time through the doublings at 1, 2, 4, ..., 64 rows.
  for (std::size_t step = 0; step < 100; ++step) {
    append_rows(cache, record, 1, step + 1);
    expect_matches(cache, record);
    if (capacities.empty() || capacities.back() != cache.ldk(0)) {
      capacities.push_back(cache.ldk(0));
    }
  }
  EXPECT_EQ(capacities,
            (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64, 128}));
  // Uneven blocks, one of which outgrows double the capacity at once.
  for (const std::size_t rows : {3u, 17u, 1u, 300u, 2u}) {
    append_rows(cache, record, rows, 1000 + rows);
    expect_matches(cache, record);
  }
  EXPECT_EQ(cache.position(), 100u + 3u + 17u + 1u + 300u + 2u);
}

TEST(KvCache, AReservedCacheNeverReallocates) {
  constexpr std::size_t kReserve = 50;
  KvCache cache(kBlocks, kDModel, kReserve);
  std::vector<const float*> bases;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    EXPECT_EQ(cache.ldk(b), kReserve);
    bases.push_back(cache.kt(b));
  }
  const std::size_t reserved_bytes = cache.memory_bytes();
  std::vector<Record> record(kBlocks);
  // A 30-row prefill, then one-row decode steps up to the reservation.
  append_rows(cache, record, 30, 1);
  for (std::size_t step = 0; step < kReserve - 30; ++step) {
    append_rows(cache, record, 1, step + 2);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      ASSERT_EQ(cache.kt(b), bases[b]) << "block " << b << " step " << step;
      ASSERT_EQ(cache.ldk(b), kReserve);
    }
    ASSERT_EQ(cache.memory_bytes(), reserved_bytes);
  }
  expect_matches(cache, record);
}

TEST(KvCache, MemoryBytesCountCapacityAndLogicalBytesCountRows) {
  KvCache bare(kBlocks, kDModel);
  EXPECT_EQ(bare.memory_bytes(), 0u);
  EXPECT_EQ(bare.logical_bytes(), 0u);

  KvCache reserved(kBlocks, kDModel, /*reserve_rows=*/64);
  EXPECT_EQ(reserved.memory_bytes(), kBlocks * 2 * 64 * kDModel * sizeof(float));
  EXPECT_EQ(reserved.logical_bytes(), 0u);

  std::vector<Record> bare_record(kBlocks);
  std::vector<Record> reserved_record(kBlocks);
  append_rows(bare, bare_record, 5, 7);
  append_rows(reserved, reserved_record, 5, 7);
  const std::size_t logical = kBlocks * 2 * 5 * kDModel * sizeof(float);
  EXPECT_EQ(bare.logical_bytes(), logical);
  EXPECT_EQ(reserved.logical_bytes(), logical);
  EXPECT_GE(bare.memory_bytes(), logical);
  EXPECT_EQ(reserved.memory_bytes(), kBlocks * 2 * 64 * kDModel * sizeof(float));
}

TEST(KvCache, TransposeKeysCopiesExactlyTheBlock) {
  constexpr float kSentinel = -12345.5f;
  // Row counts around the widths the attention tiles use, widths with and
  // without a SIMD-width multiple, and a K^T stride wider than the rows.
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u, 17u, 40u}) {
    for (const std::size_t d_model : {1u, 5u, 8u, 16u, 24u, 33u, 64u}) {
      const std::size_t ldk = rows + 6;
      common::Rng rng(rows * 100 + d_model);
      std::vector<float> k(rows * d_model);
      rng.fill_gaussian(k, 0.0, 1.0);
      std::vector<float> kt(d_model * ldk + 1, kSentinel);
      transpose_keys(k.data(), rows, d_model, kt.data(), ldk);
      for (std::size_t c = 0; c < d_model; ++c) {
        for (std::size_t j = 0; j < ldk; ++j) {
          const float want = j < rows ? k[j * d_model + c] : kSentinel;
          ASSERT_EQ(std::memcmp(&kt[c * ldk + j], &want, sizeof(float)), 0)
              << "rows=" << rows << " d_model=" << d_model << " at (" << c
              << ", " << j << ")";
        }
      }
      ASSERT_EQ(kt.back(), kSentinel);
    }
  }
}

}  // namespace
}  // namespace haan::model
