// RowPartitionPool: partition arithmetic (full coverage, no overlap, min-rows
// respected), parallel execution correctness across thread counts, inline
// degeneration for serial pools and small blocks, and the HAAN_NORM_THREADS
// environment override.
#include "model/row_partition.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace haan::model {
namespace {

TEST(RowPartitionPool, ChunkBoundsCoverEveryRowExactlyOnce) {
  for (std::size_t rows : {1u, 2u, 7u, 16u, 61u, 128u, 1000u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 4u, 7u}) {
      if (chunks > rows) continue;
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, count] = RowPartitionPool::chunk_bounds(rows, chunks, c);
        EXPECT_EQ(begin, expected_begin) << rows << "/" << chunks << "/" << c;
        EXPECT_GT(count, 0u);
        expected_begin = begin + count;
        covered += count;
      }
      EXPECT_EQ(covered, rows) << rows << "/" << chunks;
    }
  }
}

TEST(RowPartitionPool, PlanChunksRespectsMinRowsAndCap) {
  // 100 rows, min 30 per chunk -> at most 3 chunks even with 8 threads.
  EXPECT_EQ(RowPartitionPool::plan_chunks(100, 30, 8), 3u);
  // Cap binds before min-rows.
  EXPECT_EQ(RowPartitionPool::plan_chunks(1000, 10, 4), 4u);
  // Fewer rows than one chunk's minimum -> single inline chunk.
  EXPECT_EQ(RowPartitionPool::plan_chunks(5, 30, 8), 1u);
  EXPECT_EQ(RowPartitionPool::plan_chunks(100, 30, 1), 1u);
  EXPECT_EQ(RowPartitionPool::plan_chunks(0, 30, 4), 0u);
}

TEST(RowPartitionPool, ForRowsTouchesEveryRowOnceAcrossThreadCounts) {
  for (std::size_t threads : {1u, 2u, 3u, 5u}) {
    RowPartitionPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    const std::size_t rows = 97;  // prime
    std::vector<std::atomic<int>> touched(rows);
    pool.for_rows(rows, /*min_rows=*/1,
                  [&](std::size_t, std::size_t r0, std::size_t nr) {
      for (std::size_t r = r0; r < r0 + nr; ++r) touched[r].fetch_add(1);
    });
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(touched[r].load(), 1) << "threads=" << threads << " row " << r;
    }
  }
}

TEST(RowPartitionPool, ReusableAcrossManyDispatches) {
  RowPartitionPool pool(4);
  // Many generations through the same pool (the per-layer call pattern).
  std::atomic<std::size_t> total{0};
  for (int layer = 0; layer < 200; ++layer) {
    pool.for_rows(64, 1, [&](std::size_t, std::size_t, std::size_t nr) {
      total.fetch_add(nr);
    });
  }
  EXPECT_EQ(total.load(), 200u * 64u);
}

TEST(RowPartitionPool, ChunkExceptionReachesCallerAfterEveryChunkFinished) {
  // Whichever chunk throws (inline chunk 0 or a pool thread's), the other
  // chunks still run to completion before for_rows rethrows, and the pool
  // keeps serving afterwards.
  RowPartitionPool pool(4);
  for (const std::size_t bad_chunk : {0u, 2u}) {
    std::atomic<std::size_t> rows_done{0};
    EXPECT_THROW(
        pool.for_rows(64, 1,
                      [&](std::size_t chunk, std::size_t, std::size_t nr) {
                        if (chunk == bad_chunk) throw std::runtime_error("chunk");
                        rows_done.fetch_add(nr);
                      }),
        std::runtime_error)
        << "chunk " << bad_chunk;
    EXPECT_EQ(rows_done.load(), 48u) << "chunk " << bad_chunk;
  }
  std::atomic<std::size_t> total{0};
  pool.for_rows(64, 1, [&](std::size_t, std::size_t, std::size_t nr) {
    total.fetch_add(nr);
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(RowPartitionPool, SmallBlocksRunInlineAsOneChunk) {
  RowPartitionPool pool(4);
  std::size_t calls = 0;
  std::size_t chunk_seen = 99;
  // min_rows larger than the block -> exactly one inline chunk (chunk 0).
  pool.for_rows(8, /*min_rows=*/64, [&](std::size_t chunk, std::size_t r0,
                                        std::size_t nr) {
    ++calls;
    chunk_seen = chunk;
    EXPECT_EQ(r0, 0u);
    EXPECT_EQ(nr, 8u);
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(chunk_seen, 0u);
}

TEST(RowPartitionPool, ZeroRowsIsANoop) {
  RowPartitionPool pool(2);
  bool called = false;
  pool.for_rows(0, 1, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(RowPartitionPool, DefaultThreadsHonorsEnvironment) {
  ::setenv("HAAN_NORM_THREADS", "3", 1);
  EXPECT_EQ(RowPartitionPool::default_threads(), 3u);
  ::setenv("HAAN_NORM_THREADS", "1", 1);
  EXPECT_EQ(RowPartitionPool::default_threads(), 1u);
  ::unsetenv("HAAN_NORM_THREADS");
  EXPECT_GE(RowPartitionPool::default_threads(), 1u);
  EXPECT_LE(RowPartitionPool::default_threads(), 4u);
}

TEST(RowPartitionPool, AffinityBaseParsesEnvironment) {
  ::setenv("HAAN_NORM_AFFINITY", "0", 1);
#ifdef __linux__
  EXPECT_EQ(RowPartitionPool::affinity_base(), 0);
  ::setenv("HAAN_NORM_AFFINITY", "2", 1);
  EXPECT_EQ(RowPartitionPool::affinity_base(), 2);
#else
  EXPECT_EQ(RowPartitionPool::affinity_base(), -1);
#endif
  ::setenv("HAAN_NORM_AFFINITY", "garbage", 1);
  EXPECT_EQ(RowPartitionPool::affinity_base(), -1);
  ::setenv("HAAN_NORM_AFFINITY", "-3", 1);
  EXPECT_EQ(RowPartitionPool::affinity_base(), -1);
  ::unsetenv("HAAN_NORM_AFFINITY");
  EXPECT_EQ(RowPartitionPool::affinity_base(), -1);
}

TEST(RowPartitionPool, PinnedWorkersProduceIdenticalResults) {
  // Pinning is a placement hint only: a pool built with affinity enabled must
  // partition and execute exactly like an unpinned one (and must not crash on
  // machines with fewer CPUs than workers — pins wrap modulo the online
  // count, and pin failures are logged and ignored).
  const std::size_t rows = 61;
  std::vector<int> unpinned(rows, 0);
  {
    RowPartitionPool pool(3);
    pool.for_rows(rows, 1, [&](std::size_t, std::size_t r0, std::size_t nr) {
      for (std::size_t r = r0; r < r0 + nr; ++r) unpinned[r] = static_cast<int>(r);
    });
  }

  ::setenv("HAAN_NORM_AFFINITY", "0", 1);
  std::vector<int> pinned(rows, -1);
  {
    RowPartitionPool pool(3);  // workers pin at spawn from the env
    pool.for_rows(rows, 1, [&](std::size_t, std::size_t r0, std::size_t nr) {
      for (std::size_t r = r0; r < r0 + nr; ++r) pinned[r] = static_cast<int>(r);
    });
  }
  ::unsetenv("HAAN_NORM_AFFINITY");
  EXPECT_EQ(pinned, unpinned);
}

TEST(RowPartitionPool, MinPartitionRowsScalesInverselyWithWidth) {
  EXPECT_EQ(min_partition_rows(8192), 1u);
  EXPECT_EQ(min_partition_rows(4096), 2u);
  EXPECT_EQ(min_partition_rows(32), 256u);
  EXPECT_GE(min_partition_rows(0), 1u);
}

}  // namespace
}  // namespace haan::model
