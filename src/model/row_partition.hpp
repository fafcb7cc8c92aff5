// Worker-local row parallelism for the row-block normalization seam. Once a
// norm layer's per-layer state is hoisted (skip plan, predictor resolution,
// statistics width, kernel backend), the remaining work is embarrassingly
// parallel over rows, so large packed blocks are split into contiguous row
// chunks executed on a small private thread pool. Chunk boundaries depend only
// on (rows, min_rows, threads) and every kernel in the seam is row-wise, so
// results are bit-identical for ANY thread count — including 1, which runs
// everything inline on the calling thread.
//
// The pool is deliberately worker-local (one per NormProvider, which is one
// per serving worker): chunks never contend with another provider's work, and
// no cross-worker synchronization is introduced on the norm hot path. Its
// size comes from threads_per_worker(), so workers x pool threads stays
// within the online CPUs; threads are never pinned.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace haan::model {

/// Upper bound on a pool's thread count (and on serving workers): callers
/// validate outside input against it before building pools.
inline constexpr std::size_t kMaxThreads = 256;

/// Row-partition threads per serving worker: clamp(cpus / workers, 1, 4), so
/// `workers` pools together never ask for more threads than there are online
/// CPUs (the cap of 4 is the largest pool measured to pay). The one place a
/// norm thread count of 0 ("auto") is resolved.
std::size_t threads_per_worker(
    std::size_t workers, std::size_t cpus = std::thread::hardware_concurrency());

/// Splits contiguous row ranges across a private thread pool. Not reentrant:
/// one for_rows() at a time per pool (providers are single-caller by design).
class RowPartitionPool {
 public:
  /// fn(chunk, row_begin, rows): process rows [row_begin, row_begin + rows).
  /// `chunk` < threads() identifies the executing slot, so callers can hand
  /// each chunk its own scratch workspace.
  using ChunkFn =
      std::function<void(std::size_t chunk, std::size_t row_begin, std::size_t rows)>;

  /// `threads` in [1, kMaxThreads]. Threads are started lazily on the first
  /// partitioned call, so serial users never pay for them.
  explicit RowPartitionPool(std::size_t threads);
  ~RowPartitionPool();

  RowPartitionPool(const RowPartitionPool&) = delete;
  RowPartitionPool& operator=(const RowPartitionPool&) = delete;

  std::size_t threads() const { return threads_; }

  /// Invokes `fn` over a partition of [0, rows) into at most threads()
  /// contiguous chunks of at least `min_rows` rows each (the last chunk may
  /// be larger); blocks until every chunk finished. Runs inline when the
  /// partition degenerates to one chunk. Chunk 0 always executes on the
  /// calling thread. If a chunk throws, the rest still finish and the first
  /// exception is rethrown to the caller.
  void for_rows(std::size_t rows, std::size_t min_rows, const ChunkFn& fn);

  /// Number of chunks for_rows would use (pure partition arithmetic).
  static std::size_t plan_chunks(std::size_t rows, std::size_t min_rows,
                                 std::size_t max_chunks);

  /// (row_begin, rows) of chunk `c` in an even partition of `rows` rows into
  /// `chunks` chunks (first rows % chunks chunks get one extra row).
  static std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t rows,
                                                          std::size_t chunks,
                                                          std::size_t c);

 private:
  void worker_main(std::size_t worker_index);
  void start_threads();  ///< idempotent, called under no lock on the hot path

  std::size_t threads_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new generation
  std::condition_variable done_cv_;  ///< caller waits for pending_ == 0
  std::uint64_t generation_ = 0;
  const ChunkFn* job_ = nullptr;
  std::size_t job_rows_ = 0;
  std::size_t job_chunks_ = 0;
  std::size_t pending_ = 0;
  std::exception_ptr job_error_;  ///< first exception a pool-thread chunk threw
  bool shutdown_ = false;
};

/// Minimum rows per chunk so a chunk amortizes its dispatch wakeup: at least
/// ~8K elements of work per chunk for width `d`.
inline std::size_t min_partition_rows(std::size_t d) {
  constexpr std::size_t kMinElementsPerChunk = 8192;
  return d == 0 ? 1 : (kMinElementsPerChunk + d - 1) / d;
}

}  // namespace haan::model
