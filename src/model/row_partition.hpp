// Worker-local row parallelism for the row-block normalization seam. Once a
// norm layer's per-layer state is hoisted (skip plan, predictor resolution,
// statistics width, kernel backend), the remaining work is embarrassingly
// parallel over rows, so large packed blocks are split into contiguous row
// chunks executed on a small private thread pool. Chunk boundaries depend only
// on (rows, min_rows, threads) and every kernel in the seam is row-wise, so
// results are bit-identical for ANY thread count — including 1, which runs
// everything inline on the calling thread (the HAAN_NORM_THREADS=1 CI mode).
//
// The pool is deliberately worker-local (one per NormProvider, which is one
// per serving worker): chunks never contend with another provider's work, and
// no cross-worker synchronization is introduced on the norm hot path.
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

/// Splits contiguous row ranges across a private thread pool. Not reentrant:
/// one for_rows() at a time per pool (providers are single-caller by design).
class RowPartitionPool {
 public:
  /// fn(chunk, row_begin, rows): process rows [row_begin, row_begin + rows).
  /// `chunk` < threads() identifies the executing slot, so callers can hand
  /// each chunk its own scratch workspace.
  using ChunkFn =
      std::function<void(std::size_t chunk, std::size_t row_begin, std::size_t rows)>;

  /// `threads` = 0 picks default_threads(). Threads are started lazily on the
  /// first partitioned call, so serial users never pay for them.
  explicit RowPartitionPool(std::size_t threads = 0);
  ~RowPartitionPool();

  RowPartitionPool(const RowPartitionPool&) = delete;
  RowPartitionPool& operator=(const RowPartitionPool&) = delete;

  /// HAAN_NORM_THREADS from the environment when set to a positive integer
  /// (1 forces fully serial execution); otherwise min(4, hardware threads).
  static std::size_t default_threads();

  /// HAAN_NORM_AFFINITY from the environment: when set to a non-negative
  /// integer, pool WORKER threads are pinned round-robin WITHIN THE NUMA NODE
  /// owning that CPU (worker w -> the node's CPU list at (base_slot + 1 + w)
  /// mod node size; the calling thread — which runs chunk 0 — is never
  /// touched, its placement belongs to the serving runtime). The env var
  /// predates the topology module and used to walk ALL online CPUs linearly,
  /// silently splitting a pool across sockets; it now routes through
  /// mem::topology() and never leaves the base CPU's node. Returns -1 when
  /// unset/invalid or on non-Linux builds, where pinning is a no-op.
  ///
  /// Without the env var, a multi-node host pins workers
  /// round-robin within the node the pool's OWNER was on when threads
  /// started, keeping every chunk's stats/normalize pass node-local to the
  /// block the caller first touched. Pinning changes scheduling only, never
  /// results.
  static int affinity_base();

  std::size_t threads() const { return threads_; }

  /// Invokes `fn` over a partition of [0, rows) into at most threads()
  /// contiguous chunks of at least `min_rows` rows each (the last chunk may
  /// be larger); blocks until every chunk finished. Runs inline when the
  /// partition degenerates to one chunk. Chunk 0 always executes on the
  /// calling thread. If a chunk throws, the rest still finish and the first
  /// exception is rethrown to the caller.
  void for_rows(std::size_t rows, std::size_t min_rows, const ChunkFn& fn);

  /// Process-wide count of rows whose chunk executed on a different NUMA node
  /// than the pool owner's home node (0 on single-node hosts). Observability only — sampled by ServeMetrics.
  static std::uint64_t global_cross_node_rows();

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
  /// Topology node index of the owning thread when workers started (-1 until
  /// then / on single-node hosts); workers compare their own node
  /// against it for the cross-node row counter and node pinning.
  int home_node_ = -1;

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
