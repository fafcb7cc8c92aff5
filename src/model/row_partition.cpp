#include "model/row_partition.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "mem/topology.hpp"
#include "obs/trace.hpp"

namespace haan::model {
namespace {

std::atomic<std::uint64_t> g_cross_node_rows{0};

void pin_to_cpu(std::size_t worker_index, int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    HAAN_LOG_WARN_C("model") << "rowpool: failed to pin worker " << worker_index
                             << " to cpu " << cpu;
  }
#else
  (void)worker_index;
  (void)cpu;
#endif
}

/// Pins the calling pool worker. Explicit HAAN_NORM_AFFINITY wins and walks
/// the base CPU's OWN node round-robin (never crossing a socket — the
/// pre-topology behavior walked all online CPUs linearly and split pools
/// across nodes). Otherwise, on a multi-node host, workers are pinned
/// round-robin within the pool owner's home node. Failures are logged and
/// ignored — affinity is a locality hint, not a correctness requirement.
void pin_worker(std::size_t worker_index, int base, int home_node) {
  const mem::Topology& topo = mem::topology();
  if (base >= 0) {
    int node = topo.node_of_cpu(base);
    if (node < 0) node = 0;
    const std::vector<int>& cpus = topo.node(static_cast<std::size_t>(node)).cpus;
    if (cpus.empty()) return;
    const auto it = std::find(cpus.begin(), cpus.end(), base);
    const std::size_t base_slot =
        it == cpus.end() ? 0 : static_cast<std::size_t>(it - cpus.begin());
    pin_to_cpu(worker_index, cpus[(base_slot + 1 + worker_index) % cpus.size()]);
    return;
  }
  if (topo.nodes() > 1 && home_node >= 0) {
    // Slot 0 is morally the caller (which runs chunk 0 and is placed by the
    // serving runtime), so workers start at slot worker_index + 1.
    pin_to_cpu(worker_index,
               topo.cpu_for_slot(static_cast<std::size_t>(home_node),
                                 worker_index + 1));
  }
}

}  // namespace

RowPartitionPool::RowPartitionPool(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {
  HAAN_EXPECTS(threads_ > 0);
}

RowPartitionPool::~RowPartitionPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t RowPartitionPool::default_threads() {
  // Read afresh each call so tests can vary HAAN_NORM_THREADS per provider.
  if (const char* env = std::getenv("HAAN_NORM_THREADS")) {
    const long value = std::strtol(env, nullptr, 10);
    if (value > 0) return std::min<std::size_t>(static_cast<std::size_t>(value), 64);
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max<std::size_t>(1, hw));
}

int RowPartitionPool::affinity_base() {
#ifdef __linux__
  const char* env = std::getenv("HAAN_NORM_AFFINITY");
  if (env == nullptr || env[0] == '\0') return -1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 0) return -1;
  return static_cast<int>(value);
#else
  return -1;
#endif
}

std::size_t RowPartitionPool::plan_chunks(std::size_t rows, std::size_t min_rows,
                                          std::size_t max_chunks) {
  if (rows == 0 || max_chunks <= 1) return rows == 0 ? 0 : 1;
  const std::size_t by_size = rows / std::max<std::size_t>(1, min_rows);
  return std::max<std::size_t>(1, std::min(max_chunks, by_size));
}

std::pair<std::size_t, std::size_t> RowPartitionPool::chunk_bounds(
    std::size_t rows, std::size_t chunks, std::size_t c) {
  HAAN_EXPECTS(chunks > 0 && c < chunks);
  const std::size_t base = rows / chunks;
  const std::size_t rem = rows % chunks;
  const std::size_t begin = c * base + std::min(c, rem);
  return {begin, base + (c < rem ? 1 : 0)};
}

std::uint64_t RowPartitionPool::global_cross_node_rows() {
  return g_cross_node_rows.load(std::memory_order_relaxed);
}

void RowPartitionPool::start_threads() {
  if (started_) return;
  started_ = true;
  // The owner's node at thread-start is the pool's home: serve workers pin
  // themselves (or are placed by the OS) before their provider's first
  // partitioned call, so this is the node whose memory the chunks will read.
  if (mem::topology().nodes() > 1) {
    home_node_ = mem::current_node();
  }
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 0; w + 1 < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void RowPartitionPool::for_rows(std::size_t rows, std::size_t min_rows,
                                const ChunkFn& fn) {
  if (rows == 0) return;
  const std::size_t chunks = plan_chunks(rows, min_rows, threads_);
  if (chunks <= 1) {
    fn(0, 0, rows);
    return;
  }
  start_threads();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_rows_ = rows;
    job_chunks_ = chunks;
    pending_ = chunks - 1;
    ++generation_;
  }
  work_cv_.notify_all();

  const auto [begin, count] = chunk_bounds(rows, chunks, 0);
  std::exception_ptr error;
  try {
    // Chunk 0 always runs inline on the calling thread; its span nests inside
    // whatever provider span is open there.
    HAAN_TRACE_SPAN("shard", "model", 0u, static_cast<std::uint32_t>(count));
    fn(0, begin, count);
  } catch (...) {
    error = std::current_exception();
  }

  // The other chunks still reference `fn` and the caller's buffers: wait for
  // them even when chunk 0 threw.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error == nullptr) error = job_error_;
  job_error_ = nullptr;
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

void RowPartitionPool::worker_main(std::size_t worker_index) {
  pin_worker(worker_index, affinity_base(), home_node_);
  // Cross-node accounting is only meaningful (and only worth a sched_getcpu
  // per chunk) when the host actually has several nodes.
  const bool track_node = home_node_ >= 0 && mem::topology().nodes() > 1;
  std::uint64_t seen = 0;
  // Track naming is deferred until tracing is actually on: pool threads start
  // lazily and usually before any tracer session begins.
  bool track_named = false;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    const std::size_t chunk = worker_index + 1;
    // Generations with fewer chunks than threads leave trailing workers idle;
    // pending_ already excludes them.
    if (chunk >= job_chunks_) continue;
    const ChunkFn* fn = job_;
    const auto [begin, count] = chunk_bounds(job_rows_, job_chunks_, chunk);
    lock.unlock();
    if (obs::tracing_enabled() && !track_named) {
      obs::set_thread_name("rowpool-" + std::to_string(worker_index));
      track_named = true;
    }
    std::exception_ptr error;
    try {
      HAAN_TRACE_SPAN("shard", "model", static_cast<std::uint32_t>(chunk),
                      static_cast<std::uint32_t>(count));
      (*fn)(chunk, begin, count);
    } catch (...) {
      error = std::current_exception();
    }
    if (track_node && mem::current_node() != home_node_) {
      g_cross_node_rows.fetch_add(count, std::memory_order_relaxed);
    }
    lock.lock();
    if (error != nullptr && job_error_ == nullptr) job_error_ = error;
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace haan::model
