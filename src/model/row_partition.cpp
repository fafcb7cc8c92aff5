#include "model/row_partition.hpp"

#include <algorithm>
#include <string>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace haan::model {

std::size_t threads_per_worker(std::size_t workers, std::size_t cpus) {
  constexpr std::size_t kMaxThreadsPerWorker = 4;
  return std::clamp<std::size_t>(cpus / std::max<std::size_t>(1, workers), 1,
                                 kMaxThreadsPerWorker);
}

RowPartitionPool::RowPartitionPool(std::size_t threads) : threads_(threads) {
  HAAN_EXPECTS(threads_ > 0 && threads_ <= kMaxThreads);
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

void RowPartitionPool::start_threads() {
  if (started_) return;
  started_ = true;
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
    lock.lock();
    if (error != nullptr && job_error_ == nullptr) job_error_ = error;
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace haan::model
