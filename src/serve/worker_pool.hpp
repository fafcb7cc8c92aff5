// Worker thread pool: N threads, each owning a private NormProvider built
// from a shared factory, pulling step packs from the StepScheduler and
// running each as one packed incremental forward over the (Σ rows × d)
// hidden block of every session aboard, so every norm layer amortizes across
// all of them. The Transformer is shared read-only (its forward path is const
// and pure given the provider); per-request outputs are bit-identical
// regardless of which worker executes a step or which sessions share its
// pack, because every provider resets its per-sequence state in
// begin_sequence(), packed rows carry per-row predictor state, and each
// session's KV cache carries its attention state across steps.
//
// Each pack is an exception boundary: a forward that throws (say, a failing
// provider) completes that pack's sessions unserved (RequestResult::failed)
// and the worker keeps serving the rest. A provider factory that throws (or
// returns null) fails its lane the same way: every pack the worker takes on
// that lane completes unserved, so no session is left hanging.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model/norm_provider.hpp"
#include "model/transformer.hpp"
#include "serve/metrics.hpp"
#include "serve/step_scheduler.hpp"

namespace haan::serve {

/// Pool of inference workers draining a StepScheduler: each pack mixes
/// prefill chunks and decode steps of different live sessions into one
/// packed forward (see step_scheduler.hpp).
class WorkerPool {
 public:
  using ProviderFactory =
      std::function<std::unique_ptr<model::NormProvider>()>;

  struct Options {
    std::size_t n_workers = 4;
    /// Keep the full final hidden states in each RequestResult (tests /
    /// verification); checksums are always kept.
    bool keep_hidden = false;
    /// Worker-local span/row parallelism inside a packed forward, at least 1
    /// (1 = serial; Server passes its resolved count). Bit-identical for any
    /// value.
    std::size_t norm_threads = 1;
    /// Provider for degraded packs (admission control's cheap lane). Built
    /// lazily per worker on the first degraded pack. Empty = fall
    /// back to the primary factory (degrade becomes a no-op reroute).
    ProviderFactory degrade_factory;
  };

  /// Workers are created by start(); the pool must outlive its threads.
  /// Workers pull step packs, execute each as one packed incremental
  /// forward, then requeue or retire every session aboard. `sessions` must be
  /// the table `scheduler` admits into. `model`, `scheduler`, `sessions` and
  /// `metrics` must outlive the pool.
  WorkerPool(const model::Transformer& model, StepScheduler& scheduler,
             SessionTable& sessions, ProviderFactory provider_factory,
             MetricsCollector& metrics, Options options);

  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Launches the worker threads.
  void start();

  /// Blocks until every worker has exited (the scheduler's queue was closed
  /// and drained). Each worker's provider counters are folded into the
  /// metrics collector as it exits.
  void join();

  /// Moves out all accumulated results, sorted by request id. Call after
  /// join().
  std::vector<RequestResult> take_results();

  const Options& options() const { return options_; }

 private:
  void worker_main(std::size_t worker_index);

  /// Executes one step pack as a single packed incremental forward, advances
  /// every session aboard (checksum, greedy token, TTFT/inter-token stamps),
  /// then requeues unfinished sessions and retires finished ones.
  void execute_step_pack(std::size_t worker_index, StepPack& pack,
                         model::NormProvider& provider,
                         model::RowPartitionPool& span_pool);

  void push_result(RequestResult result);

  /// Records the requests a formation pass shed as unserved results (no
  /// forward ran: checksum/hidden empty, shed=true, deadline_missed=true).
  void record_shed(std::size_t worker_index, std::uint64_t sequence,
                   std::vector<Request>& shed);

  /// Completes every session of a pack whose forward (or provider factory)
  /// threw as an unserved result (failed=true) and retires it. The sessions are finished, not
  /// requeued: their KV caches hold rows of the aborted step.
  void fail_pack(std::size_t worker_index, StepPack& pack,
                 const std::exception_ptr& error);

  const model::Transformer& model_;
  StepScheduler& scheduler_;
  SessionTable& sessions_;
  ProviderFactory provider_factory_;
  MetricsCollector& metrics_;
  Options options_;

  std::vector<std::thread> threads_;
  std::mutex results_mu_;
  std::vector<RequestResult> results_;
};

}  // namespace haan::serve
