#include "serve/worker_pool.hpp"

#include <algorithm>
#include <memory>
#include <string>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "core/provider_factory.hpp"
#include "mem/arena.hpp"
#include "mem/scratch.hpp"
#include "mem/topology.hpp"
#include "model/batch_layout.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace haan::serve {
namespace {

/// Under HAAN_NUMA=auto on a multi-node host, serve workers spread
/// round-robin across nodes: worker w is confined to node (w % nodes) — the
/// whole node's CPU set, not one CPU, so the OS still schedules freely within
/// the socket. The worker's arenas and pool threads then inherit that home
/// via first touch and RowPartitionPool's own node capture. No-op (legacy OS
/// placement) in every other configuration.
void pin_worker_to_node(std::size_t worker_index) {
#ifdef __linux__
  if (mem::numa_mode() != mem::NumaMode::kAuto) return;
  const mem::Topology& topo = mem::topology();
  if (topo.nodes() < 2) return;
  const mem::NumaNode& node = topo.node(worker_index % topo.nodes());
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : node.cpus) CPU_SET(cpu, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    HAAN_LOG_WARN_C("serve") << "worker " << worker_index
                             << ": failed to bind to node " << node.id;
  }
#else
  (void)worker_index;
#endif
}

/// The completion record of `request` as of `done`, with the fields every
/// outcome (served, shed, failed) shares; callers fill in the rest.
RequestResult result_for(const Request& request, std::size_t worker_index,
                         std::uint64_t sequence, Clock::time_point done) {
  RequestResult result;
  result.id = request.id;
  result.worker = worker_index;
  result.batch = sequence;
  result.prompt_len = request.tokens.size();
  result.priority = request.priority;
  result.tenant = request.tenant;
  result.degraded = request.degraded;
  result.queue_us = elapsed_us(request.enqueued_at, request.dequeued_at);
  result.total_us = elapsed_us(request.enqueued_at, done);
  return result;
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

WorkerPool::WorkerPool(const model::Transformer& model, StepScheduler& scheduler,
                       SessionTable& sessions, ProviderFactory provider_factory,
                       MetricsCollector& metrics, mem::ArenaPool& scratch_pool,
                       Options options)
    : model_(model),
      scheduler_(scheduler),
      sessions_(sessions),
      provider_factory_(std::move(provider_factory)),
      metrics_(metrics),
      scratch_pool_(scratch_pool),
      options_(options) {
  HAAN_EXPECTS(options_.n_workers > 0);
  HAAN_EXPECTS(static_cast<bool>(provider_factory_));
}

WorkerPool::~WorkerPool() { join(); }

void WorkerPool::start() {
  HAAN_EXPECTS(threads_.empty() && scratch_.empty());
  if (mem::placement_enabled()) {
    mem::ArenaOptions opts;
    opts.interleave = mem::numa_mode() == mem::NumaMode::kInterleave;
    for (std::size_t w = 0; w < options_.n_workers; ++w) {
      scratch_.push_back(scratch_pool_.acquire(opts));
    }
  }
  threads_.reserve(options_.n_workers);
  for (std::size_t w = 0; w < options_.n_workers; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

void WorkerPool::join() {
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  // Reverse worker order, so the LIFO hands worker i the same arena next run.
  while (!scratch_.empty()) {
    scratch_pool_.release(std::move(scratch_.back()));
    scratch_.pop_back();
  }
}

std::vector<RequestResult> WorkerPool::take_results() {
  std::lock_guard<std::mutex> lock(results_mu_);
  std::vector<RequestResult> out = std::move(results_);
  results_.clear();
  std::sort(out.begin(), out.end(),
            [](const RequestResult& a, const RequestResult& b) { return a.id < b.id; });
  return out;
}

void WorkerPool::push_result(RequestResult result) {
  metrics_.record(result);
  std::lock_guard<std::mutex> lock(results_mu_);
  results_.push_back(std::move(result));
}

void WorkerPool::record_shed(std::size_t worker_index, std::uint64_t sequence,
                             std::vector<Request>& shed) {
  for (Request& request : shed) {
    obs::flow_end("req", "serve", request.id);
    RequestResult result =
        result_for(request, worker_index, sequence, Clock::now());
    result.shed = true;
    result.deadline_missed = true;  // shed fires only past the slack bound
    push_result(std::move(result));
  }
  shed.clear();
}

void WorkerPool::fail_pack(std::size_t worker_index, StepPack& pack,
                           const std::exception_ptr& error) {
  HAAN_LOG_WARN_C("serve") << "worker " << worker_index << ": pack "
                           << pack.sequence << " failed (" << describe(error)
                           << "); " << pack.entries.size()
                           << " request(s) completed unserved";
  for (const StepEntry& entry : pack.entries) {
    Session& session = *entry.session;
    obs::flow_end("req", "serve", session.request.id);
    RequestResult result =
        result_for(session.request, worker_index, pack.sequence, Clock::now());
    result.batch_size = pack.entries.size();
    result.failed = true;
    push_result(std::move(result));
    scheduler_.finish(&session);
  }
}

void WorkerPool::worker_main(std::size_t worker_index) {
  obs::set_thread_name("worker-" + std::to_string(worker_index));
  // Placement first: everything the worker allocates or spawns below (scratch
  // arena first touch, provider pools' home-node capture) keys off where this
  // thread runs.
  pin_worker_to_node(worker_index);
  // Per-pack scratch arena: while a pack executes, every Tensor the forward
  // pass constructs on this thread (packed hidden block, attention scratch,
  // MLP intermediates) bump-allocates here via the thread-local ScratchScope,
  // and reset() recycles the whole lot between packs. Null with placement
  // off — Tensors fall through to the default heap resource, byte-for-byte
  // the legacy behavior.
  mem::Arena* scratch =
      scratch_.empty() ? nullptr : scratch_[worker_index].get();
  const mem::ArenaStats scratch_base =
      scratch != nullptr ? scratch->stats() : mem::ArenaStats{};
  const std::unique_ptr<model::NormProvider> provider = provider_factory_();
  HAAN_ASSERT(provider != nullptr);
  // The degrade lane's provider is built lazily: runs that never degrade
  // never pay for it.
  std::unique_ptr<model::NormProvider> degrade_provider;
  const auto lane_provider = [&](bool degraded) -> model::NormProvider& {
    if (!degraded) return *provider;
    if (degrade_provider == nullptr) {
      degrade_provider = options_.degrade_factory ? options_.degrade_factory()
                                                  : provider_factory_();
      HAAN_ASSERT(degrade_provider != nullptr);
    }
    return *degrade_provider;
  };
  // Worker-local span parallelism for packed forwards (threads start lazily).
  model::RowPartitionPool span_pool(options_.norm_threads);

  while (auto pack = scheduler_.next_pack()) {
    record_shed(worker_index, pack->sequence, pack->shed);
    if (pack->entries.empty()) continue;  // shed-only pack
    metrics_.record_batch(pack->entries.size());
    // Resolve the lane BEFORE opening the scratch scope: a lazily built
    // degrade provider must not put its long-lived state in pack scratch.
    model::NormProvider& lane = lane_provider(pack->degraded);
    if (scratch) scratch->reset();
    mem::ScratchScope scope(scratch);
    execute_step_pack(worker_index, *pack, lane, span_pool);
  }

  if (scratch != nullptr) {
    // Leave the arena reset (and consolidated) for its next run, and count
    // only what this run added to its lifetime counters.
    scratch->reset();
    metrics_.add_arena_stats(scratch->stats().since(scratch_base));
  }

  // End-of-stream: fold this worker's HAAN counters (both lanes) into the
  // shared metrics.
  if (const core::HaanNormProvider* haan = core::as_haan_provider(provider.get())) {
    metrics_.add_norm_counters(haan->counters());
  }
  if (const core::HaanNormProvider* haan =
          core::as_haan_provider(degrade_provider.get())) {
    metrics_.add_norm_counters(haan->counters());
  }
}

void WorkerPool::execute_step_pack(std::size_t worker_index, StepPack& pack,
                                   model::NormProvider& provider,
                                   model::RowPartitionPool& span_pool) {
  const std::size_t n = pack.entries.size();
  std::vector<std::span<const int>> sequences;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> starts;
  std::vector<model::KvCache*> caches;
  sequences.reserve(n);
  lengths.reserve(n);
  starts.reserve(n);
  caches.reserve(n);
  std::size_t prefill_rows = 0;
  std::size_t decode_rows = 0;
  {
    HAAN_TRACE_SPAN("pack", "serve", static_cast<std::uint32_t>(n));
    for (const StepEntry& entry : pack.entries) {
      Session& session = *entry.session;
      std::span<const int> tokens;
      if (entry.decode) {
        // Feed the last generated token as one row. pending_token is the
        // session's stable storage — `generated` may reallocate.
        session.pending_token = session.generated.back();
        tokens = std::span<const int>(&session.pending_token, 1);
        decode_rows += 1;
      } else {
        tokens = std::span<const int>(session.request.tokens)
                     .subspan(session.fed, entry.rows);
        prefill_rows += entry.rows;
      }
      sequences.push_back(tokens);
      lengths.push_back(tokens.size());
      starts.push_back(session.fed);
      caches.push_back(&session.cache);
    }
  }
  const model::BatchLayout layout = model::BatchLayout::from_spans(lengths, starts);
  const char* phase = decode_rows == 0   ? "prefill"
                      : prefill_rows == 0 ? "decode"
                                          : "mixed";

  const Clock::time_point compute_start = Clock::now();
  tensor::Tensor hidden;
  try {
    HAAN_TRACE_SPAN("forward", "serve", phase,
                    static_cast<std::uint32_t>(layout.total_rows()),
                    static_cast<std::uint32_t>(layout.sequences()));
    hidden = model_.forward_hidden_batch(sequences, layout, provider,
                                         &span_pool, caches);
  } catch (...) {
    fail_pack(worker_index, pack, std::current_exception());
    return;
  }
  const Clock::time_point done = Clock::now();
  const double compute_us = elapsed_us(compute_start, done);
  metrics_.record_packed(layout.total_rows(), layout.sequences());
  metrics_.record_step_pack(prefill_rows, decode_rows);

  const std::size_t d = model_.config().d_model;
  for (std::size_t i = 0; i < n; ++i) {
    Session& session = *pack.entries[i].session;
    const model::SequenceSpan& span = layout.span(i);
    const std::span<const float> rows =
        hidden.data().subspan(span.row_begin * d, span.rows * d);

    // Advance the session: the checksum chains over fed rows in position
    // order, so the final value is bit-identical to hashing a one-shot
    // forward over the same fed tokens.
    session.hidden_hash = checksum_floats(rows, session.hidden_hash);
    if (options_.keep_hidden) {
      session.hidden.insert(session.hidden.end(), rows.begin(), rows.end());
    }
    session.fed += span.rows;
    session.compute_us += compute_us;
    session.steps += 1;

    if (session.prompt_done() &&
        session.generated.size() < session.max_new_tokens) {
      // The step's newest row predicts the next token (greedy argmax over
      // tied-embedding logits).
      const auto logits =
          model_.logits_for_hidden_row(rows.subspan((span.rows - 1) * d, d));
      session.generated.push_back(static_cast<int>(tensor::argmax(logits)));
      if (!session.first_token_done) {
        session.first_token_done = true;
        session.ttft_us = elapsed_us(session.request.enqueued_at, done);
        metrics_.record_ttft(session.ttft_us);
      } else {
        metrics_.record_intertoken(elapsed_us(session.last_token_at, done));
      }
      session.last_token_at = done;
    } else if (session.prompt_done() && !session.first_token_done) {
      // Prefill-only request: TTFT is the prompt-completion step (the moment
      // its "response" is ready).
      session.first_token_done = true;
      session.ttft_us = elapsed_us(session.request.enqueued_at, done);
      metrics_.record_ttft(session.ttft_us);
    }

    sessions_.account_kv(session);

    if (session.finished()) {
      HAAN_TRACE_SPAN("complete", "serve",
                      static_cast<std::uint32_t>(session.request.id));
      obs::flow_end("req", "serve", session.request.id);
      RequestResult result =
          result_for(session.request, worker_index, pack.sequence, done);
      result.batch_size = n;
      result.hidden_checksum = session.hidden_hash;
      result.generated = std::move(session.generated);
      result.ttft_us = session.ttft_us;
      result.hidden = std::move(session.hidden);
      result.compute_us = session.compute_us;
      result.deadline_missed = session.request.deadline_us > 0.0 &&
                               result.total_us > session.request.deadline_us;
      push_result(std::move(result));
      scheduler_.finish(&session);
    } else {
      scheduler_.requeue(&session);
    }
  }
  metrics_.record_kv_bytes(sessions_.kv_bytes_resident());
}

}  // namespace haan::serve
