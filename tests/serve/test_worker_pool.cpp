// WorkerPool's per-pack exception boundary: a provider that throws inside one
// pack's forward fails only that pack's requests (RequestResult::failed),
// the worker keeps serving, every other request still matches the
// single-threaded reference oracle bit for bit, and every KV and scratch
// arena goes back to its pool.
#include "serve/worker_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "mem/topology.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace haan::serve {
namespace {

/// Prompt length of the one request whose prefill the faulty provider fails.
constexpr std::size_t kPoisonRows = 17;

/// Delegates to a real provider but throws on any row block of exactly
/// kPoisonRows rows. With one session per pack and whole-prompt prefill,
/// that is the prefill of the single request with that prompt length.
class FaultyProvider final : public model::NormProvider {
 public:
  explicit FaultyProvider(std::unique_ptr<model::NormProvider> inner)
      : inner_(std::move(inner)) {}

  void begin_sequence() override { inner_->begin_sequence(); }

  void normalize(std::size_t layer_index, std::size_t position,
                 model::NormKind kind, std::span<const float> z,
                 std::span<const float> alpha, std::span<const float> beta,
                 std::span<float> out) override {
    inner_->normalize(layer_index, position, kind, z, alpha, beta, out);
  }

  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      model::NormKind kind, std::size_t rows,
                      std::span<const float> x, std::span<const float> alpha,
                      std::span<const float> beta,
                      std::span<float> out) override {
    fail_on_poison(rows);
    inner_->normalize_rows(layer_index, start_position, kind, rows, x, alpha,
                           beta, out);
  }

  void residual_add_normalize_rows(std::size_t layer_index,
                                   std::size_t start_position,
                                   model::NormKind kind, std::size_t rows,
                                   std::span<float> h,
                                   std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override {
    fail_on_poison(rows);
    inner_->residual_add_normalize_rows(layer_index, start_position, kind,
                                        rows, h, residual, alpha, beta, out);
  }

 private:
  static void fail_on_poison(std::size_t rows) {
    if (rows == kPoisonRows) throw std::runtime_error("injected provider fault");
  }

  std::unique_ptr<model::NormProvider> inner_;
};

class NumaModeGuard {
 public:
  explicit NumaModeGuard(mem::NumaMode mode) {
    mem::set_numa_mode_override(mode);
  }
  ~NumaModeGuard() { mem::clear_numa_mode_override(); }
};

TEST(WorkerPool, ThrowingPackFailsOnlyItsRequestsAndReturnsEveryArena) {
  NumaModeGuard guard(mem::NumaMode::kAuto);
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = "exact";
  config.norm_threads = 1;
  config.keep_hidden = true;
  Server server(config);  // the model, the provider and the reference oracle

  // Request 1 is the poisoned one, early, so the lone worker must keep
  // serving after its failure for the rest to complete.
  const std::size_t lens[] = {5, kPoisonRows, 9, 3, 12, 7, 1, 10};
  std::vector<Request> workload;
  common::Rng rng(7);
  for (std::size_t i = 0; i < std::size(lens); ++i) {
    Request request;
    request.id = i;
    request.max_new_tokens = 2;
    request.tokens.resize(lens[i]);
    for (int& token : request.tokens) {
      token = static_cast<int>(rng.uniform_index(config.model.vocab_size));
    }
    workload.push_back(std::move(request));
  }
  const ServeReport reference = server.run_reference(workload);

  mem::ArenaPool kv_pool;
  mem::ArenaPool scratch_pool;
  MetricsCollector metrics;
  std::vector<RequestResult> results;
  {
    RequestQueue queue(workload.size());
    SessionTable sessions(config.model, kv_pool);
    StepSchedulerConfig step_config;
    step_config.batching.max_batch = 1;  // one session per pack
    StepScheduler scheduler(queue, sessions, step_config);
    WorkerPool::Options options;
    options.n_workers = 1;
    options.keep_hidden = true;
    options.norm_threads = 1;
    WorkerPool pool(
        server.model(), scheduler, sessions,
        [&server] {
          return std::make_unique<FaultyProvider>(server.make_provider());
        },
        metrics, scratch_pool, options);
    pool.start();
    for (Request request : workload) {
      request.enqueued_at = Clock::now();
      ASSERT_TRUE(queue.push(std::move(request)));
    }
    queue.close();
    pool.join();
    results = pool.take_results();
    EXPECT_EQ(sessions.live(), 0u);
  }

  ASSERT_EQ(results.size(), workload.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RequestResult& got = results[i];
    const RequestResult& want = reference.results[i];
    ASSERT_EQ(got.id, i);
    if (workload[i].tokens.size() == kPoisonRows) {
      EXPECT_TRUE(got.failed);
      EXPECT_TRUE(got.generated.empty());
      EXPECT_TRUE(got.hidden.empty());
      continue;
    }
    EXPECT_FALSE(got.failed) << "request " << i;
    EXPECT_EQ(got.hidden_checksum, want.hidden_checksum) << "request " << i;
    EXPECT_EQ(got.generated, want.generated) << "request " << i;
    EXPECT_EQ(got.hidden, want.hidden) << "request " << i;
  }

  const ServeMetrics summary = metrics.finalize(1.0);
  EXPECT_EQ(summary.failed_requests, 1u);
  EXPECT_EQ(summary.completed, workload.size() - 1);
  EXPECT_EQ(summary.accounted_requests(), workload.size());

  // Every arena the run checked out is parked again, the failed session's
  // KV arena included.
  EXPECT_GT(kv_pool.created(), 0u);
  EXPECT_EQ(kv_pool.idle(), kv_pool.created());
  EXPECT_EQ(scratch_pool.created(), 1u);
  EXPECT_EQ(scratch_pool.idle(), 1u);
}

}  // namespace
}  // namespace haan::serve
