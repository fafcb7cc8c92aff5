// WorkerPool's exception boundaries: a provider that throws inside one pack's
// forward fails only that pack's requests (RequestResult::failed), the worker
// keeps serving, and every other request still matches the single-threaded
// reference oracle bit for bit. A provider factory that throws (or returns no
// provider) fails every pack its lane takes, and the run still accounts for
// every offered request instead of terminating or hanging.
#include "serve/worker_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
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

/// `lens.size()` requests with random prompts of the given lengths, each
/// decoding two tokens.
std::vector<Request> make_workload(const std::vector<std::size_t>& lens,
                                   const model::ModelConfig& model) {
  std::vector<Request> workload;
  common::Rng rng(7);
  for (std::size_t i = 0; i < lens.size(); ++i) {
    Request request;
    request.id = i;
    request.max_new_tokens = 2;
    request.tokens.resize(lens[i]);
    for (int& token : request.tokens) {
      token = static_cast<int>(rng.uniform_index(model.vocab_size));
    }
    workload.push_back(std::move(request));
  }
  return workload;
}

/// What one WorkerPool run produced.
struct PoolRun {
  std::vector<RequestResult> results;
  ServeMetrics metrics;
};

/// Serves `workload` through a WorkerPool over `server`'s model, built and
/// drained the way Server::run does it.
PoolRun run_pool(const Server& server, const std::vector<Request>& workload,
                 WorkerPool::ProviderFactory factory,
                 const WorkerPool::Options& options,
                 const StepSchedulerConfig& step_config) {
  MetricsCollector metrics;
  PoolRun run;
  RequestQueue queue(workload.size());
  SessionTable sessions(server.config().model);
  StepScheduler scheduler(queue, sessions, step_config);
  WorkerPool pool(server.model(), scheduler, sessions, std::move(factory),
                  metrics, options);
  pool.start();
  for (Request request : workload) {
    request.enqueued_at = Clock::now();
    EXPECT_TRUE(queue.push(std::move(request)));
  }
  queue.close();
  pool.join();
  run.results = pool.take_results();
  EXPECT_EQ(sessions.live(), 0u);
  run.metrics = metrics.finalize(1.0);
  return run;
}

ServerConfig exact_config() {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = "exact";
  config.norm_threads = 1;
  config.keep_hidden = true;
  return config;
}

/// Every offered request is accounted for exactly once.
void expect_all_accounted(const PoolRun& run, std::size_t offered) {
  ASSERT_EQ(run.results.size(), offered);
  const ServeMetrics& m = run.metrics;
  EXPECT_EQ(m.completed + m.shed_requests + m.rejected_requests +
                m.failed_requests,
            offered);
}

TEST(WorkerPool, ThrowingPackFailsOnlyItsRequests) {
  const ServerConfig config = exact_config();
  Server server(config);  // the model, the provider and the reference oracle

  // Request 1 is the poisoned one, early, so the lone worker must keep
  // serving after its failure for the rest to complete.
  const std::vector<Request> workload =
      make_workload({5, kPoisonRows, 9, 3, 12, 7, 1, 10}, config.model);
  const ServeReport reference = server.run_reference(workload);

  StepSchedulerConfig step_config;
  step_config.batching.max_batch = 1;  // one session per pack
  WorkerPool::Options options;
  options.n_workers = 1;
  options.keep_hidden = true;
  options.norm_threads = 1;
  const PoolRun run = run_pool(
      server, workload,
      [&server] {
        return std::make_unique<FaultyProvider>(server.make_provider());
      },
      options, step_config);

  ASSERT_EQ(run.results.size(), workload.size());
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const RequestResult& got = run.results[i];
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

  EXPECT_EQ(run.metrics.failed_requests, 1u);
  EXPECT_EQ(run.metrics.completed, workload.size() - 1);
  expect_all_accounted(run, workload.size());
}

TEST(WorkerPool, FailingProviderFactoryFailsEveryPackWithoutHanging) {
  const ServerConfig config = exact_config();
  Server server(config);
  const std::vector<Request> workload =
      make_workload({5, 9, 3, 12, 7, 1, 10, 4}, config.model);
  const std::vector<WorkerPool::ProviderFactory> factories = {
      []() -> std::unique_ptr<model::NormProvider> {
        throw std::runtime_error("injected factory fault");
      },
      [] { return std::unique_ptr<model::NormProvider>(); },
  };
  for (std::size_t f = 0; f < factories.size(); ++f) {
    SCOPED_TRACE(f == 0 ? "throwing factory" : "null factory");
    WorkerPool::Options options;
    options.n_workers = 2;
    options.norm_threads = 1;
    const PoolRun run =
        run_pool(server, workload, factories[f], options, StepSchedulerConfig{});
    for (const RequestResult& result : run.results) {
      EXPECT_TRUE(result.failed) << "request " << result.id;
      EXPECT_TRUE(result.generated.empty());
    }
    EXPECT_EQ(run.metrics.failed_requests, workload.size());
    EXPECT_EQ(run.metrics.completed, 0u);
    expect_all_accounted(run, workload.size());
  }
}

TEST(WorkerPool, FailingDegradeFactoryFailsOnlyDegradedPacks) {
  const ServerConfig config = exact_config();
  Server server(config);
  // Even-indexed requests carry a deadline, and the degrade threshold sends
  // every deadline-bearing request to the degrade lane; odd ones stay on the
  // primary lane.
  std::vector<Request> workload =
      make_workload({5, 9, 3, 12, 7, 1, 10, 4}, config.model);
  for (std::size_t i = 0; i < workload.size(); i += 2) {
    workload[i].deadline_us = 1e9;  // never missed
  }
  const ServeReport reference = server.run_reference(workload);

  StepSchedulerConfig step_config;
  step_config.batching.policy.allow_degrade = true;
  step_config.batching.policy.degrade_slack_us = 1e12;
  WorkerPool::Options options;
  options.n_workers = 2;
  options.keep_hidden = true;
  options.norm_threads = 1;
  options.degrade_factory = []() -> std::unique_ptr<model::NormProvider> {
    throw std::runtime_error("injected degrade factory fault");
  };
  const PoolRun run = run_pool(
      server, workload, [&server] { return server.make_provider(); }, options,
      step_config);

  ASSERT_EQ(run.results.size(), workload.size());
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const RequestResult& got = run.results[i];
    ASSERT_EQ(got.id, i);
    if (workload[i].deadline_us > 0.0) {
      EXPECT_TRUE(got.failed) << "request " << i;
      continue;
    }
    EXPECT_FALSE(got.failed) << "request " << i;
    EXPECT_EQ(got.hidden, reference.results[i].hidden) << "request " << i;
    EXPECT_EQ(got.generated, reference.results[i].generated) << "request " << i;
  }
  EXPECT_EQ(run.metrics.failed_requests, workload.size() / 2);
  expect_all_accounted(run, workload.size());
}

}  // namespace
}  // namespace haan::serve
