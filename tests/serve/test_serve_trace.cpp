// End-to-end tracing through the serving stack: a traced server run must
// export a Chrome trace that parses with the in-repo JSON parser, stays
// begin/end balanced on every thread, carries one flow start ("s", feeder)
// and one flow finish ("f", worker) per request id, shows the request
// lifecycle spans (enqueue / pack-form / pack / forward / complete) and the
// provider-tagged per-layer norm spans, and names the feeder and worker
// tracks. Also checks the disabled path records nothing and the live
// snapshot emitter produces parseable JSON lines during a real run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json_lite.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace haan::serve {
namespace {

ServerConfig traced_server(const std::string& norm) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = 2;
  config.queue_capacity = 16;
  config.scheduler.max_batch = 4;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.paced = false;
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap = 4;
  return config;
}

std::vector<Request> small_workload(std::size_t n, std::size_t vocab) {
  const std::size_t lens[] = {3, 7, 5, 2};
  common::Rng rng(17);
  std::vector<Request> workload;
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
    request.tokens.resize(lens[i % 4]);
    for (auto& t : request.tokens) {
      t = static_cast<int>(rng.uniform_index(vocab));
    }
    workload.push_back(std::move(request));
  }
  return workload;
}

class ServeTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::tracer().set_enabled(false);
    obs::tracer().reset();
    obs::tracer().set_ring_capacity(1 << 16);
  }
  void TearDown() override {
    obs::tracer().set_enabled(false);
    obs::tracer().reset();
  }
};

TEST_F(ServeTraceTest, TracedRunExportsBalancedFlowLinkedTrace) {
  constexpr std::size_t kRequests = 12;
  obs::tracer().set_enabled(true);
  Server server(traced_server("haan"));
  const auto report =
      server.run(small_workload(kRequests, server.config().model.vocab_size));
  ASSERT_EQ(report.results.size(), kRequests);

  const std::string json = obs::tracer().export_chrome_json();
  const auto parsed = common::Json::parse(json);
  ASSERT_TRUE(parsed.has_value()) << "trace is not valid JSON";
  const common::Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int, int> depth;                   // per-tid open-span depth
  std::map<double, int> flow_starts;          // request id -> count
  std::map<double, int> flow_finishes;
  std::map<double, int> start_tid, finish_tid;
  std::set<std::string> span_names;
  std::set<std::string> thread_names;
  for (const common::Json& event : events->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    const int tid = static_cast<int>(event.find("tid")->as_number());
    if (ph == "M") {
      thread_names.insert(event.find("args")->find("name")->as_string());
    } else if (ph == "B") {
      ++depth[tid];
      span_names.insert(event.find("name")->as_string());
    } else if (ph == "E") {
      --depth[tid];
      ASSERT_GE(depth[tid], 0) << "unbalanced E on tid " << tid;
    } else if (ph == "s") {
      const double id = event.find("id")->as_number();
      ++flow_starts[id];
      start_tid[id] = tid;
    } else if (ph == "f") {
      const double id = event.find("id")->as_number();
      ++flow_finishes[id];
      finish_tid[id] = tid;
      EXPECT_EQ(event.find("bp")->as_string(), "e");
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed spans on tid " << tid;
  }

  // One flow start (feeder) and one finish (a worker) per request id, and the
  // two ends live on different threads — the cross-thread link Perfetto draws.
  for (std::size_t id = 0; id < kRequests; ++id) {
    const double key = static_cast<double>(id);
    EXPECT_EQ(flow_starts[key], 1) << "request " << id;
    EXPECT_EQ(flow_finishes[key], 1) << "request " << id;
    EXPECT_NE(start_tid[key], finish_tid[key]) << "request " << id;
  }

  // Request lifecycle + forward-pass spans, with the provider-tagged norm.
  for (const char* expected : {"enqueue", "pack-form", "pack", "forward",
                               "complete", "embed", "attn", "mlp", "norm/haan"}) {
    EXPECT_TRUE(span_names.count(expected)) << "missing span " << expected;
  }
  EXPECT_TRUE(thread_names.count("feeder"));
  EXPECT_TRUE(thread_names.count("worker-0"));
}

TEST_F(ServeTraceTest, ProviderLabelFollowsNormProvider) {
  obs::tracer().set_enabled(true);
  ServerConfig config = traced_server("exact");
  config.calibrate = false;
  Server server(config);
  server.run(small_workload(4, server.config().model.vocab_size));
  const auto parsed = common::Json::parse(obs::tracer().export_chrome_json());
  ASSERT_TRUE(parsed.has_value());
  std::set<std::string> span_names;
  for (const common::Json& event : parsed->find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() == "B") {
      span_names.insert(event.find("name")->as_string());
    }
  }
  EXPECT_TRUE(span_names.count("norm/exact"));
  EXPECT_FALSE(span_names.count("norm/haan"));
}

TEST_F(ServeTraceTest, DisabledTracingRecordsNothingDuringRun) {
  ASSERT_FALSE(obs::tracing_enabled());
  Server server(traced_server("haan"));
  const auto report =
      server.run(small_workload(6, server.config().model.vocab_size));
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(obs::tracer().stats().events, 0u);
}

TEST_F(ServeTraceTest, WriteChromeTraceRoundTripsThroughFile) {
  obs::tracer().set_enabled(true);
  Server server(traced_server("haan"));
  server.run(small_workload(4, server.config().model.vocab_size));
  const std::string path = ::testing::TempDir() + "haan_serve_trace_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::tracer().write_chrome_trace(path));
  const auto contents = common::read_file(path);
  ASSERT_TRUE(contents.has_value());
  const auto parsed = common::Json::parse(*contents);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_GT(parsed->find("traceEvents")->as_array().size(), 0u);
  std::remove(path.c_str());
}

TEST_F(ServeTraceTest, LiveSnapshotsEmitParseableJsonDuringRun) {
  const std::string path = ::testing::TempDir() + "haan_serve_stats_test.jsonl";
  std::remove(path.c_str());
  ServerConfig config = traced_server("haan");
  config.stats_interval_ms = 5;
  config.stats_json_path = path;
  Server server(config);
  const auto report =
      server.run(small_workload(16, server.config().model.vocab_size));
  ASSERT_EQ(report.results.size(), 16u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  double last_completed = -1.0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto parsed = common::Json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << "unparseable snapshot: " << line;
    const double completed = parsed->find("completed")->as_number();
    EXPECT_GE(completed, last_completed);  // monotone within the run
    last_completed = completed;
    ASSERT_NE(parsed->find("queue_depth"), nullptr);
    ASSERT_NE(parsed->find("throughput_rps"), nullptr);
    ASSERT_NE(parsed->find("p99_us"), nullptr);
    ++lines;
  }
  // stop() always emits a final snapshot, so at least one line exists and the
  // last one reflects the fully drained run.
  EXPECT_GE(lines, 1);
  EXPECT_EQ(last_completed, 16.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace haan::serve
