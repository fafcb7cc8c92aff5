#include "serve/policy.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "model/config.hpp"
#include "serve/step_scheduler.hpp"

namespace haan::serve {
namespace {

Request make_request(std::uint64_t id, std::size_t len,
                     Clock::time_point enqueued_at = Clock::now()) {
  Request request;
  request.id = id;
  request.tokens.assign(len, 0);
  request.enqueued_at = enqueued_at;
  return request;
}

PolicyConfig edf_config() {
  PolicyConfig config;
  config.policy = SchedPolicy::kEdf;
  return config;
}

// ---------------------------------------------------------------------------
// Policy names & environment resolution.

TEST(SchedPolicyStrings, RoundTrip) {
  for (const auto policy :
       {SchedPolicy::kFifo, SchedPolicy::kBinned, SchedPolicy::kEdf}) {
    const auto parsed = try_policy_from_string(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(try_policy_from_string("sjf").has_value());
  EXPECT_FALSE(try_policy_from_string("").has_value());
}

TEST(SchedPolicyStrings, ResolveAgainstEnvironment) {
  unsetenv("HAAN_SCHED_POLICY");
  EXPECT_EQ(resolve_policy(SchedPolicy::kAuto), SchedPolicy::kFifo);

  setenv("HAAN_SCHED_POLICY", "edf", 1);
  EXPECT_EQ(resolve_policy(SchedPolicy::kAuto), SchedPolicy::kEdf);
  // Explicit policies pass through untouched.
  EXPECT_EQ(resolve_policy(SchedPolicy::kBinned), SchedPolicy::kBinned);

  setenv("HAAN_SCHED_POLICY", "not-a-policy", 1);
  EXPECT_EQ(resolve_policy(SchedPolicy::kAuto), SchedPolicy::kFifo);
  unsetenv("HAAN_SCHED_POLICY");
}

// ---------------------------------------------------------------------------
// Admission-control decision boundaries.

TEST(DecideAdmission, NoDeadlineIsNeverShedOrDegraded) {
  PolicyConfig config = edf_config();
  config.allow_shed = true;
  config.allow_degrade = true;
  config.shed_slack_us = 1e9;
  config.degrade_slack_us = 1e9;
  EXPECT_EQ(decide_admission(-1e12, /*has_deadline=*/false, config),
            OverloadAction::kServe);
}

TEST(DecideAdmission, ThresholdsAreStrictAndMonotone) {
  PolicyConfig config = edf_config();
  config.allow_shed = true;
  config.allow_degrade = true;
  config.shed_slack_us = 100.0;
  config.degrade_slack_us = 200.0;

  // serve -> degrade -> shed as slack shrinks; boundaries are strict <.
  EXPECT_EQ(decide_admission(250.0, true, config), OverloadAction::kServe);
  EXPECT_EQ(decide_admission(200.0, true, config), OverloadAction::kServe);
  EXPECT_EQ(decide_admission(150.0, true, config), OverloadAction::kDegrade);
  EXPECT_EQ(decide_admission(100.0, true, config), OverloadAction::kDegrade);
  EXPECT_EQ(decide_admission(99.0, true, config), OverloadAction::kShed);
  EXPECT_EQ(decide_admission(-1e6, true, config), OverloadAction::kShed);
}

TEST(DecideAdmission, ShedTakesPrecedenceOverDegrade) {
  PolicyConfig config = edf_config();
  config.allow_shed = true;
  config.allow_degrade = true;
  // Overlapping bands: shed wins below the shed threshold.
  config.shed_slack_us = 500.0;
  config.degrade_slack_us = 500.0;
  EXPECT_EQ(decide_admission(100.0, true, config), OverloadAction::kShed);
}

TEST(DecideAdmission, DisabledActionsFallThrough) {
  PolicyConfig config = edf_config();
  config.shed_slack_us = 500.0;
  config.degrade_slack_us = 500.0;

  // Neither allowed: always serve.
  EXPECT_EQ(decide_admission(-1.0, true, config), OverloadAction::kServe);

  // Shed disabled: deep-negative slack degrades instead.
  config.allow_degrade = true;
  EXPECT_EQ(decide_admission(-1e6, true, config), OverloadAction::kDegrade);
}

// ---------------------------------------------------------------------------
// PendingPool ordering.

TEST(PendingPool, FifoSelectsInInsertionOrder) {
  PolicyConfig config;
  config.policy = SchedPolicy::kFifo;
  PendingPool pool(config);
  for (std::uint64_t id = 0; id < 4; ++id) pool.push(make_request(id, 8));

  for (std::uint64_t id = 0; id < 4; ++id) {
    const auto index =
        pool.select(Clock::now(), std::nullopt, std::nullopt, false);
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(pool.extract(*index).id, id);
  }
  EXPECT_TRUE(pool.empty());
}

TEST(PendingPool, EdfPriorityBeatsDeadlineSlack) {
  PendingPool pool(edf_config());
  const auto now = Clock::now();
  Request urgent = make_request(0, 8, now);
  urgent.priority = 0;
  urgent.deadline_us = 100.0;  // tiny slack
  Request important = make_request(1, 8, now);
  important.priority = 1;
  important.deadline_us = 1e9;  // huge slack
  pool.push(urgent);
  pool.push(important);

  const auto index = pool.select(now, std::nullopt, std::nullopt, false);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(pool.peek(*index).id, 1u);  // higher class first, slack second
}

TEST(PendingPool, EdfOrdersBySlackWithinPriority) {
  PendingPool pool(edf_config());
  const auto now = Clock::now();
  Request relaxed = make_request(0, 8, now);
  relaxed.deadline_us = 1e6;
  Request urgent = make_request(1, 8, now);
  urgent.deadline_us = 1e3;
  Request no_deadline = make_request(2, 8, now);  // infinite slack: last
  pool.push(relaxed);
  pool.push(urgent);
  pool.push(no_deadline);

  std::vector<std::uint64_t> order;
  while (!pool.empty()) {
    const auto index = pool.select(now, std::nullopt, std::nullopt, false);
    ASSERT_TRUE(index.has_value());
    order.push_back(pool.extract(*index).id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0, 2}));
}

TEST(PendingPool, AgingLiftsLongWaitersOverHigherClasses) {
  PolicyConfig config = edf_config();
  config.aging_us = 100.0;  // +1 effective priority per 100 us waited
  PendingPool pool(config);
  const auto now = Clock::now();

  Request old_low = make_request(0, 8, now - std::chrono::milliseconds(1));
  old_low.priority = 0;  // waited 1000 us -> +10 effective
  Request fresh_high = make_request(1, 8, now);
  fresh_high.priority = 5;
  pool.push(old_low);
  pool.push(fresh_high);

  EXPECT_GE(pool.effective_priority(old_low, now), 10.0);
  const auto index = pool.select(now, std::nullopt, std::nullopt, false);
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(pool.peek(*index).id, 0u);

  // Aging off: the same mix serves the higher class first.
  PendingPool no_aging(edf_config());
  no_aging.push(old_low);
  no_aging.push(fresh_high);
  const auto index2 = no_aging.select(now, std::nullopt, std::nullopt, false);
  ASSERT_TRUE(index2.has_value());
  EXPECT_EQ(no_aging.peek(*index2).id, 1u);
}

TEST(PendingPool, BinFilterAndRelaxation) {
  PolicyConfig config;
  config.policy = SchedPolicy::kBinned;
  config.bin_width = 16;
  PendingPool pool(config);
  const auto now = Clock::now();
  pool.push(make_request(0, 8, now));   // bin 0
  pool.push(make_request(1, 40, now));  // bin 2

  EXPECT_EQ(pool.bin_of(8), 0u);
  EXPECT_EQ(pool.bin_of(40), 2u);

  // Hard bin filter.
  const auto in_bin2 = pool.select(now, std::nullopt, 2, false);
  ASSERT_TRUE(in_bin2.has_value());
  EXPECT_EQ(pool.peek(*in_bin2).id, 1u);
  EXPECT_FALSE(pool.select(now, std::nullopt, 1, false).has_value());

  // Relaxed: nearest bin wins (both are distance 1 from bin 1; FIFO seq
  // breaks the tie).
  const auto relaxed = pool.select(now, std::nullopt, 1, true);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_EQ(pool.peek(*relaxed).id, 0u);
}

TEST(PendingPool, LaneFilterSeparatesDegradedRequests) {
  PolicyConfig config;
  config.policy = SchedPolicy::kBinned;
  PendingPool pool(config);
  const auto now = Clock::now();
  Request normal = make_request(0, 8, now);
  Request degraded = make_request(1, 8, now);
  degraded.degraded = true;
  pool.push(normal);
  pool.push(degraded);

  EXPECT_TRUE(pool.has_lane(false));
  EXPECT_TRUE(pool.has_lane(true));
  const auto normal_index = pool.select(now, false, std::nullopt, false);
  const auto degraded_index = pool.select(now, true, std::nullopt, false);
  ASSERT_TRUE(normal_index.has_value());
  ASSERT_TRUE(degraded_index.has_value());
  EXPECT_EQ(pool.peek(*normal_index).id, 0u);
  EXPECT_EQ(pool.peek(*degraded_index).id, 1u);
}

TEST(PendingPool, ApplyAdmissionShedsAndStampsDegrade) {
  PolicyConfig config = edf_config();
  config.allow_shed = true;
  config.allow_degrade = true;
  config.shed_slack_us = 0.0;      // shed only already-missed deadlines
  config.degrade_slack_us = 1e12;  // everything else with a deadline degrades
  PendingPool pool(config);
  const auto now = Clock::now();

  Request missed = make_request(0, 8, now - std::chrono::milliseconds(10));
  missed.deadline_us = 100.0;  // long since blown
  Request tight = make_request(1, 8, now);
  tight.deadline_us = 1e6;
  Request immune = make_request(2, 8, now - std::chrono::hours(1));
  immune.deadline_us = 0.0;  // no deadline: untouchable
  pool.push(missed);
  pool.push(tight);
  pool.push(immune);

  std::vector<Request> shed;
  pool.apply_admission(now, shed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].id, 0u);
  EXPECT_NE(shed[0].dequeued_at, Clock::time_point{});
  EXPECT_EQ(pool.size(), 2u);

  const auto degraded_index = pool.select(now, true, std::nullopt, false);
  ASSERT_TRUE(degraded_index.has_value());
  EXPECT_EQ(pool.peek(*degraded_index).id, 1u);
  const auto normal_index = pool.select(now, false, std::nullopt, false);
  ASSERT_TRUE(normal_index.has_value());
  EXPECT_EQ(pool.peek(*normal_index).id, 2u);
}

// ---------------------------------------------------------------------------
// StepScheduler under the policies.

StepSchedulerConfig scheduler_config(SchedPolicy policy, std::size_t max_batch) {
  StepSchedulerConfig config;
  config.batching.max_batch = max_batch;
  config.batching.max_wait = std::chrono::microseconds(100);
  config.batching.policy.policy = policy;
  return config;
}

std::vector<std::uint64_t> ids_of(const StepPack& pack) {
  std::vector<std::uint64_t> ids;
  for (const StepEntry& entry : pack.entries) ids.push_back(entry.session->request.id);
  return ids;
}

/// Retires every session aboard, as a worker does after a prefill-only
/// request's single step; returns their ids (read before the release).
std::vector<std::uint64_t> retire(StepScheduler& scheduler, const StepPack& pack) {
  std::vector<std::uint64_t> ids = ids_of(pack);
  for (const StepEntry& entry : pack.entries) scheduler.finish(entry.session);
  return ids;
}

TEST(PolicyStepScheduler, BinnedFormsBinPurePacks) {
  RequestQueue queue(16);
  SessionTable sessions(model::tiny_test_model());
  // Alternating short/long prompts: FIFO would form ragged packs; binned
  // groups each pack from one length bin.
  for (std::uint64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, id % 2 == 0 ? 8 : 32)));
  }
  queue.close();

  StepSchedulerConfig config = scheduler_config(SchedPolicy::kBinned, 4);
  config.batching.policy.bin_width = 16;
  StepScheduler scheduler(queue, sessions, config);
  EXPECT_EQ(scheduler.policy(), SchedPolicy::kBinned);

  // Oldest request (id 0, short) anchors the first pack; every session in a
  // pack shares its anchor's bin.
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(retire(scheduler, *first), (std::vector<std::uint64_t>{0, 2, 4, 6}));
  const auto second = scheduler.next_pack();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(retire(scheduler, *second), (std::vector<std::uint64_t>{1, 3, 5, 7}));
  EXPECT_FALSE(scheduler.next_pack().has_value());
}

TEST(PolicyStepScheduler, EdfServesUrgentRequestsFirst) {
  RequestQueue queue(16);
  SessionTable sessions(model::tiny_test_model());
  const auto now = Clock::now();
  for (std::uint64_t id = 0; id < 4; ++id) {
    Request request = make_request(id, 8, now);
    request.deadline_us = 1e6 * static_cast<double>(4 - id);  // id 3 = tightest
    ASSERT_TRUE(queue.push(request));
  }
  queue.close();

  StepScheduler scheduler(queue, sessions, scheduler_config(SchedPolicy::kEdf, 2));
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(retire(scheduler, *first), (std::vector<std::uint64_t>{3, 2}));
  const auto second = scheduler.next_pack();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(retire(scheduler, *second), (std::vector<std::uint64_t>{1, 0}));
}

TEST(PolicyStepScheduler, RowBudgetClosesPacks) {
  RequestQueue queue(16);
  SessionTable sessions(model::tiny_test_model());
  for (std::uint64_t id = 0; id < 5; ++id) ASSERT_TRUE(queue.push(make_request(id, 4)));
  queue.close();

  StepSchedulerConfig config = scheduler_config(SchedPolicy::kBinned, 8);
  config.batching.max_rows = 10;  // two 4-row prompts fit, a third would overflow
  StepScheduler scheduler(queue, sessions, config);

  std::vector<std::size_t> sizes;
  while (const auto pack = scheduler.next_pack()) {
    sizes.push_back(pack->entries.size());
    std::size_t rows = 0;
    for (const StepEntry& entry : pack->entries) rows += entry.rows;
    EXPECT_LE(rows, config.batching.max_rows);
    retire(scheduler, *pack);
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{2, 2, 1}));
}

TEST(PolicyStepScheduler, ShedRequestsRideOutInPackShed) {
  RequestQueue queue(16);
  SessionTable sessions(model::tiny_test_model());
  const auto now = Clock::now();
  for (std::uint64_t id = 0; id < 2; ++id) {
    Request missed = make_request(id, 8, now - std::chrono::milliseconds(10));
    missed.deadline_us = 1.0;  // already blown
    ASSERT_TRUE(queue.push(missed));
  }
  ASSERT_TRUE(queue.push(make_request(2, 8, now)));  // no deadline
  queue.close();

  StepSchedulerConfig config = scheduler_config(SchedPolicy::kEdf, 4);
  config.batching.policy.allow_shed = true;
  StepScheduler scheduler(queue, sessions, config);

  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(retire(scheduler, *pack), (std::vector<std::uint64_t>{2}));
  std::set<std::uint64_t> shed_ids;
  for (const Request& request : pack->shed) shed_ids.insert(request.id);
  EXPECT_EQ(shed_ids, (std::set<std::uint64_t>{0, 1}));
  // Shed requests never become sessions.
  EXPECT_EQ(sessions.live(), 0u);
  EXPECT_FALSE(scheduler.next_pack().has_value());
}

TEST(PolicyStepScheduler, DegradedAndNormalRequestsNeverShareAPack) {
  RequestQueue queue(16);
  SessionTable sessions(model::tiny_test_model());
  const auto now = Clock::now();
  for (std::uint64_t id = 0; id < 2; ++id) {
    Request tight = make_request(id, 8, now);
    tight.deadline_us = 1e6;  // inside the degrade band below
    ASSERT_TRUE(queue.push(tight));
  }
  for (std::uint64_t id = 2; id < 4; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, 8, now)));  // no deadline
  }
  queue.close();

  StepSchedulerConfig config = scheduler_config(SchedPolicy::kBinned, 4);
  config.batching.policy.allow_degrade = true;
  config.batching.policy.degrade_slack_us = 1e12;  // any deadline-bearing request
  StepScheduler scheduler(queue, sessions, config);

  std::size_t degraded_requests = 0, normal_requests = 0;
  while (const auto pack = scheduler.next_pack()) {
    for (const StepEntry& entry : pack->entries) {
      // Lane purity: every session matches its pack's lane.
      EXPECT_EQ(entry.session->request.degraded, pack->degraded);
      (entry.session->request.degraded ? degraded_requests : normal_requests) += 1;
    }
    EXPECT_TRUE(pack->shed.empty());
    retire(scheduler, *pack);
  }
  EXPECT_EQ(degraded_requests, 2u);
  EXPECT_EQ(normal_requests, 2u);
}

}  // namespace
}  // namespace haan::serve
