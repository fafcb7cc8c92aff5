#include "serve/step_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "model/config.hpp"

namespace haan::serve {
namespace {

Request make_request(std::uint64_t id, std::size_t len = 1) {
  Request request;
  request.id = id;
  request.tokens.assign(len, 0);
  request.enqueued_at = Clock::now();
  return request;
}

/// These tests pin the FIFO contract (strict arrival order across packs);
/// the policy knobs stay at their kFifo defaults.
StepSchedulerConfig make_config(std::size_t max_batch, std::int64_t max_wait_us) {
  StepSchedulerConfig config;
  config.batching.max_batch = max_batch;
  config.batching.max_wait = std::chrono::microseconds(max_wait_us);
  config.batching.policy.policy = SchedPolicy::kFifo;
  return config;
}

std::vector<std::uint64_t> ids_of(const StepPack& pack) {
  std::vector<std::uint64_t> ids;
  for (const StepEntry& entry : pack.entries) ids.push_back(entry.session->request.id);
  return ids;
}

/// Retires every session aboard, as a worker does after their final step.
void finish_all(StepScheduler& scheduler, const StepPack& pack) {
  for (const StepEntry& entry : pack.entries) scheduler.finish(entry.session);
}

/// Queue + session table a scheduler under test admits into.
struct Harness {
  explicit Harness(std::size_t queue_capacity)
      : queue(queue_capacity), sessions(model::tiny_test_model()) {}
  RequestQueue queue;
  SessionTable sessions;
};

TEST(StepScheduler, FormsFullPackFromBackloggedQueue) {
  Harness h(16);
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));

  StepScheduler scheduler(h.queue, h.sessions, make_config(4, 100));
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->sequence, 0u);
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  for (const StepEntry& entry : pack->entries) {
    EXPECT_EQ(entry.rows, 1u);  // whole one-token prompt
    EXPECT_FALSE(entry.decode);
  }
  EXPECT_EQ(h.sessions.live(), 4u);
}

TEST(StepScheduler, MaxWaitDeadlineClosesPartialPack) {
  Harness h(16);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  StepScheduler scheduler(h.queue, h.sessions, make_config(8, 5000));
  // Session 0 stays in flight (neither requeued nor finished), so it could
  // still join the next pack: that pack must wait out max_wait for it.
  ASSERT_TRUE(scheduler.next_pack().has_value());
  ASSERT_TRUE(h.queue.push(make_request(1)));

  const auto t0 = Clock::now();
  const auto pack = scheduler.next_pack();  // nothing else arrives
  const double waited = elapsed_us(t0, Clock::now());
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{1}));
  // Scheduler held the pack open for the deadline, not forever.
  EXPECT_GE(waited, 4000.0);
  EXPECT_LT(waited, 2e6);
}

TEST(StepScheduler, ClosesEarlyWhenNoOtherWorkCouldJoin) {
  // A lone request with nothing queued and no other live session ships at
  // once: waiting out max_wait could only pack future arrivals.
  Harness h(16);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  StepScheduler scheduler(h.queue, h.sessions, make_config(4, 30000000));
  const auto t0 = Clock::now();
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{0}));
  EXPECT_LT(elapsed_us(t0, Clock::now()), 10e6);  // << the 30 s max-wait
}

TEST(StepScheduler, CollectsLateArrivalsWhileALiveSessionCanJoin) {
  Harness h(16);
  ASSERT_TRUE(h.queue.push(make_request(0, 3)));
  StepScheduler scheduler(h.queue, h.sessions, make_config(4, 200000));
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  Session* in_flight = first->entries.front().session;

  ASSERT_TRUE(h.queue.push(make_request(1)));
  std::thread late_producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(h.queue.push(make_request(2)));
    ASSERT_TRUE(h.queue.push(make_request(3)));
    scheduler.requeue(in_flight);  // its next step joins the open pack
  });
  const auto pack = scheduler.next_pack();
  late_producer.join();
  ASSERT_TRUE(pack.has_value());
  // Pack filled to max_batch inside the wait window: arrivals plus the
  // requeued live session.
  const std::vector<std::uint64_t> ids = ids_of(*pack);
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()),
            (std::set<std::uint64_t>{0, 1, 2, 3}));
}

TEST(StepScheduler, ReadySessionsPrecedeNewArrivals) {
  Harness h(16);
  ASSERT_TRUE(h.queue.push(make_request(0, 5)));
  StepSchedulerConfig config = make_config(2, 100);
  config.prefill_chunk = 2;
  StepScheduler scheduler(h.queue, h.sessions, config);
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->entries.size(), 1u);
  EXPECT_EQ(first->entries[0].rows, 2u);  // prefill chunk bounds the step

  Session* session = first->entries[0].session;
  session->fed += first->entries[0].rows;  // the worker fed the chunk
  for (std::uint64_t i = 1; i < 4; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));
  scheduler.requeue(session);

  const auto second = scheduler.next_pack();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ids_of(*second), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(second->entries[0].rows, 2u);
}

TEST(StepScheduler, FifoAcrossConsecutivePacks) {
  Harness h(32);
  for (std::uint64_t i = 0; i < 12; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));
  h.queue.close();

  StepScheduler scheduler(h.queue, h.sessions, make_config(5, 100));
  std::vector<std::uint64_t> order;
  std::uint64_t expected_sequence = 0;
  while (const auto pack = scheduler.next_pack()) {
    EXPECT_EQ(pack->sequence, expected_sequence++);
    for (const std::uint64_t id : ids_of(*pack)) order.push_back(id);
    finish_all(scheduler, *pack);
  }
  ASSERT_EQ(order.size(), 12u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(scheduler.packs_formed(), 3u);  // 5 + 5 + 2
}

TEST(StepScheduler, EndOfStreamAfterDrain) {
  Harness h(4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  h.queue.close();

  StepScheduler scheduler(h.queue, h.sessions, make_config(2, 100));
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  finish_all(scheduler, *pack);
  EXPECT_FALSE(scheduler.next_pack().has_value());
  EXPECT_FALSE(scheduler.next_pack().has_value());  // stays terminated
}

TEST(StepScheduler, ClosedQueueStillServesLiveSessions) {
  // Drain semantics: a closed, empty queue is not end-of-stream while a
  // session is live — its next step still gets packed.
  Harness h(4);
  ASSERT_TRUE(h.queue.push(make_request(0, 3)));
  h.queue.close();
  StepScheduler scheduler(h.queue, h.sessions, make_config(2, 100));
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  Session* session = first->entries.front().session;

  std::thread worker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    scheduler.requeue(session);
  });
  const auto second = scheduler.next_pack();
  worker.join();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ids_of(*second), (std::vector<std::uint64_t>{0}));
  finish_all(scheduler, *second);
  EXPECT_FALSE(scheduler.next_pack().has_value());
}

TEST(StepScheduler, StampsDequeueTimes) {
  Harness h(4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  ASSERT_TRUE(h.queue.push(make_request(1)));
  h.queue.close();

  StepScheduler scheduler(h.queue, h.sessions, make_config(2, 100));
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  ASSERT_EQ(pack->entries.size(), 2u);
  for (const StepEntry& entry : pack->entries) {
    const Request& request = entry.session->request;
    EXPECT_GE(elapsed_us(request.enqueued_at, request.dequeued_at), 0.0);
    EXPECT_NE(request.dequeued_at, Clock::time_point{});
  }
}

TEST(StepScheduler, ZeroMaxWaitShipsAtOnceEvenWithLiveSessions) {
  // max_wait=0: the deadline is already expired when the pack opens, so a
  // lone arrival ships immediately even though an in-flight session could
  // still join — the packed path must handle singleton packs.
  Harness h(4);
  ASSERT_TRUE(h.queue.push(make_request(0)));
  StepScheduler scheduler(h.queue, h.sessions, make_config(8, 0));
  ASSERT_TRUE(scheduler.next_pack().has_value());  // session 0 stays live
  ASSERT_TRUE(h.queue.push(make_request(1)));

  const auto t0 = Clock::now();
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(ids_of(*pack), (std::vector<std::uint64_t>{1}));
  EXPECT_LT(elapsed_us(t0, Clock::now()), 1e6);  // no wait burned
}

TEST(StepScheduler, ZeroMaxWaitStillDrainsBackloggedQueue) {
  // Already-queued requests join regardless of the deadline; max_wait only
  // bounds *waiting* for future work.
  Harness h(16);
  for (std::uint64_t i = 0; i < 6; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));

  StepScheduler scheduler(h.queue, h.sessions, make_config(8, 0));
  const auto pack = scheduler.next_pack();
  ASSERT_TRUE(pack.has_value());
  EXPECT_EQ(pack->entries.size(), 6u);
}

TEST(StepScheduler, EndOfStreamWithoutBurningMaxWait) {
  // Under a long max-wait, a pack with nothing else to wait for ships at
  // once, and the stream ends as soon as the queue closes and the last
  // session finishes — not when the deadline expires.
  Harness h(4);
  ASSERT_TRUE(h.queue.push(make_request(0)));

  StepScheduler scheduler(h.queue, h.sessions, make_config(8, 30000000));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(h.queue.push(make_request(1)));
    h.queue.close();
  });
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> order;
  while (const auto pack = scheduler.next_pack()) {
    for (const std::uint64_t id : ids_of(*pack)) order.push_back(id);
    finish_all(scheduler, *pack);
  }
  closer.join();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_LT(elapsed_us(t0, Clock::now()), 10e6);  // << the 30 s max-wait
}

TEST(StepScheduler, DrainedTailYieldsRaggedFinalPack) {
  // 7 requests into max_batch=4 -> a full pack and a ragged 3-session tail
  // (the packed path sees both a full and a partial pack).
  Harness h(16);
  for (std::uint64_t i = 0; i < 7; ++i) ASSERT_TRUE(h.queue.push(make_request(i)));
  h.queue.close();

  StepScheduler scheduler(h.queue, h.sessions, make_config(4, 100));
  const auto first = scheduler.next_pack();
  ASSERT_TRUE(first.has_value());
  finish_all(scheduler, *first);
  const auto second = scheduler.next_pack();
  ASSERT_TRUE(second.has_value());
  finish_all(scheduler, *second);
  EXPECT_EQ(first->entries.size(), 4u);
  EXPECT_EQ(second->entries.size(), 3u);
  EXPECT_FALSE(scheduler.next_pack().has_value());
}

TEST(StepScheduler, ConcurrentConsumersPartitionTheStream) {
  Harness h(64);
  constexpr std::uint64_t kRequests = 40;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(h.queue.push(make_request(i)));
  }
  h.queue.close();

  StepScheduler scheduler(h.queue, h.sessions, make_config(3, 100));
  std::mutex mu;
  std::vector<std::uint64_t> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (const auto pack = scheduler.next_pack()) {
        {
          std::lock_guard<std::mutex> lock(mu);
          for (const std::uint64_t id : ids_of(*pack)) seen.push_back(id);
        }
        finish_all(scheduler, *pack);
      }
    });
  }
  for (auto& consumer : consumers) consumer.join();

  // No request lost, none duplicated.
  ASSERT_EQ(seen.size(), kRequests);
  std::sort(seen.begin(), seen.end());
  for (std::uint64_t i = 0; i < kRequests; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(h.sessions.live(), 0u);
}

}  // namespace
}  // namespace haan::serve
