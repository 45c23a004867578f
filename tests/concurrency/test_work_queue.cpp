#include "apar/concurrency/work_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace acc = apar::concurrency;

TEST(WorkQueue, FifoSingleThread) {
  acc::WorkQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(WorkQueue, PopBlocksUntilPush) {
  acc::WorkQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(42);
  });
  EXPECT_EQ(q.pop(), 42);
  producer.join();
}

TEST(WorkQueue, CloseWakesConsumers) {
  acc::WorkQueue<int> q;
  std::atomic<int> nullopts{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i)
    consumers.emplace_back([&] {
      if (!q.pop().has_value()) ++nullopts;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(nullopts.load(), 3);
}

TEST(WorkQueue, DrainsRemainingItemsAfterClose) {
  acc::WorkQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(WorkQueue, PushAfterCloseRefused) {
  acc::WorkQueue<int> q;
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.size(), 0u);
}

TEST(WorkQueue, TryPopNonBlocking) {
  acc::WorkQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(5);
  EXPECT_EQ(q.try_pop(), 5);
}

TEST(WorkQueue, EveryItemConsumedExactlyOnce) {
  acc::WorkQueue<int> q;
  constexpr int kItems = 1000;
  constexpr int kConsumers = 4;
  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        std::lock_guard lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*item).second) << "duplicate " << *item;
      }
    });
  for (int i = 0; i < kItems; ++i) q.push(i);
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kItems));
}

TEST(WorkQueue, MoveOnlyPayload) {
  acc::WorkQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(7));
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 7);
}

TEST(WorkQueueBatch, PushBatchEnqueuesAllInOrder) {
  acc::WorkQueue<int> q;
  std::vector<int> batch{1, 2, 3, 4};
  EXPECT_EQ(q.push_batch(batch), 4u);
  EXPECT_TRUE(batch.empty());  // moved from on success
  EXPECT_EQ(q.size(), 4u);
  for (int expect = 1; expect <= 4; ++expect) EXPECT_EQ(q.pop(), expect);
}

TEST(WorkQueueBatch, PushBatchRefusedWhenClosedLeavesItemsIntact) {
  acc::WorkQueue<int> q;
  q.close();
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(q.push_batch(batch), 0u);
  EXPECT_EQ(batch.size(), 3u);  // all-or-nothing: caller keeps the work
  EXPECT_EQ(q.size(), 0u);
}

TEST(WorkQueueBatch, PushBatchEmptyIsANoOp) {
  acc::WorkQueue<int> q;
  std::vector<int> batch;
  EXPECT_EQ(q.push_batch(batch), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(WorkQueueBatch, PushBatchWakesAllConsumers) {
  acc::WorkQueue<int> q;
  std::atomic<int> got{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c)
    consumers.emplace_back([&] {
      if (q.pop().has_value()) got.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> batch{1, 2, 3};
  q.push_batch(batch);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(got.load(), 3);
}

TEST(WorkQueueBatch, BatchAndSingleInterleaveKeepEveryItem) {
  acc::WorkQueue<int> q;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 20;
  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c)
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        std::lock_guard lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*item).second) << "duplicate " << *item;
      }
    });
  for (int b = 0; b < kBatches; ++b) {
    std::vector<int> batch;
    for (int i = 0; i < kPerBatch; ++i) batch.push_back(b * kPerBatch + i);
    q.push_batch(batch);
  }
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kBatches * kPerBatch));
}
