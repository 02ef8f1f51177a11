// ThreadPool: submission, results, exception propagation, job policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace steins {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValues) {
  ThreadPool pool(2);
  auto a = pool.submit([] { return 21; });
  auto b = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 21);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, FutureRethrowsTaskException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ForEachIndexCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(257, 0);
  pool.for_each_index(hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257);
}

TEST(ThreadPool, ForEachIndexPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.for_each_index(64, [&ran](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw std::invalid_argument("cell 7");
    });
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cell 7");
  }
  // Every task still ran to completion before the rethrow.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  // One worker drains the FIFO queue in submission order.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, WorkersKnowTheyArePoolWorkers) {
  // Code that could start a pool of its own checks this to avoid nesting.
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  EXPECT_TRUE(pool.submit([] { return ThreadPool::on_worker_thread(); }).get());
  ShardGang gang(4, 2);
  std::vector<int> seen(4, 0);
  gang.run_epoch([&](std::size_t s) { seen[s] = ThreadPool::on_worker_thread() ? 1 : 0; });
  EXPECT_EQ(seen, std::vector<int>(4, 1));
  // jobs == 1 runs shards on the calling thread, which is no worker.
  ShardGang inline_gang(2, 1);
  inline_gang.run_epoch([&](std::size_t s) { seen[s] = ThreadPool::on_worker_thread() ? 1 : 0; });
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 0);
}

TEST(ThreadPool, ShardGangRunsEachWorkerOnceOnItsShardsThread) {
  // run_workers hands worker w the thread that runs its shards, so a
  // worker can walk every shard with worker_of(shard) == w itself.
  for (const unsigned jobs : {1u, 2u, 3u}) {
    ShardGang gang(5, jobs);
    std::vector<std::thread::id> shard_thread(5);
    gang.run_epoch([&](std::size_t s) { shard_thread[s] = std::this_thread::get_id(); });
    std::vector<int> calls(gang.jobs(), 0);
    std::vector<std::thread::id> worker_thread(gang.jobs());
    gang.run_workers([&](unsigned w) {
      ++calls[w];
      worker_thread[w] = std::this_thread::get_id();
    });
    EXPECT_EQ(calls, std::vector<int>(gang.jobs(), 1)) << "jobs=" << jobs;
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_EQ(shard_thread[s], worker_thread[gang.worker_of(s)])
          << "jobs=" << jobs << " shard " << s;
    }
  }
}

TEST(ThreadPool, DefaultJobsHonoursEnv) {
  ASSERT_EQ(setenv("STEINS_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ASSERT_EQ(setenv("STEINS_JOBS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(), 1u);  // clamps to 1
  ASSERT_EQ(unsetenv("STEINS_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

}  // namespace
}  // namespace steins
