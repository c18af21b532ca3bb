// Unit tests for snp::exec — the host-side thread pool behind the
// multi-GPU shards and the query service's batch executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace snp::exec {
namespace {

using namespace std::chrono_literals;

TEST(ThreadPool, ZeroThreadsRunsInlineOnThePostingThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  bool ran = false;
  pool.post([&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  // Inline mode: the task has already run by the time post() returns.
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, SubmitCarriesResultsAndExceptions) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{3}}) {
    ThreadPool pool(threads);
    auto ok = pool.submit([] { return 6 * 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("task boom"); });
    EXPECT_EQ(ok.get(), 42);
    EXPECT_THROW(bad.get(), std::runtime_error);
  }
}

TEST(ThreadPool, DestructionDrainsEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post([&ran] {
        std::this_thread::sleep_for(100us);
        ran.fetch_add(1);
      });
    }
    // Destructor must execute all 64, not drop the still-queued tail.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, WaitIdleObservesAllPostedWork) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&ran] { ran.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, PostedTaskExceptionPropagatesToWaitIdle) {
  // Regression: a throwing post()ed task used to escape the worker loop
  // (std::terminate). The first exception must be captured and rethrown
  // from the next wait_idle(); later tasks keep running.
  ThreadPool pool(2);
  pool.post([] { throw std::runtime_error("task boom"); });
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.post([&ran] { ++ran; });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(pool.failed_count(), 1u);
  // Sticky until cleared, so callers that wait in several places cannot
  // miss it; clear_error() re-arms the pool for reuse.
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  pool.clear_error();
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(pool.failed_count(), 0u);
}

TEST(ThreadPool, OnlyTheFirstExceptionIsRethrown) {
  ThreadPool pool(1);  // single worker => deterministic failure order
  pool.post([] { throw std::runtime_error("first"); });
  pool.post([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(pool.failed_count(), 2u);
}

TEST(ThreadPool, InlineModePropagatesDirectlyFromPost) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.post([] { throw std::runtime_error("inline"); }),
               std::runtime_error);
  EXPECT_NO_THROW(pool.wait_idle());  // nothing captured: it unwound
}

TEST(ThreadPool, DestructorDrainsCleanlyPastFailingTasks) {
  // Shutdown with a queue full of throwing tasks must drain and join
  // without terminating the process.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.post([&ran, i] {
        ++ran;
        if (i % 2 == 0) {
          throw std::runtime_error("flaky shutdown task");
        }
      });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, SingleWorkerRunsTasksInPostingOrder) {
  // The service's batch executor relies on FIFO order: one worker runs
  // batches exactly in the order they were posted.
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    pool.post([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  std::vector<int> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, QueueDepthAndActiveWorkersTrackABlockedWorker) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.active_workers(), 0u);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.post([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  for (int i = 0; i < 3; ++i) {
    pool.post([] {});
  }
  // The worker is held inside the first task, so the rest stay queued.
  EXPECT_EQ(pool.active_workers(), 1u);
  EXPECT_EQ(pool.queue_depth(), 3u);
  release.set_value();
  pool.wait_idle();
  EXPECT_EQ(pool.active_workers(), 0u);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPool, InlinePoolReportsNoQueueAndNoWorkers) {
  ThreadPool pool(0);
  std::size_t depth_inside = 1;
  std::size_t active_inside = 1;
  pool.post([&] {
    depth_inside = pool.queue_depth();
    active_inside = pool.active_workers();
  });
  EXPECT_EQ(depth_inside, 0u);
  EXPECT_EQ(active_inside, 0u);
}

TEST(ThreadPool, SubmitExceptionsStayInTheirFuture) {
  // submit() hands a task's exception to its future only: wait_idle()
  // and failed_count() belong to post()ed tasks, so a failed shard never
  // poisons the pool for later callers.
  ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("shard"); });
  auto ok = pool.submit([] { return 1; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(pool.failed_count(), 0u);
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(ok.get(), 1);
}

TEST(ThreadPool, SubmitRunsEveryShardExactlyOnce) {
  // The multi-GPU idiom: one submit() per shard, then get() every future.
  for (const std::size_t threads :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    constexpr std::size_t kShards = 37;
    std::vector<int> hits(kShards, 0);  // one slot per shard: no sharing
    {
      ThreadPool pool(threads);
      std::vector<std::future<std::size_t>> done;
      for (std::size_t d = 0; d < kShards; ++d) {
        done.push_back(pool.submit([&hits, d] {
          ++hits[d];
          return d * d;
        }));
      }
      for (std::size_t d = 0; d < kShards; ++d) {
        EXPECT_EQ(done[d].get(), d * d) << threads << " threads";
      }
    }
    for (std::size_t d = 0; d < kShards; ++d) {
      EXPECT_EQ(hits[d], 1) << "shard " << d << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, WaitIdleCoversTasksPostedByTasks) {
  // A task posts its follow-up before it finishes, so the queue is never
  // empty while the chain is live and wait_idle() sees all of it.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::function<void(int)> step = [&](int left) {
    ran.fetch_add(1);
    if (left > 0) {
      pool.post([&step, left] { step(left - 1); });
    }
  };
  pool.post([&step] { step(9); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, WorkersRunTasksConcurrently) {
  // Two tasks that each wait for the other can only both finish if two
  // workers run them at the same time (bounded, so a serial pool fails
  // instead of hanging).
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  const auto meet = [&arrived] {
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (arrived.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(100us);
    }
    return true;
  };
  auto first = pool.submit(meet);
  auto second = pool.submit(meet);
  EXPECT_TRUE(first.get());
  EXPECT_TRUE(second.get());
}

}  // namespace
}  // namespace snp::exec
