// Scheduler ablation: central mutex-protected queue vs the work-stealing
// scheduler that replaced it (per-worker Chase-Lev deques + injection
// queue + SBO task envelopes).
//
// `CentralQueuePool` below is a faithful local copy of the previous
// ThreadPool internals (single std::deque<std::function<void()>> under one
// mutex, condition_variable wakeups) so the comparison survives the old
// code's deletion. Benchmarks sweep 1/2/4/8 workers over three shapes:
//
//   * ExternalPost  — one producer thread floods N tasks, then drains.
//     Exercises the injection path and wakeups.
//   * RecursiveFan  — a seed task fans out from inside a worker.
//     Exercises owner-local push/pop and stealing; the central queue
//     pays the global lock on every recursive post.
//   * ParallelFor   — bulk partition submission via parallel_for
//     (work-stealing) vs per-chunk posts (central queue).
//
// Counters: "tasks/s" rates the real throughput; work-stealing runs also
// report steals/overflows per iteration. Run it directly; google-benchmark's
// --benchmark_repetitions=N --benchmark_report_aggregates_only=true reports
// the median and spread.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "apar/concurrency/parallel_for.hpp"
#include "apar/concurrency/task.hpp"
#include "apar/concurrency/thread_pool.hpp"

namespace cc = apar::concurrency;

namespace {

/// The pre-work-stealing ThreadPool, reduced to its scheduling skeleton:
/// one central queue, one mutex, one condition variable. Metrics and the
/// failure counter are dropped; the locking structure is unchanged.
class CentralQueuePool {
 public:
  explicit CentralQueuePool(std::size_t threads) {
    if (threads == 0) threads = 1;
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~CentralQueuePool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (stopping_) return;
          continue;
        }
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
        if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

constexpr int kTasksPerIter = 4096;
constexpr int kFanWidth = 64;       // children per seed task
constexpr int kFanSeeds = 64;       // seed tasks per iteration
constexpr std::size_t kForRange = 4096;
constexpr std::size_t kForGrain = 64;

/// Tiny per-task payload so the benchmark measures scheduling, not work,
/// while keeping the task body non-empty enough not to collapse entirely.
inline void touch(std::atomic<std::uint64_t>& sink) {
  sink.fetch_add(1, std::memory_order_relaxed);
}

// --- shape 1: external producer flood -------------------------------------

void BM_CentralQueue_ExternalPost(benchmark::State& state) {
  CentralQueuePool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int i = 0; i < kTasksPerIter; ++i) pool.post([&sink] { touch(sink); });
    pool.drain();
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerIter);
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_CentralQueue_ExternalPost)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_WorkStealing_ExternalPost(benchmark::State& state) {
  cc::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int i = 0; i < kTasksPerIter; ++i) pool.post([&sink] { touch(sink); });
    pool.drain();
  }
  state.SetItemsProcessed(state.iterations() * kTasksPerIter);
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(pool.steals()),
                         benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_WorkStealing_ExternalPost)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- shape 2: recursive fan-out from inside workers ------------------------

void BM_CentralQueue_RecursiveFan(benchmark::State& state) {
  CentralQueuePool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int s = 0; s < kFanSeeds; ++s)
      pool.post([&pool, &sink] {
        for (int i = 0; i < kFanWidth; ++i)
          pool.post([&sink] { touch(sink); });
      });
    pool.drain();
  }
  state.SetItemsProcessed(state.iterations() * kFanSeeds * (kFanWidth + 1));
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_CentralQueue_RecursiveFan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_WorkStealing_RecursiveFan(benchmark::State& state) {
  cc::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (int s = 0; s < kFanSeeds; ++s)
      pool.post([&pool, &sink] {
        for (int i = 0; i < kFanWidth; ++i)
          pool.post([&sink] { touch(sink); });
      });
    pool.drain();
  }
  state.SetItemsProcessed(state.iterations() * kFanSeeds * (kFanWidth + 1));
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(pool.steals()),
                         benchmark::Counter::kAvgIterations);
  state.counters["overflows"] =
      benchmark::Counter(static_cast<double>(pool.overflows()),
                         benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_WorkStealing_RecursiveFan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- shape 3: bulk partition submission ------------------------------------

void BM_CentralQueue_ChunkedFor(benchmark::State& state) {
  // The old Farm advice posted one task per chunk and waited on a latch;
  // model that with per-chunk posts + drain.
  CentralQueuePool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    for (std::size_t begin = 0; begin < kForRange; begin += kForGrain) {
      const std::size_t end = std::min(begin + kForGrain, kForRange);
      pool.post([&sink, begin, end] {
        for (std::size_t i = begin; i < end; ++i) touch(sink);
      });
    }
    pool.drain();
  }
  state.SetItemsProcessed(state.iterations() * kForRange);
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_CentralQueue_ChunkedFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_WorkStealing_ParallelFor(benchmark::State& state) {
  cc::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    cc::parallel_for(pool, 0, kForRange, kForGrain,
                     [&sink](std::size_t) { touch(sink); });
  }
  state.SetItemsProcessed(state.iterations() * kForRange);
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(pool.steals()),
                         benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_WorkStealing_ParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- envelope micro: SBO Task vs std::function ------------------------------

void BM_Envelope_StdFunction(benchmark::State& state) {
  std::atomic<std::uint64_t> sink{0};
  std::uint64_t a = 1, b = 2, c = 3, d = 4;  // big enough to defeat most SBOs
  for (auto _ : state) {
    std::function<void()> f([&sink, a, b, c, d] { sink += a + b + c + d; });
    f();
    benchmark::DoNotOptimize(f);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_Envelope_StdFunction);

void BM_Envelope_SboTask(benchmark::State& state) {
  std::atomic<std::uint64_t> sink{0};
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (auto _ : state) {
    cc::Task t([&sink, a, b, c, d] { sink += a + b + c + d; });
    t();
    benchmark::DoNotOptimize(t);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_Envelope_SboTask);

}  // namespace

BENCHMARK_MAIN();
