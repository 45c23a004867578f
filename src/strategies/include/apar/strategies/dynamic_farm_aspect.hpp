#pragma once

#include <condition_variable>
#include <memory>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/concurrency/work_queue.hpp"
#include "apar/strategies/partition_common.hpp"
#include "apar/strategies/stage_concept.hpp"

namespace apar::strategies {

/// Demand-driven farm (the paper's "dynamic farm", Table 1 row FarmDRMI).
///
/// Work packs go into a shared queue; one persistent worker loop per
/// duplicate pulls packs and drives its own worker object. Load balances
/// itself: a slow worker simply pulls fewer packs.
///
/// This is the one strategy where the paper admits partition and
/// concurrency could not be separated ("the dynamic farm is an example
/// where we were not able yet to separate partition from concurrency
/// issues") — faithfully, this aspect owns its threads and needs no
/// ConcurrencyAspect; Table 1 lists FarmDRMI with an empty concurrency
/// column.
template <class T, class E, class... CtorArgs>
  requires Stage<T, E>
class DynamicFarmAspect : public aop::Aspect {
 public:
  struct Options {
    std::size_t duplicates = 2;
    std::size_t pack_size = 1000;
    CtorPartitioner<CtorArgs...> ctor_args =
        broadcast_ctor_args<CtorArgs...>();
  };

  DynamicFarmAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(std::move(options)) {
    register_duplication();
    register_split();
  }

  explicit DynamicFarmAspect(Options options)
      : DynamicFarmAspect("DynamicFarm", std::move(options)) {}

  ~DynamicFarmAspect() override { stop_workers(); }

  [[nodiscard]] const std::vector<aop::Ref<T>>& workers() const {
    return workers_;
  }

  std::vector<E> gather_results(aop::Context& ctx) {
    return strategies::gather_results<E>(ctx, workers_);
  }

  /// Packs processed so far, per worker index (diagnostic: shows the load
  /// balance the demand-driven queue achieved).
  [[nodiscard]] std::vector<std::size_t> packs_per_worker() const {
    std::lock_guard lock(pending_mutex_);
    return packs_per_worker_;
  }

  void on_quiesce(aop::Context&) override {
    std::unique_lock lock(pending_mutex_);
    idle_cv_.wait(lock, [&] { return pending_ == 0; });
  }

  void on_detach(aop::Context&) override { stop_workers(); }

 private:
  void register_duplication() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          stop_workers();
          auto first = duplicate_creation(inv, options_.duplicates,
                                          options_.ctor_args, workers_);
          {
            std::lock_guard lock(pending_mutex_);
            packs_per_worker_.assign(workers_.size(), 0);
          }
          start_workers(inv.context());
          return first;
        });
  }

  void register_split() {
    this->template around_method<&T::process>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](auto& inv) {
          auto& [data] = inv.args();
          auto packs = split_into_packs<E>(data, options_.pack_size);
          if (packs.empty()) return;
          const std::size_t n = packs.size();
          {
            std::lock_guard lock(pending_mutex_);
            pending_ += n;
          }
          // One lock acquisition + one notify_all for the whole partition
          // instead of a lock/notify pair per pack.
          if (queue_->push_batch(packs) == 0) {
            // Queue closed under us (detach raced the split): nothing was
            // enqueued, so roll the accounting back or quiesce() hangs.
            std::lock_guard lock(pending_mutex_);
            pending_ -= n;
            if (pending_ == 0) idle_cv_.notify_all();
          }
        })
        // Each worker loop drives its OWN worker object, so the spawned
        // executions are object-confined: per-instance state cannot race
        // across them and the effect analyzer skips these signatures.
        // Demand-driven pull also makes the farm online-resizable from an
        // adapter's perspective: accepted packs sit in the closed-over
        // queue until SOME loop claims them, so resizing the pool behind
        // a composition between pulls can neither orphan nor double-run a
        // pack.
        .mark_spawns_concurrency(/*confined_to_target=*/true)
        .mark_online_resizable();
  }

  void start_workers(aop::Context& ctx) {
    threads_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      threads_.emplace_back([this, &ctx, i] { worker_loop(ctx, i); });
    }
  }

  void worker_loop(aop::Context& ctx, std::size_t index) {
    // Calls made from this loop are aspect-made, not core-made: without
    // this frame the split advice above would re-intercept them.
    aop::AspectFrame frame(*this);
    aop::Ref<T> self = workers_[index];
    // Pack-at-a-time demand pull; nullopt means closed and drained.
    while (auto pack = queue_->pop()) {
      ctx.template call<&T::process>(self, *pack);
      std::lock_guard lock(pending_mutex_);
      ++packs_per_worker_[index];
      if (--pending_ == 0) idle_cv_.notify_all();
    }
  }

  void stop_workers() {
    queue_->close();
    for (auto& t : threads_) t.join();
    threads_.clear();
    // A fresh queue for a potential new duplication round.
    queue_ = std::make_unique<concurrency::WorkQueue<std::vector<E>>>();
  }

  Options options_;
  std::vector<aop::Ref<T>> workers_;
  std::unique_ptr<concurrency::WorkQueue<std::vector<E>>> queue_ =
      std::make_unique<concurrency::WorkQueue<std::vector<E>>>();
  std::vector<std::thread> threads_;

  mutable std::mutex pending_mutex_;
  std::condition_variable idle_cv_;
  std::size_t pending_ = 0;
  std::vector<std::size_t> packs_per_worker_;
};

}  // namespace apar::strategies
