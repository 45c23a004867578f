#include "probe_aspect.hpp"

#include <utility>

namespace perfbench {

namespace aop = apar::aop;

namespace {

using CtorInv = aop::CtorInvocation<apar::sieve::PrimeFilter, long long,
                                    long long, double>;

double us_since(ProbeAspect::Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(ProbeAspect::Clock::now() -
                                                   t0)
      .count();
}

}  // namespace

ProbeAspect::ProbeAspect(std::string name, bool local_compute)
    : Aspect(std::move(name)) {
  count_method<&PrimeFilter::process>();
  count_method<&PrimeFilter::filter>();
  count_method<&PrimeFilter::collect>();
  count_method<&PrimeFilter::take_results>();
  around_new<PrimeFilter, long long, long long, double>(
      0, aop::Scope::any(), [this](CtorInv& inv) {
        join_points_.fetch_add(1, std::memory_order_relaxed);
        return inv.proceed();
      });
  time_core_edges();
  if (local_compute) time_local_compute();
}

template <auto M>
void ProbeAspect::count_method() {
  before_method<M>(0, aop::Scope::any(), [this](auto&) {
    join_points_.fetch_add(1, std::memory_order_relaxed);
  });
}

void ProbeAspect::time_core_edges() {
  around_new<PrimeFilter, long long, long long, double>(
      1, aop::Scope::core_only(), [this](CtorInv& inv) {
        const auto t0 = Clock::now();
        auto ref = inv.proceed();
        const double us = us_since(t0);
        std::lock_guard lock(mutex_);
        reading_.create_us += us;
        return ref;
      });
  around_method<&PrimeFilter::process>(
      1, aop::Scope::core_only(), [this](auto& inv) {
        const auto t0 = Clock::now();
        inv.proceed();
        const double us = us_since(t0);
        std::lock_guard lock(mutex_);
        reading_.fanout_us += us;
      });
}

void ProbeAspect::time_local_compute() {
  before_method<&PrimeFilter::process>(
      150, aop::Scope::any(), [this](auto& inv) {
        const auto& [pack] = inv.args();
        if (pack.empty()) return;
        const auto now = Clock::now();
        std::lock_guard lock(mutex_);
        stamps_[pack.front()] = now;
      });
  around_method<&PrimeFilter::process>(
      1000, aop::Scope::any(), [this](auto& inv) {
        const auto t0 = Clock::now();
        const auto& [pack] = inv.args();
        const long long key = pack.empty() ? 0 : pack.front();
        inv.proceed();
        const double busy = us_since(t0);
        std::lock_guard lock(mutex_);
        reading_.busy_us += busy;
        if (auto it = stamps_.find(key); it != stamps_.end()) {
          reading_.dispatch_wait_us.push_back(
              std::chrono::duration<double, std::micro>(t0 - it->second)
                  .count());
          stamps_.erase(it);
        }
      });
}

ProbeAspect::Reading ProbeAspect::take() {
  std::lock_guard lock(mutex_);
  Reading out = std::move(reading_);
  reading_ = Reading{};
  out.join_points = join_points_.exchange(0, std::memory_order_relaxed);
  stamps_.clear();
  return out;
}

}  // namespace perfbench
