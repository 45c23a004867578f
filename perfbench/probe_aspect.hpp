#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/sieve/prime_filter.hpp"

namespace perfbench {

/// The benchmark's own instrumentation, plugged into a woven sieve
/// composition only for the traced run — the paper's method applied to
/// measurement: a concern added as one more aspect, with no probe inside
/// the library. Unplugged, nothing of it remains on the call path.
///
/// Advice it adds (lower order runs further out):
///   order 0,    any scope : counts every join point entering the weave
///                           (each Context::call / Context::create).
///   order 1,    core only : times the core's create and process calls on
///                           the caller thread; process returning is the
///                           end of the partition's fan-out.
///   order 150,  any scope : stamps each pack as the partition hands it to
///                           the concurrency aspect (local farms only).
///   order 1000, any scope : innermost — runs on the thread that executes
///                           the pack, right before the core method: the
///                           wait since the stamp, and the busy time of
///                           the core method (local farms only; remote
///                           targets never get this far).
class ProbeAspect : public apar::aop::Aspect {
 public:
  using Clock = std::chrono::steady_clock;
  using PrimeFilter = apar::sieve::PrimeFilter;

  /// One solve's readings; reset by take().
  struct Reading {
    std::uint64_t join_points = 0;
    double create_us = 0.0;
    double fanout_us = 0.0;
    double busy_us = 0.0;
    std::vector<double> dispatch_wait_us;
  };

  ProbeAspect(std::string name, bool local_compute);

  /// The readings since the last take(), and a fresh start.
  Reading take();

 private:
  template <auto M>
  void count_method();
  void time_core_edges();
  void time_local_compute();

  std::atomic<std::uint64_t> join_points_{0};
  std::mutex mutex_;
  Reading reading_;
  /// Dispatch stamps keyed by a pack's first candidate (packs are disjoint
  /// runs of the candidate list, so the key is unique within a solve).
  std::unordered_map<long long, Clock::time_point> stamps_;
};

}  // namespace perfbench
