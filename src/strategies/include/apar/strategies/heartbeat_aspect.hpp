#pragma once

#include <concepts>
#include <string>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/concurrency/future.hpp"
#include "apar/strategies/partition_common.hpp"

namespace apar::strategies {

/// The core-functionality shape the heartbeat protocol weaves against: a
/// "band" owning a horizontal slab of an iterative grid computation.
/// Sequentially, one band covers the whole domain and `run(iters)` just
/// steps it; the heartbeat aspect re-expresses the same call as
/// compute/exchange rounds over several bands.
template <class T>
concept HeartbeatBand = requires(T t, const std::vector<double>& row, int n) {
  { t.step() } -> std::same_as<void>;
  { t.run(n) } -> std::same_as<void>;
  { t.top_row() } -> std::same_as<std::vector<double>>;
  { t.bottom_row() } -> std::same_as<std::vector<double>>;
  { t.set_halo_above(row) } -> std::same_as<void>;
  { t.set_halo_below(row) } -> std::same_as<void>;
  { t.residual() } -> std::same_as<double>;
};

/// Reusable heartbeat partition protocol — the third strategy category the
/// paper reports implementing ("pipeline, farm with separable dependencies
/// and heartbeat", §7). Each iteration: exchange boundary rows between
/// adjacent bands, then step every band; the exchange/step cycle is the
/// heartbeat.
///
/// Like the dynamic farm, partition and concurrency are merged here (the
/// barrier between exchange and step phases is inherent to the protocol);
/// the distribution aspect still composes freely because every inter-band
/// interaction goes through context calls on Ref<T>s.
template <class T, class... CtorArgs>
  requires HeartbeatBand<T>
class HeartbeatAspect : public aop::Aspect {
 public:
  struct Options {
    std::size_t bands = 2;
    /// Derives each band's ctor args from the original creation (e.g.
    /// sub-ranges of grid rows). Required.
    CtorPartitioner<CtorArgs...> ctor_args;
    /// Step all bands concurrently (futures + implicit barrier). With
    /// false the heartbeat still partitions but steps sequentially —
    /// useful for debugging, like unplugging the concurrency aspect.
    bool parallel_step = true;
  };

  HeartbeatAspect(std::string name, Options options)
      : Aspect(std::move(name)), options_(std::move(options)) {
    register_duplication();
    register_run();
  }

  explicit HeartbeatAspect(Options options)
      : HeartbeatAspect("Heartbeat", std::move(options)) {}

  [[nodiscard]] const std::vector<aop::Ref<T>>& bands() const {
    return bands_;
  }

  /// Global residual: sum over bands.
  double residual(aop::Context& ctx) {
    double sum = 0.0;
    for (auto& band : bands_) sum += ctx.template call<&T::residual>(band);
    return sum;
  }

  /// Heartbeats completed (iterations driven by the woven run()).
  [[nodiscard]] std::size_t beats() const { return beats_; }

 private:
  void register_duplication() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          return duplicate_creation(inv, options_.bands, options_.ctor_args,
                                    bands_);
        });
  }

  void register_run() {
    this->template around_method<&T::run>(
        aop::order::kPartitionSplit, aop::Scope::core_only(),
        [this](auto& inv) {
          const auto [iterations] = inv.args();
          auto& ctx = inv.context();
          for (int iter = 0; iter < iterations; ++iter) {
            exchange_halos(ctx);
            step_all(ctx);
            ++beats_;
          }
        });
  }

  void exchange_halos(aop::Context& ctx) {
    // Band i's bottom row becomes band i+1's halo-above and vice versa.
    for (std::size_t i = 0; i + 1 < bands_.size(); ++i) {
      auto boundary_down = ctx.template call<&T::bottom_row>(bands_[i]);
      auto boundary_up = ctx.template call<&T::top_row>(bands_[i + 1]);
      ctx.template call<&T::set_halo_above>(bands_[i + 1], boundary_down);
      ctx.template call<&T::set_halo_below>(bands_[i], boundary_up);
    }
  }

  void step_all(aop::Context& ctx) {
    if (!options_.parallel_step || bands_.size() == 1) {
      for (auto& band : bands_) ctx.template call<&T::step>(band);
      return;
    }
    std::vector<concurrency::Future<void>> steps;
    steps.reserve(bands_.size());
    for (auto& band : bands_)
      steps.push_back(ctx.template call_future<&T::step>(band));
    concurrency::wait_all(steps);  // the heartbeat barrier
  }

  Options options_;
  std::vector<aop::Ref<T>> bands_;
  std::size_t beats_ = 0;
};

}  // namespace apar::strategies
