#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "apar/aop/aspect.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::aop {

// The Tracer itself lives in src/obs since PR 7 so that layers below aop
// (the thread pool, the TCP transport) can record causal spans into it.
// These aliases keep every existing aop-facing spelling working.
using TraceEvent = obs::TraceEvent;
using TraceSpan = obs::TraceSpan;
using Tracer = obs::Tracer;

/// A pluggable tracing aspect for class T — the classic AOP demonstrator,
/// here doubling as the paper's debugging story: plug it to see the woven
/// interaction structure, unplug it to remove every trace probe.
///
/// Every traced join point opens a child span of whatever context is
/// current on the executing thread (a new root when none is), and installs
/// it for the duration of proceed() — so work the join point fans out
/// (thread-pool tasks, TCP calls) parents back to it, across steals and
/// across the wire.
///
/// Runs outermost (order 50 by default) so it observes calls as core
/// functionality issued them, before partition advice rewrites them; trace
/// a second instance at an inner order to see the woven structure instead.
template <class T>
class TraceAspect : public Aspect {
 public:
  TraceAspect(std::string name, std::shared_ptr<Tracer> tracer,
              int order = 50)
      : Aspect(std::move(name)), tracer_(std::move(tracer)), order_(order) {}

  explicit TraceAspect(std::shared_ptr<Tracer> tracer)
      : TraceAspect("Trace", std::move(tracer)) {}

  template <auto M>
  TraceAspect& trace_method() {
    this->template around_method<M>(
        order_, Scope::any(), [this](auto& inv) {
          const std::string sig = inv.signature().str();
          const void* target = inv.target().identity();
          obs::SpanScope span;
          tracer_->record({std::chrono::steady_clock::now(),
                           std::this_thread::get_id(), sig, target,
                           TraceEvent::Phase::kEnter, span.context()});
          try {
            if constexpr (std::is_void_v<decltype(inv.proceed())>) {
              inv.proceed();
              tracer_->record({std::chrono::steady_clock::now(),
                               std::this_thread::get_id(), sig, target,
                               TraceEvent::Phase::kExit, span.context()});
            } else {
              auto result = inv.proceed();
              tracer_->record({std::chrono::steady_clock::now(),
                               std::this_thread::get_id(), sig, target,
                               TraceEvent::Phase::kExit, span.context()});
              return result;
            }
          } catch (...) {
            tracer_->record({std::chrono::steady_clock::now(),
                             std::this_thread::get_id(), sig, target,
                             TraceEvent::Phase::kError, span.context()});
            throw;
          }
        });
    return *this;
  }

  /// Trace creations T(CtorArgs...).
  template <class... CtorArgs>
  TraceAspect& trace_new() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        order_, Scope::any(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          const std::string sig = inv.signature().str();
          obs::SpanScope span;
          tracer_->record({std::chrono::steady_clock::now(),
                           std::this_thread::get_id(), sig, nullptr,
                           TraceEvent::Phase::kEnter, span.context()});
          try {
            auto ref = inv.proceed();
            tracer_->record({std::chrono::steady_clock::now(),
                             std::this_thread::get_id(), sig, ref.identity(),
                             TraceEvent::Phase::kExit, span.context()});
            return ref;
          } catch (...) {
            tracer_->record({std::chrono::steady_clock::now(),
                             std::this_thread::get_id(), sig, nullptr,
                             TraceEvent::Phase::kError, span.context()});
            throw;
          }
        });
    return *this;
  }

  [[nodiscard]] const std::shared_ptr<Tracer>& tracer() const {
    return tracer_;
  }

 private:
  std::shared_ptr<Tracer> tracer_;
  int order_;
};

}  // namespace apar::aop
