#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "apar/aop/aspect.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::obs {

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
class TraceAspect : public aop::Aspect {
 public:
  TraceAspect(std::string name, std::shared_ptr<Tracer> tracer,
              int order = 50)
      : Aspect(std::move(name)), tracer_(std::move(tracer)), order_(order) {}

  explicit TraceAspect(std::shared_ptr<Tracer> tracer)
      : TraceAspect("Trace", std::move(tracer)) {}

  template <auto M>
  TraceAspect& trace_method() {
    this->template around_method<M>(
        order_, aop::Scope::any(), [this](auto& inv) {
          SpanScope scope;
          SpanRecord span(*tracer_, inv.signature().str(),
                          inv.target().identity(), scope.context());
          if constexpr (std::is_void_v<decltype(inv.proceed())>) {
            inv.proceed();
            span.close();
          } else {
            auto result = inv.proceed();
            span.close();
            return result;
          }
        });
    return *this;
  }

  /// Trace creations T(CtorArgs...).
  template <class... CtorArgs>
  TraceAspect& trace_new() {
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        order_, aop::Scope::any(),
        [this](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          SpanScope scope;
          SpanRecord span(*tracer_, inv.signature().str(), nullptr,
                          scope.context());
          auto ref = inv.proceed();
          span.close(ref.identity());
          return ref;
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

}  // namespace apar::obs
