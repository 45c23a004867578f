#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "apar/aop/aspect.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::obs {

/// A pluggable profiling aspect for class T — the paper's methodology
/// applied to observability itself, sibling of TraceAspect (debugging) and
/// ChaosAspect (testing): plug it to wrap selected join points in
/// enter/exit timing that feeds per-signature latency histograms into a
/// MetricsRegistry; unplug it (or set_enabled(false)) and not a single
/// probe remains on the call path.
///
/// Unlike the ambient substrate instrumentation, ProfilingAspect ignores
/// the APAR_METRICS gate: plugging the aspect is already the opt-in.
///
/// Registry series, all labelled {"signature": "Class.method"}:
///   profile.latency_us  (histogram)  join-point wall time, enter -> exit
///   profile.calls       (counter)    completed executions (incl. errors)
///   profile.errors      (counter)    executions that exited by exception
///
/// When tracing_enabled(), every profiled join point additionally opens a
/// child span of the current context (installed for the duration of
/// proceed(), so fanned-out pool tasks and TCP calls parent back to it)
/// and records it into Tracer::global(). With tracing off the span
/// machinery is a single atomic load — the probes stay histogram-only.
///
/// Runs outermost by default (order 40, just outside TraceAspect's 50) so
/// it measures the full woven cost of a call as core functionality issued
/// it; plug a second instance at an inner order to time only the terminal.
template <class T>
class ProfilingAspect : public aop::Aspect {
 public:
  ProfilingAspect(std::string name, MetricsRegistry& registry, int order = 40)
      : Aspect(std::move(name)), registry_(&registry), order_(order) {}

  /// Profiles into the process-wide registry.
  explicit ProfilingAspect(MetricsRegistry& registry)
      : ProfilingAspect("Profiling", registry) {}
  ProfilingAspect() : ProfilingAspect("Profiling", MetricsRegistry::global()) {}

  /// Time executions of method M.
  template <auto M>
  ProfilingAspect& profile_method() {
    const std::string sig = std::string(aop::class_name_of<T>()) + "." +
                            std::string(aop::method_name_of<M>());
    auto probe = make_probe(sig);
    this->template around_method<M>(
        order_, aop::Scope::any(), [probe, sig](auto& inv) {
          const auto t0 = std::chrono::steady_clock::now();
          std::optional<SpanScope> scope;
          std::optional<SpanRecord> span;
          if (tracing_enabled()) {
            scope.emplace();
            span.emplace(*Tracer::global(), sig, inv.target().identity(),
                         scope->context(), t0);
          }
          using R = decltype(inv.proceed());
          try {
            if constexpr (std::is_void_v<R>) {
              inv.proceed();
              probe.finish(t0, /*error=*/false);
              if (span) span->close();
            } else {
              R result = inv.proceed();
              probe.finish(t0, /*error=*/false);
              if (span) span->close();
              return result;
            }
          } catch (...) {
            probe.finish(t0, /*error=*/true);
            throw;  // the still-open span records kError as it unwinds
          }
        });
    return *this;
  }

  /// Time creations T(CtorArgs...).
  template <class... CtorArgs>
  ProfilingAspect& profile_new() {
    const std::string sig = std::string(aop::class_name_of<T>()) + ".new";
    auto probe = make_probe(sig);
    this->template around_new<T, std::decay_t<CtorArgs>...>(
        order_, aop::Scope::any(),
        [probe, sig](aop::CtorInvocation<T, std::decay_t<CtorArgs>...>& inv) {
          const auto t0 = std::chrono::steady_clock::now();
          std::optional<SpanScope> scope;
          std::optional<SpanRecord> span;
          if (tracing_enabled()) {
            scope.emplace();
            span.emplace(*Tracer::global(), sig, nullptr, scope->context(),
                         t0);
          }
          try {
            auto ref = inv.proceed();
            probe.finish(t0, /*error=*/false);
            if (span) span->close(ref.identity());
            return ref;
          } catch (...) {
            probe.finish(t0, /*error=*/true);
            throw;
          }
        });
    return *this;
  }

  [[nodiscard]] MetricsRegistry& registry() const { return *registry_; }

 private:
  /// Per-signature instruments, resolved once at registration so the hot
  /// path never touches the registry map.
  struct Probe {
    std::shared_ptr<Histogram> latency;
    std::shared_ptr<Counter> calls;
    std::shared_ptr<Counter> errors;

    void finish(std::chrono::steady_clock::time_point t0, bool error) const {
      const auto us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      1000.0;
      latency->record(us);
      calls->add(1);
      if (error) errors->add(1);
    }
  };

  Probe make_probe(const std::string& signature) {
    const Labels labels{{"signature", signature}};
    return Probe{registry_->histogram("profile.latency_us", labels),
                 registry_->counter("profile.calls", labels),
                 registry_->counter("profile.errors", labels)};
  }

  MetricsRegistry* registry_;
  int order_;
};

}  // namespace apar::obs
