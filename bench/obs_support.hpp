#pragma once

// Opt-in observability for the figure benches:
//   APAR_METRICS=1        print the metrics-registry table after the run
//                         (also enables substrate probes via obs);
//   APAR_METRICS_OUT=f    write the registry as JSON to `f`;
//   APAR_TRACE_OUT=f      plug a TraceAspect over the sieve join points and
//                         write a Chrome trace_event JSON file to `f`
//                         (loadable in Perfetto / chrome://tracing).
// With none of these set, nothing here touches the measured path.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string_view>
#include <utility>

#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_aspect.hpp"
#include "apar/sieve/prime_filter.hpp"

namespace apar::bench {

inline const char* obs_env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

inline bool obs_metrics_requested() {
  const char* v = obs_env("APAR_METRICS");
  if (v == nullptr) return false;
  const std::string_view s(v);
  return s != "0" && s != "false" && s != "off";
}

/// Tracer shared by every traced harness in this bench process, so all
/// reps land in one timeline.
inline const std::shared_ptr<obs::Tracer>& obs_tracer() {
  static const std::shared_ptr<obs::Tracer> tracer =
      std::make_shared<obs::Tracer>();
  return tracer;
}

/// When APAR_TRACE_OUT is set, plug a TraceAspect over the sieve join
/// points into `ctx`, feeding obs_tracer(). Returns whether it attached.
inline bool obs_attach_trace(aop::Context& ctx) {
  if (obs_env("APAR_TRACE_OUT") == nullptr) return false;
  auto trace = std::make_shared<obs::TraceAspect<sieve::PrimeFilter>>(
      "BenchTrace", obs_tracer());
  trace->trace_method<&sieve::PrimeFilter::process>()
      .trace_method<&sieve::PrimeFilter::filter>()
      .trace_method<&sieve::PrimeFilter::collect>()
      .trace_method<&sieve::PrimeFilter::take_results>()
      .template trace_new<long long, long long, double>();
  ctx.attach(std::move(trace));
  return true;
}

/// Dump whatever observability the environment asked for. Call once at the
/// end of main().
inline void obs_finish() {
  if (obs_metrics_requested()) {
    std::printf("\n=== metrics registry ===\n%s\n",
                obs::MetricsRegistry::global().table().str().c_str());
  }
  if (const char* path = obs_env("APAR_METRICS_OUT")) {
    std::ofstream out(path);
    out << obs::MetricsRegistry::global().to_json() << '\n';
    if (out)
      std::printf("metrics json: %s\n", path);
    else
      std::fprintf(stderr, "failed to write metrics json to %s\n", path);
  }
  if (const char* path = obs_env("APAR_TRACE_OUT")) {
    obs_tracer()->write_chrome_trace(path);
    std::printf(
        "chrome trace: %s (%zu events) — load in Perfetto or "
        "chrome://tracing\n",
        path, obs_tracer()->size());
  }
}

}  // namespace apar::bench
