// The profiling aspect: plug it to time join points into a registry,
// unplug it and not a single write reaches the registry — the paper's
// unpluggability claim applied to observability.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "../aop/fixtures.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/obs/profiling_aspect.hpp"

namespace aop = apar::aop;
namespace concurrency = apar::concurrency;
namespace obs = apar::obs;
using apar::test::Worker;

namespace {

/// Span tests record into Tracer::global(): switch tracing on, start from
/// an empty ring, and always restore the switch.
struct TracingOn {
  TracingOn() {
    obs::set_tracing_enabled(true);
    (void)obs::Tracer::global()->take_events();
  }
  ~TracingOn() { obs::set_tracing_enabled(false); }
};

std::vector<obs::TraceEvent> events_of(const std::vector<obs::TraceEvent>& all,
                                       const std::string& signature) {
  std::vector<obs::TraceEvent> out;
  for (const auto& e : all)
    if (e.signature == signature) out.push_back(e);
  return out;
}

std::shared_ptr<obs::ProfilingAspect<Worker>> make_profiler(
    obs::MetricsRegistry& registry) {
  auto profiler =
      std::make_shared<obs::ProfilingAspect<Worker>>("Profiling", registry);
  profiler->profile_method<&Worker::process>()
      .profile_method<&Worker::compute>()
      .template profile_new<int>();
  return profiler;
}

std::uint64_t calls(obs::MetricsRegistry& registry, const char* signature) {
  return registry.counter("profile.calls", {{"signature", signature}})
      ->value();
}

}  // namespace

TEST(ProfilingAspect, RecordsLatencyAndCalls) {
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1, 2, 3};
  ctx.call<&Worker::process>(w, pack);
  ctx.call<&Worker::process>(w, pack);
  const int doubled = ctx.call<&Worker::compute>(w, 5);
  EXPECT_EQ(doubled, 11);

  EXPECT_EQ(calls(registry, "Worker.new"), 1u);
  EXPECT_EQ(calls(registry, "Worker.process"), 2u);
  EXPECT_EQ(calls(registry, "Worker.compute"), 1u);
  auto latency = registry.histogram("profile.latency_us",
                                    {{"signature", "Worker.process"}});
  EXPECT_EQ(latency->count(), 2u);
  EXPECT_GE(latency->max(), 0.0);
  EXPECT_EQ(registry
                .counter("profile.errors", {{"signature", "Worker.process"}})
                ->value(),
            0u);
}

TEST(ProfilingAspect, UnpluggedMeansZeroWrites) {
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(w, pack);
  const std::uint64_t after_plugged = calls(registry, "Worker.process");
  ASSERT_EQ(after_plugged, 1u);

  // Unplug; every subsequent execution must leave the registry untouched.
  ASSERT_NE(ctx.detach("Profiling"), nullptr);
  ctx.call<&Worker::process>(w, pack);
  ctx.call<&Worker::process>(w, pack);
  auto w2 = ctx.create<Worker>(2);
  (void)w2;
  EXPECT_EQ(calls(registry, "Worker.process"), after_plugged);
  EXPECT_EQ(calls(registry, "Worker.new"), 1u);
  EXPECT_EQ(registry
                .histogram("profile.latency_us",
                           {{"signature", "Worker.process"}})
                ->count(),
            after_plugged);
}

TEST(ProfilingAspect, ErrorsCountedAndRethrown) {
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto veto = std::make_shared<aop::Aspect>("veto");
  veto->around_method<&Worker::process>(
      aop::order::kDefault, aop::Scope::any(),
      [](auto&) -> void { throw std::runtime_error("boom"); });
  ctx.attach(veto);
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  EXPECT_THROW(ctx.call<&Worker::process>(w, pack), std::runtime_error);
  EXPECT_EQ(calls(registry, "Worker.process"), 1u);
  EXPECT_EQ(registry
                .counter("profile.errors", {{"signature", "Worker.process"}})
                ->value(),
            1u);
  // The latency histogram still saw the failed execution.
  EXPECT_EQ(registry
                .histogram("profile.latency_us",
                           {{"signature", "Worker.process"}})
                ->count(),
            1u);
}

TEST(ProfilingAspect, IgnoresMetricsEnabledGate) {
  // Plugging the aspect is the opt-in; the ambient APAR_METRICS gate must
  // not silence it.
  obs::set_metrics_enabled(false);
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto w = ctx.create<Worker>(3);
  std::vector<int> pack{1};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(calls(registry, "Worker.process"), 1u);
}

TEST(ProfilingAspect, TracedMethodSpanIsCurrentDuringProceed) {
  TracingOn tracing;
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  concurrency::ThreadPool pool(1);
  // An inner advice observes the context proceed() runs under and spawns
  // a pool task from inside it.
  obs::TraceContext during;
  obs::TraceContext in_task;
  auto spawn = std::make_shared<aop::Aspect>("spawn");
  spawn->around_method<&Worker::compute>(
      aop::order::kDefault, aop::Scope::any(), [&](auto& inv) {
        during = obs::current_context();
        in_task = pool.submit([] { return obs::current_context(); }).get();
        return inv.proceed();
      });
  ctx.attach(spawn);
  auto w = ctx.create<Worker>(1);

  obs::SpanScope root;
  EXPECT_EQ(ctx.call<&Worker::compute>(w, 5), 11);
  EXPECT_EQ(obs::current_context(), root.context());

  EXPECT_EQ(obs::Tracer::global()->open_spans(), 0u);
  const auto all = obs::Tracer::global()->take_events();
  const auto compute = events_of(all, "Worker.compute");
  ASSERT_EQ(compute.size(), 2u);
  EXPECT_EQ(compute[0].phase, obs::TraceEvent::Phase::kEnter);
  EXPECT_EQ(compute[1].phase, obs::TraceEvent::Phase::kExit);
  for (const auto& e : compute) {
    EXPECT_EQ(e.target, w.identity());
    EXPECT_EQ(e.ctx, during);
  }
  EXPECT_LE(compute[0].when, compute[1].when);
  EXPECT_EQ(during.trace_id, root.context().trace_id);
  EXPECT_EQ(during.parent_span_id, root.context().span_id);
  // The task resumed the profiled span, and its queue wait parents to it.
  EXPECT_EQ(in_task, during);
  const auto waits =
      obs::Tracer::spans_of(events_of(all, "threadpool.queue_wait"));
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].parent_span_id, during.span_id);
}

TEST(ProfilingAspect, TracedThrowingMethodClosesAsError) {
  TracingOn tracing;
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto veto = std::make_shared<aop::Aspect>("veto");
  veto->around_method<&Worker::process>(
      aop::order::kDefault, aop::Scope::any(),
      [](auto&) -> void { throw std::runtime_error("boom"); });
  ctx.attach(veto);
  auto w = ctx.create<Worker>(1);
  std::vector<int> pack{1};
  EXPECT_THROW(ctx.call<&Worker::process>(w, pack), std::runtime_error);

  EXPECT_EQ(obs::Tracer::global()->open_spans(), 0u);
  const auto process =
      events_of(obs::Tracer::global()->take_events(), "Worker.process");
  ASSERT_EQ(process.size(), 2u);
  EXPECT_EQ(process[0].phase, obs::TraceEvent::Phase::kEnter);
  EXPECT_EQ(process[1].phase, obs::TraceEvent::Phase::kError);
  EXPECT_EQ(process[1].target, w.identity());
  EXPECT_EQ(process[1].ctx, process[0].ctx);
  EXPECT_TRUE(process[0].ctx.valid());
}

TEST(ProfilingAspect, TracedCreationRecordsIdentityOnExit) {
  TracingOn tracing;
  obs::MetricsRegistry registry;
  aop::Context ctx;
  ctx.attach(make_profiler(registry));
  auto w = ctx.create<Worker>(7);

  const auto created =
      events_of(obs::Tracer::global()->take_events(), "Worker.new");
  ASSERT_EQ(created.size(), 2u);
  EXPECT_EQ(created[0].phase, obs::TraceEvent::Phase::kEnter);
  EXPECT_EQ(created[0].target, nullptr);  // no identity before proceed()
  EXPECT_EQ(created[1].phase, obs::TraceEvent::Phase::kExit);
  EXPECT_EQ(created[1].target, w.identity());
  EXPECT_EQ(created[1].ctx, created[0].ctx);
  EXPECT_TRUE(created[0].ctx.valid());
}
