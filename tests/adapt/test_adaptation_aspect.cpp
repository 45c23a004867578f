// AdaptationAspect: the autonomic concern as a pluggable aspect — plug it
// and the control loop runs; unplug it and the loop stops with zero
// residue on the call path. Its advice is a pass-through whose value is
// the analysis metadata (mark_adapts + mark_online_resizable), and its
// knobs actuate real substrate: a workers knob wired to
// ThreadPool::resize moves live workers, and a grain knob wired to
// FarmAspect::set_pack_size re-partitions the next solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "../aop/fixtures.hpp"
#include "apar/adapt/adaptation_aspect.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/farm_aspect.hpp"

namespace adapt = apar::adapt;
namespace aop = apar::aop;
namespace sieve = apar::sieve;
using apar::test::Worker;

namespace {

TEST(AdaptationAspect, PlugStartsAndUnplugStopsTheControlLoop) {
  aop::Context ctx;
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers"});
  EXPECT_FALSE(tuner->controller().running());
  ctx.attach(tuner);
  EXPECT_TRUE(tuner->controller().running());
  ctx.detach(tuner->name());
  EXPECT_FALSE(tuner->controller().running());
}

TEST(AdaptationAspect, AdviceIsPassThroughAndCarriesTheMarks) {
  aop::Context ctx;
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers", "grain"});
  ctx.attach(tuner);

  // Functionally invisible: the advised call behaves exactly as unwoven.
  auto w = ctx.create<Worker>(3);
  std::vector<int> pack{1, 2, 3};
  ctx.call<&Worker::process>(w, pack);
  EXPECT_EQ(pack, (std::vector<int>{4, 5, 6}));

  // The analyzer-facing self-description.
  ASSERT_EQ(tuner->advice().size(), 1u);
  const aop::AdviceBase& advice = *tuner->advice()[0];
  EXPECT_TRUE(advice.adapts());
  EXPECT_EQ(advice.adapt_knobs(),
            (std::vector<std::string>{"workers", "grain"}));
  EXPECT_TRUE(advice.spawns_concurrency());
  EXPECT_TRUE(advice.online_resizable());

  ctx.detach(tuner->name());
  // Zero residue: the call path is back to the unwoven one.
  std::vector<int> again{0};
  ctx.call<&Worker::process>(w, again);
  EXPECT_EQ(again, (std::vector<int>{3}));
}

TEST(AdaptationAspect, WorkersKnobActuatesALivePool) {
  apar::concurrency::ThreadPool pool(2, 4);
  auto tuner = std::make_shared<adapt::AdaptationAspect<Worker>>();
  tuner->adapt_method<&Worker::process>({"workers"});
  tuner->controller().set_workers_knob(adapt::Knob(
      "workers", 1, static_cast<std::int64_t>(pool.max_size()),
      static_cast<std::int64_t>(pool.size()),
      [&pool](std::int64_t v) {
        pool.resize(static_cast<std::size_t>(v));
      }));

  // Drive the decision logic directly (deterministic): pressure grows the
  // live pool by one worker.
  adapt::Signals s;
  s.valid = true;
  s.throughput = 100.0;
  s.queue_wait_p95_us = 5000.0;
  auto d = tuner->controller().tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], adapt::Decision::kGrowWorkers);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.resizes(), 1u);

  // And the pool still runs work after the actuation.
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.post([&ran] { ++ran; });
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(AdaptationAspect, GrainKnobCoarsensTheNextFarmSplit) {
  using Farm = apar::strategies::FarmAspect<sieve::PrimeFilter, long long,
                                            long long, long long, double>;
  constexpr long long kMax = 20'000;
  const long long root = sieve::sieve_root(kMax);

  aop::Context ctx;
  Farm::Options fopts;
  fopts.duplicates = 2;
  fopts.pack_size = 500;
  auto farm = std::make_shared<Farm>(fopts);
  ctx.attach(farm);
  // Every pack the split hands down the chain passes this advice once.
  std::size_t packs = 0;
  auto counter = std::make_shared<aop::Aspect>("PackCounter");
  counter->around_method<&sieve::PrimeFilter::process>(
      aop::order::kDefault, aop::Scope::any(), [&packs](auto& inv) {
        ++packs;
        return inv.proceed();
      });
  ctx.attach(counter);

  auto tuner =
      std::make_shared<adapt::AdaptationAspect<sieve::PrimeFilter>>();
  tuner->controller().set_grain_knob(adapt::Knob(
      "grain", 250, 20'000, static_cast<std::int64_t>(farm->pack_size()),
      [farm](std::int64_t v) {
        farm->set_pack_size(static_cast<std::size_t>(v));
      }));

  sieve::PrimeFilter reference(2, root);
  auto reference_data = sieve::odd_candidates(kMax);
  reference.process(reference_data);
  const std::vector<long long> expected = reference.take_results();

  auto first = ctx.create<sieve::PrimeFilter>(2LL, root, 0.0);
  auto solve = [&] {
    packs = 0;
    auto data = sieve::odd_candidates(kMax);
    ctx.call<&sieve::PrimeFilter::process>(first, data);
    ctx.quiesce();
    auto results = farm->gather_results(ctx);
    std::sort(results.begin(), results.end());
    return results;
  };

  EXPECT_EQ(solve(), expected);
  const std::size_t fine_packs = packs;
  ASSERT_GT(fine_packs, 1u);

  // Envelope-dominated task bodies: the controller coarsens the grain,
  // and the knob pushes the doubled pack size into the live farm.
  adapt::Signals s;
  s.valid = true;
  s.run_mean_us = tuner->controller().config().grain_low_us / 8;
  auto d = tuner->controller().tick(s);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], adapt::Decision::kGrainCoarsen);
  EXPECT_EQ(farm->pack_size(), 1'000u);

  EXPECT_EQ(solve(), expected);
  EXPECT_EQ(packs * 2, fine_packs);
}

}  // namespace
