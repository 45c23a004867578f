// Cost model for the memoization family: what a ShardedLru operation
// costs, and what a CacheAspect hit saves against recomputing the two
// memoisable units — a sieve segment (PrimeFilter::filter under the
// calibrated work model) and a Mandelbrot tile (MandelWorker::row_checksum,
// real escape-time arithmetic). The acceptance claim quoted in
// EXPERIMENTS.md — hit path >= 10x faster than recompute — comes from the
// Recompute/CachedHit pairs below; main() prints their ratio as a table
// before the benchmark rows.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/apps/mandel_worker.hpp"
#include "apar/cache/cache_aspect.hpp"
#include "apar/cache/sharded_lru.hpp"
#include "apar/common/table.hpp"
#include "apar/sieve/prime_filter.hpp"

namespace aop = apar::aop;
namespace cache = apar::cache;
using apar::apps::MandelWorker;
using apar::sieve::PrimeFilter;

namespace {

using Lru = cache::ShardedLru<std::string, std::string>;

/// Simulated ns per trial division for the sieve pair: the same
/// calibrated stand-in for real Xeon compute the rest of the bench suite
/// uses (see DESIGN.md "Substitutions"); a segment recompute pays it, a
/// cache hit does not.
constexpr double kSieveNsPerOp = 5.0;

std::vector<long long> make_pack(std::size_t n) {
  std::vector<long long> pack;
  pack.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pack.push_back(1001 + static_cast<long long>(i));
  return pack;
}

// --- ShardedLru micro-costs -----------------------------------------------

void BM_LruGetHit(benchmark::State& state) {
  Lru::Options o;
  o.shards = static_cast<std::size_t>(state.range(0));
  o.max_entries = 4096;
  Lru lru(o);
  for (int i = 0; i < 1024; ++i)
    lru.put("key" + std::to_string(i), std::string(64, 'v'));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.get("key" + std::to_string(i++ % 1024)));
  }
}
BENCHMARK(BM_LruGetHit)->Arg(1)->Arg(8);

void BM_LruPutOverwrite(benchmark::State& state) {
  Lru::Options o;
  o.shards = static_cast<std::size_t>(state.range(0));
  o.max_entries = 4096;
  Lru lru(o);
  int i = 0;
  for (auto _ : state) {
    lru.put("key" + std::to_string(i++ % 1024), std::string(64, 'v'));
  }
}
BENCHMARK(BM_LruPutOverwrite)->Arg(1)->Arg(8);

void BM_LruGetOrComputeHit(benchmark::State& state) {
  Lru lru({});
  (void)lru.get_or_compute("hot", [] { return std::string(64, 'v'); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lru.get_or_compute("hot", [] { return std::string(64, 'v'); }));
  }
}
BENCHMARK(BM_LruGetOrComputeHit);

// --- the memoisable units: recompute vs cached hit ------------------------

/// Every iteration filters a fresh copy of the same segment; the copy is
/// paid identically by the CachedHit twin, so the pair isolates body
/// execution vs effect replay.
void BM_SieveSegmentRecompute(benchmark::State& state) {
  aop::Context ctx;
  auto filter = ctx.create<PrimeFilter>(2LL, 31LL, kSieveNsPerOp);
  const auto segment = make_pack(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<long long> pack = segment;
    ctx.call<&PrimeFilter::filter>(filter, pack);
    benchmark::DoNotOptimize(pack);
  }
}
BENCHMARK(BM_SieveSegmentRecompute)->Arg(500)->Arg(2000);

void BM_SieveSegmentCachedHit(benchmark::State& state) {
  aop::Context ctx;
  auto memo = std::make_shared<cache::CacheAspect<PrimeFilter>>("Memo");
  memo->cache_method<&PrimeFilter::filter>();
  ctx.attach(memo);
  auto filter = ctx.create<PrimeFilter>(2LL, 31LL, kSieveNsPerOp);
  const auto segment = make_pack(static_cast<std::size_t>(state.range(0)));
  {
    std::vector<long long> warm = segment;  // the one real computation
    ctx.call<&PrimeFilter::filter>(filter, warm);
  }
  for (auto _ : state) {
    std::vector<long long> pack = segment;
    ctx.call<&PrimeFilter::filter>(filter, pack);
    benchmark::DoNotOptimize(pack);
  }
}
BENCHMARK(BM_SieveSegmentCachedHit)->Arg(500)->Arg(2000);

void BM_MandelRowRecompute(benchmark::State& state) {
  aop::Context ctx;
  auto worker = ctx.create<MandelWorker>(state.range(0), 64LL, 500LL, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.call<&MandelWorker::row_checksum>(worker, 31LL));
  }
}
BENCHMARK(BM_MandelRowRecompute)->Arg(64)->Arg(256);

void BM_MandelRowCachedHit(benchmark::State& state) {
  aop::Context ctx;
  auto memo = std::make_shared<cache::CacheAspect<MandelWorker>>("Memo");
  memo->cache_method<&MandelWorker::row_checksum>();
  ctx.attach(memo);
  auto worker = ctx.create<MandelWorker>(state.range(0), 64LL, 500LL, 0.0);
  (void)ctx.call<&MandelWorker::row_checksum>(worker, 31LL);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.call<&MandelWorker::row_checksum>(worker, 31LL));
  }
}
BENCHMARK(BM_MandelRowCachedHit)->Arg(64)->Arg(256);

// --- stand-alone speedup table --------------------------------------------

/// Wall-clock ratio of recompute over cached hit for both memoisable
/// units, printed before the benchmark run so a plain invocation (and
/// EXPERIMENTS.md) gets the headline number without JSON post-processing.
void print_hit_speedup_table() {
  using clock = std::chrono::steady_clock;
  apar::common::Table table(
      {"Unit", "recompute us/call", "hit us/call", "speedup"});

  const auto time_us = [](int reps, auto&& fn) {
    const auto start = clock::now();
    for (int i = 0; i < reps; ++i) fn();
    return std::chrono::duration<double, std::micro>(clock::now() - start)
               .count() /
           reps;
  };

  {
    constexpr int kReps = 50;
    const auto segment = make_pack(2000);
    aop::Context plain;
    auto filter = plain.create<PrimeFilter>(2LL, 31LL, kSieveNsPerOp);
    const double recompute = time_us(kReps, [&] {
      std::vector<long long> pack = segment;
      plain.call<&PrimeFilter::filter>(filter, pack);
    });

    aop::Context cached;
    auto memo = std::make_shared<cache::CacheAspect<PrimeFilter>>("Memo");
    memo->cache_method<&PrimeFilter::filter>();
    cached.attach(memo);
    auto cfilter = cached.create<PrimeFilter>(2LL, 31LL, kSieveNsPerOp);
    {
      std::vector<long long> warm = segment;
      cached.call<&PrimeFilter::filter>(cfilter, warm);
    }
    const double hit = time_us(kReps, [&] {
      std::vector<long long> pack = segment;
      cached.call<&PrimeFilter::filter>(cfilter, pack);
    });
    char recompute_s[32], hit_s[32];
    std::snprintf(recompute_s, sizeof recompute_s, "%.1f", recompute);
    std::snprintf(hit_s, sizeof hit_s, "%.1f", hit);
    table.add_row({"sieve segment (2000 cand.)", recompute_s, hit_s,
                   apar::common::fmt_ratio(recompute / hit)});
  }

  {
    constexpr int kReps = 50;
    aop::Context plain;
    auto worker = plain.create<MandelWorker>(256LL, 64LL, 500LL, 0.0);
    const double recompute = time_us(kReps, [&] {
      benchmark::DoNotOptimize(
          plain.call<&MandelWorker::row_checksum>(worker, 31LL));
    });

    aop::Context cached;
    auto memo = std::make_shared<cache::CacheAspect<MandelWorker>>("Memo");
    memo->cache_method<&MandelWorker::row_checksum>();
    cached.attach(memo);
    auto cworker = cached.create<MandelWorker>(256LL, 64LL, 500LL, 0.0);
    (void)cached.call<&MandelWorker::row_checksum>(cworker, 31LL);
    const double hit = time_us(kReps, [&] {
      benchmark::DoNotOptimize(
          cached.call<&MandelWorker::row_checksum>(cworker, 31LL));
    });
    char recompute_s[32], hit_s[32];
    std::snprintf(recompute_s, sizeof recompute_s, "%.1f", recompute);
    std::snprintf(hit_s, sizeof hit_s, "%.1f", hit);
    table.add_row({"mandel row (256 px, 500 iter)", recompute_s, hit_s,
                   apar::common::fmt_ratio(recompute / hit)});
  }

  std::printf("=== memoized hit vs recompute ===\n%s\n", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  print_hit_speedup_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
