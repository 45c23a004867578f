// Substrate instrumentation end to end: with the metrics gate on, thread
// pools, work queues, middlewares, nodes and the fault injector all feed
// non-zero series into the global registry; with it off, nothing does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../cluster/fixtures.hpp"
#include "apar/cluster/fault_injection.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/concurrency/work_queue.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/sieve/versions.hpp"
#include "apar/sieve/workload.hpp"

namespace cl = apar::cluster;
namespace cc = apar::concurrency;
namespace obs = apar::obs;
namespace se = apar::serial;
namespace sv = apar::sieve;
using apar::test::register_counter;

namespace {

/// Turns the gate on for the test body and always restores "off" (the
/// suite-wide default other test binaries assume).
struct MetricsOn {
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

std::uint64_t counter_value(const char* name, obs::Labels labels = {}) {
  return obs::MetricsRegistry::global().counter(name, std::move(labels))
      ->value();
}

sv::SieveConfig small_config(std::size_t filters) {
  sv::SieveConfig cfg;
  cfg.max = 20'000;
  cfg.filters = filters;
  cfg.pack_size = 2'000;
  cfg.ns_per_op = 0.0;
  cfg.nodes = 2;
  cfg.node_executors = 2;
  return cfg;
}

}  // namespace

TEST(SubstrateMetrics, ThreadPoolFeedsRegistry) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  const auto tasks0 = counter_value("threadpool.tasks");
  const auto wait0 = reg.histogram("threadpool.wait_us")->count();
  {
    cc::ThreadPool pool(2);
    EXPECT_EQ(reg.gauge("threadpool.workers")->value(), 2);
    for (int i = 0; i < 10; ++i) pool.post([] {});
    pool.drain();
  }
  EXPECT_EQ(counter_value("threadpool.tasks"), tasks0 + 10);
  EXPECT_EQ(reg.histogram("threadpool.wait_us")->count(), wait0 + 10);
  EXPECT_EQ(reg.gauge("threadpool.workers")->value(), 0);
  EXPECT_EQ(reg.gauge("threadpool.queue_depth")->value(), 0);
}

TEST(SubstrateMetrics, ThreadPoolSilentWhenDisabled) {
  obs::set_metrics_enabled(false);
  const auto tasks0 = counter_value("threadpool.tasks");
  cc::ThreadPool pool(2);
  for (int i = 0; i < 5; ++i) pool.post([] {});
  pool.drain();
  EXPECT_EQ(counter_value("threadpool.tasks"), tasks0);
}

TEST(SubstrateMetrics, WorkQueueDepthAndThroughput) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  cc::WorkQueue<int> queue;
  queue.enable_metrics("test.queue");
  const obs::Labels labels{{"queue", "test.queue"}};
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(reg.gauge("workqueue.depth", labels)->value(), 2);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.try_pop().value(), 2);
  EXPECT_EQ(reg.gauge("workqueue.depth", labels)->value(), 0);
  EXPECT_EQ(counter_value("workqueue.pushed", {{"queue", "test.queue"}}), 2u);
  EXPECT_EQ(counter_value("workqueue.popped", {{"queue", "test.queue"}}), 2u);
}

TEST(SubstrateMetrics, WorkQueueBatchOpsKeepCountsExact) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  cc::WorkQueue<int> queue;
  queue.enable_metrics("batch.queue");
  const obs::Labels labels{{"queue", "batch.queue"}};
  const auto pushed0 = counter_value("workqueue.pushed", labels);
  const auto popped0 = counter_value("workqueue.popped", labels);
  std::vector<int> batch{1, 2, 3, 4, 5};
  queue.push_batch(batch);
  EXPECT_EQ(reg.gauge("workqueue.depth", labels)->value(), 5);
  EXPECT_EQ(counter_value("workqueue.pushed", labels), pushed0 + 5);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.pop().has_value());
  EXPECT_EQ(reg.gauge("workqueue.depth", labels)->value(), 2);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(queue.pop().has_value());
  EXPECT_EQ(reg.gauge("workqueue.depth", labels)->value(), 0);
  EXPECT_EQ(counter_value("workqueue.popped", labels), popped0 + 5);
}

TEST(SubstrateMetrics, SchedulerStealAndOverflowSeries) {
  MetricsOn on;
  const auto steals0 = counter_value("threadpool.steals");
  const auto overflow0 = counter_value("threadpool.overflow");
  std::uint64_t steals_seen = 0;
  std::uint64_t overflows_seen = 0;
  {
    cc::ThreadPool pool(4);
    // Flood one worker's own deque past its capacity from inside a task:
    // the excess overflows, and idle workers steal from the hoarder.
    pool.post([&pool] {
      for (int i = 0; i < 2000; ++i) pool.post([] {});
    });
    pool.drain();
    steals_seen = pool.steals();
    overflows_seen = pool.overflows();
  }
  // The registry counters aggregate exactly what the pool itself counted.
  EXPECT_EQ(counter_value("threadpool.steals"), steals0 + steals_seen);
  EXPECT_EQ(counter_value("threadpool.overflow"), overflow0 + overflows_seen);
}

TEST(SubstrateMetrics, SieveRunFeedsMiddlewareAndNodeSeries) {
  MetricsOn on;
  auto& reg = obs::MetricsRegistry::global();
  const auto invoke0 =
      reg.histogram("middleware.invoke_us",
                    {{"method", "process"}, {"middleware", "MPP"}})
          ->count();
  sv::SieveHarness harness(sv::Version::kFarmMpp, small_config(2));
  const auto result = harness.run();
  EXPECT_EQ(result.primes, sv::count_primes_up_to(20'000));

  // Per-method middleware latency + payload histograms moved...
  const obs::Labels mpp_process{{"method", "process"}, {"middleware", "MPP"}};
  EXPECT_GT(reg.histogram("middleware.invoke_us", mpp_process)->count(),
            invoke0);
  EXPECT_GT(reg.histogram("middleware.payload_bytes", mpp_process,
                          obs::Histogram::bytes_bounds())
                ->count(),
            0u);
  // ...creations were timed under "new"...
  EXPECT_GT(reg.histogram("middleware.invoke_us",
                          {{"method", "new"}, {"middleware", "MPP"}})
                ->count(),
            0u);
  // ...and the serving nodes recorded handle latencies.
  EXPECT_GT(reg.histogram("node.handle_us", {{"node", "1"}})->count(), 0u);
  EXPECT_GT(counter_value("node.handled", {{"node", "1"}}), 0u);
}

TEST(SubstrateMetrics, FaultInjectorCountsIntoRegistry) {
  MetricsOn on;
  cl::Cluster cluster({2, 1});
  register_counter(cluster.registry());
  cl::MppMiddleware mpp(cluster, cl::CostModel::loopback());
  cl::FaultInjectingMiddleware::Options options;
  options.seed = 7;
  options.drop_rate = 1.0;  // every op drops, deterministically
  cl::FaultInjectingMiddleware faulty(mpp, options);

  auto handle =
      mpp.create(0, "Counter", se::encode(mpp.wire_format(), 0LL));
  const obs::Labels drop_labels{{"kind", "drop"},
                                {"middleware", std::string(faulty.name())}};
  const auto dropped0 = counter_value("faults.injected", drop_labels);
  EXPECT_THROW(
      faulty.invoke(handle, "get", se::encode(faulty.wire_format())),
      cl::rpc::RpcError);
  EXPECT_EQ(counter_value("faults.injected", drop_labels), dropped0 + 1);
  EXPECT_EQ(faulty.fault_stats().dropped.load(), 1u);
  cluster.shutdown();
}

TEST(HybridMiddleware, StatsAggregateControlAndFastBytes) {
  // Satellite regression: hybrid stats() used to report only the control
  // backend, silently dropping every fast-path byte.
  cl::Cluster cluster({2, 1});
  register_counter(cluster.registry());
  cl::RmiMiddleware rmi(cluster, cl::CostModel::loopback());
  cl::MppMiddleware mpp(cluster, cl::CostModel::loopback());
  cl::HybridMiddleware hybrid(rmi, mpp, {"add"});

  auto handle =
      hybrid.create(0, "Counter", se::encode(hybrid.wire_format(), 5LL));

  // Fast-path call: the payload must be encoded with the ROUTED
  // middleware's wire format.
  auto& routed = hybrid.route_for("add");
  ASSERT_EQ(routed.name(), "MPP");
  hybrid.invoke(handle, "add", se::encode(routed.wire_format(), 3LL));

  const auto& agg = hybrid.stats();
  const auto& fast = mpp.stats();
  EXPECT_GT(fast.bytes_sent.load(), 0u);
  EXPECT_EQ(agg.creates.load(), 1u);
  EXPECT_EQ(agg.sync_calls.load(), 1u);
  EXPECT_EQ(agg.bytes_sent.load(),
            rmi.stats().bytes_sent.load() + fast.bytes_sent.load());
  EXPECT_EQ(agg.bytes_received.load(),
            rmi.stats().bytes_received.load() + fast.bytes_received.load());
  cluster.shutdown();
}
