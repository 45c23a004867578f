// The repository benchmark: woven prime sieves on real compute, and woven
// remote filter calls over loopback TCP, measured end to end (untraced
// runs) or layer by layer (traced runs). Normally started through
// perfbench/run.py, which builds this binary and the sieve_server example;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload paper_sieve|fine_sieve|remote_filter --seed N
//             --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//             [--git-sha SHA] [--source-digest HEX]
//             [--kill-server-after S] [--corrupt-reference]
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every timed operation was verified correct.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/cluster/cluster.hpp"
#include "apar/cluster/middleware.hpp"
#include "apar/common/json.hpp"
#include "apar/common/rng.hpp"
#include "apar/net/tcp_middleware.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/profiling_aspect.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"
#include "apar/serial/archive.hpp"
#include "apar/sieve/handcoded.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/versions.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"
#include "probe_aspect.hpp"
#include "server_process.hpp"

#ifndef APAR_PERFBENCH_BUILD_TYPE
#define APAR_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef APAR_PERFBENCH_COMPILER
#define APAR_PERFBENCH_COMPILER "unknown"
#endif

namespace {

namespace aop = apar::aop;
namespace ac = apar::cluster;
namespace net = apar::net;
namespace obs = apar::obs;
namespace serial = apar::serial;
namespace sv = apar::sieve;
namespace st = apar::strategies;
using apar::common::Rng;
using perfbench::ProbeAspect;
using perfbench::ServerProcess;
using sv::PrimeFilter;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Declared metrics (BENCHMARK.json lists the same names, units, directions)
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"sequential_s", "s", "lower"},
    {"hand_farm_s", "s", "lower"},
    {"farm_threads_s", "s", "lower"},
    {"farm_mpp_s", "s", "lower"},
    {"pipe_rmi_s", "s", "lower"},
    {"rpc_rps", "1/s", "higher"},
    {"rpc_p50_us", "us", "lower"},
    {"rpc_p99_us", "us", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"sieve.filter_ns_per_candidate", "ns", "lower"},
    {"sieve.trial_divisions", "count", "lower"},
    {"aop.dispatch_ns", "ns", "lower"},
    {"aop.dispatch_ns_nproc", "ns", "lower"},
    {"aop.join_points_per_solve.farm_threads", "count", "lower"},
    {"aop.join_points_per_solve.farm_mpp", "count", "lower"},
    {"aop.join_points_per_solve.pipe_rmi", "count", "lower"},
    {"aop.attach_detach_us", "us", "lower"},
    {"aop.weave_overhead", "ratio", "lower"},
    {"strategies.fanout_us.farm_threads", "us", "lower"},
    {"strategies.fanout_us.farm_mpp", "us", "lower"},
    {"strategies.fanout_us.pipe_rmi", "us", "lower"},
    {"strategies.quiesce_wait_us.farm_threads", "us", "lower"},
    {"strategies.quiesce_wait_us.farm_mpp", "us", "lower"},
    {"strategies.quiesce_wait_us.pipe_rmi", "us", "lower"},
    {"strategies.packs_per_solve", "count", "lower"},
    {"concurrency.queue_wait_us.p50", "us", "lower"},
    {"concurrency.queue_wait_us.p99", "us", "lower"},
    {"concurrency.pool_queue_wait_us.p50", "us", "lower"},
    {"concurrency.pool_queue_wait_us.p99", "us", "lower"},
    {"concurrency.tasks_per_solve.farm_threads", "count", "lower"},
    {"concurrency.tasks_per_solve.farm_mpp", "count", "lower"},
    {"concurrency.tasks_per_solve.pipe_rmi", "count", "lower"},
    {"concurrency.busy_ratio", "ratio", "higher"},
    {"serial.encode_ns_per_candidate.compact", "ns", "lower"},
    {"serial.encode_ns_per_candidate.verbose", "ns", "lower"},
    {"serial.decode_ns_per_candidate.compact", "ns", "lower"},
    {"serial.decode_ns_per_candidate.verbose", "ns", "lower"},
    {"serial.bytes_per_candidate.compact", "B", "lower"},
    {"serial.bytes_per_candidate.verbose", "B", "lower"},
    {"cluster.invoke_us.rmi", "us", "lower"},
    {"cluster.invoke_us.mpp", "us", "lower"},
    {"cluster.sync_calls_per_solve.farm_mpp", "count", "lower"},
    {"cluster.sync_calls_per_solve.pipe_rmi", "count", "lower"},
    {"cluster.one_way_calls_per_solve.farm_mpp", "count", "lower"},
    {"cluster.one_way_calls_per_solve.pipe_rmi", "count", "lower"},
    {"cluster.bytes_per_solve.farm_mpp", "B", "lower"},
    {"cluster.bytes_per_solve.pipe_rmi", "B", "lower"},
    {"net.rtt_us", "us", "lower"},
    {"net.frames_per_request", "count", "lower"},
    {"net.wire_bytes_per_request", "B", "lower"},
    {"net.connects", "count", "lower"},
    {"net.server_serve_us", "us", "lower"},
    {"obs.trace_overhead.sequential_s", "ratio", "lower"},
    {"obs.trace_overhead.hand_farm_s", "ratio", "lower"},
    {"obs.trace_overhead.farm_threads_s", "ratio", "lower"},
    {"obs.trace_overhead.farm_mpp_s", "ratio", "lower"},
    {"obs.trace_overhead.pipe_rmi_s", "ratio", "lower"},
    {"obs.trace_overhead.rpc_p50_us", "ratio", "lower"},
    {"obs.trace_overhead.rpc_p99_us", "ratio", "lower"},
};

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Seed streams for independent random choices (splitmix64 mixing).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Aggregate CPU tick counters from /proc/stat (user, nice, system, idle,
/// iowait, irq, softirq, steal); empty when unreadable.
std::vector<unsigned long long> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::vector<unsigned long long> ticks;
  for (unsigned long long t = 0; ticks.size() < 8 && in >> t;) ticks.push_back(t);
  return ticks;
}

/// Share of all CPU time the hypervisor stole between two readings.
double steal_between(const std::vector<unsigned long long>& a,
                     const std::vector<unsigned long long>& b) {
  if (a.size() < 8 || b.size() < 8) return 0.0;
  unsigned long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total ? static_cast<double>(b[7] - a[7]) / static_cast<double>(total)
               : 0.0;
}

/// Samples of one timed quantity, each with the share of CPU time the
/// hypervisor stole while it was taken. This host is a shared virtual
/// machine: in a stretch where the hypervisor takes its CPUs away, every
/// wake-up waits, and a remote-filter phase at 19 % steal ran at a third of
/// the throughput of one at 0 %. The reported figure is the median over the
/// quiet samples: those taken at no more than 1 % steal, or, when fewer
/// than a quarter were, the quietest quarter. On a quiet host that is every
/// sample; in a contended stretch, host contention rather than the
/// program is what gets left out.
struct Series {
  std::vector<double> value;
  std::vector<double> steal;

  void add(double v, double stolen) {
    value.push_back(v);
    steal.push_back(stolen);
  }
  [[nodiscard]] std::vector<double> quiet() const {
    constexpr double kQuietSteal = 0.01;
    const double cut = std::max(kQuietSteal, quantile(steal, 0.25));
    std::vector<double> out;
    for (std::size_t i = 0; i < value.size(); ++i)
      if (steal[i] <= cut) out.push_back(value[i]);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_bin;
  std::string out_dir;
  std::string git_sha = "none";
  std::string source_digest = "none";
  double kill_server_after = -1.0;  ///< test hook: SIGKILL the server
  bool corrupt_reference = false;   ///< test hook: off-by-one reference
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      return argv[++i];
    };
    if (key == "--workload") o.workload = value();
    else if (key == "--seed") o.seed = std::stoull(value());
    else if (key == "--seconds") o.seconds = std::stod(value());
    else if (key == "--trace") o.trace = value() != "0";
    else if (key == "--server-bin") o.server_bin = value();
    else if (key == "--out-dir") o.out_dir = value();
    else if (key == "--git-sha") o.git_sha = value();
    else if (key == "--source-digest") o.source_digest = value();
    else if (key == "--kill-server-after") o.kill_server_after = std::stod(value());
    else if (key == "--corrupt-reference") o.corrupt_reference = true;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (o.server_bin.empty() || o.out_dir.empty())
    throw std::invalid_argument("--server-bin and --out-dir are required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Remote filter requests of one size class: `share` of all requests,
/// drawn from a pool of `pool` distinct packs of [min_size, max_size]
/// consecutive odd candidates (sizes spread evenly over the range).
struct RequestClass {
  double share;
  std::size_t min_size;
  std::size_t max_size;
  std::size_t pool;
};

/// Every workload runs the same two activities in rounds: solves of each
/// sieve composition, interleaved with remote-filter phases. Workloads
/// differ in the input properties the layers react to: sieve size and
/// grain, request sizes, and how the time divides between the two.
struct WorkloadSpec {
  long long sieve_max = 0;
  std::size_t sieve_packs = 0;      ///< 0: use sieve_pack_size instead
  std::size_t sieve_pack_size = 0;
  std::size_t solves_per_round = 1;  ///< solves of each composition
  std::vector<RequestClass> requests;
  std::size_t rpc_phases = 1;       ///< remote-filter phases per round
  double rpc_phase_s = 0.0;         ///< length of one phase
};

constexpr long long kFilterMax = 4'000'000;  ///< remote filters' sieve range
constexpr std::size_t kFilters = 4;          ///< filter duplicates
constexpr std::size_t kCallers = 2;          ///< request connections
constexpr int kServerWorkers = 2;

WorkloadSpec make_spec(const std::string& name) {
  WorkloadSpec w;
  if (name == "paper_sieve") {
    w.sieve_max = 4'000'000;
    w.sieve_packs = 50;
    w.requests = {{0.9, 16, 16, 1024}, {0.1, 2'000, 8'000, 64}};
    w.rpc_phase_s = 0.5;
  } else if (name == "fine_sieve") {
    w.sieve_max = 4'000'000;
    w.sieve_pack_size = 256;
    w.requests = {{0.9, 16, 16, 1024}, {0.1, 64, 512, 256}};
    w.rpc_phases = 5;
    w.rpc_phase_s = 0.1;
  } else if (name == "remote_filter") {
    w.sieve_max = 1'000'000;
    w.sieve_packs = 50;
    w.solves_per_round = 3;
    w.requests = {{0.9, 16, 16, 1024}, {0.1, 2'000, 8'000, 64}};
    w.rpc_phases = 3;
    w.rpc_phase_s = 0.35;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_sieve|fine_sieve|remote_filter)");
  }
  return w;
}

struct Request {
  std::vector<long long> pack;
  std::vector<long long> expected;  ///< survivors, filtered locally
};

/// Everything generated from the seed before any set-up starts.
struct Inputs {
  sv::SieveConfig config;
  long long expected_primes = 0;
  std::vector<std::vector<long long>> sieve_packs;  ///< layer probes' input
  std::vector<std::vector<Request>> pools;          ///< per request class
};

Inputs make_inputs(const WorkloadSpec& spec, const Options& opts) {
  Inputs in;
  auto candidates = sv::odd_candidates(spec.sieve_max);
  std::size_t pack = spec.sieve_pack_size;
  if (spec.sieve_packs > 0)
    pack = (candidates.size() + spec.sieve_packs - 1) / spec.sieve_packs;
  in.config.max = spec.sieve_max;
  in.config.filters = kFilters;
  in.config.pack_size = pack;
  in.config.ns_per_op = 0.0;        // real compute, no simulated sleeps
  in.config.loopback_costs = true;  // zero-cost simulated transport
  in.expected_primes = sv::count_primes_up_to(spec.sieve_max) +
                       (opts.corrupt_reference ? 1 : 0);
  in.sieve_packs = st::split_into_packs<long long>(candidates, pack);

  const auto universe = sv::odd_candidates(kFilterMax);
  PrimeFilter reference(2, sv::sieve_root(kFilterMax), 0.0);
  Rng rng(mix(opts.seed, 1));
  for (const auto& cls : spec.requests) {
    std::vector<Request> pool(cls.pool);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      // Sizes evenly spaced over the class's range, so every seed sees the
      // same size distribution; the seed picks where each pack starts.
      auto& r = pool[i];
      const std::size_t size =
          cls.min_size + (cls.max_size - cls.min_size) * (2 * i + 1) /
                             (2 * pool.size());
      const std::size_t start =
          static_cast<std::size_t>(rng.uniform(0, universe.size() - size));
      r.pack.assign(universe.begin() + static_cast<std::ptrdiff_t>(start),
                    universe.begin() + static_cast<std::ptrdiff_t>(start + size));
      r.expected = r.pack;
      reference.filter(r.expected);
      if (opts.corrupt_reference) r.expected.push_back(1);
    }
    in.pools.push_back(std::move(pool));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Compositions
// ---------------------------------------------------------------------------

enum class Comp { kSequential, kHandFarm, kFarmThreads, kFarmMpp, kPipeRmi };
constexpr Comp kComps[] = {Comp::kSequential, Comp::kHandFarm,
                           Comp::kFarmThreads, Comp::kFarmMpp, Comp::kPipeRmi};
constexpr Comp kWoven[] = {Comp::kFarmThreads, Comp::kFarmMpp, Comp::kPipeRmi};

const char* metric_of(Comp c) {
  switch (c) {
    case Comp::kSequential: return "sequential_s";
    case Comp::kHandFarm: return "hand_farm_s";
    case Comp::kFarmThreads: return "farm_threads_s";
    case Comp::kFarmMpp: return "farm_mpp_s";
    case Comp::kPipeRmi: return "pipe_rmi_s";
  }
  return "?";
}

const char* suffix_of(Comp c) {
  switch (c) {
    case Comp::kFarmThreads: return "farm_threads";
    case Comp::kFarmMpp: return "farm_mpp";
    case Comp::kPipeRmi: return "pipe_rmi";
    default: return "?";
  }
}

sv::Version version_of(Comp c) {
  switch (c) {
    case Comp::kFarmThreads: return sv::Version::kFarmThreads;
    case Comp::kFarmMpp: return sv::Version::kFarmMpp;
    case Comp::kPipeRmi: return sv::Version::kPipeRmi;
    default: return sv::Version::kSequential;
  }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Every verified operation (solves and remote calls, warm-ups included).
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> wrong{0};       ///< wrong results
  std::atomic<std::uint64_t> transport{0};   ///< NetError / RpcError / other

  void ok() { attempted.fetch_add(1, std::memory_order_relaxed); }
  void bad(bool wrong_result) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    failed.fetch_add(1, std::memory_order_relaxed);
    (wrong_result ? wrong : transport).fetch_add(1, std::memory_order_relaxed);
  }
};

/// Per-solve readings kept only by the traced run.
struct SolveTrace {
  double seconds = 0.0;
  ProbeAspect::Reading probe;
  std::uint64_t tasks = 0;
  std::uint64_t sync = 0, one_way = 0, bytes = 0;  ///< from SieveResult
  std::vector<double> pool_waits_us;
};

struct Samples {
  std::map<Comp, Series> solve_s;
  std::map<Comp, std::vector<SolveTrace>> traced;
  /// Remote-filter results per phase: throughput, p50 and p99 of each.
  Series phase_rps, phase_p50_us, phase_p99_us;
  std::vector<double> rpc_latency_us;  ///< all phases, for the samples line
  std::vector<double> attach_detach_us;
};

// ---------------------------------------------------------------------------
// One set-up: server process, woven remote-filter client, sieve harnesses
// ---------------------------------------------------------------------------

using DistAspect =
    st::DistributionAspect<PrimeFilter, long long, long long, double>;
using ConcAspect = st::ConcurrencyAspect<PrimeFilter>;

class World {
 public:
  World(const Options& opts, const Inputs& inputs, bool traced)
      : inputs_(inputs) {
    const std::string trace_out =
        traced ? opts.out_dir + "/server-trace-" + opts.workload + "-" +
                     std::to_string(opts.seed) + ".json"
               : std::string();
    server_ = std::make_unique<ServerProcess>(opts.server_bin, opts.out_dir,
                                              kServerWorkers, trace_out);

    // The remote-filter client: the paper's distribution aspect over the
    // real TCP middleware, one remote filter per request connection.
    net::TcpMiddleware::Options mopts;
    mopts.endpoints = {{"127.0.0.1", server_->port()}};
    mopts.format = serial::Format::kCompact;
    middleware_ = std::make_unique<net::TcpMiddleware>(mopts);
    fabric_ = std::make_unique<net::TcpFabric>(*middleware_);
    client_ = std::make_unique<aop::Context>();
    DistAspect::Options dopts;
    dopts.register_names = false;
    auto dist = std::make_shared<DistAspect>("Distribution", *fabric_,
                                             *middleware_, dopts);
    dist->distribute_method<&PrimeFilter::filter>();
    client_->attach(dist);
    for (std::size_t i = 0; i < kCallers; ++i)
      remote_.push_back(client_->create<PrimeFilter>(
          2LL, sv::sieve_root(kFilterMax), 0.0));

    for (Comp c : kWoven)
      harness_[c] = std::make_unique<sv::SieveHarness>(version_of(c),
                                                       inputs.config);
    harness_[Comp::kSequential] = std::make_unique<sv::SieveHarness>(
        sv::Version::kSequential, inputs.config);
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  ServerProcess& server() { return *server_; }
  net::TcpMiddleware& middleware() { return *middleware_; }
  aop::Context& client() { return *client_; }
  aop::Ref<PrimeFilter>& remote(std::size_t i) { return remote_[i]; }
  sv::SieveHarness& harness(Comp c) { return *harness_.at(c); }

  /// One solve of composition `c`.
  sv::SieveResult solve(Comp c) {
    if (c == Comp::kHandFarm) return sv::handcoded::run_farm_threads(inputs_.config);
    return harness_.at(c)->run();
  }

 private:
  // Declaration order is teardown order reversed: harnesses and the client
  // weave go first, the middleware its aspects refer to next, and the
  // server process last.
  const Inputs& inputs_;
  std::unique_ptr<ServerProcess> server_;
  std::unique_ptr<net::TcpMiddleware> middleware_;
  std::unique_ptr<net::TcpFabric> fabric_;
  std::unique_ptr<aop::Context> client_;
  std::vector<aop::Ref<PrimeFilter>> remote_;
  std::map<Comp, std::unique_ptr<sv::SieveHarness>> harness_;
};

/// Draws requests from the pools by the workload's class shares.
const Request& draw(const WorkloadSpec& spec, const Inputs& in, Rng& rng) {
  double u = rng.uniform01();
  std::size_t cls = 0;
  for (; cls + 1 < spec.requests.size(); ++cls) {
    if (u < spec.requests[cls].share) break;
    u -= spec.requests[cls].share;
  }
  const auto& pool = in.pools[cls];
  return pool[static_cast<std::size_t>(rng.uniform(0, pool.size() - 1))];
}

/// One woven remote filter call, verified against the local reference.
/// Returns false when the call failed or its survivors were wrong.
bool remote_call(World& world, std::size_t caller, const Request& req,
                 Tally& tally) {
  std::vector<long long> pack = req.pack;
  try {
    world.client().call<&PrimeFilter::filter>(world.remote(caller), pack);
  } catch (const std::exception&) {
    tally.bad(false);
    return false;
  }
  if (pack != req.expected) {
    tally.bad(true);
    return false;
  }
  tally.ok();
  return true;
}

// ---------------------------------------------------------------------------
// The measured activities
// ---------------------------------------------------------------------------

class Runner {
 public:
  Runner(const Options& opts, const WorkloadSpec& spec, const Inputs& inputs,
         Tally& tally)
      : opts_(opts), spec_(spec), inputs_(inputs), tally_(tally) {}

  /// Set the clock the --kill-server-after test hook counts from.
  void arm_kill(Clock::time_point start) { kill_origin_ = start; }

  /// Warm-up that belongs to set-up: one verified solve per composition
  /// and a few verified calls per request connection.
  void warm_up(World& world) {
    for (Comp c : kComps) verify_solve(world, c);
    Rng rng(mix(opts_.seed, 2));
    for (std::size_t t = 0; t < kCallers; ++t)
      for (int i = 0; i < 16; ++i)
        remote_call(world, t, draw(spec_, inputs_, rng), tally_);
  }

  /// Rounds until `seconds` have passed (at least one round): each round
  /// solves every composition solves_per_round times, in a seeded order,
  /// with rpc_phases remote-filter phases spread evenly between the solves
  /// (the last one ends the round).
  void measure(World& world, double seconds, Samples& out,
               std::map<Comp, std::shared_ptr<ProbeAspect>>* probes,
               std::vector<obs::TraceEvent>* last_round) {
    const auto start = Clock::now();
    for (int round = 0; round == 0 || seconds_since(start) < seconds;
         ++round) {
      std::vector<Comp> order;
      for (std::size_t i = 0; i < spec_.solves_per_round; ++i)
        order.insert(order.end(), std::begin(kComps), std::end(kComps));
      Rng rng(mix(opts_.seed, 1000 + static_cast<std::uint64_t>(round_++)));
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(0, i - 1)]);
      std::vector<obs::TraceEvent> events;
      const std::size_t per_phase = std::max<std::size_t>(
          1, order.size() / std::max<std::size_t>(1, spec_.rpc_phases));
      for (std::size_t i = 0; i < order.size(); ++i) {
        const Comp c = order[i];
        const auto cpu0 = cpu_ticks();
        if (probes) {
          if (auto trace = traced_solve(world, c, probes, events)) {
            out.solve_s[c].add(trace->seconds, steal_between(cpu0, cpu_ticks()));
            out.traced[c].push_back(std::move(*trace));
          }
        } else if (auto s = verify_solve(world, c)) {
          out.solve_s[c].add(*s, steal_between(cpu0, cpu_ticks()));
        }
        if ((i + 1) % per_phase == 0 || i + 1 == order.size()) {
          rpc_phase(world, spec_.rpc_phase_s, out);
          if (last_round) keep(events, obs::Tracer::global()->take_events());
        }
      }
      if (last_round) *last_round = std::move(events);
    }
  }

 private:
  /// Solve once and verify the prime count; the solve time if correct.
  std::optional<double> verify_solve(World& world, Comp c) {
    try {
      const auto r = world.solve(c);
      if (r.primes != inputs_.expected_primes) {
        std::fprintf(stderr, "perfbench: %s counted %lld primes, expected %lld\n",
                     metric_of(c), r.primes, inputs_.expected_primes);
        tally_.bad(true);
        return std::nullopt;
      }
      tally_.ok();
      return r.seconds;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", metric_of(c), e.what());
      tally_.bad(false);
      return std::nullopt;
    }
  }

  /// A solve inside a benchmark root span, with the probe readings, the
  /// concurrency aspect's spawn count and the pool's queue-wait spans.
  std::optional<SolveTrace> traced_solve(
      World& world, Comp c, std::map<Comp, std::shared_ptr<ProbeAspect>>* probes,
      std::vector<obs::TraceEvent>& events) {
    auto& tracer = *obs::Tracer::global();
    (void)tracer.take_events();  // start from an empty ring
    std::shared_ptr<ConcAspect> conc;
    if (c != Comp::kSequential && c != Comp::kHandFarm)
      conc = std::dynamic_pointer_cast<ConcAspect>(
          world.harness(c).context().find("Concurrency"));
    const std::uint64_t spawned0 = conc ? conc->spawned() : 0;
    if (auto it = probes->find(c); it != probes->end()) it->second->take();

    SolveTrace t;
    std::optional<double> seconds;
    sv::SieveResult raw;
    {
      const std::string name = std::string("bench.solve.") + metric_of(c);
      obs::SpanScope span;
      tracer.record({Clock::now(), std::this_thread::get_id(), name, nullptr,
                     obs::TraceEvent::Phase::kEnter, span.context()});
      try {
        raw = world.solve(c);
        if (raw.primes == inputs_.expected_primes) {
          seconds = raw.seconds;
          tally_.ok();
        } else {
          tally_.bad(true);
        }
      } catch (const std::exception&) {
        tally_.bad(false);
      }
      tracer.record({Clock::now(), std::this_thread::get_id(), name, nullptr,
                     obs::TraceEvent::Phase::kExit, span.context()});
    }
    if (!seconds) return std::nullopt;
    t.seconds = *seconds;
    t.sync = raw.sync_messages;
    t.one_way = raw.one_way_messages;
    t.bytes = raw.bytes_on_wire;
    if (conc) t.tasks = conc->spawned() - spawned0;
    if (auto it = probes->find(c); it != probes->end())
      t.probe = it->second->take();

    auto taken = tracer.take_events();
    std::map<std::uint64_t, Clock::time_point> open;
    for (const auto& e : taken) {
      if (e.signature != "threadpool.queue_wait") continue;
      if (e.phase == obs::TraceEvent::Phase::kEnter) {
        open[e.ctx.span_id] = e.when;
      } else if (auto it = open.find(e.ctx.span_id); it != open.end()) {
        t.pool_waits_us.push_back(
            std::chrono::duration<double, std::micro>(e.when - it->second)
                .count());
        open.erase(it);
      }
    }
    keep(events, std::move(taken));
    return t;
  }

  /// Append a batch of trace events to the round's trace, unless that
  /// would make the written trace unreasonably large.
  static void keep(std::vector<obs::TraceEvent>& events,
                   std::vector<obs::TraceEvent> taken) {
    constexpr std::size_t kKeepEvents = 200'000;
    if (events.size() + taken.size() <= kKeepEvents)
      events.insert(events.end(), std::make_move_iterator(taken.begin()),
                    std::make_move_iterator(taken.end()));
  }

  /// kCallers closed-loop callers plus the operator thread, for `seconds`.
  void rpc_phase(World& world, double seconds, Samples& out) {
    const std::uint64_t phase = phase_++;
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> latencies(kCallers);
    std::vector<std::uint64_t> ok(kCallers, 0);
    std::vector<double> plug_us;
    const auto cpu0 = cpu_ticks();
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (std::size_t t = 0; t < kCallers; ++t) {
        threads.emplace_back([&, t] {
          Rng rng(mix(opts_.seed, 10'000 + 16 * phase + t));
          while (!stop.load(std::memory_order_relaxed)) {
            const Request& req = draw(spec_, inputs_, rng);
            const auto s = Clock::now();
            if (remote_call(world, t, req, tally_)) {
              latencies[t].push_back(
                  std::chrono::duration<double, std::micro>(Clock::now() - s)
                      .count());
              ++ok[t];
            } else {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
        });
      }
      // The operator: plug a profiling aspect on filter into the live
      // client, let it observe for a while, unplug it — on a fixed period.
      threads.emplace_back([&] {
        obs::MetricsRegistry registry;
        while (!stop.load(std::memory_order_relaxed)) {
          auto profiler = std::make_shared<obs::ProfilingAspect<PrimeFilter>>(
              "OperatorProfile", registry);
          profiler->profile_method<&PrimeFilter::filter>();
          const auto a = Clock::now();
          world.client().attach(profiler);
          const double attach_us =
              std::chrono::duration<double, std::micro>(Clock::now() - a).count();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          const auto d = Clock::now();
          world.client().detach("OperatorProfile");
          plug_us.push_back(
              attach_us +
              std::chrono::duration<double, std::micro>(Clock::now() - d).count());
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
      sleep_phase(world, t0, seconds);
      stop.store(true);
    }
    const double wall = seconds_since(t0);
    const double stolen = steal_between(cpu0, cpu_ticks());
    std::vector<double> all;
    std::uint64_t done = 0;
    for (std::size_t t = 0; t < kCallers; ++t) {
      done += ok[t];
      all.insert(all.end(), latencies[t].begin(), latencies[t].end());
    }
    out.phase_rps.add(static_cast<double>(done) / wall, stolen);
    out.phase_p50_us.add(quantile(all, 0.50), stolen);
    out.phase_p99_us.add(quantile(all, 0.99), stolen);
    out.rpc_latency_us.insert(out.rpc_latency_us.end(), all.begin(), all.end());
    out.attach_detach_us.insert(out.attach_detach_us.end(), plug_us.begin(),
                                plug_us.end());
  }

  /// Sleep through a phase; fires the --kill-server-after hook when due.
  void sleep_phase(World& world, Clock::time_point t0, double seconds) {
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    if (opts_.kill_server_after >= 0 && !killed_) {
      const auto due = kill_origin_ + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(
                                              opts_.kill_server_after));
      if (due < end) {
        std::this_thread::sleep_until(due);
        world.server().kill_now();
        killed_ = true;
      }
    }
    std::this_thread::sleep_until(end);
  }

  const Options& opts_;
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  Tally& tally_;
  int round_ = 0;
  std::uint64_t phase_ = 0;
  Clock::time_point kill_origin_ = Clock::now();
  bool killed_ = false;
};

// ---------------------------------------------------------------------------
// Layer probes: direct calls into each module's public functions
// ---------------------------------------------------------------------------

/// Repeat `body` until at least `budget` seconds passed; returns the mean
/// seconds per call of body.
template <class Fn>
double per_call(double budget, Fn&& body) {
  std::uint64_t n = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++n;
    elapsed = seconds_since(t0);
  } while (elapsed < budget);
  return elapsed / static_cast<double>(n);
}

using Metrics = std::map<std::string, double>;

void probe_sieve(const Inputs& in, Metrics& m) {
  PrimeFilter filter(2, sv::sieve_root(in.config.max), 0.0);
  std::size_t candidates = 0;
  for (const auto& p : in.sieve_packs) candidates += p.size();
  std::vector<long long> scratch;
  double busy = 0.0;
  std::size_t filtered = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& p : in.sieve_packs) {
      scratch = p;
      const auto s = Clock::now();
      filter.filter(scratch);
      busy += seconds_since(s);
    }
    filtered += candidates;
    if (filtered == candidates)
      m["sieve.trial_divisions"] = static_cast<double>(filter.ops());
  } while (seconds_since(t0) < 0.5);
  m["sieve.filter_ns_per_candidate"] = busy * 1e9 / static_cast<double>(filtered);
}

void probe_serial(const Inputs& in, Metrics& m) {
  std::size_t candidates = 0;
  for (const auto& p : in.sieve_packs) candidates += p.size();
  const std::pair<serial::Format, const char*> formats[] = {
      {serial::Format::kCompact, "compact"}, {serial::Format::kVerbose, "verbose"}};
  for (const auto& [format, label] : formats) {
    std::vector<std::vector<std::byte>> encoded(in.sieve_packs.size());
    std::size_t bytes = 0;
    const double enc = per_call(0.25, [&] {
      for (std::size_t i = 0; i < in.sieve_packs.size(); ++i)
        encoded[i] = serial::encode(format, in.sieve_packs[i]);
    });
    for (const auto& e : encoded) bytes += e.size();
    std::size_t checksum = 0;
    const double dec = per_call(0.25, [&] {
      for (const auto& e : encoded) {
        serial::Reader reader(e, format);
        std::vector<long long> v;
        reader.value(v);
        checksum += v.size();
      }
    });
    if (checksum % candidates != 0)
      throw std::runtime_error("serial round trip lost candidates");
    const std::string f = label;
    const double n = static_cast<double>(candidates);
    m["serial.encode_ns_per_candidate." + f] = enc * 1e9 / n;
    m["serial.decode_ns_per_candidate." + f] = dec * 1e9 / n;
    m["serial.bytes_per_candidate." + f] = static_cast<double>(bytes) / n;
  }
}

/// Context::call through a one-advice chain on a near-empty method.
void probe_aop(Metrics& m) {
  aop::Context ctx;
  auto pass = std::make_shared<aop::Aspect>("PassThrough");
  pass->around_method<&PrimeFilter::collect>(
      aop::order::kDefault, aop::Scope::any(),
      [](auto& inv) { return inv.proceed(); });
  ctx.attach(pass);
  const std::vector<long long> empty;
  auto one = ctx.create<PrimeFilter>(2LL, 3LL, 0.0);
  constexpr int kBatch = 1000;
  m["aop.dispatch_ns"] = per_call(0.3, [&] {
    for (int i = 0; i < kBatch; ++i) ctx.call<&PrimeFilter::collect>(one, empty);
  }) * 1e9 / kBatch;

  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> cpu_ns_per_call(threads, 0.0);
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        auto mine = ctx.create<PrimeFilter>(2LL, 3LL, 0.0);
        constexpr int kCalls = 200'000;
        timespec a{}, b{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
        for (int i = 0; i < kCalls; ++i)
          ctx.call<&PrimeFilter::collect>(mine, empty);
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
        cpu_ns_per_call[t] =
            (static_cast<double>(b.tv_sec - a.tv_sec) * 1e9 +
             static_cast<double>(b.tv_nsec - a.tv_nsec)) / kCalls;
      });
    }
  }
  m["aop.dispatch_ns_nproc"] = median(cpu_ns_per_call);
}

/// Zero-cost simulated Middleware::invoke of a 16-candidate filter call.
void probe_cluster(const Inputs& in, Metrics& m) {
  ac::Cluster cluster;
  cluster.registry()
      .bind<PrimeFilter>("PrimeFilter")
      .ctor<long long, long long, double>()
      .method<&PrimeFilter::filter>("filter");
  const auto& src = in.pools.front().front().pack;
  std::vector<long long> pack(src.begin(),
                              src.begin() + std::min<std::size_t>(16, src.size()));
  ac::RmiMiddleware rmi(cluster, ac::CostModel::loopback());
  ac::MppMiddleware mpp(cluster, ac::CostModel::loopback());
  const std::pair<ac::Middleware*, const char*> mws[] = {{&rmi, "rmi"},
                                                         {&mpp, "mpp"}};
  for (const auto& [mw, label] : mws) {
    const auto format = mw->wire_format();
    const auto handle =
        mw->create(0, "PrimeFilter",
                   serial::encode(format, 2LL, sv::sieve_root(kFilterMax), 0.0));
    constexpr int kBatch = 100;
    m[std::string("cluster.invoke_us.") + label] = per_call(0.25, [&] {
      for (int i = 0; i < kBatch; ++i) {
        auto reply = mw->invoke(handle, "filter", serial::encode(format, pack));
        serial::Reader reader(reply, format);
        std::vector<long long> out;
        reader.value(out);
      }
    }) * 1e6 / kBatch;
  }
}

/// p50 of TcpMiddleware::invoke with a small request, single caller.
void probe_net(World& world, const Inputs& in, Metrics& m) {
  auto binding = std::dynamic_pointer_cast<st::RemoteObjectBinding>(
      world.remote(0).remote_binding());
  if (!binding) throw std::runtime_error("remote filter is not remote");
  const auto& src = in.pools.front().front().pack;
  std::vector<long long> pack(src.begin(),
                              src.begin() + std::min<std::size_t>(16, src.size()));
  std::vector<double> rtt;
  for (int i = 0; i < 2000; ++i) {
    const auto s = Clock::now();
    world.middleware().invoke(binding->handle(), "filter",
                              serial::encode(serial::Format::kCompact, pack));
    rtt.push_back(std::chrono::duration<double, std::micro>(Clock::now() - s).count());
  }
  m["net.rtt_us"] = median(rtt);
}

/// Median of serve.filter span durations in a sieve_server trace dump.
double server_serve_us(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::vector<double> durs;
  const std::string key = "\"name\":\"serve.filter\"";
  for (std::size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + key.size())) {
    const std::size_t end = text.find('}', pos);
    const std::size_t d = text.find("\"dur\":", pos);
    if (d == std::string::npos || d > end) continue;
    durs.push_back(std::strtod(text.c_str() + d + 6, nullptr));
  }
  return median(durs);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  return number(a) + " " + number(b) + " " + number(c);
}

void print_context(const Options& o) {
  using apar::common::json_escape;
  std::printf(
      "context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"git_sha\":\"%s\",\"source_digest\":\"%s\",\"loadavg\":\"%s\"}\n",
      json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      number(o.seconds).c_str(), o.trace ? 1 : 0,
      std::thread::hardware_concurrency(), APAR_PERFBENCH_COMPILER,
      APAR_PERFBENCH_BUILD_TYPE, json_escape(o.git_sha).c_str(),
      json_escape(o.source_digest).c_str(), load_average().c_str());
}

template <std::size_t N>
int emit(const MetricDef (&defs)[N], const Metrics& values, const Tally& tally,
         const std::vector<unsigned long long>& cpu_start) {
  std::printf("host: cpu steal %s of all cpu time during the run, loadavg %s\n",
              number(steal_between(cpu_start, cpu_ticks())).c_str(), load_average().c_str());
  const auto attempted = tally.attempted.load();
  const auto failed = tally.failed.load();
  const bool correct = failed == 0 && attempted > 0;
  std::printf("operations: %llu attempted, %llu failed (%llu wrong results, "
              "%llu call errors), error_rate %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(tally.wrong.load()),
              static_cast<unsigned long long>(tally.transport.load()),
              number(attempted ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 0.0)
                  .c_str());
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end())
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("metric %-44s %16s %-6s (%s is better)\n", d.name,
                number(v).c_str(), d.unit, d.better);
    json += (first ? "" : ", ") + std::string("\"") + d.name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void print_spread(const char* what, const Series& series) {
  const auto& v = series.value;
  std::printf("samples %-16s n=%zu min %s p25 %s p50 %s p75 %s max %s | "
              "steal p50 %s max %s | quiet n=%zu p50 %s\n",
              what, v.size(), number(quantile(v, 0)).c_str(),
              number(quantile(v, 0.25)).c_str(), number(quantile(v, 0.5)).c_str(),
              number(quantile(v, 0.75)).c_str(), number(quantile(v, 1)).c_str(),
              number(quantile(series.steal, 0.5)).c_str(),
              number(quantile(series.steal, 1)).c_str(), series.quiet().size(),
              number(median(series.quiet())).c_str());
}

/// Sample counts and spread behind each reported median.
void print_samples(const Samples& s) {
  for (Comp c : kComps) {
    if (const auto it = s.solve_s.find(c); it != s.solve_s.end())
      print_spread(metric_of(c), it->second);
  }
  print_spread("rpc_rps/phase", s.phase_rps);
  print_spread("rpc_p50_us/phase", s.phase_p50_us);
  print_spread("rpc_p99_us/phase", s.phase_p99_us);
  const auto& r = s.rpc_latency_us;
  std::printf("samples rpc_latency_us (all phases) n=%zu p50 %s p99 %s p999 %s\n",
              r.size(), number(quantile(r, 0.5)).c_str(),
              number(quantile(r, 0.99)).c_str(), number(quantile(r, 0.999)).c_str());
}

void add_end_to_end(const Samples& s, Metrics& m) {
  print_samples(s);
  for (Comp c : kComps) {
    const auto it = s.solve_s.find(c);
    m[metric_of(c)] = it == s.solve_s.end() ? 0.0 : median(it->second.quiet());
  }
  m["rpc_rps"] = median(s.phase_rps.quiet());
  m["rpc_p50_us"] = median(s.phase_p50_us.quiet());
  m["rpc_p99_us"] = median(s.phase_p99_us.quiet());
}

// ---------------------------------------------------------------------------
// The two run modes
// ---------------------------------------------------------------------------

constexpr int kSetups = 3;

int run_untraced(const Options& opts, const WorkloadSpec& spec,
                 const Inputs& inputs,
                 const std::vector<unsigned long long>& cpu_start) {
  Tally tally;
  Runner runner(opts, spec, inputs, tally);
  Series setups;
  double server_rss = 0.0;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    if (world) server_rss = std::max(server_rss, world->server().peak_rss_mb());
    world.reset();
    const auto cpu0 = cpu_ticks();
    const auto t0 = Clock::now();
    world = std::make_unique<World>(opts, inputs, /*traced=*/false);
    runner.warm_up(*world);
    setups.add(seconds_since(t0), steal_between(cpu0, cpu_ticks()));
  }
  Samples samples;
  runner.arm_kill(Clock::now());
  runner.measure(*world, opts.seconds, samples, nullptr, nullptr);
  server_rss = std::max(server_rss, world->server().peak_rss_mb());
  world.reset();

  Metrics m;
  print_spread("setup_s", setups);
  m["setup_s"] = median(setups.quiet());
  m["peak_rss_mb"] = perfbench::peak_rss_mb_of(0) + server_rss;
  add_end_to_end(samples, m);
  return emit(kEndToEnd, m, tally, cpu_start);
}

int run_traced(const Options& opts, const WorkloadSpec& spec,
               const Inputs& inputs,
               const std::vector<unsigned long long>& cpu_start) {
  Tally tally;
  Runner runner(opts, spec, inputs, tally);
  Metrics m;

  // Half the time untraced: the baseline for obs.trace_overhead and the
  // Fig. 16 ratio; the layer probes run here too, with tracing off.
  Samples plain;
  {
    World world(opts, inputs, /*traced=*/false);
    runner.warm_up(world);
    runner.arm_kill(Clock::now());
    runner.measure(world, opts.seconds / 2, plain, nullptr, nullptr);
    probe_sieve(inputs, m);
    probe_serial(inputs, m);
    probe_aop(m);
    probe_cluster(inputs, m);
    probe_net(world, inputs, m);
  }

  // Half traced: span recording and the metrics registry on, a traced
  // server, and the benchmark's probe aspects plugged into each weave.
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  Samples traced;
  std::vector<obs::TraceEvent> last_round;
  std::string server_trace;
  std::uint64_t connects = 0;
  {
    World world(opts, inputs, /*traced=*/true);
    std::map<Comp, std::shared_ptr<ProbeAspect>> probes;
    for (Comp c : kWoven) {
      probes[c] = std::make_shared<ProbeAspect>("Probe", c == Comp::kFarmThreads);
      world.harness(c).context().attach(probes[c]);
    }
    runner.warm_up(world);
    runner.measure(world, opts.seconds / 2, traced, &probes, &last_round);

    // Wire cost of a fixed, seeded request sequence (exact per seed).
    const auto before = world.middleware().net_counters();
    Rng rng(mix(opts.seed, 3));
    constexpr int kCounted = 100;
    for (int i = 0; i < kCounted; ++i)
      remote_call(world, 0, draw(spec, inputs, rng), tally);
    const auto after = world.middleware().net_counters();
    m["net.frames_per_request"] =
        static_cast<double>(after.frames_sent + after.frames_received -
                            before.frames_sent - before.frames_received) / kCounted;
    m["net.wire_bytes_per_request"] =
        static_cast<double>(after.wire_bytes_sent + after.wire_bytes_received -
                            before.wire_bytes_sent - before.wire_bytes_received) /
        kCounted;
    connects = after.connects;
    server_trace = opts.out_dir + "/server-trace-" + opts.workload + "-" +
                   std::to_string(opts.seed) + ".json";
  }  // the server writes its trace as it stops
  m["net.connects"] = static_cast<double>(connects);
  m["net.server_serve_us"] = server_serve_us(server_trace);
  const std::string client_trace = opts.out_dir + "/trace-" + opts.workload +
                                   "-" + std::to_string(opts.seed) + ".json";
  {
    std::ofstream out(client_trace);
    out << obs::Tracer::chrome_trace_json_of(last_round, static_cast<int>(::getpid()),
                                             "perfbench");
  }
  std::printf("trace: %s (client, last round), %s (server)\n",
              client_trace.c_str(), server_trace.c_str());

  Metrics plain_e2e, traced_e2e;
  add_end_to_end(plain, plain_e2e);
  add_end_to_end(traced, traced_e2e);
  m["aop.weave_overhead"] =
      plain_e2e["farm_threads_s"] / plain_e2e["hand_farm_s"];
  for (const char* k : {"sequential_s", "hand_farm_s", "farm_threads_s",
                        "farm_mpp_s", "pipe_rmi_s", "rpc_p50_us", "rpc_p99_us"})
    m[std::string("obs.trace_overhead.") + k] = traced_e2e[k] / plain_e2e[k];
  m["aop.attach_detach_us"] = median(traced.attach_detach_us);

  std::vector<double> waits, pool_waits;
  for (Comp c : kWoven) {
    const std::string sfx = suffix_of(c);
    std::vector<double> jp, fan, quiesce, tasks, sync, one_way, bytes, busy;
    for (const auto& t : traced.traced[c]) {
      jp.push_back(static_cast<double>(t.probe.join_points));
      fan.push_back(t.probe.fanout_us);
      quiesce.push_back(t.seconds * 1e6 - t.probe.create_us - t.probe.fanout_us);
      tasks.push_back(static_cast<double>(t.tasks));
      sync.push_back(static_cast<double>(t.sync));
      one_way.push_back(static_cast<double>(t.one_way));
      bytes.push_back(static_cast<double>(t.bytes));
      if (c == Comp::kFarmThreads) {
        waits.insert(waits.end(), t.probe.dispatch_wait_us.begin(),
                     t.probe.dispatch_wait_us.end());
        busy.push_back(t.probe.busy_us /
                       (static_cast<double>(inputs.config.local_cpu_slots) *
                        t.seconds * 1e6));
        m["strategies.packs_per_solve"] =
            static_cast<double>(t.probe.dispatch_wait_us.size());
      }
    }
    m["aop.join_points_per_solve." + sfx] = median(jp);
    m["strategies.fanout_us." + sfx] = median(fan);
    m["strategies.quiesce_wait_us." + sfx] = median(quiesce);
    m["concurrency.tasks_per_solve." + sfx] = median(tasks);
    if (c == Comp::kFarmThreads) m["concurrency.busy_ratio"] = median(busy);
    if (c != Comp::kFarmThreads) {
      m["cluster.sync_calls_per_solve." + sfx] = median(sync);
      m["cluster.one_way_calls_per_solve." + sfx] = median(one_way);
      m["cluster.bytes_per_solve." + sfx] = median(bytes);
    }
  }
  for (const auto& t : traced.traced[Comp::kHandFarm])
    pool_waits.insert(pool_waits.end(), t.pool_waits_us.begin(), t.pool_waits_us.end());
  m["concurrency.queue_wait_us.p50"] = quantile(waits, 0.50);
  m["concurrency.queue_wait_us.p99"] = quantile(waits, 0.99);
  m["concurrency.pool_queue_wait_us.p50"] = quantile(pool_waits, 0.50);
  m["concurrency.pool_queue_wait_us.p99"] = quantile(pool_waits, 0.99);
  return emit(kPerLayer, m, tally, cpu_start);
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && !defined(APAR_SANITIZED)
  const std::string type = APAR_PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  WorkloadSpec spec;
  try {
    opts = parse_options(argc, argv);
    spec = make_spec(opts.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (!optimised_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-optimised build "
                 "(build type %s); configure Release or RelWithDebInfo "
                 "without sanitizers\n",
                 APAR_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Observability stays off unless the traced mode turns it on, whatever
  // the environment says.
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  print_context(opts);
  const auto cpu_start = cpu_ticks();
  try {
    const Inputs inputs = make_inputs(spec, opts);
    return opts.trace ? run_traced(opts, spec, inputs, cpu_start)
                      : run_untraced(opts, spec, inputs, cpu_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
