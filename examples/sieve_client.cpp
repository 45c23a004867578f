// Two-process sieve, client half: the SAME weave as the in-process
// FarmRMI/FarmMPP versions (farm partition + concurrency + distribution),
// but the distribution aspect now targets net::TcpMiddleware, so every
// create/call crosses a real socket into a sieve_server process. The core
// functionality line below is untouched — that is the paper's claim, now
// demonstrated across an actual process boundary.
//
//   ./examples/sieve_server --port-file /tmp/p &
//   ./examples/sieve_client --port $(cat /tmp/p) --format compact
//
// Options: --host H --port P --format compact|verbose --max M
//          --filters N --pack P --work-seconds S
// Exits 0 iff the prime count over the wire matches the reference sieve.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "apar/aop/context.hpp"
#include "apar/common/config.hpp"
#include "apar/common/stopwatch.hpp"
#include "apar/common/table.hpp"
#include "apar/net/error.hpp"
#include "apar/net/tcp_middleware.hpp"
#include "apar/obs/trace_aspect.hpp"
#include "apar/serial/archive.hpp"
#include "apar/sieve/prime_filter.hpp"
#include "apar/sieve/versions.hpp"
#include "apar/sieve/workload.hpp"
#include "apar/strategies/strategies.hpp"

namespace ac = apar::common;
namespace aop = apar::aop;
namespace as = apar::serial;
namespace net = apar::net;
namespace obs = apar::obs;
namespace st = apar::strategies;
namespace sv = apar::sieve;

namespace {
using FarmAspect = st::FarmAspect<sv::PrimeFilter, long long, long long,
                                  long long, double>;
using ConcAspect = st::ConcurrencyAspect<sv::PrimeFilter>;
using DistAspect =
    st::DistributionAspect<sv::PrimeFilter, long long, long long, double>;
}  // namespace

int main(int argc, char** argv) {
  const ac::Config cli(argc, argv);
  const auto host = cli.get("host", "127.0.0.1");
  const auto port = cli.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "sieve_client: --port is required (1..65535)\n");
    return 2;
  }
  const auto format_name = cli.get("format", "compact");
  as::Format format;
  if (format_name == "compact") {
    format = as::Format::kCompact;
  } else if (format_name == "verbose") {
    format = as::Format::kVerbose;
  } else {
    std::fprintf(stderr,
                 "sieve_client: unknown --format '%s' (compact|verbose)\n",
                 format_name.c_str());
    return 2;
  }
  const long long max = cli.get_int("max", 200'000);
  const auto filters = static_cast<std::size_t>(cli.get_int("filters", 3));
  const auto pack = static_cast<std::size_t>(
      cli.get_int("pack", static_cast<long long>(max / 100)));
  const double work_seconds = cli.get_double("work-seconds", 0.0);
  const double ns_per_op =
      work_seconds > 0 ? sv::calibrate_ns_per_op(max, work_seconds) : 0.0;

  std::printf("sieve_client: sieving up to %s over tcp://%s:%lld "
              "(%s format, %zu filters, packs of %zu)\n",
              ac::fmt_count(max).c_str(), host.c_str(),
              static_cast<long long>(port), format_name.c_str(), filters,
              pack);

  net::TcpMiddleware::Options mopts;
  mopts.endpoints = {{host, static_cast<std::uint16_t>(port)}};
  mopts.format = format;
  net::TcpMiddleware middleware(mopts);
  net::TcpFabric fabric(middleware);

  // Identical weave to SieveHarness's farm versions — only the middleware
  // (and therefore the machine boundary) changed.
  aop::Context ctx;
  // Tracing rides along as one more aspect: when APAR_TRACE/_OUT enables
  // it, the app-level spans (process/filter/collect) nest above the wire
  // spans the middleware records on its own.
  if (obs::tracing_enabled()) {
    auto trace =
        std::make_shared<obs::TraceAspect<sv::PrimeFilter>>("Trace",
                                                            obs::Tracer::global());
    trace->trace_method<&sv::PrimeFilter::process>()
        .trace_method<&sv::PrimeFilter::filter>()
        .trace_method<&sv::PrimeFilter::collect>();
    ctx.attach(trace);
  }
  FarmAspect::Options fopts;
  fopts.duplicates = filters;
  fopts.pack_size = pack;
  auto farm = std::make_shared<FarmAspect>("Partition", fopts);
  ctx.attach(farm);
  auto conc = std::make_shared<ConcAspect>("Concurrency");
  conc->async_method<&sv::PrimeFilter::process>()
      .async_method<&sv::PrimeFilter::filter>()
      .guarded_method<&sv::PrimeFilter::collect>();
  ctx.attach(conc);
  auto dist = std::make_shared<DistAspect>("Distribution", fabric, middleware);
  dist->distribute_method<&sv::PrimeFilter::filter>()
      .distribute_method<&sv::PrimeFilter::process>(/*allow_one_way=*/true)
      .distribute_method<&sv::PrimeFilter::collect>(/*allow_one_way=*/true)
      .distribute_method<&sv::PrimeFilter::take_results>();
  ctx.attach(dist);

  const long long root = sv::sieve_root(max);
  auto candidates = sv::odd_candidates(max);

  long long primes = 0;
  double seconds = 0;
  try {
    ac::Stopwatch sw;
    // ---- the entire core functionality (paper §5.1) ----
    auto p = ctx.create<sv::PrimeFilter>(2LL, root, ns_per_op);
    ctx.call<&sv::PrimeFilter::process>(p, candidates);
    ctx.quiesce();
    // ----------------------------------------------------
    seconds = sw.seconds();
    const auto survivors = farm->gather_results(ctx);
    primes = sv::count_primes_up_to(root) +
             static_cast<long long>(survivors.size());
  } catch (const net::NetError& e) {
    // A dead or restarted server surfaces here as a clean, typed error
    // within the configured deadlines — never as a hang.
    std::fprintf(stderr, "sieve_client: transport failure (%s): %s\n",
                 net::NetError::kind_name(e.kind()), e.what());
    return 3;
  }

  // The client half of the distributed trace (root span + app spans + wire
  // spans). merge_traces.py aligns the server's dump against this one.
  if (const char* trace_out = std::getenv("APAR_TRACE_OUT");
      trace_out != nullptr && *trace_out != '\0' && obs::tracing_enabled()) {
    obs::Tracer::global()->write_chrome_trace(trace_out,
                                              static_cast<int>(::getpid()),
                                              "sieve-client");
    std::printf("sieve_client: trace written to %s\n", trace_out);
  }

  const long long expected = sv::count_primes_up_to(max);
  const auto mw = middleware.stats().snapshot();
  const auto wire = middleware.net_counters();
  std::printf("\nfound %s primes in %.3f s  (reference: %s — %s)\n",
              ac::fmt_count(primes).c_str(), seconds,
              ac::fmt_count(expected).c_str(),
              primes == expected ? "CORRECT" : "WRONG");
  std::printf("middleware traffic: %llu creates, %llu sync, %llu one-way, "
              "%s payload bytes\n",
              static_cast<unsigned long long>(mw.creates),
              static_cast<unsigned long long>(mw.sync_calls),
              static_cast<unsigned long long>(mw.one_way_calls),
              ac::fmt_count(static_cast<long long>(mw.bytes_sent +
                                                   mw.bytes_received))
                  .c_str());
  std::printf("wire traffic: %llu connects (%llu reconnects), %llu frames "
              "out / %llu in, %s bytes out / %s in\n",
              static_cast<unsigned long long>(wire.connects),
              static_cast<unsigned long long>(wire.reconnects),
              static_cast<unsigned long long>(wire.frames_sent),
              static_cast<unsigned long long>(wire.frames_received),
              ac::fmt_count(static_cast<long long>(wire.wire_bytes_sent))
                  .c_str(),
              ac::fmt_count(static_cast<long long>(wire.wire_bytes_received))
                  .c_str());
  return primes == expected ? 0 : 1;
}
