#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "apar/cluster/cluster.hpp"
#include "apar/cluster/cost_model.hpp"
#include "apar/cluster/ids.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/serial/archive.hpp"

namespace apar::cluster {

/// Traffic counters, maintained by every middleware implementation.
/// Every implementation accounts BOTH directions at the same seam: the
/// marshalled request payload it puts on the (simulated or real) wire goes
/// into bytes_sent, and whatever payload comes back — a sync reply, a
/// degraded one-way's echoed reply, or a transport ack — into
/// bytes_received. tests/cluster/test_middleware_stats.cpp asserts this
/// parity for every shipped implementation.
struct MiddlewareStats {
  std::atomic<std::uint64_t> creates{0};
  std::atomic<std::uint64_t> sync_calls{0};
  std::atomic<std::uint64_t> one_way_calls{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> lookups{0};

  /// Copyable point-in-time view. The atomic struct itself cannot be
  /// copied, which previously forced aggregators (HybridMiddleware) to
  /// sum field-by-field — a new counter silently vanished from the
  /// aggregate. snapshot()/store() are now the single place that
  /// enumerates the fields.
  struct Snapshot {
    std::uint64_t creates = 0;
    std::uint64_t sync_calls = 0;
    std::uint64_t one_way_calls = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t lookups = 0;

    Snapshot& operator+=(const Snapshot& other) {
      creates += other.creates;
      sync_calls += other.sync_calls;
      one_way_calls += other.one_way_calls;
      bytes_sent += other.bytes_sent;
      bytes_received += other.bytes_received;
      lookups += other.lookups;
      return *this;
    }
    friend Snapshot operator+(Snapshot a, const Snapshot& b) {
      a += b;
      return a;
    }
    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  [[nodiscard]] Snapshot snapshot() const {
    Snapshot s;
    s.creates = creates.load(std::memory_order_relaxed);
    s.sync_calls = sync_calls.load(std::memory_order_relaxed);
    s.one_way_calls = one_way_calls.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received.load(std::memory_order_relaxed);
    s.lookups = lookups.load(std::memory_order_relaxed);
    return s;
  }

  /// Overwrite the counters from a snapshot (aggregation views only).
  void store(const Snapshot& s) {
    creates.store(s.creates, std::memory_order_relaxed);
    sync_calls.store(s.sync_calls, std::memory_order_relaxed);
    one_way_calls.store(s.one_way_calls, std::memory_order_relaxed);
    bytes_sent.store(s.bytes_sent, std::memory_order_relaxed);
    bytes_received.store(s.bytes_received, std::memory_order_relaxed);
    lookups.store(s.lookups, std::memory_order_relaxed);
  }
};

/// Client-side middleware interface — the seam that lets the distribution
/// aspect "switch among underlying middleware implementations ... such as
/// CORBA, Java RMI and MPI" (paper §4.3) without touching partition or
/// concurrency code.
class Middleware {
 public:
  virtual ~Middleware() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual serial::Format wire_format() const = 0;
  /// True if void calls may be sent without waiting for a reply.
  [[nodiscard]] virtual bool supports_one_way() const = 0;

  /// Create an instance of a registered class on `node` from marshalled
  /// constructor arguments; blocks until the object exists.
  virtual RemoteHandle create(NodeId node, std::string_view class_name,
                              std::vector<std::byte> ctor_args) = 0;

  /// Synchronous request/reply call. The reply payload carries the
  /// copy-restored (possibly mutated) arguments followed by the result.
  virtual std::vector<std::byte> invoke(const RemoteHandle& target,
                                        std::string_view method,
                                        std::vector<std::byte> args) = 0;

  /// Fire-and-forget call; completion is observable via Cluster::drain().
  /// Middlewares without one-way support degrade to invoke().
  virtual void invoke_one_way(const RemoteHandle& target,
                              std::string_view method,
                              std::vector<std::byte> args) = 0;

  /// Charged name-server lookup (the RMI registry round-trip).
  virtual std::optional<RemoteHandle> lookup(std::string_view name) = 0;

  [[nodiscard]] virtual const MiddlewareStats& stats() const = 0;
  [[nodiscard]] virtual const CostModel& costs() const = 0;

  /// True when calls leave the process over a real wire (sockets). For
  /// wire transports, argument serializability is a hard requirement, not
  /// a simulation convenience — the weave-plan analysis escalates
  /// unserializable-argument hazards from warning to error when the advice
  /// targets such a middleware. Decorators delegate to their inner
  /// middleware; hybrids answer true if either backend does.
  [[nodiscard]] virtual bool wire_transport() const { return false; }

  /// Which middleware actually carries calls to `method` ("new" for
  /// creations). Plain middlewares return themselves; a hybrid returns one
  /// of its backends. Callers must encode arguments with the ROUTED
  /// middleware's wire format.
  [[nodiscard]] virtual Middleware& route_for(std::string_view method) {
    (void)method;
    return *this;
  }
};

/// Shared implementation over the simulated Cluster; concrete middlewares
/// differ only in cost model, wire format and one-way capability.
class SimMiddleware : public Middleware {
 public:
  SimMiddleware(Cluster& cluster, CostModel costs, serial::Format format,
                bool one_way, std::string_view name)
      : cluster_(cluster),
        costs_(costs),
        format_(format),
        one_way_(one_way),
        name_(name) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] serial::Format wire_format() const override { return format_; }
  [[nodiscard]] bool supports_one_way() const override { return one_way_; }

  RemoteHandle create(NodeId node, std::string_view class_name,
                      std::vector<std::byte> ctor_args) override;
  std::vector<std::byte> invoke(const RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override;
  void invoke_one_way(const RemoteHandle& target, std::string_view method,
                      std::vector<std::byte> args) override;
  std::optional<RemoteHandle> lookup(std::string_view name) override;

  [[nodiscard]] const MiddlewareStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] const CostModel& costs() const override { return costs_; }

  [[nodiscard]] Cluster& cluster() { return cluster_; }

 private:
  Reply send_and_wait(Message msg);

  /// Feed per-method invoke latency and request-payload-size histograms
  /// into the global registry, labelled {"middleware": name, "method":
  /// method} ("new" for creations). Only called when metrics_on_.
  void record_call_metrics(std::string_view method,
                           std::chrono::steady_clock::time_point started,
                           std::size_t payload_bytes);

  /// The client machine's network link is a shared serial resource: every
  /// request and reply byte crosses it, one message at a time. This is
  /// what keeps a client-woven pipeline from scaling (paper §6: "each
  /// message must cross all pipeline elements") — latency overlaps across
  /// threads, but link occupancy does not.
  void charge_client_link(std::size_t bytes);

  /// Per-call client-side setup: connection handshake plus request
  /// marshalling, also serialized on the client (it is CPU + link work).
  void charge_client_setup(std::size_t bytes);

  std::mutex link_mutex_;
  Cluster& cluster_;
  CostModel costs_;
  serial::Format format_;
  bool one_way_;
  std::string_view name_;
  MiddlewareStats stats_;
  // Latched at construction so the unobserved call path pays one bool test
  // and no clock reads.
  const bool metrics_on_ = obs::metrics_enabled();
};

/// Java-RMI-like middleware: per-call handshake, verbose self-describing
/// marshalling, registry lookups, strictly synchronous request/reply.
class RmiMiddleware final : public SimMiddleware {
 public:
  explicit RmiMiddleware(Cluster& cluster, CostModel costs = CostModel::rmi())
      : SimMiddleware(cluster, costs, serial::Format::kVerbose,
                      /*one_way=*/false, "RMI") {}
};

/// MPP-like middleware (java.nio message passing): persistent channels,
/// compact frames, one-way sends.
class MppMiddleware final : public SimMiddleware {
 public:
  explicit MppMiddleware(Cluster& cluster, CostModel costs = CostModel::mpp())
      : SimMiddleware(cluster, costs, serial::Format::kCompact,
                      /*one_way=*/true, "MPP") {}
};

/// Hybrid middleware (paper §5.3: "it is also possible to develop a hybrid
/// implementation, using MPP and RMI ... using MPI for performance
/// critical parts, and Java RMI in the remainder parts").
///
/// Calls to the registered fast-path methods travel over `fast` (MPP);
/// everything else — creations, result gathering, control traffic — over
/// `control` (RMI). Both backends keep their own statistics.
class HybridMiddleware final : public Middleware {
 public:
  HybridMiddleware(Middleware& control, Middleware& fast,
                   std::vector<std::string> fast_methods)
      : control_(control),
        fast_(fast),
        fast_methods_(std::make_move_iterator(fast_methods.begin()),
                      std::make_move_iterator(fast_methods.end())) {
    name_ = "Hybrid(" + std::string(control_.name()) + "+" +
            std::string(fast_.name()) + ")";
  }

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] serial::Format wire_format() const override {
    return control_.wire_format();
  }
  [[nodiscard]] bool supports_one_way() const override {
    return control_.supports_one_way();
  }

  Middleware& route_for(std::string_view method) override {
    return fast_methods_.count(method) != 0 ? fast_ : control_;
  }

  RemoteHandle create(NodeId node, std::string_view class_name,
                      std::vector<std::byte> ctor_args) override {
    return control_.create(node, class_name, std::move(ctor_args));
  }
  std::vector<std::byte> invoke(const RemoteHandle& target,
                                std::string_view method,
                                std::vector<std::byte> args) override {
    return route_for(method).invoke(target, method, std::move(args));
  }
  void invoke_one_way(const RemoteHandle& target, std::string_view method,
                      std::vector<std::byte> args) override {
    route_for(method).invoke_one_way(target, method, std::move(args));
  }
  std::optional<RemoteHandle> lookup(std::string_view name) override {
    return control_.lookup(name);
  }

  /// Aggregated view over BOTH backends. Reporting only the control side
  /// silently undercounts hybrid traffic — the fast path is where the bulk
  /// of the bytes go. Snapshot-based so the aggregation enumerates fields
  /// in exactly one place (MiddlewareStats::snapshot / store) and cannot
  /// drift when a counter is added. Per-backend breakdowns remain
  /// available through control().stats() / fast().stats().
  [[nodiscard]] const MiddlewareStats& stats() const override {
    agg_stats_.store(control_.stats().snapshot() + fast_.stats().snapshot());
    return agg_stats_;
  }
  [[nodiscard]] const CostModel& costs() const override {
    return control_.costs();
  }
  [[nodiscard]] bool wire_transport() const override {
    return control_.wire_transport() || fast_.wire_transport();
  }

  [[nodiscard]] Middleware& control() { return control_; }
  [[nodiscard]] Middleware& fast() { return fast_; }

 private:
  using MethodSet = std::set<std::string, std::less<>>;

  Middleware& control_;
  Middleware& fast_;
  const MethodSet fast_methods_;
  std::string name_;
  /// Refreshed on every stats() call from the two backends' live counters.
  mutable MiddlewareStats agg_stats_;
};

}  // namespace apar::cluster
