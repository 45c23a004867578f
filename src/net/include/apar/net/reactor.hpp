#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apar/aop/aop.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/socket.hpp"

namespace apar::net {

/// What the dispatch handler decided about one request frame: either a
/// reply to queue back on the connection, or (chaos only) an instruction
/// to close the connection without replying, so the client sees a "lost
/// reply" (NetError{kClosed}).
struct ReplyAction {
  bool drop = false;
  FrameHeader header;
  std::vector<std::byte> payload;
};

/// Single-threaded event loop serving many connections over the frame
/// protocol; TcpServer's only serving engine. Nonblocking accept,
/// per-connection incremental read state machines, request dispatch into
/// a shared work-stealing ThreadPool, and ordered write-back with
/// backpressure.
///
/// Threading model — one rule: ONLY the reactor thread touches connection
/// state. Pool workers run the handler and push the finished ReplyAction
/// onto a mutex-protected completion queue; a self-pipe wakes the loop,
/// which matches completions back to their connection by id and flushes
/// replies strictly in request arrival order (pipelined clients see
/// replies in the order they asked, no matter how the pool reordered the
/// work). Out-of-order completions park until their turn.
///
/// Backpressure: when a connection has `max_inflight` dispatched requests
/// or `max_outbound_bytes` of un-flushed reply bytes, the reactor stops
/// reading from it (drops read interest) until the client drains replies —
/// a slow consumer throttles itself instead of ballooning server memory.
/// Writes that make no progress for `write_stall_timeout` evict the
/// connection (slow-reader protection); connections idle longer than
/// `idle_timeout` are closed; accepts beyond `max_connections` are closed
/// immediately and counted as rejected.
///
/// The epoll backend (Linux) is level-triggered; `force_poll` selects the
/// portable poll(2) backend, which behaves identically and is exercised
/// by the test suite so the fallback never rots.
class Reactor {
 public:
  struct Options {
    std::size_t max_connections = 1024;
    /// Close connections with no traffic for this long (0 = never).
    std::chrono::milliseconds idle_timeout{0};
    /// Un-flushed reply bytes per connection before reads pause.
    std::size_t max_outbound_bytes = 1 << 20;
    /// Dispatched-but-unanswered requests per connection before reads
    /// pause (bounds worker-queue amplification from one pipelining
    /// client).
    std::size_t max_inflight = 64;
    /// Evict a connection whose pending writes make no progress this long.
    std::chrono::milliseconds write_stall_timeout{5000};
    /// stop() grace: how long to wait for in-flight requests to finish
    /// and queued replies to flush before force-closing.
    std::chrono::milliseconds drain_timeout{2000};
    /// Use the portable poll(2) backend even where epoll is available.
    bool force_poll = false;
    /// Test knob: SO_SNDBUF for accepted sockets (0 = kernel default);
    /// small values make slow-reader eviction deterministic.
    int sndbuf_bytes = 0;
  };

  /// Copyable snapshot of the loop's accounting.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;  ///< closed at accept: over max_connections
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t backpressure_pauses = 0;  ///< read-pause transitions
    std::uint64_t idle_closed = 0;
    std::uint64_t slow_closed = 0;  ///< evicted for stalled writes
  };

  /// Runs on a pool worker with the decoded request; must not block on
  /// the requesting connection (it owns no socket).
  using Handler =
      std::function<ReplyAction(const FrameHeader&, std::vector<std::byte>)>;

  /// The listener must outlive the reactor and stay open until stop()
  /// returns; `pool` executes handlers and is shared with the rest of the
  /// server. `label` names the APAR_METRICS probes ({"server", label}).
  Reactor(Listener& listener, concurrency::ThreadPool& pool, Handler handler,
          Options options, std::string label);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Graceful drain: stop accepting, stop reading, let in-flight requests
  /// finish and queued replies flush (up to drain_timeout), close
  /// everything, join the loop thread. Idempotent.
  void stop();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Analysis-side model of the reactor's dispatch path: every served
/// method of T runs on an arbitrary ThreadPool worker, concurrently with
/// any other request — concurrency injected by the transport rather than
/// by a concurrency aspect, which the declared-effects race pass
/// (`apar-analyze --effects`) must see. Each serve_method registers a
/// pass-through advice just outside the concurrency layer marked
/// mark_spawns_concurrency() (unconfined: pool workers, not a
/// target-confined helper thread), so a weave is only clean when some
/// aspect's monitors still cover every racing effect pair — the
/// composition gate for serving a weave behind a TcpServer.
template <class T>
class ReactorIngressAspect : public aop::Aspect {
 public:
  explicit ReactorIngressAspect(std::string name = "ReactorIngress")
      : Aspect(std::move(name)) {}

  template <auto M>
  ReactorIngressAspect& serve_method() {
    around_method<M>(aop::order::kConcurrencyAsync - 10, aop::Scope::any(),
                     [](auto& inv) { return inv.proceed(); })
        .mark_spawns_concurrency();
    return *this;
  }
};

}  // namespace apar::net
