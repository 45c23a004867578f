#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "apar/cluster/dispatcher.hpp"
#include "apar/cluster/name_server.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/concurrency/thread_pool.hpp"
#include "apar/net/frame.hpp"
#include "apar/net/reactor.hpp"
#include "apar/net/socket.hpp"

namespace apar::net {

/// One TCP "machine": a loopback-or-LAN server hosting a
/// cluster::Dispatcher behind the frame protocol. This is the real-wire
/// counterpart of cluster::Node — both drive the SAME Dispatcher, so a
/// request does exactly the same thing whether it arrived on a simulated
/// mailbox or a socket.
///
/// Serving runs on a Reactor (src/net/reactor): a single event-loop
/// thread multiplexes every connection (epoll, or poll via
/// Options::reactor.force_poll) and dispatches decoded requests into a
/// ThreadPool of `workers`, so `workers` bounds CPU concurrency while the
/// connection count is bounded only by Options::reactor.max_connections.
/// The loop adds write backpressure, idle timeouts, slow-reader eviction,
/// connection limits and graceful drain. Everything between a decoded
/// request and its reply (chaos knobs, trace trailers, kTelemetry) lives
/// in process_request. docs/networking.md has the architecture and the
/// latency cost of the loop -> pool -> loop handoff.
class TcpServer {
 public:
  struct Options {
    std::uint16_t port = 0;      ///< 0 = pick an ephemeral port
    std::size_t workers = 4;     ///< request-handler pool size
    /// Event-loop limits and timeouts.
    Reactor::Options reactor;
    /// Dispatcher error-message prefix; default "tcp:<port>".
    std::string label;

    // --- chaos knobs (tests only) ---------------------------------------
    /// Close the connection instead of replying for the first N request
    /// frames — the reply is "lost", clients see NetError{kClosed}.
    std::uint64_t chaos_drop_frames = 0;
    /// Stall the first N replies by `chaos_stall_ms` — lets tests force a
    /// client-side deadline expiry deterministically.
    std::uint64_t chaos_stall_frames = 0;
    std::chrono::milliseconds chaos_stall_ms{0};
  };

  /// Byte/frame accounting, captured as a plain copyable snapshot. The
  /// wire-side counters come from the event loop; dispatch_errors and the
  /// chaos counters from the request path.
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;    ///< header + payload, received
    std::uint64_t bytes_out = 0;   ///< header + payload, sent
    std::uint64_t protocol_errors = 0;
    std::uint64_t dispatch_errors = 0;  ///< requests answered kReplyError
    std::uint64_t chaos_dropped = 0;
    std::uint64_t chaos_stalled = 0;
    std::uint64_t rejected = 0;             ///< over max_connections
    std::uint64_t backpressure_pauses = 0;  ///< read-pause transitions
    std::uint64_t idle_closed = 0;
    std::uint64_t slow_closed = 0;          ///< stalled-write evictions
  };

  explicit TcpServer(const cluster::rpc::Registry& registry)
      : TcpServer(registry, Options{}) {}
  TcpServer(const cluster::rpc::Registry& registry, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual listening port (useful with Options::port = 0).
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  [[nodiscard]] cluster::Dispatcher& dispatcher() { return dispatcher_; }
  [[nodiscard]] cluster::NameServer& name_server() { return name_server_; }
  [[nodiscard]] Stats stats() const;
  /// Live connection count.
  [[nodiscard]] std::size_t open_connections() const;

  /// Stop accepting and shut down after a graceful drain: in-flight
  /// requests finish and queued replies flush, up to
  /// Options::reactor.drain_timeout. Idempotent; the destructor calls it.
  void stop();

 private:
  /// The request path: chaos drop/stall decisions, serve-span tracing,
  /// dispatch, telemetry — everything between a decoded request frame and
  /// its encoded reply. Runs on a pool worker.
  ReplyAction process_request(const FrameHeader& header,
                              std::vector<std::byte> payload);
  /// kTelemetry reply body: node identity + server counters + the global
  /// metrics-registry JSON; tflags bit 0 adds the tagged trace buffer,
  /// bit 1 flushes (drains) it in the same exchange.
  [[nodiscard]] std::string telemetry_json(std::uint8_t tflags) const;

  Options options_;
  Listener listener_;
  std::chrono::steady_clock::time_point started_at_{
      std::chrono::steady_clock::now()};
  cluster::Dispatcher dispatcher_;
  cluster::NameServer name_server_;

  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> request_seq_{0};  ///< chaos decision index

  struct AtomicStats {
    std::atomic<std::uint64_t> dispatch_errors{0};
    std::atomic<std::uint64_t> chaos_dropped{0};
    std::atomic<std::uint64_t> chaos_stalled{0};
  };
  AtomicStats stats_;

  // Last members: workers_ and reactor_ run code touching everything
  // above, so they must be destroyed (joined) first. stop() tears them
  // down in the safe order (reactor joined before the pool drains,
  // listener closed last).
  std::unique_ptr<concurrency::ThreadPool> workers_;
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace apar::net
