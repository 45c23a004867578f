#include "apar/net/tcp_middleware.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "apar/cluster/rpc.hpp"
#include "apar/net/error.hpp"
#include "apar/obs/metrics.hpp"
#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace apar::net {

TcpMiddleware::TcpMiddleware(Options options)
    : options_(std::move(options)), name_(options_.name) {
  if (options_.endpoints.empty())
    throw NetError(NetError::Kind::kConnect,
                   "TcpMiddleware needs at least one endpoint");
  dialed_ = std::make_unique<std::atomic<bool>[]>(options_.endpoints.size());
  if (obs::metrics_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    probes_.reserve(options_.endpoints.size());
    for (const Endpoint& ep : options_.endpoints) {
      const obs::Labels labels{{"endpoint", ep.str()}};
      EndpointProbes p;
      p.connects = reg.counter("net.connects", labels);
      p.reconnects = reg.counter("net.reconnects", labels);
      p.retries = reg.counter("net.retries", labels);
      p.bytes_sent = reg.counter("net.bytes_sent", labels);
      p.bytes_received = reg.counter("net.bytes_received", labels);
      p.rtt_us = reg.histogram("net.rtt_us", labels);
      probes_.push_back(std::move(p));
    }
  }
}

const Endpoint& TcpMiddleware::endpoint_for(cluster::NodeId node) const {
  if (node >= options_.endpoints.size())
    throw NetError(NetError::Kind::kConnect,
                   "no endpoint for node " + std::to_string(node) + " (" +
                       std::to_string(options_.endpoints.size()) +
                       " endpoints configured)");
  return options_.endpoints[node];
}

TcpMiddleware::Exchange TcpMiddleware::roundtrip(
    std::size_t endpoint_index, FrameHeader::Op op,
    std::vector<std::byte> payload) {
  if (!obs::tracing_enabled())
    return exchange(endpoint_index, op, std::move(payload), 0);

  // Wire span: a child of whatever the calling thread is doing, shipped in
  // the frame trailer so the server-side span parents to it. The span
  // always closes — kExit on a reply (even kReplyError: the wire worked),
  // kError when the transport itself failed.
  const obs::TraceContext wire_ctx =
      obs::TraceContext::child_of(obs::current_context());
  append_trace_context(payload, wire_ctx);
  obs::SpanRecord span(*obs::Tracer::global(),
                       "net." + std::string(op_name(op)), nullptr, wire_ctx);
  try {
    Exchange ex = exchange(endpoint_index, op, std::move(payload),
                           FrameHeader::kFlagTraceContext);
    span.close();
    return ex;
  } catch (const cluster::rpc::RpcError&) {
    span.close();
    throw;
  }
}

TcpMiddleware::Exchange TcpMiddleware::exchange(
    std::size_t endpoint_index, FrameHeader::Op op,
    std::vector<std::byte> payload, std::uint8_t flags) {
  const Endpoint& ep = options_.endpoints[endpoint_index];
  EndpointProbes* probe =
      probes_.empty() ? nullptr : &probes_[endpoint_index];
  const auto started = probe ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

  auto checkout =
      pool_.acquire(ep, deadline_after(options_.connect_deadline));
  if (!checkout.reused) {
    net_.connects.fetch_add(1, std::memory_order_relaxed);
    if (probe) probe->connects->add(1);
    if (dialed_[endpoint_index].exchange(true, std::memory_order_relaxed)) {
      net_.reconnects.fetch_add(1, std::memory_order_relaxed);
      if (probe) probe->reconnects->add(1);
    }
  }
  Socket socket = std::move(checkout.socket);

  FrameHeader header;
  header.format = options_.format;
  header.op = op;
  header.flags = flags;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const auto header_bytes = encode_header(header);

  FrameHeader reply_header;
  std::vector<std::byte> reply_payload;
  try {
    const Deadline deadline = deadline_after(options_.io_deadline);
    send_all(socket, header_bytes.data(), header_bytes.size(), deadline);
    if (!payload.empty())
      send_all(socket, payload.data(), payload.size(), deadline);
    net_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    net_.wire_bytes_sent.fetch_add(header_bytes.size() + payload.size(),
                                   std::memory_order_relaxed);
    if (probe) probe->bytes_sent->add(header_bytes.size() + payload.size());

    std::array<std::byte, FrameHeader::kSize> reply_bytes;
    recv_exact(socket, reply_bytes.data(), reply_bytes.size(), deadline);
    reply_header = decode_header(reply_bytes.data(), reply_bytes.size());
    if (reply_header.request_id != header.request_id)
      throw NetError(NetError::Kind::kProtocol,
                     "reply correlates to request " +
                         std::to_string(reply_header.request_id) +
                         ", expected " + std::to_string(header.request_id));
    reply_payload.resize(reply_header.payload_len);
    if (reply_header.payload_len > 0)
      recv_exact(socket, reply_payload.data(), reply_payload.size(),
                 deadline);
    net_.frames_received.fetch_add(1, std::memory_order_relaxed);
    net_.wire_bytes_received.fetch_add(
        reply_bytes.size() + reply_payload.size(), std::memory_order_relaxed);
    if (probe) {
      probe->bytes_received->add(reply_bytes.size() + reply_payload.size());
      probe->rtt_us->record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started)
              .count() /
          1000.0);
    }
  } catch (const NetError&) {
    // The failing socket itself is dropped by unwinding. When it was a
    // REUSED connection, its idle siblings were dialed to the same server
    // era and are presumed equally stale (drained/restarted server whose
    // half-open sockets still pass the health poll) — evict them so the
    // next acquire dials the new era instead of burning one timeout per
    // stale socket.
    if (checkout.reused) pool_.evict(ep);
    throw;
  }

  // A complete exchange happened, so the connection is clean — reusable
  // even when the server answered with an application error.
  pool_.give_back(ep, std::move(socket));

  if (reply_header.op == FrameHeader::Op::kReplyError) {
    std::string message(reply_payload.size(), '\0');
    for (std::size_t i = 0; i < reply_payload.size(); ++i)
      message[i] =
          static_cast<char>(std::to_integer<std::uint8_t>(reply_payload[i]));
    throw cluster::rpc::RpcError(message);
  }
  if (reply_header.op != FrameHeader::Op::kReplyOk)
    throw NetError(NetError::Kind::kProtocol,
                   "unexpected reply op " +
                       std::to_string(static_cast<int>(reply_header.op)));
  return Exchange{reply_header, std::move(reply_payload)};
}

cluster::RemoteHandle TcpMiddleware::create(cluster::NodeId node,
                                            std::string_view class_name,
                                            std::vector<std::byte> ctor_args) {
  endpoint_for(node);
  std::vector<std::byte> payload;
  put_string(payload, class_name);
  payload.insert(payload.end(), ctor_args.begin(), ctor_args.end());

  stats_.creates.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
  Exchange ex = roundtrip(node, FrameHeader::Op::kCreate, std::move(payload));
  stats_.bytes_received.fetch_add(ex.payload.size(),
                                  std::memory_order_relaxed);
  EnvelopeReader env(ex.payload);
  return cluster::RemoteHandle{node, env.u64()};
}

std::vector<std::byte> TcpMiddleware::invoke(
    const cluster::RemoteHandle& target, std::string_view method,
    std::vector<std::byte> args) {
  endpoint_for(target.node);
  std::vector<std::byte> payload;
  put_u64(payload, target.object);
  put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());

  stats_.sync_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
  Exchange ex =
      roundtrip(target.node, FrameHeader::Op::kCall, std::move(payload));
  stats_.bytes_received.fetch_add(ex.payload.size(),
                                  std::memory_order_relaxed);
  return std::move(ex.payload);
}

void TcpMiddleware::invoke_one_way(const cluster::RemoteHandle& target,
                                   std::string_view method,
                                   std::vector<std::byte> args) {
  if (!options_.one_way) {
    // Degrade like RMI: a synchronous call whose reply is discarded.
    (void)invoke(target, method, std::move(args));
    return;
  }
  endpoint_for(target.node);
  std::vector<std::byte> payload;
  put_u64(payload, target.object);
  put_string(payload, method);
  payload.insert(payload.end(), args.begin(), args.end());

  stats_.one_way_calls.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
  Exchange ex =
      roundtrip(target.node, FrameHeader::Op::kOneWay, std::move(payload));
  // The ack is an empty frame; counting its (zero) payload keeps the
  // both-directions invariant literal.
  stats_.bytes_received.fetch_add(ex.payload.size(),
                                  std::memory_order_relaxed);
}

std::optional<cluster::RemoteHandle> TcpMiddleware::lookup(
    std::string_view name) {
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);

  auto backoff = options_.backoff_initial;
  for (std::size_t attempt = 0;; ++attempt) {
    std::vector<std::byte> payload;
    put_string(payload, name);
    try {
      stats_.bytes_sent.fetch_add(payload.size(), std::memory_order_relaxed);
      Exchange ex =
          roundtrip(0, FrameHeader::Op::kLookup, std::move(payload));
      stats_.bytes_received.fetch_add(ex.payload.size(),
                                      std::memory_order_relaxed);
      EnvelopeReader env(ex.payload);
      const bool found = env.u8() != 0;
      cluster::RemoteHandle handle;
      handle.node = env.u32();
      handle.object = env.u64();
      if (!found) return std::nullopt;
      return handle;
    } catch (const NetError& e) {
      // Protocol corruption is not transient, and running out of retry
      // budget means the caller gets the real failure.
      if (e.kind() == NetError::Kind::kProtocol ||
          attempt >= options_.max_lookup_retries)
        throw;
      net_.retries.fetch_add(1, std::memory_order_relaxed);
      if (!probes_.empty()) probes_[0].retries->add(1);
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, options_.backoff_max);
    }
  }
}

void TcpMiddleware::bind_name(std::string name,
                              cluster::RemoteHandle handle) {
  std::vector<std::byte> payload;
  put_string(payload, name);
  put_u32(payload, handle.node);
  put_u64(payload, handle.object);
  (void)roundtrip(0, FrameHeader::Op::kBind, std::move(payload));
}

std::string TcpMiddleware::telemetry(cluster::NodeId node, bool include_trace,
                                     bool flush_trace) {
  endpoint_for(node);
  std::vector<std::byte> payload;
  std::uint8_t tflags = 0;
  if (include_trace || flush_trace) tflags |= 0x01;
  if (flush_trace) tflags |= 0x02;
  payload.push_back(static_cast<std::byte>(tflags));
  Exchange ex = roundtrip(node, FrameHeader::Op::kTelemetry,
                          std::move(payload));
  std::string json(ex.payload.size(), '\0');
  for (std::size_t i = 0; i < ex.payload.size(); ++i)
    json[i] = static_cast<char>(std::to_integer<std::uint8_t>(ex.payload[i]));
  return json;
}

TcpMiddleware::NetCounters TcpMiddleware::net_counters() const {
  NetCounters c;
  c.connects = net_.connects.load(std::memory_order_relaxed);
  c.reconnects = net_.reconnects.load(std::memory_order_relaxed);
  c.retries = net_.retries.load(std::memory_order_relaxed);
  c.frames_sent = net_.frames_sent.load(std::memory_order_relaxed);
  c.frames_received = net_.frames_received.load(std::memory_order_relaxed);
  c.wire_bytes_sent = net_.wire_bytes_sent.load(std::memory_order_relaxed);
  c.wire_bytes_received =
      net_.wire_bytes_received.load(std::memory_order_relaxed);
  return c;
}

}  // namespace apar::net
