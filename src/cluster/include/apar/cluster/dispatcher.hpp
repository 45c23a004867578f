#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "apar/cluster/ids.hpp"
#include "apar/cluster/rpc.hpp"
#include "apar/concurrency/sync_registry.hpp"
#include "apar/serial/archive.hpp"

namespace apar::cluster {

/// Transport-agnostic server-side request dispatch: the object table, the
/// per-object monitors and the create/call execution path that used to
/// live inside Node. Both the simulated transport (Node's mailbox loop)
/// and the real one (net::TcpServer's pool workers) drive the SAME
/// dispatcher, so "what a remote call does once it arrives" cannot drift
/// between the simulation and the wire.
///
/// Calls on one hosted object are serialized by a per-object monitor,
/// mirroring the paper's MPP server loop (Figure 15) which serves each
/// object from a single receive loop. Callers own error transport:
/// create()/call() throw (rpc::RpcError, serial::SerialError, or whatever
/// the hosted method throws) and the transport turns that into an error
/// reply.
class Dispatcher {
 public:
  /// `label` prefixes error messages so callers can tell which host
  /// rejected a request ("node 3", "tcp:127.0.0.1:7777", ...).
  Dispatcher(const rpc::Registry& registry, std::string label);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Construct an instance of `class_name` from marshalled ctor args and
  /// enter it into the object table; returns its id.
  ObjectId create(std::string_view class_name, serial::Reader& ctor_args);

  /// Invoke `method` on hosted object `object`; `args` supplies the
  /// marshalled arguments and the returned buffer carries the
  /// copy-restored arguments followed by the result, encoded in `format`.
  std::vector<std::byte> call(ObjectId object, std::string_view method,
                              serial::Reader& args, serial::Format format);

  /// Number of objects in the table (diagnostic).
  [[nodiscard]] std::size_t object_count() const;

  /// Direct access to a hosted object (test/diagnostic use; the object
  /// stays owned by the dispatcher).
  [[nodiscard]] std::shared_ptr<void> object(ObjectId id) const;

  /// Requests executed (creates + calls) since construction.
  [[nodiscard]] std::uint64_t executed_calls() const {
    return executed_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const rpc::Registry& registry() const { return registry_; }
  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  struct Entry {
    std::shared_ptr<void> instance;
    const rpc::ClassEntry* cls = nullptr;
  };

  const rpc::Registry& registry_;
  std::string label_;

  mutable std::mutex table_mutex_;
  std::map<ObjectId, Entry> table_;
  std::atomic<ObjectId> next_object_{1};

  concurrency::SyncRegistry monitors_;
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace apar::cluster
