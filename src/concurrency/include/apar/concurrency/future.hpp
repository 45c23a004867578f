#pragma once

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apar/concurrency/sync_observer.hpp"

namespace apar::concurrency {

/// Error raised when a Promise is dropped without delivering a value.
class BrokenPromise : public std::runtime_error {
 public:
  BrokenPromise() : std::runtime_error("broken promise") {}
};

namespace detail {

template <class T>
struct FutureState {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<T> value;
  std::exception_ptr error;
  bool broken = false;

  bool ready_locked() const { return value.has_value() || error || broken; }
};

template <>
struct FutureState<void> {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
  bool broken = false;

  bool ready_locked() const { return done || error || broken; }
};

/// Deliver into a raw FutureState (shared by Promise and the ThreadPool's
/// single-allocation submit(), which folds the state into the task storage
/// instead of going through a separate Promise object). `store` runs under
/// the state lock and must make ready_locked() true.
template <class T, class Store>
void deliver_to_state(FutureState<T>& st, Store&& store) {
  std::lock_guard lock(st.mutex);
  if (st.ready_locked()) throw std::logic_error("Promise already satisfied");
  store(st);
  st.cv.notify_all();
}

/// Producer vanished without delivering: wake waiters with BrokenPromise.
/// Idempotent — a state that is already ready is left alone.
template <class T>
void abandon_state(FutureState<T>& st) {
  std::lock_guard lock(st.mutex);
  if (st.ready_locked()) return;
  st.broken = true;
  st.cv.notify_all();
}

/// Grants Future construction from a bare state pointer to in-tree
/// executors (ThreadPool::submit) without widening Future's public surface.
struct FutureAccess;

}  // namespace detail

template <class T>
class Promise;

/// ABCL-style future variable (paper §2): the client receives the future
/// immediately; touching the value blocks until the producer delivers it.
///
/// Unlike std::future, this future is copyable (shared).
template <class T>
class Future {
 public:
  Future() = default;

  /// True once a value or error has been delivered.
  [[nodiscard]] bool ready() const {
    if (!state_) return true;
    std::lock_guard lock(state_->mutex);
    return state_->ready_locked();
  }

  [[nodiscard]] bool valid() const { return static_cast<bool>(state_); }

  /// Block until ready.
  void wait() const {
    ensure_valid();
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->ready_locked(); });
  }

  /// Block and return the value (by const reference; the state is shared).
  /// Rethrows a delivered exception; throws BrokenPromise if the producer
  /// vanished.
  const T& get() const {
    ensure_valid();
    std::unique_lock lock(state_->mutex);
    if (!state_->ready_locked()) {
      // About to block on the producer — report to the sync observer so
      // the lock-order analysis can flag waits made with monitors held.
      lock.unlock();
      notify_blocking_wait();
      lock.lock();
    }
    state_->cv.wait(lock, [&] { return state_->ready_locked(); });
    if (state_->error) std::rethrow_exception(state_->error);
    if (state_->broken) throw BrokenPromise();
    return *state_->value;
  }

 private:
  friend class Promise<T>;
  friend struct detail::FutureAccess;
  explicit Future(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  void ensure_valid() const {
    if (!state_) throw std::logic_error("Future has no state");
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

template <>
class Future<void> {
 public:
  Future() = default;

  [[nodiscard]] bool ready() const {
    if (!state_) return true;
    std::lock_guard lock(state_->mutex);
    return state_->ready_locked();
  }

  [[nodiscard]] bool valid() const { return static_cast<bool>(state_); }

  void wait() const {
    ensure_valid();
    std::unique_lock lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->ready_locked(); });
  }

  void get() const {
    ensure_valid();
    std::unique_lock lock(state_->mutex);
    if (!state_->ready_locked()) {
      // About to block on the producer — report to the sync observer so
      // the lock-order analysis can flag waits made with monitors held.
      lock.unlock();
      notify_blocking_wait();
      lock.lock();
    }
    state_->cv.wait(lock, [&] { return state_->ready_locked(); });
    if (state_->error) std::rethrow_exception(state_->error);
    if (state_->broken) throw BrokenPromise();
  }

 private:
  friend class Promise<void>;
  friend struct detail::FutureAccess;
  explicit Future(std::shared_ptr<detail::FutureState<void>> s)
      : state_(std::move(s)) {}

  void ensure_valid() const {
    if (!state_) throw std::logic_error("Future has no state");
  }

  std::shared_ptr<detail::FutureState<void>> state_;
};

/// Producer side of a Future.
template <class T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Promise(Promise&&) noexcept = default;
  Promise& operator=(Promise&&) noexcept = default;
  Promise(const Promise&) = delete;
  Promise& operator=(const Promise&) = delete;

  ~Promise() {
    if (state_) detail::abandon_state(*state_);
  }

  [[nodiscard]] Future<T> future() const { return Future<T>(state_); }

  template <class U>
  void set_value(U&& v) {
    detail::deliver_to_state(
        *state_, [&](auto& st) { st.value.emplace(std::forward<U>(v)); });
  }

  void set_exception(std::exception_ptr e) {
    detail::deliver_to_state(*state_,
                             [&](auto& st) { st.error = std::move(e); });
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <>
class Promise<void> {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<void>>()) {}

  Promise(Promise&&) noexcept = default;
  Promise& operator=(Promise&&) noexcept = default;
  Promise(const Promise&) = delete;
  Promise& operator=(const Promise&) = delete;

  ~Promise() {
    if (state_) detail::abandon_state(*state_);
  }

  [[nodiscard]] Future<void> future() const { return Future<void>(state_); }

  void set_value() {
    detail::deliver_to_state(*state_, [](auto& st) { st.done = true; });
  }

  void set_exception(std::exception_ptr e) {
    detail::deliver_to_state(*state_,
                             [&](auto& st) { st.error = std::move(e); });
  }

 private:
  std::shared_ptr<detail::FutureState<void>> state_;
};

namespace detail {

struct FutureAccess {
  template <class T>
  static Future<T> wrap(std::shared_ptr<FutureState<T>> state) {
    return Future<T>(std::move(state));
  }
};

}  // namespace detail

/// Wait for every future in the range; rethrows the first stored exception.
template <class T>
void wait_all(const std::vector<Future<T>>& futures) {
  for (const auto& f : futures) f.get();
}

}  // namespace apar::concurrency
