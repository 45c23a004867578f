#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace apar::adapt {

/// One runtime-tunable degree of parallelism: a named integer with hard
/// bounds and an apply callback that pushes a new value into the live
/// system (ThreadPool::resize, a farm's pack size or a parallel_for
/// grain). The controller owns the value; the callback runs synchronously
/// on the controller's thread, so actuators must be safe to call from a
/// non-worker thread (resize() requires exactly that).
class Knob {
 public:
  using Apply = std::function<void(std::int64_t)>;

  Knob() = default;
  Knob(std::string name, std::int64_t min, std::int64_t max,
       std::int64_t initial, Apply apply)
      : name_(std::move(name)),
        min_(min),
        max_(std::max(min, max)),
        value_(std::clamp(initial, min_, max_)),
        apply_(std::move(apply)) {}

  [[nodiscard]] bool valid() const { return static_cast<bool>(apply_); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::int64_t min() const { return min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] std::int64_t value() const { return value_; }

  /// Clamp to [min, max], actuate if the clamped value differs from the
  /// current one, and return the value now in force.
  std::int64_t set(std::int64_t v) {
    v = std::clamp(v, min_, max_);
    if (v != value_) {
      value_ = v;
      apply_(v);
    }
    return value_;
  }

 private:
  std::string name_;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t value_ = 0;
  Apply apply_;
};

}  // namespace apar::adapt
