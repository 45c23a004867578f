#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "apar/aop/signature.hpp"

namespace apar::aop {

class Aspect;

/// Canonical advice ordering used by the shipped parallelisation aspects.
///
/// This reproduces the weaving order implied by the paper's Figures 7 and
/// 11: a core call is first *split* by the partition aspect, each resulting
/// call is made *asynchronous* by the concurrency aspect, the thread then
/// runs the partition's *forward/route* advice, the per-object *monitor* is
/// taken, optimisations apply, and finally the *distribution* aspect either
/// dispatches locally or redirects to the middleware. Lower values run
/// further out (earlier).
namespace order {
inline constexpr int kPartitionSplit = 100;
inline constexpr int kConcurrencyAsync = 200;
inline constexpr int kPartitionForward = 300;  ///< forward / route / retarget
inline constexpr int kConcurrencySync = 400;
inline constexpr int kOptimisation = 450;
inline constexpr int kDistribution = 500;
inline constexpr int kDefault = 350;
}  // namespace order

/// Lexical-scope restriction on a pointcut — the AspectJ `within()` /
/// `!within()` analogue the paper relies on: the partition's *split* advice
/// only applies to calls made from core functionality (block 2), while its
/// *forward* advice applies recursively to aspect-made calls too (block 3).
class Scope {
 public:
  /// Applies to every call regardless of where it was initiated.
  static Scope any() { return Scope(Mode::kAny, {}); }
  /// Applies only to calls initiated outside any advice ("core code").
  static Scope core_only() { return Scope(Mode::kCoreOnly, {}); }
  /// Applies only when the named aspect is on the initiation stack.
  static Scope within(std::string aspect_name) {
    return Scope(Mode::kWithin, std::move(aspect_name));
  }
  /// Applies only when the named aspect is NOT on the initiation stack.
  static Scope not_within(std::string aspect_name) {
    return Scope(Mode::kNotWithin, std::move(aspect_name));
  }

  /// Evaluate against the aspect-frame stack active when the call started.
  [[nodiscard]] bool admits(const std::vector<const Aspect*>& stack) const;

 private:
  enum class Mode { kAny, kCoreOnly, kWithin, kNotWithin };
  Scope(Mode mode, std::string name) : mode_(mode), name_(std::move(name)) {}

  Mode mode_;
  std::string name_;
};

/// One argument (or result) a distribution-style advice would put on the
/// wire, as declared for the weave-plan analyzer: its readable wire name
/// and whether src/serial knows how to encode it.
struct WireArg {
  std::string type_name;
  bool serializable = false;
};

/// Type-erased advice record. Typed subclasses carry the actual functor;
/// matching at a call site filters by (a) dynamic type of the invocation,
/// (b) signature pattern, and — per invocation — (c) scope.
///
/// Advice additionally carries *effect* metadata declared by the aspect
/// that registered it (monitor acquisition, wire marshalling). The weaver
/// never reads it; it exists so the weave-plan analyzer can detect
/// double-synchronisation and unserializable-argument hazards without
/// executing the plan.
class AdviceBase {
 public:
  AdviceBase(Aspect* owner, JoinPointKind kind, Pattern pattern, int order,
             Scope scope)
      : owner_(owner),
        kind_(kind),
        pattern_(std::move(pattern)),
        order_(order),
        scope_(std::move(scope)) {}
  virtual ~AdviceBase() = default;

  AdviceBase(const AdviceBase&) = delete;
  AdviceBase& operator=(const AdviceBase&) = delete;

  [[nodiscard]] Aspect* owner() const { return owner_; }
  [[nodiscard]] JoinPointKind kind() const { return kind_; }
  [[nodiscard]] const Pattern& pattern() const { return pattern_; }
  [[nodiscard]] int order() const { return order_; }
  [[nodiscard]] const Scope& scope() const { return scope_; }

  [[nodiscard]] bool matches(const Signature& sig) const {
    return kind_ == sig.kind && pattern_.matches(sig);
  }

  // --- analysis metadata (declared effects) -----------------------------

  /// Declare that this advice takes a per-object monitor around proceed().
  AdviceBase& mark_acquires_monitor() {
    acquires_monitor_ = true;
    return *this;
  }
  [[nodiscard]] bool acquires_monitor() const { return acquires_monitor_; }

  /// Declare that this advice marshals the join point's arguments (and
  /// result) onto a wire, listing each type it would have to encode.
  /// `wire_mandatory` distinguishes a real wire (TCP: encoding MUST work or
  /// the call cannot leave the process) from the in-process simulation
  /// (encoding failures are a fidelity gap, not a correctness bug); the
  /// weave-plan analyzer grades unserializable-argument hazards
  /// accordingly.
  AdviceBase& mark_distributes(std::vector<WireArg> args,
                               bool wire_mandatory = false) {
    distributes_ = true;
    wire_args_ = std::move(args);
    wire_mandatory_ = wire_mandatory;
    return *this;
  }
  [[nodiscard]] bool distributes() const { return distributes_; }
  [[nodiscard]] bool wire_mandatory() const { return wire_mandatory_; }
  [[nodiscard]] const std::vector<WireArg>& wire_args() const {
    return wire_args_;
  }

  /// Declare that this advice memoizes the join point, keyed on the
  /// serialized argument values. `args` lists every type the cache key and
  /// the recorded effect must encode (arguments plus a non-void result);
  /// `declared_idempotent` is the APAR_METHOD_IDEMPOTENT verdict for the
  /// advised method. The weaver never reads this — the weave-plan
  /// analyzer's cache-safety pass does: caching a method nobody declared
  /// idempotent, or one whose effect cannot be serialized, is a finding
  /// (escalated to an error when the join point is also distributed over a
  /// real wire transport).
  AdviceBase& mark_caches(std::vector<WireArg> args,
                          bool declared_idempotent) {
    caches_ = true;
    cache_args_ = std::move(args);
    cache_idempotent_ = declared_idempotent;
    return *this;
  }
  [[nodiscard]] bool caches() const { return caches_; }
  [[nodiscard]] bool cache_idempotent() const { return cache_idempotent_; }
  [[nodiscard]] const std::vector<WireArg>& cache_args() const {
    return cache_args_;
  }

  /// Declare that this advice moves the rest of the chain onto other
  /// threads (the concurrency aspect's async dispatch, a farm's fan-out):
  /// every join point it matches may execute concurrently with core code
  /// and with other advised calls under this weave plan. The effect
  /// analyzer only considers signatures matched by a spawning advice as
  /// race candidates — everything else runs on the initiating thread in
  /// program phases separated by quiesce().
  ///
  /// `confined_to_target` records object confinement: each spawned
  /// execution drives a *distinct* target object (the dynamic farm's
  /// worker loops each own one worker). Declared state is per-instance,
  /// so confined concurrency cannot race on it and the analyzer skips
  /// such signatures unless an unconfined spawner also matches.
  AdviceBase& mark_spawns_concurrency(bool confined_to_target = false) {
    spawns_concurrency_ = true;
    spawn_confined_ = confined_to_target;
    return *this;
  }
  [[nodiscard]] bool spawns_concurrency() const { return spawns_concurrency_; }
  [[nodiscard]] bool spawn_confined_to_target() const {
    return spawn_confined_;
  }

  /// Declare that this advice ADAPTS the parallelism behind the join
  /// points it matches at runtime (worker count, grain),
  /// naming each knob it actuates. The weaver never reads it; the effects
  /// analyzer's adaptation-safety pass does: every concurrency-spawning
  /// advice on a signature an adapter also matches must declare
  /// mark_online_resizable(), otherwise resizing mid-flight can orphan or
  /// double-run work and the analyzer reports kAdaptationUnsafeResize.
  AdviceBase& mark_adapts(std::vector<std::string> knobs) {
    adapts_ = true;
    adapt_knobs_ = std::move(knobs);
    return *this;
  }
  [[nodiscard]] bool adapts() const { return adapts_; }
  [[nodiscard]] const std::vector<std::string>& adapt_knobs() const {
    return adapt_knobs_;
  }

  /// Declare that the concurrency this advice spawns tolerates an online
  /// resize of its degree: workers can be added or retired between tasks
  /// without losing or re-running accepted work (the work-stealing pool's
  /// cooperative-retirement contract, the farm's per-pack fan-out).
  AdviceBase& mark_online_resizable() {
    online_resizable_ = true;
    return *this;
  }
  [[nodiscard]] bool online_resizable() const { return online_resizable_; }

  /// Declare that this advice's body initiates calls matching the given
  /// signature patterns while the original join point is still on the
  /// stack (bridge / forwarding advice). A monitor taken outside this
  /// advice is therefore held across every initiated call — the static
  /// lock-order pass turns that into may-acquire edges and reports cycles
  /// without running the program.
  AdviceBase& mark_initiates(std::vector<std::string> patterns) {
    for (const std::string& p : patterns) initiates_.emplace_back(p);
    return *this;
  }
  [[nodiscard]] const std::vector<Pattern>& initiates() const {
    return initiates_;
  }

 private:
  Aspect* owner_;
  JoinPointKind kind_;
  Pattern pattern_;
  int order_;
  Scope scope_;
  bool acquires_monitor_ = false;
  bool distributes_ = false;
  bool wire_mandatory_ = false;
  std::vector<WireArg> wire_args_;
  bool caches_ = false;
  bool cache_idempotent_ = false;
  std::vector<WireArg> cache_args_;
  bool spawns_concurrency_ = false;
  bool spawn_confined_ = false;
  bool adapts_ = false;
  std::vector<std::string> adapt_knobs_;
  bool online_resizable_ = false;
  std::vector<Pattern> initiates_;
};

}  // namespace apar::aop
