#include "apar/analysis/weave_plan.hpp"

#include <map>
#include <set>
#include <string>
#include <typeindex>
#include <vector>

#include "apar/aop/static_weave.hpp"
#include "apar/serial/wire_types.hpp"

namespace apar::analysis {

namespace {

/// One advice record with its owner and concrete invocation type. Only
/// advice of the same dynamic type ever co-occur in one chain (the weaver
/// filters with dynamic_cast), so collision and double-sync checks compare
/// within typeid groups.
struct Rec {
  const aop::Aspect* aspect;
  const aop::AdviceBase* advice;
  std::type_index type;
};

}  // namespace

Report analyze_weave_plan(const aop::Context& context) {
  Report report;

  const std::vector<aop::Signature> signatures =
      aop::SignatureRegistry::global().snapshot();
  if (signatures.empty()) {
    report.add({FindingKind::kEmptySignatureTable, Severity::kInfo, "<weave>",
                "no join-point signatures registered; dead-pointcut "
                "analysis is vacuous"});
  }

  std::vector<Rec> records;
  const auto aspects = context.aspects();
  for (const auto& aspect : aspects) {
    for (const auto& adv : aspect->advice()) {
      records.push_back(
          {aspect.get(), adv.get(), std::type_index(typeid(*adv))});
    }
  }

  // --- dead pointcuts ----------------------------------------------------
  for (const Rec& r : records) {
    if (signatures.empty()) break;
    bool live = false;
    for (const aop::Signature& sig : signatures) {
      if (r.advice->matches(sig)) {
        live = true;
        break;
      }
    }
    if (!live) {
      report.add({FindingKind::kDeadPointcut, Severity::kWarning,
                  r.aspect->name() + "/" + r.advice->pattern().str(),
                  "pattern matches none of " +
                      std::to_string(signatures.size()) +
                      " registered join points; this advice can never run"});
    }
  }

  // --- per-join-point checks: order collisions, double synchronisation ---
  std::set<std::string> reported;
  for (const aop::Signature& sig : signatures) {
    std::map<std::type_index, std::vector<const Rec*>> groups;
    for (const Rec& r : records)
      if (r.advice->matches(sig)) groups[r.type].push_back(&r);

    for (const auto& [type, group] : groups) {
      (void)type;
      for (std::size_t i = 0; i < group.size(); ++i) {
        for (std::size_t j = i + 1; j < group.size(); ++j) {
          const Rec& a = *group[i];
          const Rec& b = *group[j];
          if (a.aspect != b.aspect &&
              a.advice->order() == b.advice->order()) {
            // Equal order across aspects: stable_sort falls back to attach
            // order, so the nesting silently depends on plug sequence.
            const std::string key = "collision|" + a.aspect->name() + "|" +
                                    b.aspect->name() + "|" +
                                    std::to_string(a.advice->order()) + "|" +
                                    a.advice->pattern().str() + "|" +
                                    b.advice->pattern().str();
            if (reported.insert(key).second) {
              report.add({FindingKind::kOrderCollision, Severity::kWarning,
                          a.aspect->name() + " ~ " + b.aspect->name(),
                          "both register advice at order " +
                              std::to_string(a.advice->order()) +
                              " matching " + sig.str() +
                              "; nesting depends on attach order"});
            }
          }
        }
      }

      std::vector<const Rec*> monitors;
      for (const Rec* r : group)
        if (r->advice->acquires_monitor()) monitors.push_back(r);
      if (monitors.size() >= 2) {
        std::string who;
        std::string key = "double-sync|" + sig.str();
        for (const Rec* r : monitors) {
          if (!who.empty()) who += " + ";
          who += r->aspect->name();
          key += "|" + r->aspect->name();
        }
        if (reported.insert(key).second) {
          report.add({FindingKind::kDoubleSynchronisation, Severity::kError,
                      sig.str(),
                      who + " each take a per-object monitor around this "
                            "join point: nested locks from independent "
                            "registries risk deadlock"});
        }
      }
    }
  }

  // --- distribution hazards ----------------------------------------------
  for (const Rec& r : records) {
    if (!r.advice->distributes()) continue;
    for (const aop::WireArg& arg : r.advice->wire_args()) {
      bool ok = arg.serializable;
      if (!ok) {
        // A type may have been registered serializable out of band (e.g. a
        // later translation unit noted an ADL hook the registering one
        // could not see).
        ok = serial::TypeRegistry::global()
                 .serializable(arg.type_name)
                 .value_or(false);
      }
      if (!ok) {
        // Against a simulated middleware an unencodable argument is
        // advisory — the call still throws, but only if it actually goes
        // remote. When the advice targets a real wire transport (TCP),
        // encodability is a precondition for the call leaving the process
        // at all, so the hazard is an error.
        const bool mandatory = r.advice->wire_mandatory();
        report.add({FindingKind::kDistributionHazard,
                    mandatory ? Severity::kError : Severity::kWarning,
                    r.aspect->name() + "/" + r.advice->pattern().str(),
                    "argument type '" + arg.type_name +
                        "' is not wire-serializable: " +
                        (mandatory
                             ? "the target middleware is a real wire "
                               "transport, so remote dispatch is impossible"
                             : "the call works locally but throws on "
                               "remote dispatch")});
      }
    }
  }

  // --- cache safety -------------------------------------------------------
  // A caching advice replays a recorded effect instead of executing the
  // body. Two declared-contract violations are statically visible from the
  // mark_caches metadata: memoizing a method nobody declared idempotent,
  // and memoizing an effect the serial layer cannot record. Both escalate
  // from warning to error when the same join point is also carried by a
  // wire-mandatory distribution advice — over a real transport the cache
  // either swallows remote state transitions or silently never fires.
  for (const Rec& r : records) {
    if (!r.advice->caches()) continue;

    bool over_wire = false;
    for (const aop::Signature& sig : signatures) {
      if (!r.advice->matches(sig)) continue;
      for (const Rec& other : records) {
        if (other.advice->distributes() && other.advice->wire_mandatory() &&
            other.advice->matches(sig)) {
          over_wire = true;
          break;
        }
      }
      if (over_wire) break;
    }
    const Severity severity = over_wire ? Severity::kError : Severity::kWarning;
    const std::string subject =
        r.aspect->name() + "/" + r.advice->pattern().str();

    if (!r.advice->cache_idempotent()) {
      report.add({FindingKind::kCacheNonIdempotent, severity, subject,
                  std::string("memoized method is not declared idempotent "
                              "(APAR_METHOD_IDEMPOTENT): replaying a recorded "
                              "effect may diverge from re-execution") +
                      (over_wire ? "; the join point is distributed over a "
                                   "real wire transport, so hits also skip "
                                   "remote state transitions"
                                 : "")});
    }

    for (const aop::WireArg& arg : r.advice->cache_args()) {
      bool ok = arg.serializable;
      if (!ok) {
        ok = serial::TypeRegistry::global()
                 .serializable(arg.type_name)
                 .value_or(false);
      }
      if (!ok) {
        report.add({FindingKind::kCacheUnserializable, severity, subject,
                    "effect type '" + arg.type_name +
                        "' is not wire-serializable: the caching advice "
                        "degrades to pass-through and never fires" +
                        (over_wire ? "; over a real wire transport every "
                                     "call still pays the round-trip the "
                                     "cache was meant to save"
                                   : "")});
      }
    }
  }

  // --- adaptation safety --------------------------------------------------
  // A mark_adapts advice means an autonomic controller WILL retune the
  // parallelism behind its matched signatures while the application runs
  // (pool resize, grain). That is only sound when every
  // concurrency-spawning advice on the same signature declared
  // mark_online_resizable() — i.e. its fan-out tolerates a degree change
  // between tasks without losing or re-running accepted work. A spawner
  // without the mark (a farm whose workers hold per-thread state sized at
  // plug time, say) can orphan or double-run work the moment the
  // controller actuates, so the combination is an error outright: unlike a
  // latent hazard, the controller is guaranteed to pull the trigger.
  for (const aop::Signature& sig : signatures) {
    std::vector<const Rec*> adapters;
    std::vector<const Rec*> unsafe_spawners;
    for (const Rec& r : records) {
      if (!r.advice->matches(sig)) continue;
      if (r.advice->adapts()) {
        adapters.push_back(&r);
      } else if (r.advice->spawns_concurrency() &&
                 !r.advice->online_resizable()) {
        unsafe_spawners.push_back(&r);
      }
    }
    if (adapters.empty()) continue;
    for (const Rec* a : adapters) {
      for (const Rec* s : unsafe_spawners) {
        const std::string key = "adapt-unsafe|" + sig.str() + "|" +
                                a->aspect->name() + "|" + s->aspect->name();
        if (!reported.insert(key).second) continue;
        std::string knobs;
        for (const std::string& k : a->advice->adapt_knobs()) {
          if (!knobs.empty()) knobs += ", ";
          knobs += k;
        }
        report.add(
            {FindingKind::kAdaptationUnsafeResize, Severity::kError, sig.str(),
             a->aspect->name() + " adapts {" + knobs + "} behind this join "
                 "point, but " + s->aspect->name() +
                 "'s concurrency-spawning advice does not declare "
                 "mark_online_resizable(): an online resize can orphan or "
                 "double-run its in-flight work"});
      }
    }
  }

  return report;
}

}  // namespace apar::analysis
