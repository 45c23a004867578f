#pragma once

#include <cstddef>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "apar/aop/aop.hpp"

namespace apar::strategies {

/// Split one large pack into sub-packs of at most `pack_size` elements —
/// the default method-call splitter (paper §4.1, Figure 5).
template <class E>
std::vector<std::vector<E>> split_into_packs(const std::vector<E>& data,
                                             std::size_t pack_size) {
  std::vector<std::vector<E>> packs;
  if (pack_size == 0) pack_size = 1;
  packs.reserve((data.size() + pack_size - 1) / pack_size);
  for (std::size_t begin = 0; begin < data.size(); begin += pack_size) {
    const std::size_t end = std::min(begin + pack_size, data.size());
    packs.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(begin),
                       data.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return packs;
}

/// How a partition aspect derives each duplicate's constructor arguments
/// from the original creation (paper Figure 8: "create filter with specific
/// parameters"). Receives the duplicate index, the duplicate count, and the
/// original argument tuple.
template <class... CtorArgs>
using CtorPartitioner = std::function<std::tuple<CtorArgs...>(
    std::size_t index, std::size_t count, const std::tuple<CtorArgs...>&)>;

/// Broadcast partitioner: every duplicate gets the original arguments —
/// the farm's behaviour (§5.2: "constructor parameters are broadcasted").
template <class... CtorArgs>
CtorPartitioner<CtorArgs...> broadcast_ctor_args() {
  return [](std::size_t, std::size_t,
            const std::tuple<CtorArgs...>& original) { return original; };
}

/// Object duplication (paper Figure 8): refill `into` with `count` (at
/// least one) creations through the intercepted `inv`, each constructed
/// with the arguments `ctor_args` derives for its index. Returns the first
/// duplicate — the reference core code receives.
template <class Invocation, class Partitioner, class Ref>
Ref duplicate_creation(Invocation& inv, std::size_t count,
                       const Partitioner& ctor_args, std::vector<Ref>& into) {
  into.clear();
  const std::size_t k = count ? count : 1;
  for (std::size_t i = 0; i < k; ++i) {
    into.push_back(std::apply(
        [&](auto&&... a) {
          return inv.proceed_with(std::forward<decltype(a)>(a)...);
        },
        ctor_args(i, k, inv.args())));
  }
  return into.front();
}

/// Result gathering: take_results() from every duplicate, concatenated in
/// order. Goes through the weaving context so remote duplicates work.
template <class E, class T>
std::vector<E> gather_results(aop::Context& ctx,
                              const std::vector<aop::Ref<T>>& duplicates) {
  std::vector<E> all;
  for (const auto& d : duplicates) {
    std::vector<E> part = ctx.template call<&T::take_results>(d);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

}  // namespace apar::strategies
