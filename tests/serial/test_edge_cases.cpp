#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "apar/serial/archive.hpp"

namespace as = apar::serial;

namespace user_types {
struct TokenStat {
  std::string word;
  long long count = 0;
  double share = 0.0;
  friend bool operator==(const TokenStat&, const TokenStat&) = default;
};
APAR_SERIALIZE_FIELDS(TokenStat, word, count, share)

struct Nested {
  TokenStat top;
  std::vector<TokenStat> all;
  friend bool operator==(const Nested&, const Nested&) = default;
};
APAR_SERIALIZE_FIELDS(Nested, top, all)
}  // namespace user_types

class SerialEdge : public ::testing::TestWithParam<as::Format> {};

INSTANTIATE_TEST_SUITE_P(Formats, SerialEdge,
                         ::testing::Values(as::Format::kCompact,
                                           as::Format::kVerbose),
                         [](const auto& info) {
                           return info.param == as::Format::kCompact
                                      ? "Compact"
                                      : "Verbose";
                         });

TEST_P(SerialEdge, SpecialFloatingPointValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const auto buf = as::encode(GetParam(), inf, -inf, nan, denorm, -0.0);
  const auto [a, b, c, d, e] =
      as::decode<double, double, double, double, double>(buf, GetParam());
  EXPECT_TRUE(std::isinf(a) && a > 0);
  EXPECT_TRUE(std::isinf(b) && b < 0);
  EXPECT_TRUE(std::isnan(c));
  EXPECT_EQ(d, denorm);
  EXPECT_EQ(e, 0.0);
  EXPECT_TRUE(std::signbit(e));
}

TEST_P(SerialEdge, IntegerExtremes) {
  const auto buf = as::encode(GetParam(),
                              std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max(),
                              std::numeric_limits<std::uint64_t>::max());
  const auto [lo, hi, u] =
      as::decode<std::int64_t, std::int64_t, std::uint64_t>(buf, GetParam());
  EXPECT_EQ(lo, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
}

TEST_P(SerialEdge, StringsWithEmbeddedNulsAndUtf8) {
  const std::string nuls("a\0b\0c", 5);
  const std::string utf8 = "π ≈ 3.14159 — ok";
  const auto buf = as::encode(GetParam(), nuls, utf8);
  const auto [n, u] = as::decode<std::string, std::string>(buf, GetParam());
  EXPECT_EQ(n, nuls);
  EXPECT_EQ(n.size(), 5u);
  EXPECT_EQ(u, utf8);
}

TEST_P(SerialEdge, VectorBoolRoundtrips) {
  const std::vector<bool> bits{true, false, true, true, false};
  const auto buf = as::encode(GetParam(), bits);
  const auto [out] = as::decode<std::vector<bool>>(buf, GetParam());
  EXPECT_EQ(out, bits);
}

TEST_P(SerialEdge, EmptyEverything) {
  const auto buf =
      as::encode(GetParam(), std::string{}, std::vector<int>{},
                 std::vector<bool>{}, std::map<int, int>{});
  const auto [s, v, b, m] =
      as::decode<std::string, std::vector<int>, std::vector<bool>,
                 std::map<int, int>>(buf, GetParam());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(m.empty());
}

TEST_P(SerialEdge, DeeplyNestedStructures) {
  using Deep = std::vector<std::vector<std::vector<std::string>>>;
  const Deep deep{{{"a", "b"}, {}}, {{"c"}}, {}};
  const auto buf = as::encode(GetParam(), deep);
  const auto [out] = as::decode<Deep>(buf, GetParam());
  EXPECT_EQ(out, deep);
}

TEST_P(SerialEdge, OptionalOfOptional) {
  const std::optional<std::optional<int>> some_some = std::optional<int>(5);
  const std::optional<std::optional<int>> some_none =
      std::optional<int>(std::nullopt);
  const std::optional<std::optional<int>> none;
  const auto buf = as::encode(GetParam(), some_some, some_none, none);
  const auto [a, b, c] =
      as::decode<std::optional<std::optional<int>>,
                 std::optional<std::optional<int>>,
                 std::optional<std::optional<int>>>(buf, GetParam());
  EXPECT_EQ(a, some_some);
  EXPECT_EQ(b, some_none);
  EXPECT_EQ(c, none);
}

TEST_P(SerialEdge, LargeMixedPayloadRoundtrips) {
  std::vector<std::pair<std::string, std::vector<double>>> payload;
  for (int i = 0; i < 200; ++i) {
    payload.emplace_back("key-" + std::to_string(i),
                         std::vector<double>(static_cast<std::size_t>(i),
                                             i * 0.5));
  }
  const auto buf = as::encode(GetParam(), payload);
  const auto [out] = as::decode<decltype(payload)>(buf, GetParam());
  EXPECT_EQ(out, payload);
}

TEST_P(SerialEdge, UserTypesViaSerializeFieldsMacro) {
  const user_types::TokenStat stat{"sieve", 42, 0.125};
  const auto buf = as::encode(GetParam(), stat);
  const auto [out] = as::decode<user_types::TokenStat>(buf, GetParam());
  EXPECT_EQ(out, stat);
}

TEST_P(SerialEdge, NestedUserTypesAndContainersOfThem) {
  const user_types::Nested nested{
      {"farm", 7, 0.5},
      {{"pipe", 1, 0.1}, {"heartbeat", 2, 0.2}}};
  const std::vector<user_types::Nested> many{nested, nested};
  const auto buf = as::encode(GetParam(), nested, many);
  const auto [one, lots] =
      as::decode<user_types::Nested, std::vector<user_types::Nested>>(
          buf, GetParam());
  EXPECT_EQ(one, nested);
  EXPECT_EQ(lots, many);
}

TEST(SerialEdgeFixed, UserTypeCarriesDescriptorInVerboseMode) {
  const user_types::TokenStat stat{"x", 1, 0.0};
  const auto compact = as::encode(as::Format::kCompact, stat);
  const auto verbose = as::encode(as::Format::kVerbose, stat);
  // Verbose carries the "TokenStat" object descriptor plus field tags.
  EXPECT_GT(verbose.size(), compact.size() + std::string("TokenStat").size());
}

TEST(SerialEdgeFixed, CorruptedLengthDetected) {
  // A length prefix pointing far beyond the buffer must throw, not crash.
  as::Writer w;
  w.length(1u << 30);
  as::Reader r(w.bytes());
  const std::size_t huge = r.length();
  EXPECT_EQ(huge, 1u << 30);
  // Using that length to read a string from an empty remainder:
  as::Writer w2;
  w2.length(1000);  // claims 1000 bytes follow; none do
  as::Reader r2(w2.bytes());
  std::string s;
  EXPECT_THROW(r2.value(s), as::SerialError);
}

TEST(SerialEdgeFixed, EveryByteTruncationEitherThrowsOrYieldsPrefix) {
  // Property: truncating a valid buffer at ANY byte must throw SerialError
  // (never UB/crash) when fully decoded.
  const auto buf = as::encode(as::Format::kVerbose, std::string("hello"),
                              std::vector<long long>{1, 2, 3}, 3.14);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::byte> truncated(buf.begin(),
                                     buf.begin() + static_cast<long>(cut));
    EXPECT_THROW(
        (as::decode<std::string, std::vector<long long>, double>(
            truncated, as::Format::kVerbose)),
        as::SerialError)
        << "cut at " << cut;
  }
}

// Hostile counts: a tiny payload declaring an enormous sequence must fail
// with SerialError before anything is allocated for it — not bad_alloc,
// not length_error, and not "truncated input" after a huge reserve.

TEST(SerialEdgeFixed, HugeStringCountIsRejectedNotBadAlloc) {
  as::Writer w;
  w.length(std::size_t{1} << 33);  // 5-byte payload
  ASSERT_EQ(w.bytes().size(), 5u);
  EXPECT_THROW((as::decode<std::vector<std::string>>(w.bytes(),
                                                     as::Format::kCompact)),
               as::SerialError);
}

TEST(SerialEdgeFixed, StringCountBeyondInputFailsBeforeReserving) {
  as::Writer w;
  w.length(std::size_t{1} << 22);  // 4-byte payload, ~128 MB if reserved
  try {
    (void)as::decode<std::vector<std::string>>(w.bytes(),
                                               as::Format::kCompact);
    FAIL() << "decode of a 2^22-string count accepted a 4-byte payload";
  } catch (const as::SerialError& e) {
    // The count check, not the per-element read after reserve(2^22).
    EXPECT_NE(std::string(e.what()).find("sequence count"), std::string::npos)
        << e.what();
  }
}

TEST(SerialEdgeFixed, ArithmeticCountOverflowIsASerialError) {
  as::Writer w;
  w.length(std::size_t{1} << 61);  // n * sizeof(long long) wraps to 0
  w.value(7LL);
  EXPECT_THROW((as::decode<std::vector<long long>>(w.bytes(),
                                                   as::Format::kCompact)),
               as::SerialError);
}
