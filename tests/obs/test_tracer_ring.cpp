// The Tracer's bounded ring: capacity enforcement with an EXACT dropped
// counter (an observability tool that silently lies about loss is worse
// than none), plus the span-identity features layered on TraceContext —
// id-based pairing, open-span accounting, the Chrome exporter's hex id
// args, and SpanRecord, the RAII recorder every probe records through.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "apar/obs/trace_context.hpp"
#include "apar/obs/tracer.hpp"

namespace obs = apar::obs;
using Phase = obs::TraceEvent::Phase;

namespace {

obs::TraceEvent at(long long us, const char* signature, Phase phase,
                   obs::TraceContext ctx = {}) {
  obs::TraceEvent e;
  e.when = std::chrono::steady_clock::time_point{} +
           std::chrono::microseconds(us);
  e.thread = std::this_thread::get_id();
  e.signature = signature;
  e.phase = phase;
  e.ctx = ctx;
  return e;
}

}  // namespace

TEST(TracerRing, CapacityBoundsMemoryAndCountsDropsExactly) {
  obs::Tracer tracer(4);
  EXPECT_EQ(tracer.capacity(), 4u);
  for (int i = 0; i < 10; ++i)
    tracer.record(at(i, i % 2 == 0 ? "A.f" : "A.g",
                     i % 2 == 0 ? Phase::kEnter : Phase::kExit));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  // The ring keeps the NEWEST events — the oldest were evicted.
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().when.time_since_epoch().count(),
            std::chrono::steady_clock::time_point(
                std::chrono::microseconds(6)).time_since_epoch().count());
}

TEST(TracerRing, DroppedCountSurfacesInSummary) {
  obs::Tracer tracer(2);
  for (int i = 0; i < 5; ++i) tracer.record(at(i, "A.f", Phase::kEnter));
  const std::string summary = tracer.summary();
  EXPECT_NE(summary.find("dropped 3"), std::string::npos) << summary;
}

TEST(TracerRing, TakeEventsDrainsButDroppedIsCumulative) {
  obs::Tracer tracer(2);
  for (int i = 0; i < 3; ++i) tracer.record(at(i, "A.f", Phase::kEnter));
  EXPECT_EQ(tracer.take_events().size(), 2u);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 1u);
  tracer.record(at(10, "A.g", Phase::kEnter));
  tracer.record(at(11, "A.g", Phase::kExit));
  tracer.record(at(12, "A.h", Phase::kEnter));
  EXPECT_EQ(tracer.dropped_events(), 2u);  // 1 old + 1 new eviction
}

TEST(TracerRing, SetCapacityEvictsAndCounts) {
  obs::Tracer tracer;  // default capacity is large
  for (int i = 0; i < 8; ++i) tracer.record(at(i, "A.f", Phase::kEnter));
  tracer.set_capacity(3);
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 5u);
}

TEST(TracerRing, ClearEmptiesWithoutTouchingDropCount) {
  obs::Tracer tracer(2);
  for (int i = 0; i < 3; ++i) tracer.record(at(i, "A.f", Phase::kEnter));
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 1u);
}

// --- span identity ----------------------------------------------------------

TEST(TracerSpans, ContextIdsPairSameNamedSiblingsExactly) {
  // Two same-signature spans, interleaved; signature-based pairing would
  // nest them LIFO and get both durations wrong. Ids disambiguate.
  obs::TraceContext a{1, 10, 0};
  obs::TraceContext b{1, 20, 0};
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter, a));
  tracer.record(at(5, "A.f", Phase::kEnter, b));
  tracer.record(at(7, "A.f", Phase::kExit, a));
  tracer.record(at(50, "A.f", Phase::kExit, b));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, 10u);
  EXPECT_EQ(spans[0].duration.count(), 7);
  EXPECT_EQ(spans[1].span_id, 20u);
  EXPECT_EQ(spans[1].duration.count(), 45);
}

TEST(TracerSpans, SpansCarryTraceIdentity) {
  obs::TraceContext ctx{0xaa, 0xbb, 0xcc};
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter, ctx));
  tracer.record(at(9, "A.f", Phase::kExit, ctx));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0xaau);
  EXPECT_EQ(spans[0].span_id, 0xbbu);
  EXPECT_EQ(spans[0].parent_span_id, 0xccu);
}

TEST(TracerSpans, OpenSpansCountsUnmatchedEnters) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.open_spans(), 0u);
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(1, "A.g", Phase::kEnter));
  EXPECT_EQ(tracer.open_spans(), 2u);
  tracer.record(at(2, "A.g", Phase::kExit));
  EXPECT_EQ(tracer.open_spans(), 1u);
  tracer.record(at(3, "A.f", Phase::kError));  // errors CLOSE spans
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerSpans, LateRecordedEventsSortByTimestamp) {
  // The server records both serve-span boundaries after dispatch, so they
  // arrive out of order relative to inner spans. Pairing sorts by `when`.
  obs::TraceContext outer{1, 2, 0};
  obs::TraceContext inner{1, 3, 2};
  obs::Tracer tracer;
  tracer.record(at(10, "inner", Phase::kEnter, inner));
  tracer.record(at(20, "inner", Phase::kExit, inner));
  tracer.record(at(0, "serve.call", Phase::kEnter, outer));
  tracer.record(at(30, "serve.call", Phase::kExit, outer));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].signature, "serve.call");
  EXPECT_EQ(spans[0].duration.count(), 30);
  EXPECT_EQ(spans[1].signature, "inner");
}

TEST(SpanRecord, CloseRecordsOneEnterExitPair) {
  obs::Tracer tracer;
  const obs::TraceContext ctx{1, 2, 0};
  int target = 0;
  {
    obs::SpanRecord span(tracer, "A.f", &target, ctx);
    span.close();
    span.close();  // only the first close records
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, Phase::kEnter);
  EXPECT_EQ(events[1].phase, Phase::kExit);
  for (const auto& e : events) {
    EXPECT_EQ(e.signature, "A.f");
    EXPECT_EQ(e.target, &target);
    EXPECT_EQ(e.ctx, ctx);
    EXPECT_EQ(e.thread, std::this_thread::get_id());
  }
  EXPECT_LE(events[0].when, events[1].when);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(SpanRecord, CloseCanNameTheTargetLearnedOnExit) {
  obs::Tracer tracer;
  int created = 0;
  {
    obs::SpanRecord span(tracer, "A.new", nullptr, {});
    span.close(&created);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].target, nullptr);
  EXPECT_EQ(events[1].target, &created);
}

TEST(SpanRecord, UnwindingWithoutCloseRecordsError) {
  obs::Tracer tracer;
  const obs::TraceContext ctx{1, 2, 0};
  int target = 0;
  EXPECT_THROW(
      {
        obs::SpanRecord span(tracer, "A.f", &target, ctx);
        throw std::runtime_error("boom");
      },
      std::runtime_error);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].phase, Phase::kError);
  EXPECT_EQ(events[1].target, &target);  // the construction target
  EXPECT_EQ(events[1].ctx, ctx);
  EXPECT_EQ(tracer.open_spans(), 0u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].error);
}

TEST(SpanRecord, ExplicitTimestampsStampBothBoundaries) {
  obs::Tracer tracer;
  const auto start = std::chrono::steady_clock::time_point{} +
                     std::chrono::microseconds(100);
  const auto end = start + std::chrono::microseconds(25);
  {
    obs::SpanRecord span(tracer, "threadpool.queue_wait", nullptr,
                         {1, 2, 0}, start);
    span.close(nullptr, end);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].when, start);
  EXPECT_EQ(events[1].when, end);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration.count(), 25);
  EXPECT_FALSE(spans[0].error);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(ChromeTrace, SpanIdsExportAsHexStringArgs) {
  obs::TraceContext ctx{0x0102030405060708ULL, 0x1112131415161718ULL,
                        0x2122232425262728ULL};
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter, ctx));
  tracer.record(at(9, "A.f", Phase::kExit, ctx));
  const std::string json = tracer.chrome_trace_json();
  // Hex STRINGS, not numbers: 64-bit ids do not survive double-precision
  // JSON readers (Python's json included).
  EXPECT_NE(json.find("\"trace_id\":\"0102030405060708\""),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"span_id\":\"1112131415161718\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\"2122232425262728\""),
            std::string::npos);
}

TEST(ChromeTrace, RootSpanOmitsParentArg) {
  obs::TraceContext root{0xaa, 0xbb, 0};
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter, root));
  tracer.record(at(1, "A.f", Phase::kExit, root));
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_EQ(json.find("\"parent_span_id\""), std::string::npos);
}

TEST(ChromeTrace, ProcessNameMetadataPrepended) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(1, "A.f", Phase::kExit));
  const std::string json = tracer.chrome_trace_json(42, "sieve-server");
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":42,"
                      "\"tid\":0,\"args\":{\"name\":\"sieve-server\"}}"),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":42"), std::string::npos);
}
