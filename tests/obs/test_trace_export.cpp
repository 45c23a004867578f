// Tracer span matching and the Chrome trace_event exporter, pinned with
// synthetic fixed-timestamp events so the JSON shape is a golden value.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "apar/obs/tracer.hpp"

namespace obs = apar::obs;

namespace {

obs::TraceEvent at(long long us, const char* signature,
                   obs::TraceEvent::Phase phase,
                   const void* target = nullptr) {
  obs::TraceEvent e;
  e.when = std::chrono::steady_clock::time_point{} +
           std::chrono::microseconds(us);
  e.thread = std::this_thread::get_id();
  e.signature = signature;
  e.target = target;
  e.phase = phase;
  return e;
}

using Phase = obs::TraceEvent::Phase;

}  // namespace

TEST(TracerSpans, PairsNestedEnterExit) {
  obs::Tracer tracer;
  tracer.record(at(100, "A.outer", Phase::kEnter));
  tracer.record(at(110, "A.inner", Phase::kEnter));
  tracer.record(at(150, "A.inner", Phase::kExit));
  tracer.record(at(200, "A.outer", Phase::kExit));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Start-ordered: outer first.
  EXPECT_EQ(spans[0].signature, "A.outer");
  EXPECT_EQ(spans[0].duration.count(), 100);
  EXPECT_FALSE(spans[0].error);
  EXPECT_EQ(spans[1].signature, "A.inner");
  EXPECT_EQ(spans[1].duration.count(), 40);
}

TEST(TracerSpans, RecursiveSameSignatureClosesInnermost) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(10, "A.f", Phase::kEnter));
  tracer.record(at(20, "A.f", Phase::kExit));
  tracer.record(at(50, "A.f", Phase::kExit));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].duration.count(), 50);  // outer call
  EXPECT_EQ(spans[1].duration.count(), 10);  // inner call
}

TEST(TracerSpans, ErrorClosesSpanAndFlagsIt) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(30, "A.f", Phase::kError));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].error);
  EXPECT_EQ(spans[0].duration.count(), 30);
}

TEST(TracerSpans, UnmatchedEnterOmitted) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(5, "A.g", Phase::kEnter));
  tracer.record(at(9, "A.g", Phase::kExit));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].signature, "A.g");
}

TEST(ChromeTrace, GoldenSingleThreadShape) {
  obs::Tracer tracer;
  tracer.record(at(100, "A.outer", Phase::kEnter));
  tracer.record(at(110, "A.inner", Phase::kEnter));
  tracer.record(at(150, "A.inner", Phase::kExit));
  tracer.record(at(200, "A.outer", Phase::kExit));
  const std::string expected =
      "[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"T1\"}},"
      "{\"name\":\"A.outer\",\"cat\":\"apar\",\"ph\":\"X\",\"ts\":0,"
      "\"dur\":100,\"pid\":0,\"tid\":1},"
      "{\"name\":\"A.inner\",\"cat\":\"apar\",\"ph\":\"X\",\"ts\":10,"
      "\"dur\":40,\"pid\":0,\"tid\":1}]";
  EXPECT_EQ(tracer.chrome_trace_json(), expected);
}

TEST(ChromeTrace, ErrorSpanCarriesArgs) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(30, "A.f", Phase::kError));
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"args\":{\"error\":true}"), std::string::npos);
}

TEST(ChromeTrace, EscapesSignatureCharacters) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.\"quoted\"", Phase::kEnter));
  tracer.record(at(1, "A.\"quoted\"", Phase::kExit));
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("A.\\\"quoted\\\""), std::string::npos);
}

TEST(ChromeTrace, EmptyTracerIsEmptyArray) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.chrome_trace_json(), "[]");
}

TEST(ChromeTrace, SecondThreadGetsOwnTid) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(10, "A.f", Phase::kExit));
  std::thread other([&] {
    tracer.record(at(5, "A.g", Phase::kEnter));
    tracer.record(at(8, "A.g", Phase::kExit));
  });
  other.join();
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"T2\"}"), std::string::npos);
}

TEST(ChromeTrace, WriteChromeTraceRoundTrips) {
  obs::Tracer tracer;
  tracer.record(at(0, "A.f", Phase::kEnter));
  tracer.record(at(10, "A.f", Phase::kExit));
  const std::string path =
      testing::TempDir() + "apar_trace_export_test.json";
  tracer.write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string contents = buffer.str();
  // Trailing newline from the writer.
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  contents.pop_back();
  EXPECT_EQ(contents, tracer.chrome_trace_json());
  std::remove(path.c_str());
}

TEST(ChromeTrace, WriteToUnwritablePathThrows) {
  obs::Tracer tracer;
  EXPECT_THROW(tracer.write_chrome_trace("/nonexistent-dir/trace.json"),
               std::runtime_error);
}
