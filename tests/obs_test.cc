// Unit coverage of the observability primitives: the self-contained JSON
// value (dump/parse round-trips, escape handling, error reporting) and the
// span tracer (ring wrap, parent chains, detail gating).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/trace.h"

namespace fairsqg::obs {
namespace {

// ---------------------------------------------------------------- Json --

TEST(ObsJsonTest, DumpIsDeterministicAndSorted) {
  Json obj = Json::Object();
  obj.Set("zulu", Json(static_cast<int64_t>(1)));
  obj.Set("alpha", Json("first"));
  obj.Set("mike", Json(true));
  // std::map ordering: keys dump sorted regardless of insertion order.
  EXPECT_EQ(obj.Dump(0), R"({"alpha":"first","mike":true,"zulu":1})");
}

TEST(ObsJsonTest, IntegersPrintWithoutExponent) {
  EXPECT_EQ(Json(static_cast<uint64_t>(1) << 52).Dump(0), "4503599627370496");
  EXPECT_EQ(Json(static_cast<int64_t>(-42)).Dump(0), "-42");
  EXPECT_EQ(Json(0.5).Dump(0), "0.5");
  // Non-finite numbers have no JSON spelling; they degrade to null.
  EXPECT_EQ(Json(std::nan("")).Dump(0), "null");
}

TEST(ObsJsonTest, StringEscapesRoundTrip) {
  const std::string raw = "tab\there \"quoted\" back\\slash\nnewline \x01 end";
  Json v(raw);
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(v.Dump(0), &parsed, &error)) << error;
  EXPECT_EQ(parsed.as_string(), raw);
}

TEST(ObsJsonTest, ParsesUnicodeEscapes) {
  Json parsed;
  std::string error;
  // "\u00e9" is é (U+00E9, two UTF-8 bytes), "\u2713" is ✓ (three bytes).
  ASSERT_TRUE(Json::Parse(R"("caf\u00e9 \u2713")", &parsed, &error)) << error;
  EXPECT_EQ(parsed.as_string(), "caf\xc3\xa9 \xe2\x9c\x93");
}

TEST(ObsJsonTest, NestedRoundTripPreservesStructure) {
  Json root = Json::Object();
  Json arr = Json::Array();
  arr.Push(Json(static_cast<int64_t>(1)));
  arr.Push(Json());  // null
  Json inner = Json::Object();
  inner.Set("flag", Json(false));
  arr.Push(std::move(inner));
  root.Set("items", std::move(arr));
  root.Set("empty_obj", Json::Object());
  root.Set("empty_arr", Json::Array());

  for (int indent : {0, 2, 4}) {
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::Parse(root.Dump(indent), &parsed, &error))
        << "indent=" << indent << ": " << error;
    // Canonical re-dump equality implies structural equality.
    EXPECT_EQ(parsed.Dump(0), root.Dump(0)) << "indent=" << indent;
  }
}

TEST(ObsJsonTest, ParseRejectsMalformedInput) {
  Json out;
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "[1 2]", "\"bad\\q\"", "\"\\u12\"", "nul"}) {
    EXPECT_FALSE(Json::Parse(bad, &out, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ObsJsonTest, ParseRejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  Json out;
  std::string error;
  EXPECT_FALSE(Json::Parse(deep, &out, &error));
}

TEST(ObsJsonTest, FindAndAtAccessors) {
  Json root = Json::Object();
  root.Set("x", Json(3.0));
  EXPECT_EQ(root.Find("missing"), nullptr);
  ASSERT_NE(root.Find("x"), nullptr);
  EXPECT_DOUBLE_EQ(root.Find("x")->as_double(), 3.0);
  EXPECT_EQ(Json(1.0).Find("x"), nullptr);  // Non-object: no lookup.
  Json arr = Json::Array();
  arr.Push(Json("a"));
  arr.Push(Json("b"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.at(1).as_string(), "b");
}

// --------------------------------------------------------------- Trace --

TEST(ObsTraceTest, ParseAndNameRoundTrip) {
  for (TraceDetail d :
       {TraceDetail::kOff, TraceDetail::kPhase, TraceDetail::kFull}) {
    TraceDetail parsed = TraceDetail::kOff;
    EXPECT_TRUE(ParseTraceDetail(TraceDetailName(d), &parsed));
    EXPECT_EQ(parsed, d);
  }
  TraceDetail out;
  EXPECT_FALSE(ParseTraceDetail("verbose", &out));
}

TEST(ObsTraceTest, NestedSpansLinkParents) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(TraceDetail::kFull);
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner", TraceDetail::kFull);
      tracer.Instant("tick", TraceDetail::kFull);
    }
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  tracer.Disable();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  const SpanRecord* tick = nullptr;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "outer") outer = &s;
    if (std::string(s.name) == "inner") inner = &s;
    if (std::string(s.name) == "tick") tick = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(tick->parent, inner->id);
  EXPECT_TRUE(tick->instant);
  EXPECT_EQ(tick->dur_ns, 0);
  EXPECT_GE(inner->dur_ns, 0);
  EXPECT_GE(outer->dur_ns, inner->dur_ns);
  EXPECT_LE(outer->start_ns, inner->start_ns);
}

TEST(ObsTraceTest, DetailGateSuppressesFullSpans) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(TraceDetail::kPhase);
  {
    TraceSpan phase("phase_level");
    TraceSpan full("full_level", TraceDetail::kFull);
  }
  std::vector<SpanRecord> spans = tracer.Snapshot();
  tracer.Disable();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "phase_level");
}

TEST(ObsTraceTest, RingWrapCountsDropped) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(TraceDetail::kPhase);
  const size_t total = Tracer::kDefaultCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    TraceSpan s("wrap");
  }
  EXPECT_EQ(tracer.total_recorded(), total);
  EXPECT_EQ(tracer.dropped(), 100u);
  std::vector<SpanRecord> spans = tracer.Snapshot();
  EXPECT_EQ(spans.size(), Tracer::kDefaultCapacity);
  tracer.Disable();
  // Re-enabling clears the buffer and the counters.
  tracer.Enable(TraceDetail::kPhase);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.Disable();
}

TEST(ObsTraceTest, DisabledTracerAllocatesNothing) {
  // The global tracer is shared by every test in this binary, so the
  // never-enabled state is checked in a fresh process.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Tracer& tracer = Tracer::Global();
        {
          TraceSpan phase("before_enable");
          TraceSpan full("before_enable_full", TraceDetail::kFull);
          tracer.Instant("tick");
        }
        if (tracer.capacity() != 0) std::exit(1);
        if (tracer.total_recorded() != 0 || tracer.dropped() != 0 ||
            !tracer.Snapshot().empty()) {
          std::exit(2);
        }
        tracer.Enable(TraceDetail::kPhase);
        if (tracer.capacity() != Tracer::kDefaultCapacity) std::exit(3);
        { TraceSpan after("after_enable"); }
        std::vector<SpanRecord> spans = tracer.Snapshot();
        tracer.Disable();
        if (spans.size() != 1 || std::string(spans[0].name) != "after_enable") {
          std::exit(4);
        }
        // Disable keeps the ring for the next Enable.
        if (tracer.capacity() != Tracer::kDefaultCapacity) std::exit(5);
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}

TEST(ObsTraceTest, ConcurrentSpansGetDistinctThreadIds) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(TraceDetail::kPhase);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        TraceSpan s("mt");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<SpanRecord> spans = tracer.Snapshot();
  tracer.Disable();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * 50);
  std::vector<uint32_t> threads;
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.dur_ns, 0);
    threads.push_back(s.thread);
  }
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  EXPECT_EQ(threads.size(), static_cast<size_t>(kThreads));
}

}  // namespace
}  // namespace fairsqg::obs
