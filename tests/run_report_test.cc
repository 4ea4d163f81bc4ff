// RunReport schema lock-in (DESIGN.md §13): a golden-file test over a
// fully deterministic synthetic report, plus structural checks on a report
// produced from a real generation run.
//
// The golden file is tests/data/run_report_golden.json. It is built from
// hand-pinned GenStats / spans (no clocks, no randomness), so
// its dump is byte-stable across machines; any schema drift — a renamed
// key, a changed number format, a reordered field — fails this test and
// forces a conscious kSchemaVersion bump.
//
// To regenerate after an intentional schema change:
//     FAIRSQG_REGEN_GOLDEN=1 ./run_report_test
// then commit the rewritten golden file together with the schema bump.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bi_qgen.h"
#include "core/stats.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "scenario_fixture.h"

namespace fairsqg {
namespace {

std::string GoldenPath() {
  return std::string(FAIRSQG_TEST_DATA_DIR) + "/run_report_golden.json";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A report with every field populated from pinned values — no clock
/// reads, no randomness, so Dump() is identical on every machine.
obs::RunReport PinnedReport() {
  obs::RunReport report;
  report.SetAlgorithm("biqgen");

  GenStats stats;
  stats.generated = 120;
  stats.verified = 96;
  stats.pruned = 24;
  stats.feasible = 42;
  stats.pruned_sandwich = 9;
  stats.pruned_subtree = 15;
  stats.enqueued = 130;
  stats.stolen = 7;
  stats.cache_hits = 11;
  stats.cache_misses = 85;
  stats.deadline_exceeded = false;
  stats.aborted_matches = 3;
  stats.timed_out_instances = 1;
  stats.total_seconds = 0.25;
  stats.verify_cpu_seconds = 0.125;
  stats.verify_wall_seconds = 0.0625;
  stats.per_worker_verify_seconds = {0.03125, 0.03125};
  report.SetGenStats(stats);
  report.SetFingerprint(0x0123456789abcdefULL);

  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord run;
  run.id = 1;
  run.parent = 0;
  run.name = "bi_qgen.run";
  run.start_ns = 1000;
  run.dur_ns = 9000;
  run.thread = 0;
  run.worker = -1;
  obs::SpanRecord verify;
  verify.id = 2;
  verify.parent = 1;
  verify.name = "verify";
  verify.start_ns = 2000;
  verify.dur_ns = 500;
  verify.thread = 1;
  verify.worker = 0;
  obs::SpanRecord stop;
  stop.id = 3;
  stop.parent = 1;
  stop.name = "run_context.stop";
  stop.start_ns = 9500;
  stop.dur_ns = 0;
  stop.thread = 0;
  stop.worker = -1;
  stop.instant = true;
  // Deliberately out of start order: AttachTrace must sort by start_ns.
  spans = {stop, run, verify};
  report.AttachTrace(spans, obs::TraceDetail::kFull, /*dropped=*/0);
  return report;
}

TEST(RunReportTest, GoldenFileMatchesByteForByte) {
  obs::RunReport report = PinnedReport();
  std::string dumped = report.Dump() + "\n";
  if (std::getenv("FAIRSQG_REGEN_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(GoldenPath().c_str(), "w");
    ASSERT_NE(f, nullptr) << GoldenPath();
    std::fwrite(dumped.data(), 1, dumped.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::string golden = ReadFileOrDie(GoldenPath());
  EXPECT_EQ(dumped, golden)
      << "run-report schema drifted; if intentional, bump "
         "RunReport::kSchemaVersion and rerun with FAIRSQG_REGEN_GOLDEN=1";
}

TEST(RunReportTest, GoldenFileParsesWithExpectedSchema) {
  obs::Json parsed;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(ReadFileOrDie(GoldenPath()), &parsed, &error))
      << error;
  ASSERT_TRUE(parsed.is_object());
  ASSERT_NE(parsed.Find("kind"), nullptr);
  EXPECT_EQ(parsed.Find("kind")->as_string(), obs::RunReport::kKind);
  ASSERT_NE(parsed.Find("schema_version"), nullptr);
  EXPECT_EQ(parsed.Find("schema_version")->as_int(),
            obs::RunReport::kSchemaVersion);
  // Top-level key set is closed: a new key is a schema change.
  std::set<std::string> keys;
  for (const auto& [key, value] : parsed.items()) keys.insert(key);
  EXPECT_EQ(keys, (std::set<std::string>{"algorithm", "fingerprint", "kind",
                                         "schema_version", "stats", "trace"}));
  ASSERT_NE(parsed.Find("fingerprint"), nullptr);
  EXPECT_EQ(parsed.Find("fingerprint")->as_string(), "0123456789abcdef");
  // stats carries every GenStats counter.
  const obs::Json* stats = parsed.Find("stats");
  ASSERT_NE(stats, nullptr);
  for (const char* key :
       {"generated", "verified", "pruned", "feasible", "pruned_sandwich",
        "pruned_subtree", "enqueued", "stolen", "cache_hits", "cache_misses",
        "deadline_exceeded", "aborted_matches", "timed_out_instances",
        "total_seconds", "verify_cpu_seconds", "verify_wall_seconds",
        "per_worker_verify_seconds"}) {
    EXPECT_NE(stats->Find(key), nullptr) << "stats." << key;
  }
  // trace spans are sorted by start_ns with a well-formed parent tree.
  const obs::Json* trace = parsed.Find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_NE(trace->Find("detail"), nullptr);
  EXPECT_NE(trace->Find("dropped"), nullptr);
  const obs::Json* spans = trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  std::set<int64_t> ids;
  int64_t prev_start = 0;
  for (const obs::Json& span : spans->elements()) {
    ASSERT_TRUE(span.is_object());
    int64_t start = span.Find("start_ns")->as_int();
    EXPECT_GE(start, prev_start) << "spans not sorted by start_ns";
    prev_start = start;
    EXPECT_GE(span.Find("dur_ns")->as_int(), 0);
    ids.insert(span.Find("id")->as_int());
  }
  for (const obs::Json& span : spans->elements()) {
    int64_t parent = span.Find("parent")->as_int();
    EXPECT_TRUE(parent == 0 || ids.count(parent) == 1)
        << "dangling parent " << parent;
  }
}

TEST(RunReportTest, WriteFileRoundTripsAndChromeTraceMarksInstants) {
  obs::RunReport report = PinnedReport();
  report.SetField("dataset", obs::Json(std::string("lki")));

  std::string report_path = testing::TempDir() + "/run_report_rt.json";
  ASSERT_TRUE(report.WriteFile(report_path).ok());
  obs::Json parsed;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(ReadFileOrDie(report_path), &parsed, &error))
      << error;
  ASSERT_NE(parsed.Find("dataset"), nullptr);
  EXPECT_EQ(parsed.Find("dataset")->as_string(), "lki");
  EXPECT_EQ(parsed.Find("kind")->as_string(), obs::RunReport::kKind);

  obs::SpanRecord instant;
  instant.id = 1;
  instant.parent = 0;
  instant.name = "run_context.stop";
  instant.start_ns = 4000;
  instant.dur_ns = 0;
  instant.thread = 0;
  instant.worker = -1;
  instant.instant = true;
  std::string trace_path = testing::TempDir() + "/chrome_trace_rt.json";
  ASSERT_TRUE(obs::WriteChromeTrace({instant}, trace_path).ok());
  ASSERT_TRUE(obs::Json::Parse(ReadFileOrDie(trace_path), &parsed, &error))
      << error;
  const obs::Json* events = parsed.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  const obs::Json& event = events->elements()[0];
  EXPECT_EQ(event.Find("ph")->as_string(), "i");
  EXPECT_EQ(event.Find("s")->as_string(), "t");

  // Unwritable destination surfaces as a Status error, not a crash.
  EXPECT_FALSE(report.WriteFile("/nonexistent-dir/run_report.json").ok());
}

TEST(RunReportTest, RealRunProducesWellFormedReport) {
  SmallScenario s;
  obs::Tracer::Global().Enable(obs::TraceDetail::kFull);
  QGenResult result = BiQGen::Run(s.Config(0.05)).ValueOrDie();
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  uint64_t dropped = obs::Tracer::Global().dropped();
  obs::Tracer::Global().Disable();

  obs::RunReport report;
  report.SetAlgorithm("biqgen");
  report.SetGenStats(result.stats);
  report.AttachTrace(spans, obs::TraceDetail::kFull, dropped);

  // The dump must survive a parse round-trip through our own parser and
  // re-dump identically (Json objects are sorted maps, so dump order is
  // canonical).
  std::string dumped = report.Dump();
  obs::Json parsed;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(dumped, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Dump(), dumped);

  EXPECT_EQ(parsed.Find("kind")->as_string(), obs::RunReport::kKind);
  EXPECT_EQ(static_cast<size_t>(parsed.Find("stats")->Find("verified")->as_int()),
            result.stats.verified);
  // The chrome-trace exporter accepts the same spans.
  obs::Json chrome = obs::ChromeTraceJson(spans);
  ASSERT_NE(chrome.Find("traceEvents"), nullptr);
  EXPECT_EQ(chrome.Find("traceEvents")->size(), spans.size());
}

}  // namespace
}  // namespace fairsqg
