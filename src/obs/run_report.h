#ifndef FAIRSQG_OBS_RUN_REPORT_H_
#define FAIRSQG_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace fairsqg {
struct GenStats;  // core/stats.h (header-only; included by run_report.cc).
}  // namespace fairsqg

namespace fairsqg::obs {

/// \brief Machine-readable summary of one generation run.
///
/// The single schema every exporter speaks: the CLI's --metrics-json, the
/// bench harness rows, and tools/check_bench_regression.py all produce or
/// consume this shape. Top-level keys:
///
///   kind            "fairsqg.run_report" (constant discriminator)
///   schema_version  RunReport::kSchemaVersion; consumers hard-fail on
///                   mismatch rather than misread renamed fields
///   algorithm       generator name, when set
///   fingerprint     the archive's determinism fingerprint as 16 hex
///                   digits (core's ArchiveFingerprint), when set
///   stats           every GenStats counter, flat (see StatsJson)
///   trace           {detail, dropped, spans:[...]} from a Tracer snapshot
///
/// `stats` is always present once SetGenStats is called; `trace` appears
/// only when attached, so a bench row embedding just the deterministic
/// GenStats view stays byte-stable across repeats.
class RunReport {
 public:
  /// v3: the optional top-level "fingerprint". v4: no `sweep_*` stats.
  static constexpr int kSchemaVersion = 4;
  static constexpr const char* kKind = "fairsqg.run_report";

  RunReport();

  void SetAlgorithm(const std::string& name);
  void SetGenStats(const GenStats& stats);
  /// Records the archive's determinism fingerprint (ArchiveFingerprint).
  void SetFingerprint(uint64_t fingerprint);
  /// Attaches an arbitrary top-level field (scenario parameters, repeat
  /// counts — whatever the producer wants downstream tools to see).
  void SetField(const std::string& key, Json value);
  void AttachTrace(const std::vector<SpanRecord>& spans, TraceDetail detail,
                   uint64_t dropped);

  const Json& json() const { return root_; }
  std::string Dump(int indent = 2) const { return root_.Dump(indent); }
  Status WriteFile(const std::string& path) const;

  /// Flat JSON object with every GenStats counter; shared by SetGenStats
  /// and the bench harness's per-row embedding.
  static Json StatsJson(const GenStats& stats);

 private:
  Json root_;
};

/// chrome://tracing "trace event" array ("X" duration events, "i"
/// instants; microsecond timestamps) for loading a span dump into a trace
/// viewer. Spans are emitted sorted by start time.
Json ChromeTraceJson(const std::vector<SpanRecord>& spans);
Status WriteChromeTrace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

}  // namespace fairsqg::obs

#endif  // FAIRSQG_OBS_RUN_REPORT_H_
