#ifndef FAIRSQG_BENCH_BENCH_COMMON_H_
#define FAIRSQG_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/enumerate.h"
#include "core/indicators.h"
#include "core/qgen_result.h"
#include "obs/json.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "workload/scenario.h"

namespace fairsqg::bench {

/// Version stamped as "schema_version" into every BENCH_*.json this
/// harness emits; bump whenever a field name or its semantics change so
/// downstream consumers (tools/check_bench_regression.py, dashboards) can
/// refuse to compare incompatible files.
///
/// v3: the file is a RunReport-shaped snapshot ("kind":
/// "fairsqg.run_report") built with obs::Json, and each row embeds the
/// full GenStats view of its representative run under "stats".
/// v4: the embedded GenStats lost the literal sweep's counters;
/// bench_cyclic_verify times total_s instead of verify_s, and
/// bench_candidate_index has no warm-cache rerun.
constexpr int kBenchSchemaVersion = 4;

/// Root object of one BENCH_*.json: the RunReport discriminator ("kind")
/// plus the bench id, this harness's schema stamp, and the repeat count.
/// Benches add their scenario fields and a row array, then hand the
/// finished object to WriteBenchJson.
obs::Json BenchReport(const std::string& bench, int repeat);

/// Pretty-prints `root` to `path` (trailing newline included) and logs the
/// path to stdout; CHECK-fails when the file cannot be written.
void WriteBenchJson(const obs::Json& root, const std::string& path);

/// Parses `--repeat N` from the benchmark's argv (default 1). Benchmarks
/// rerun each timed section N times and report the median (typical run)
/// and min (noise floor) of the samples.
int ParseRepeat(int argc, char** argv);

/// Parses `--trace-detail off|phase|full` (default off). Benches that honor
/// it enable the global tracer before their timed sections so the
/// observability overhead is measurable with the same harness that produced
/// the committed baselines (DESIGN.md §13). CHECK-fails on an unknown level.
obs::TraceDetail ParseTraceDetail(int argc, char** argv);

/// Median of `samples` — the average of the middle two for even counts;
/// 0 when empty.
double Median(std::vector<double> samples);

/// Minimum of `samples`; 0 when empty.
double MinOf(const std::vector<double>& samples);

/// Ground truth of one configuration: the fully verified instance space,
/// its feasible subset, the exact Pareto set, and the objective maxima used
/// to normalize indicators.
struct Truth {
  std::vector<EvaluatedPtr> all;
  std::vector<EvaluatedPtr> feasible;
  std::vector<EvaluatedPtr> pareto;
  Objectives maxima;
  double seconds = 0;
};

/// Verifies the whole instance space once (shared by the indicator rows).
Result<Truth> ComputeTruth(const QGenConfig& config);

/// Fixed-width console table in the style of the paper's figures.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the point.
std::string Fmt(double value, int precision = 3);

/// Prints a figure banner: id, paper caption, and our setting line.
void PrintFigureHeader(const std::string& figure, const std::string& caption,
                       const std::string& setting);

/// Paper-default scenario options per dataset (Table II row), scaled to
/// bench size. Reads FAIRSQG_BENCH_SCALE (double) from the environment to
/// raise or lower all dataset sizes.
ScenarioOptions DefaultOptions(const std::string& dataset);

/// Benchmark-wide graph scale (default 0.15; override with env
/// FAIRSQG_BENCH_SCALE).
double BenchScale();

}  // namespace fairsqg::bench

#endif  // FAIRSQG_BENCH_BENCH_COMMON_H_
