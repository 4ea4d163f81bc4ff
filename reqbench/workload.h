// Workload definitions and seeded input generation for the request-stream
// benchmark.
//
// A workload fixes a dataset, a graph scale, a generator and its
// parameters; the seed fixes everything else. Generation writes exactly
// the inputs a user of `fairsqg generate` would hand the program: a graph
// text file, one template file per request, and each request's group
// constraints. The timed process reads only those files.

#ifndef FAIRSQG_REQBENCH_WORKLOAD_H_
#define FAIRSQG_REQBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fairsqg::reqbench {

/// Parameters of one workload, read from workloads.json.
struct WorkloadSpec {
  std::string name;
  std::string dataset;  ///< dbp | lki | cite (workload/datasets.h).
  double scale = 1.0;
  std::string algorithm;  ///< enum | biqgen | rfqgen | parallel.
  size_t threads = 1;     ///< Worker threads (ParallelQGen only).
  double lambda = 0.5;
  double epsilon = 0.05;
  /// Independently generated graphs per seed. Requests cycle over them,
  /// so one dataset draw does not set the whole run's cost.
  size_t graphs = 1;

  // Template draw and coverage calibration (MakeScenario's knobs).
  size_t edges = 3;
  size_t range_vars = 2;
  size_t edge_vars = 1;
  size_t groups = 2;
  double coverage_fraction = 0.55;
  size_t max_domain = 8;
};

/// Distinct requests drawn per seed: more than any workload sends in a 30 s
/// run on a 4-core host. A longer run starts over at the first request.
constexpr size_t kPoolSize = 2000;

/// Reads the workload named `name` from the workloads.json at `path`.
Result<WorkloadSpec> LoadWorkloadSpec(const std::string& path,
                                      const std::string& name);

/// One request's inputs as they sit on disk.
struct RequestSpec {
  size_t index = 0;
  size_t graph = 0;  ///< Which of the workload's graphs the request targets.
  uint64_t template_seed = 0;
  std::string template_file;  ///< Relative to the workload directory.
  std::string group_attr;
  size_t num_groups = 0;
  size_t coverage_per_group = 0;
};

/// File name of the workload's graph `i` inside its directory.
std::string GraphFileName(size_t i);

/// Generates the workload's inputs for `seed` into `dir`: the graphs, one
/// t<i>.qt per request and requests.tsv. Request i targets graph i mod
/// `graphs`. Templates are drawn and their per-group coverage target
/// calibrated as MakeScenario does, each request with its own template seed.
Status GenerateWorkload(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir);

/// Reads requests.tsv from a generated workload directory.
Result<std::vector<RequestSpec>> ReadRequests(const std::string& dir);

}  // namespace fairsqg::reqbench

#endif  // FAIRSQG_REQBENCH_WORKLOAD_H_
