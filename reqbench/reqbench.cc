// reqbench — request-stream benchmark program for FairSQG.
//
//   reqbench gen --spec workloads.json --workload NAME --seed N --dir DIR
//   reqbench load --spec workloads.json --workload NAME --dir DIR
//   reqbench run --spec workloads.json --workload NAME --dir DIR
//                --seconds T --trace 0|1 --setup-samples S1,S2,...
//                [--commit SHA]
//
// `gen` writes a workload's inputs for one seed (see workload.h). `load`
// times loading the workload's graphs in a fresh process: the set-up a
// user pays before the first request. run.py runs it several times and
// hands the samples to `run`, whose setup_s is their median; separate
// processes land on different cores, so the median does not hinge on the
// one core a single process happens to get. `run` loads the graphs, then
// acts as a single closed-loop client: it sends query-generation requests one after
// the other until T seconds have passed and at least kMinRequests have
// been sent. A request is what `fairsqg generate` does after graph load,
// with its defaults: variable domains coarsened to the cap, the group
// constraints, a 64 MiB / 16-shard match-set cache, candidate index on and
// sweep off, the generator's Run, then sorting the archive.
//
// With --trace 0 the loop runs untraced and the end-to-end metrics are
// reported. With --trace 1 the loop first runs untraced for a quarter of
// the time, then sends the same requests again with spans recorded around
// each request's layers, then replays each request's layers (replay.h);
// the per-layer metrics come from those spans and the returned GenStats.
//
// Both modes check every returned archive (check.h) after the loop. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/bi_qgen.h"
#include "core/enum_qgen.h"
#include "core/match_cache.h"
#include "core/parallel_qgen.h"
#include "core/rf_qgen.h"
#include "graph/graph_io.h"
#include "obs/json.h"
#include "query/template_io.h"
#include "replay.h"
#include "spans.h"
#include "workload.h"

namespace fairsqg::reqbench {
namespace {

/// Threads used for the untimed output check.
constexpr size_t kCheckThreads = 4;
/// A run sends at least this many requests, so the tail percentile has ten
/// samples beyond it.
constexpr size_t kMinRequests = 20;

int Fail(const Status& status) {
  std::fprintf(stderr, "reqbench: %s\n", status.ToString().c_str());
  return 1;
}

struct LoadedRequest {
  RequestSpec spec;
  const Graph* graph = nullptr;  ///< The loaded graph the template is for.
  QueryTemplate tmpl;
};

/// A request's derived inputs: coarsened variable domains and groups.
struct RequestInputs {
  std::unique_ptr<VariableDomains> domains;
  std::unique_ptr<GroupSet> groups;
};

/// One sent request: its pool index, latency and outcome. Only a digest of
/// the archive is kept; the check rebuilds the inputs it needs.
struct RequestRun {
  size_t pool_index = 0;
  double seconds = 0;
  Status status;
  GenStats stats;
  std::vector<MemberDigest> archive;
  std::string failure;  ///< Set by the check; empty when the request passed.
};

/// Derives the request's inputs as `fairsqg generate` does after graph
/// load: domains built and coarsened to the cap, then the group constraints.
Result<RequestInputs> BuildInputs(const WorkloadSpec& w,
                                  const LoadedRequest& req, SpanRecorder* spans,
                                  uint64_t id) {
  const Graph& g = *req.graph;
  RequestInputs in;
  {
    ScopedSpan s(spans, "query.domains", id);
    FAIRSQG_ASSIGN_OR_RETURN(VariableDomains full,
                             VariableDomains::Build(g, req.tmpl));
    in.domains = std::make_unique<VariableDomains>(full.Coarsened(w.max_domain));
  }
  const AttrId attr = g.schema().AttrIdOf(req.spec.group_attr);
  if (attr == kInvalidAttr) {
    return Status::InvalidArgument("unknown group attribute " +
                                   req.spec.group_attr);
  }
  FAIRSQG_ASSIGN_OR_RETURN(
      GroupSet groups,
      GroupSet::FromCategoricalAttr(g,
                                    req.tmpl.node_label(req.tmpl.output_node()),
                                    attr, req.spec.num_groups,
                                    req.spec.coverage_per_group));
  in.groups = std::make_unique<GroupSet>(std::move(groups));
  return in;
}

QGenConfig MakeConfig(const WorkloadSpec& w, const LoadedRequest& req,
                      const RequestInputs& in) {
  QGenConfig config;
  config.graph = req.graph;
  config.tmpl = &req.tmpl;
  config.domains = in.domains.get();
  config.groups = in.groups.get();
  config.epsilon = w.epsilon;
  config.diversity.lambda = w.lambda;
  config.use_candidate_index = true;
  config.use_sweep_verify = false;
  return config;
}

Result<QGenResult> Generate(const QGenConfig& config, const WorkloadSpec& w) {
  if (w.algorithm == "enum") return EnumQGen::Run(config);
  if (w.algorithm == "biqgen") return BiQGen::Run(config);
  if (w.algorithm == "rfqgen") return RfQGen::Run(config);
  if (w.algorithm == "parallel") return ParallelQGen::Run(config, w.threads);
  return Status::InvalidArgument("unknown algorithm '" + w.algorithm + "'");
}

/// Generators that spawn through template refinement.
bool UsesRefinementHints(const WorkloadSpec& w) {
  return w.algorithm == "biqgen" || w.algorithm == "rfqgen";
}

RequestRun SendRequest(const WorkloadSpec& w, const LoadedRequest& req,
                       size_t pool_index, SpanRecorder* spans, uint64_t id) {
  RequestRun run;
  run.pool_index = pool_index;
  std::vector<EvaluatedPtr> archive;
  Timer timer;
  {
    ScopedSpan request(spans, "request", id);
    run.status = [&]() -> Status {
      FAIRSQG_ASSIGN_OR_RETURN(RequestInputs in,
                               BuildInputs(w, req, spans, id));
      FAIRSQG_ASSIGN_OR_RETURN(std::unique_ptr<MatchSetCache> cache,
                               MatchSetCache::Create(MatchSetCache::Options{}));
      QGenConfig config = MakeConfig(w, req, in);
      config.match_cache = cache.get();
      Result<QGenResult> result = Status::Internal("not run");
      {
        ScopedSpan s(spans, "core.generate", id);
        result = Generate(config, w);
      }
      if (!result.ok()) return result.status();
      run.stats = std::move(result->stats);
      archive = std::move(result->pareto);
      std::sort(archive.begin(), archive.end(),
                [](const EvaluatedPtr& a, const EvaluatedPtr& b) {
                  if (a->obj.diversity != b->obj.diversity) {
                    return a->obj.diversity > b->obj.diversity;
                  }
                  return a->obj.coverage < b->obj.coverage;
                });
      return Status::OK();
    }();
  }
  run.seconds = timer.ElapsedSeconds();
  run.archive = DigestArchive(archive);
  return run;
}

/// Moves a serial client from core to core, one request at a time. On a
/// shared virtual machine one core can run 40% slower than the others for
/// minutes; a process the scheduler leaves on it would report a slow run.
/// Rotating gives every run the same share of each allowed core. Workloads
/// with worker threads are left to the scheduler, since threads a request
/// spawns inherit the mask of the thread that spawns them.
class CoreRotation {
 public:
  explicit CoreRotation(bool enabled) {
    if (!enabled || sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// Pins the calling thread to the core whose turn request `n` is.
  void Pin(size_t n) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[n % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Sends requests round-robin over the pool until `seconds` have passed and
/// at least `min_count` were sent; returns the loop's wall time.
double RequestLoop(const WorkloadSpec& w,
                   const std::vector<LoadedRequest>& pool, double seconds,
                   size_t min_count, const CoreRotation& cores,
                   std::vector<RequestRun>* runs) {
  Timer loop;
  size_t sent = 0;
  while (sent < min_count || loop.ElapsedSeconds() < seconds) {
    const size_t index = sent % pool.size();
    cores.Pin(sent);
    runs->push_back(SendRequest(w, pool[index], index, nullptr, sent + 1));
    ++sent;
  }
  return loop.ElapsedSeconds();
}

/// Checks every run, computing one reference archive per distinct pool
/// entry; runs on a few threads since this work is not timed.
void CheckRuns(const WorkloadSpec& w, const std::vector<LoadedRequest>& pool,
               std::vector<RequestRun>* runs) {
  std::map<size_t, std::vector<RequestRun*>> by_entry;
  for (RequestRun& run : *runs) {
    if (!run.status.ok()) {
      run.failure = run.status.ToString();
    } else if (run.stats.deadline_exceeded) {
      run.failure = "deadline exceeded";
    } else {
      by_entry[run.pool_index].push_back(&run);
    }
  }
  std::vector<std::vector<RequestRun*>> tasks;
  for (auto& [index, group] : by_entry) tasks.push_back(std::move(group));
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t t = next++; t < tasks.size(); t = next++) {
      const std::vector<RequestRun*>& group = tasks[t];
      const LoadedRequest& req = pool[group.front()->pool_index];
      Result<RequestInputs> in = BuildInputs(w, req, nullptr, 0);
      Result<std::vector<EvaluatedPtr>> reference =
          in.ok() ? ReferenceArchive(MakeConfig(w, req, *in))
                  : Result<std::vector<EvaluatedPtr>>(in.status());
      for (RequestRun* run : group) {
        run->failure =
            reference.ok()
                ? CheckArchive(MakeConfig(w, req, *in), run->archive,
                               *reference)
                : "reference: " + reference.status().ToString();
      }
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::min(kCheckThreads, std::max<size_t>(1, tasks.size()));
  for (size_t i = 0; i < n; ++i) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

/// Median; 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest of n samples. Needs n > 10.
struct Tail {
  double value = 0;
  double percentile = 0;
};
Tail TailLatency(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) return {v.empty() ? 0 : v.back(), 100};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

/// Peak resident set of this process so far (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

/// Metrics in print order, each with its unit and an optional note (the
/// sample count or definition printed beside it).
class MetricSheet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }
  void Print() const {
    for (const Row& r : rows_) {
      std::printf("%-28s %16.6f %-6s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.note.c_str());
    }
  }
  obs::Json ToJson() const {
    obs::Json metrics = obs::Json::Object();
    for (const Row& r : rows_) {
      obs::Json m = obs::Json::Object();
      m.Set("value", obs::Json(r.value));
      m.Set("unit", obs::Json(r.unit));
      metrics.Set(r.name, std::move(m));
    }
    return metrics;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

std::string Samples(size_t n) { return "(n=" + std::to_string(n) + ")"; }

Result<std::vector<Graph>> LoadGraphs(const WorkloadSpec& w,
                                      const std::string& dir) {
  std::vector<Graph> graphs;
  for (size_t i = 0; i < w.graphs; ++i) {
    FAIRSQG_ASSIGN_OR_RETURN(Graph g, ReadGraphFile(dir + "/" + GraphFileName(i)));
    graphs.push_back(std::move(g));
  }
  return graphs;
}

int CmdLoad(const FlagParser& flags, const WorkloadSpec& w) {
  Timer timer;
  Result<std::vector<Graph>> graphs = LoadGraphs(w, flags.GetString("dir"));
  const double seconds = timer.ElapsedSeconds();
  if (!graphs.ok()) return Fail(graphs.status());
  std::printf("load_seconds %.9f\n", seconds);
  return 0;
}

int CmdGen(const FlagParser& flags, const WorkloadSpec& w) {
  const int64_t seed = flags.GetInt64("seed");
  if (seed < 0) return Fail(Status::InvalidArgument("--seed must be >= 0"));
  Status s = GenerateWorkload(w, static_cast<uint64_t>(seed),
                              flags.GetString("dir"));
  if (!s.ok()) return Fail(s);
  std::printf("generated %s seed %lld: %zu requests in %s\n", w.name.c_str(),
              static_cast<long long>(seed), kPoolSize,
              flags.GetString("dir").c_str());
  return 0;
}

int CmdRun(const FlagParser& flags, const WorkloadSpec& w) {
  const std::string& dir = flags.GetString("dir");
  const double seconds = flags.GetDouble("seconds");
  const bool traced = flags.GetInt64("trace") != 0;
  if (seconds <= 0) return Fail(Status::InvalidArgument("--seconds must be > 0"));

  std::printf("# commit %s\n", flags.GetString("commit").c_str());
  std::printf("# build %s, compiler %s, nproc %ld\n", REQBENCH_BUILD_TYPE,
              __VERSION__, sysconf(_SC_NPROCESSORS_ONLN));
  std::printf(
      "# workload %s: %s scale %g, %s, threads %zu, lambda %g, eps %g, "
      "graphs %zu, %s\n",
      w.name.c_str(), w.dataset.c_str(), w.scale, w.algorithm.c_str(),
      w.threads, w.lambda, w.epsilon, w.graphs,
      traced ? "traced" : "untraced");

  SpanRecorder recorder;
  SpanRecorder* spans = traced ? &recorder : nullptr;

  std::vector<double> load_seconds;
  for (std::string_view sample :
       SplitString(flags.GetString("setup-samples"), ',')) {
    const double value = std::atof(std::string(sample).c_str());
    if (value <= 0) {
      return Fail(Status::InvalidArgument(
          "--setup-samples needs positive load seconds from `load`"));
    }
    load_seconds.push_back(value);
  }
  std::vector<Graph> graphs;
  {
    ScopedSpan s(spans, "graph.load", 0);
    Result<std::vector<Graph>> loaded = LoadGraphs(w, dir);
    if (!loaded.ok()) return Fail(loaded.status());
    graphs = std::move(loaded).ValueOrDie();
  }

  Result<std::vector<RequestSpec>> specs = ReadRequests(dir);
  if (!specs.ok()) return Fail(specs.status());
  std::vector<LoadedRequest> pool;
  for (RequestSpec& spec : *specs) {
    if (spec.graph >= graphs.size()) {
      return Fail(Status::InvalidArgument("request names a missing graph"));
    }
    const Graph* graph = &graphs[spec.graph];
    Result<QueryTemplate> tmpl =
        ReadTemplateFile(dir + "/" + spec.template_file, graph->schema_ptr());
    if (!tmpl.ok()) return Fail(tmpl.status());
    pool.push_back({std::move(spec), graph, std::move(tmpl).ValueOrDie()});
  }

  std::vector<RequestRun> runs;
  MetricSheet sheet;
  const double loop_seconds = traced ? seconds / 4 : seconds;
  const size_t min_count = traced ? kMinRequests / 2 : kMinRequests;
  std::optional<CoreRotation> cores(std::in_place, w.threads == 1);
  const double wall =
      RequestLoop(w, pool, loop_seconds, min_count, *cores, &runs);
  const size_t untraced = runs.size();
  std::vector<double> latency;
  for (const RequestRun& run : runs) latency.push_back(run.seconds);
  const double peak_rss = PeakRssMb();

  ReplayCounts replay;
  if (traced) {
    // The traced requests run back to back, like the untraced ones, so
    // their latency differs only by the spans; the replays follow.
    for (size_t i = 0; i < untraced; ++i) {
      const size_t index = runs[i].pool_index;
      cores->Pin(i);
      runs.push_back(SendRequest(w, pool[index], index, spans, untraced + i + 1));
    }
    for (size_t i = 0; i < untraced; ++i) {
      const size_t index = runs[i].pool_index;
      const uint64_t id = untraced + i + 1;
      Result<RequestInputs> in = BuildInputs(w, pool[index], nullptr, id);
      if (!runs[untraced + i].status.ok() || !in.ok()) continue;
      replay.Add(ReplayRequest(MakeConfig(w, pool[index], *in),
                               UsesRefinementHints(w), spans, id));
    }
  }

  cores.reset();  // The check's threads get every allowed core.
  CheckRuns(w, pool, &runs);
  size_t failed = 0;
  for (const RequestRun& run : runs) {
    if (run.failure.empty()) continue;
    if (failed++ < 5) {
      std::fprintf(stderr, "request %zu failed: %s\n", run.pool_index,
                   run.failure.c_str());
    }
  }
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(runs.size());

  if (!traced) {
    const Tail tail = TailLatency(latency);
    char tail_note[64];
    std::snprintf(tail_note, sizeof(tail_note), "p%.1f (n=%zu)",
                  tail.percentile, latency.size());
    sheet.Add("setup_s", Median(load_seconds), "s",
              "median load of " + std::to_string(w.graphs) +
                  " graph(s), one fresh process each " +
                  Samples(load_seconds.size()));
    sheet.Add("requests_per_s", static_cast<double>(untraced) / wall, "1/s",
              Samples(untraced) + " in " + std::to_string(wall) + " s");
    sheet.Add("request_p50_s", Median(latency), "s", Samples(latency.size()));
    sheet.Add("request_tail_s", tail.value, "s", tail_note);
    sheet.Add("peak_rss_mb", peak_rss, "MiB", "VmHWM after the loop");
    sheet.Add("success_share", 1.0 - failed_share, "ratio",
              "1 - failed_share " + Samples(runs.size()));
  } else {
    // Per-layer metrics over the traced requests, per request.
    const size_t n = runs.size() - untraced;
    const double per = 1.0 / static_cast<double>(std::max<size_t>(1, n));
    std::map<std::string, double> self = recorder.SelfSecondsByName();
    std::vector<double> traced_latency;
    double verify_cpu = 0, verify_wall = 0, imbalance = 0;
    double verified = 0, pruned = 0, feasible = 0, hits = 0,
           misses = 0, enqueued = 0, stolen = 0;
    for (size_t i = untraced; i < runs.size(); ++i) {
      const RequestRun& run = runs[i];
      traced_latency.push_back(run.seconds);
      if (!run.status.ok()) continue;
      const GenStats& st = run.stats;
      verify_cpu += st.verify_cpu_seconds;
      verify_wall += st.verify_wall_seconds;
      verified += static_cast<double>(st.verified);
      pruned += static_cast<double>(st.pruned);
      feasible += static_cast<double>(st.feasible);
      hits += static_cast<double>(st.cache_hits);
      misses += static_cast<double>(st.cache_misses);
      enqueued += static_cast<double>(st.enqueued);
      stolen += static_cast<double>(st.stolen);
      const std::vector<double>& pw = st.per_worker_verify_seconds;
      if (!pw.empty()) {
        double sum = 0, top = 0;
        for (double s : pw) {
          sum += s;
          top = std::max(top, s);
        }
        if (sum > 0) imbalance += top / (sum / static_cast<double>(pw.size()));
      }
    }
    const double generate = self["core.generate"];
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::string each = "per request " + Samples(n);
    sheet.Add("graph.load_s", Median(load_seconds), "s",
              "median " + Samples(load_seconds.size()));
    sheet.Add("query.domains_s", self["query.domains"] * per, "s", each);
    sheet.Add("matching.candidates_s", self["matching.candidates"] * per, "s",
              each + ", replay");
    sheet.Add("matching.candidates_calls",
              static_cast<double>(replay.candidates_calls) * per, "count", each);
    sheet.Add("matching.match_s", self["matching.match"] * per, "s",
              each + ", replay");
    sheet.Add("matching.match_calls",
              static_cast<double>(replay.match_calls) * per, "count", each);
    sheet.Add("matching.output_nodes",
              static_cast<double>(replay.output_nodes) * per, "count", each);
    sheet.Add("core.diversity_s", self["core.diversity"] * per, "s",
              each + ", replay");
    sheet.Add("core.diversity_calls",
              static_cast<double>(replay.diversity_calls) * per, "count", each);
    sheet.Add("core.diversity_pairs", replay.diversity_pairs * per, "count",
              each);
    sheet.Add("core.coverage_s", self["core.coverage"] * per, "s",
              each + ", replay");
    sheet.Add("core.refine_hints_s", self["core.refine_hints"] * per, "s",
              each + ", replay");
    sheet.Add("core.refine_hints_calls",
              static_cast<double>(replay.hints_calls) * per, "count", each);
    sheet.Add("core.archive_s", self["core.archive"] * per, "s",
              each + ", replay");
    sheet.Add("core.archive_updates",
              static_cast<double>(replay.archive_updates) * per, "count", each);
    sheet.Add("core.archive_accept_ratio",
              ratio(static_cast<double>(replay.archive_accepts),
                    static_cast<double>(replay.archive_updates)),
              "ratio", "accepted / updates, replay");
    sheet.Add("core.generate_s", generate * per, "s", each);
    sheet.Add("core.verify_cpu_s", verify_cpu * per, "s", each);
    sheet.Add("core.verify_wall_s", verify_wall * per, "s", each);
    sheet.Add("core.search_s", (generate - verify_wall) * per, "s",
              "generate - verify_wall, " + each);
    sheet.Add("core.verified", verified * per, "count", each);
    sheet.Add("core.pruned", pruned * per, "count", each);
    sheet.Add("core.verify_share",
              ratio(verified, static_cast<double>(replay.instances)), "ratio",
              "verified / |I(Q)|");
    sheet.Add("core.feasible_ratio", ratio(feasible, verified), "ratio",
              "feasible / verified");
    sheet.Add("core.cache_hit_ratio", ratio(hits, hits + misses), "ratio",
              "hits / lookups");
    sheet.Add("common.pool_enqueued", enqueued * per, "count", each);
    sheet.Add("common.pool_stolen", stolen * per, "count", each);
    sheet.Add("common.worker_imbalance", imbalance * per, "ratio",
              "max / mean worker verify time, " + each);
    sheet.Add("common.parallel_efficiency",
              w.threads > 1 ? ratio(verify_cpu,
                                    static_cast<double>(w.threads) * generate)
                            : 0.0,
              "ratio", "verify_cpu / (threads * generate); 0 when serial");
    sheet.Add("trace.overhead_share",
              ratio(Median(traced_latency), Median(latency)) - 1.0, "ratio",
              "traced vs untraced request_p50_s " + Samples(n));
    const std::string spans_path = dir + "/spans.json";
    Status s = recorder.WriteJson(spans_path);
    if (!s.ok()) return Fail(s);
    std::printf("# %zu spans written to %s\n", recorder.spans().size(),
                spans_path.c_str());
  }

  double verified_sum = 0;
  for (const RequestRun& run : runs) {
    verified_sum += static_cast<double>(run.stats.verified);
  }
  std::printf(
      "# requests per run %zu, checked %zu, failed %zu, mean verified %.1f\n",
      untraced, runs.size(), failed,
      verified_sum / static_cast<double>(runs.size()));
  sheet.Print();
  // Zero when nothing fails, so it is printed but kept out of the metrics;
  // the result's attempted/failed fields carry it.
  std::printf("%-28s %16.6f %-6s %s\n", "failed_share", failed_share, "ratio",
              Samples(runs.size()).c_str());
  obs::Json out = obs::Json::Object();
  out.Set("correct", obs::Json(failed == 0));
  out.Set("attempted", obs::Json(static_cast<uint64_t>(runs.size())));
  out.Set("failed", obs::Json(static_cast<uint64_t>(failed)));
  out.Set("metrics", sheet.ToJson());
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

int Main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "reqbench: refusing to measure an unoptimized build\n");
  return 3;
#endif
  if (argc < 2) {
    std::fprintf(stderr, "usage: reqbench <gen|run> [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  FlagParser flags;
  flags.DefineString("spec", "", "workloads.json path");
  flags.DefineString("workload", "", "workload name");
  flags.DefineString("dir", "", "workload input directory");
  flags.DefineInt64("seed", 1, "workload seed (gen)");
  flags.DefineDouble("seconds", 10, "request-loop length (run)");
  flags.DefineInt64("trace", 0, "1 = traced per-layer run (run)");
  flags.DefineString("commit", "unknown", "source revision to record (run)");
  flags.DefineString("setup-samples", "",
                     "comma-separated graph load seconds from `load` (run)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) return Fail(s);
  if (flags.GetString("dir").empty()) {
    return Fail(Status::InvalidArgument("--dir is required"));
  }
  Result<WorkloadSpec> w =
      LoadWorkloadSpec(flags.GetString("spec"), flags.GetString("workload"));
  if (!w.ok()) return Fail(w.status());
  if (cmd == "gen") return CmdGen(flags, *w);
  if (cmd == "load") return CmdLoad(flags, *w);
  if (cmd == "run") return CmdRun(flags, *w);
  return Fail(Status::InvalidArgument("unknown command '" + cmd + "'"));
}

}  // namespace
}  // namespace fairsqg::reqbench

int main(int argc, char** argv) { return fairsqg::reqbench::Main(argc, argv); }
