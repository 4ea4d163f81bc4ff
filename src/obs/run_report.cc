#include "obs/run_report.h"

#include <algorithm>
#include <cstdio>

#include "core/stats.h"

namespace fairsqg::obs {

namespace {

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

Json SpanJson(const SpanRecord& s) {
  Json j = Json::Object();
  j.Set("id", Json(s.id));
  j.Set("parent", Json(s.parent));
  j.Set("name", Json(s.name));
  j.Set("start_ns", Json(s.start_ns));
  j.Set("dur_ns", Json(s.dur_ns));
  j.Set("thread", Json(static_cast<uint64_t>(s.thread)));
  j.Set("worker", Json(static_cast<int64_t>(s.worker)));
  if (s.instant) j.Set("instant", Json(true));
  return j;
}

}  // namespace

RunReport::RunReport() {
  root_ = Json::Object();
  root_.Set("kind", Json(kKind));
  root_.Set("schema_version", Json(static_cast<int64_t>(kSchemaVersion)));
}

void RunReport::SetAlgorithm(const std::string& name) {
  root_.Set("algorithm", Json(name));
}

void RunReport::SetGenStats(const GenStats& stats) {
  root_.Set("stats", StatsJson(stats));
}

void RunReport::SetFingerprint(uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  root_.Set("fingerprint", Json(std::string(hex)));
}

void RunReport::SetField(const std::string& key, Json value) {
  root_.Set(key, std::move(value));
}

void RunReport::AttachTrace(const std::vector<SpanRecord>& spans,
                            TraceDetail detail, uint64_t dropped) {
  Json trace = Json::Object();
  trace.Set("detail", Json(TraceDetailName(detail)));
  trace.Set("dropped", Json(dropped));
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  for (const SpanRecord& s : spans) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->start_ns < b->start_ns;
                   });
  Json arr = Json::Array();
  for (const SpanRecord* s : ordered) arr.Push(SpanJson(*s));
  trace.Set("spans", std::move(arr));
  root_.Set("trace", std::move(trace));
}

Status RunReport::WriteFile(const std::string& path) const {
  return WriteTextFile(path, Dump() + "\n");
}

Json RunReport::StatsJson(const GenStats& s) {
  Json j = Json::Object();
  j.Set("generated", Json(static_cast<uint64_t>(s.generated)));
  j.Set("verified", Json(static_cast<uint64_t>(s.verified)));
  j.Set("pruned", Json(static_cast<uint64_t>(s.pruned)));
  j.Set("feasible", Json(static_cast<uint64_t>(s.feasible)));
  j.Set("pruned_sandwich", Json(static_cast<uint64_t>(s.pruned_sandwich)));
  j.Set("pruned_subtree", Json(static_cast<uint64_t>(s.pruned_subtree)));
  j.Set("enqueued", Json(static_cast<uint64_t>(s.enqueued)));
  j.Set("stolen", Json(static_cast<uint64_t>(s.stolen)));
  j.Set("cache_hits", Json(static_cast<uint64_t>(s.cache_hits)));
  j.Set("cache_misses", Json(static_cast<uint64_t>(s.cache_misses)));
  j.Set("deadline_exceeded", Json(s.deadline_exceeded));
  j.Set("aborted_matches", Json(static_cast<uint64_t>(s.aborted_matches)));
  j.Set("timed_out_instances",
        Json(static_cast<uint64_t>(s.timed_out_instances)));
  j.Set("total_seconds", Json(s.total_seconds));
  j.Set("verify_cpu_seconds", Json(s.verify_cpu_seconds));
  j.Set("verify_wall_seconds", Json(s.verify_wall_seconds));
  Json per_worker = Json::Array();
  for (double w : s.per_worker_verify_seconds) per_worker.Push(Json(w));
  j.Set("per_worker_verify_seconds", std::move(per_worker));
  return j;
}

Json ChromeTraceJson(const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans.size());
  for (const SpanRecord& s : spans) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->start_ns < b->start_ns;
                   });
  Json events = Json::Array();
  for (const SpanRecord* s : ordered) {
    Json e = Json::Object();
    e.Set("name", Json(s->name));
    e.Set("ph", Json(s->instant ? "i" : "X"));
    e.Set("ts", Json(static_cast<double>(s->start_ns) / 1e3));
    if (!s->instant) {
      e.Set("dur", Json(static_cast<double>(s->dur_ns) / 1e3));
    } else {
      e.Set("s", Json("t"));  // Instant scope: thread.
    }
    e.Set("pid", Json(static_cast<int64_t>(1)));
    e.Set("tid", Json(static_cast<uint64_t>(s->thread)));
    Json trace_args = Json::Object();
    trace_args.Set("id", Json(s->id));
    trace_args.Set("parent", Json(s->parent));
    trace_args.Set("worker", Json(static_cast<int64_t>(s->worker)));
    e.Set("args", std::move(trace_args));
    events.Push(std::move(e));
  }
  Json root = Json::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", Json("ms"));
  return root;
}

Status WriteChromeTrace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  return WriteTextFile(path, ChromeTraceJson(spans).Dump(0) + "\n");
}

}  // namespace fairsqg::obs
