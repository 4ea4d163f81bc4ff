#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace fairsqg::reqbench {

int32_t SpanRecorder::Open(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = MonotonicNanos();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::Close(int32_t id) {
  FAIRSQG_CHECK(!open_.empty() && open_.back() == id)
      << "spans must close innermost first";
  spans_[id].end_ns = MonotonicNanos();
  open_.pop_back();
}

std::vector<int64_t> SpanRecorder::SelfNanos() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, reach);
      const int64_t to = std::min(end, s.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  std::map<std::string, double> out;
  std::vector<int64_t> self = SelfNanos();
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

Status SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::vector<int64_t> self = SelfNanos();
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace fairsqg::reqbench
