// In-memory span recorder for the traced benchmark run.
//
// The benchmark records spans from its own code around calls into the
// library's public functions; nothing inside src/ is instrumented. Spans
// are kept in memory (name, start, end, parent, request id), self times
// are computed from the finished tree, and the whole set is written out
// once the run ends.

#ifndef FAIRSQG_REQBENCH_SPANS_H_
#define FAIRSQG_REQBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairsqg::reqbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span; -1 at top level.
  uint64_t request = 0;
};

/// Single-threaded recorder; spans nest in open/close order.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int32_t Open(const std::string& name, uint64_t request);
  /// Closes the innermost open span, which must be `id`.
  void Close(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part of it that child spans cover.
  std::vector<int64_t> SelfNanos() const;

  /// Sum of self seconds per span name.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Writes every span with its self time as a JSON array.
  Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder makes it a no-op, so timed runs share the
/// traced code path without recording anything.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace fairsqg::reqbench

#endif  // FAIRSQG_REQBENCH_SPANS_H_
