#ifndef FAIRSQG_OBS_TRACE_H_
#define FAIRSQG_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace fairsqg::obs {

/// How much a run records. kPhase captures the coarse phase boundaries
/// (candidate build, enumeration, verification, archive insertion); kFull
/// additionally records per-instance spans inside the verifier and matcher.
/// Maps 1:1 onto the CLI's --trace-detail {off, phase, full}.
enum class TraceDetail : int { kOff = 0, kPhase = 1, kFull = 2 };

const char* TraceDetailName(TraceDetail detail);
bool ParseTraceDetail(std::string_view text, TraceDetail* out);

/// One closed span (or instant event) in the ring buffer. Records are
/// written when a span *closes*, so buffer order is completion order, not
/// start order; sort by start_ns to reconstruct the timeline.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root (no enclosing span on this thread).
  const char* name = "";
  int64_t start_ns = 0;  ///< MonotonicNanos() at open.
  int64_t dur_ns = 0;    ///< Always >= 0; 0 for instants.
  uint32_t thread = 0;   ///< Sequential tracer-assigned thread id.
  int32_t worker = -1;   ///< ThreadPool::CurrentWorkerId(), -1 off-pool.
  bool instant = false;
};

/// \brief Process-wide span recorder.
///
/// A fixed-capacity ring of SpanRecords, allocated on the first Enable():
/// with tracing off the tracer holds no buffer at all. Opening a span costs
/// one relaxed load (the detail gate) plus a clock read; closing claims a
/// slot with one relaxed fetch_add and writes the record. No locks on the
/// hot path.
/// Parent linkage is a thread_local "current span" chain maintained by the
/// RAII TraceSpan, so nesting is attributed per thread with no shared
/// state. When more than `capacity` spans close, the oldest records are
/// overwritten and counted in dropped().
///
/// The tracer is write-only for the algorithms:
/// nothing under src/core or src/matching reads it, which is what the
/// cross-generator differential test locks in (DESIGN.md §13).
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  static Tracer& Global();

  /// Clears the buffer (allocating it on first use) and starts recording
  /// at `detail`. Disable() keeps the buffer for the next Enable().
  void Enable(TraceDetail detail);
  void Disable() { detail_.store(static_cast<int>(TraceDetail::kOff),
                                 std::memory_order_relaxed); }

  TraceDetail detail() const {
    return static_cast<TraceDetail>(detail_.load(std::memory_order_relaxed));
  }
  bool ShouldRecord(TraceDetail level) const {
    return detail_.load(std::memory_order_relaxed) >= static_cast<int>(level);
  }

  /// Records a zero-duration event under the calling thread's current span.
  void Instant(const char* name, TraceDetail level = TraceDetail::kPhase);

  /// Copies every live record, oldest first by buffer order. Callers must
  /// ensure writers have quiesced (a generator's ThreadPool::Run rounds
  /// return only after every worker has, so snapshotting after a run
  /// completes is race-free).
  std::vector<SpanRecord> Snapshot() const;

  /// Records overwritten because the ring wrapped.
  uint64_t dropped() const;

  /// Ring slots allocated: 0 until the first Enable().
  size_t capacity() const { return ring_.size(); }

  /// Total records ever written since the last Enable().
  uint64_t total_recorded() const {
    return write_index_.load(std::memory_order_relaxed);
  }

 private:
  friend class TraceSpan;

  Tracer();

  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void Record(const SpanRecord& rec);

  /// Thread-local parent chain, manipulated only by TraceSpan/Instant.
  static uint64_t CurrentParent();
  static void SetCurrentParent(uint64_t id);
  static uint32_t ThisThreadId();
  static int32_t ThisWorkerId();

  std::atomic<int> detail_{static_cast<int>(TraceDetail::kOff)};
  std::atomic<uint64_t> next_id_{1};  // 0 is the "root" sentinel.
  std::atomic<uint64_t> write_index_{0};
  std::vector<SpanRecord> ring_;
};

/// \brief RAII scope that records one span when it closes.
///
/// `name` must be a string literal (the record stores the pointer). A span
/// constructed while the tracer's detail is below `level` is inert: no id
/// is allocated, no clock is read, and the destructor is a single branch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     TraceDetail level = TraceDetail::kPhase);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = "";
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

}  // namespace fairsqg::obs

// Instrumentation macros. Compiling with FAIRSQG_OBS=OFF (the CMake option,
// which defines FAIRSQG_OBS_DISABLED) expands every site to nothing — the
// hard compile-time gate. With observability compiled in, each site is
// runtime-gated on the tracer detail level: one relaxed atomic load when
// off.
#if defined(FAIRSQG_OBS_DISABLED)

#define FAIRSQG_TRACE_SPAN(name)
#define FAIRSQG_TRACE_SPAN_FULL(name)
#define FAIRSQG_TRACE_INSTANT(name) ((void)0)

#else

#define FAIRSQG_OBS_CONCAT_INNER(a, b) a##b
#define FAIRSQG_OBS_CONCAT(a, b) FAIRSQG_OBS_CONCAT_INNER(a, b)

/// Phase-level span covering the enclosing scope.
#define FAIRSQG_TRACE_SPAN(name)                                          \
  ::fairsqg::obs::TraceSpan FAIRSQG_OBS_CONCAT(fairsqg_obs_span_,         \
                                               __LINE__)(                 \
      name, ::fairsqg::obs::TraceDetail::kPhase)

/// Per-instance span, recorded only at --trace-detail=full.
#define FAIRSQG_TRACE_SPAN_FULL(name)                                     \
  ::fairsqg::obs::TraceSpan FAIRSQG_OBS_CONCAT(fairsqg_obs_span_,         \
                                               __LINE__)(                 \
      name, ::fairsqg::obs::TraceDetail::kFull)

/// Zero-duration event (e.g. a RunContext cancel observed).
#define FAIRSQG_TRACE_INSTANT(name)                                       \
  ::fairsqg::obs::Tracer::Global().Instant(                               \
      name, ::fairsqg::obs::TraceDetail::kPhase)

#endif  // FAIRSQG_OBS_DISABLED

#endif  // FAIRSQG_OBS_TRACE_H_
