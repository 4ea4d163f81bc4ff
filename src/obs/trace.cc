#include "obs/trace.h"

#include "common/thread_pool.h"
#include "common/timer.h"

namespace fairsqg::obs {

namespace {

thread_local uint64_t tls_current_parent = 0;

}  // namespace

const char* TraceDetailName(TraceDetail detail) {
  switch (detail) {
    case TraceDetail::kOff:
      return "off";
    case TraceDetail::kPhase:
      return "phase";
    case TraceDetail::kFull:
      return "full";
  }
  return "off";
}

bool ParseTraceDetail(std::string_view text, TraceDetail* out) {
  if (text == "off") {
    *out = TraceDetail::kOff;
  } else if (text == "phase") {
    *out = TraceDetail::kPhase;
  } else if (text == "full") {
    *out = TraceDetail::kFull;
  } else {
    return false;
  }
  return true;
}

Tracer::Tracer() = default;

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // Never freed.
  return *tracer;
}

void Tracer::Enable(TraceDetail detail) {
  // Callers enable between runs, when no spans are in flight; the clear is
  // not synchronized against concurrent writers. The ring is allocated by
  // the first Enable() and kept for the process, so a process that never
  // traces never pays for it.
  if (ring_.empty()) ring_.resize(kDefaultCapacity);
  write_index_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
  detail_.store(static_cast<int>(detail), std::memory_order_relaxed);
}

void Tracer::Record(const SpanRecord& rec) {
  uint64_t idx = write_index_.fetch_add(1, std::memory_order_relaxed);
  ring_[idx % ring_.size()] = rec;
}

uint64_t Tracer::CurrentParent() { return tls_current_parent; }
void Tracer::SetCurrentParent(uint64_t id) { tls_current_parent = id; }

uint32_t Tracer::ThisThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int32_t Tracer::ThisWorkerId() {
  size_t w = ThreadPool::CurrentWorkerId();
  return w == ThreadPool::kNotAWorker ? -1 : static_cast<int32_t>(w);
}

void Tracer::Instant(const char* name, TraceDetail level) {
  if (!ShouldRecord(level)) return;
  SpanRecord rec;
  rec.id = NextId();
  rec.parent = CurrentParent();
  rec.name = name;
  rec.start_ns = MonotonicNanos();
  rec.dur_ns = 0;
  rec.thread = ThisThreadId();
  rec.worker = ThisWorkerId();
  rec.instant = true;
  Record(rec);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  uint64_t total = write_index_.load(std::memory_order_relaxed);
  std::vector<SpanRecord> out;
  if (total == 0) return out;
  size_t cap = ring_.size();
  if (total <= cap) {
    out.assign(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(total));
  } else {
    out.reserve(cap);
    for (uint64_t i = total - cap; i < total; ++i) {
      out.push_back(ring_[i % cap]);
    }
  }
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t total = write_index_.load(std::memory_order_relaxed);
  return total > ring_.size() ? total - ring_.size() : 0;
}

TraceSpan::TraceSpan(const char* name, TraceDetail level) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.ShouldRecord(level)) return;
  active_ = true;
  name_ = name;
  id_ = tracer.NextId();
  saved_parent_ = Tracer::CurrentParent();
  Tracer::SetCurrentParent(id_);
  start_ns_ = MonotonicNanos();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  int64_t end_ns = MonotonicNanos();
  Tracer::SetCurrentParent(saved_parent_);
  SpanRecord rec;
  rec.id = id_;
  rec.parent = saved_parent_;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.dur_ns = end_ns - start_ns_;
  rec.thread = Tracer::ThisThreadId();
  rec.worker = Tracer::ThisWorkerId();
  Tracer::Global().Record(rec);
}

}  // namespace fairsqg::obs
