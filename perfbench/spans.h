// Benchmark-side spans for the traced run. A Span wraps one call into a
// PAFS layer's public API; it records its name, start, end, parent (the
// enclosing Span on the same thread) and an operation id shared by every
// span of one client operation. Records stay in memory and are written out
// once the run ends, so tracing adds a clock read and a locked push_back per
// call. A disabled SpanLog makes every Span a no-op.
#ifndef PAFS_PERFBENCH_SPANS_H_
#define PAFS_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pafs::perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span.
  uint64_t op = 0;      // Client operation the span belongs to; 0 = none.
  const char* name = "";
  uint32_t thread = 0;
  double start_us = 0;  // Microseconds since the log was created.
  double end_us = 0;
};

// Per-name aggregate: self time is a span's duration minus the time its
// direct children cover.
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewOp() { return next_op_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  void Add(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(record);
  }

  std::vector<SpanRecord> Records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  std::map<std::string, SpanSummary> Summarize() const {
    std::vector<SpanRecord> records = Records();
    std::unordered_map<uint64_t, double> child_us;
    for (const SpanRecord& r : records) {
      if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
    }
    std::map<std::string, SpanSummary> out;
    for (const SpanRecord& r : records) {
      double dur = r.end_us - r.start_us;
      auto it = child_us.find(r.id);
      double self = dur - (it == child_us.end() ? 0.0 : it->second);
      SpanSummary& s = out[r.name];
      ++s.count;
      s.total_ms += dur / 1e3;
      s.self_ms += (self > 0 ? self : 0.0) / 1e3;
    }
    return out;
  }

  // Writes {"spans": [...]} preceded by `header_fields` (already-rendered
  // JSON members, may be empty). Returns false when the file cannot be
  // written.
  bool WriteJson(const std::string& path,
                 const std::string& header_fields) const {
    std::vector<SpanRecord> records = Records();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s%s\"spans\": [\n", header_fields.c_str(),
                 header_fields.empty() ? "" : ", ");
    for (size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %llu, "
                   "\"name\": \"%s\", \"thread\": %u, \"start_us\": %.3f, "
                   "\"end_us\": %.3f}%s\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.op), r.name, r.thread,
                   r.start_us, r.end_us, i + 1 == records.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

inline uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

class Span {
 public:
  // `name` must outlive the log (string literals in practice). `op` 0
  // inherits the enclosing span's operation id.
  Span(SpanLog& log, const char* name, uint64_t op = 0)
      : log_(log.enabled() ? &log : nullptr), parent_(current_) {
    if (log_ == nullptr) return;
    record_.id = log_->NewId();
    record_.parent = parent_ != nullptr ? parent_->record_.id : 0;
    record_.op = op != 0 ? op : (parent_ != nullptr ? parent_->record_.op : 0);
    record_.name = name;
    record_.thread = ThreadIndex();
    current_ = this;
    record_.start_us = log_->NowUs();
  }

  ~Span() {
    if (log_ == nullptr) return;
    record_.end_us = log_->NowUs();
    current_ = parent_;
    log_->Add(record_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  Span* parent_;
  SpanRecord record_;
  static inline thread_local Span* current_ = nullptr;
};

}  // namespace pafs::perfbench

#endif  // PAFS_PERFBENCH_SPANS_H_
