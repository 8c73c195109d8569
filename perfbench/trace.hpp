// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call from the benchmark into a layer's public function:
// name, start, end, the span that was open on the same thread when it
// began (its parent) and the request it belongs to. Spans are kept in
// memory and written out once, at the end of the run; perfbench/metrics.py
// derives durations and self times from them. A disabled tracer records
// nothing and costs one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Append finished spans; called by Span's destructor.
  void record(const SpanRecord& rec) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(rec);
  }

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++last_id_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// One JSON object per line: id, parent, request, name, start/end (ns).
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const SpanRecord& s : spans_)
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;  // guards spans_ and last_id_
  std::vector<SpanRecord> spans_;
  std::uint64_t last_id_ = 0;
};

/// RAII span. The parent is the innermost span open on this thread; the
/// request id is inherited from it unless given explicitly.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    rec_.id = tracer_.next_id();
    rec_.name = name;
    rec_.parent = open_ != nullptr ? open_->rec_.id : 0;
    rec_.request =
        request != 0 ? request : (open_ != nullptr ? open_->rec_.request : 0);
    outer_ = open_;
    open_ = this;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (!tracer_.enabled()) return;
    rec_.end_ns = now_ns();
    open_ = outer_;
    tracer_.record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  Span* outer_ = nullptr;
  static inline thread_local Span* open_ = nullptr;
};

}  // namespace perfbench
