// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer's public functions; the
// program itself carries no tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nfpbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  const char* name = "";     // "<layer>.<what>", e.g. "iss.run"
  std::int64_t job = -1;     // job index; -1 = set-up
  unsigned thread = 0;
  Clock::time_point start, end;

  double seconds() const { return seconds_between(start, end); }
};

class Tracer {
 public:
  // One buffer per worker thread; each thread only appends to its own.
  explicit Tracer(unsigned threads) : buffers_(threads) {}

  class Scope {
   public:
    Scope(Tracer& tracer, unsigned thread, const char* name, std::int64_t job,
          std::uint64_t parent = 0)
        : tracer_(tracer) {
      span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      span_.parent = parent;
      span_.name = name;
      span_.job = job;
      span_.thread = thread;
      span_.start = Clock::now();
    }
    ~Scope() {
      span_.end = Clock::now();
      tracer_.buffers_[span_.thread].push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  // Records a span whose interval was measured elsewhere.
  void record(unsigned thread, const char* name, std::int64_t job,
              std::uint64_t parent, Clock::time_point start,
              Clock::time_point end) {
    Span s;
    s.id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    s.parent = parent;
    s.name = name;
    s.job = job;
    s.thread = thread;
    s.start = start;
    s.end = end;
    buffers_[thread].push_back(s);
  }

  // Every recorded span, ordered by start time. Call after the workers
  // have been joined.
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::vector<std::vector<Span>> buffers_;
};

// A span's self time is its duration minus the time its children cover;
// summed per layer (the span name up to the first '.').
std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

// Total duration of the spans with the given name.
double total_seconds(const std::vector<Span>& spans, const std::string& name);

// Writes the spans and the self-time table as one JSON document.
void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<Span>& spans,
                 const std::map<std::string, double>& self_time);

}  // namespace nfpbench
