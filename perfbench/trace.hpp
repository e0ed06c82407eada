// Host-side measurement for the benchmark: clocks, process CPU and
// memory, exact allocation counts, and an in-memory span tracer.
//
// Spans are recorded from outside the simulator, around the public calls
// the harness itself makes into each module (job generation, scenario
// construction, Simulator::run, collect, Aggregate::add, report
// serialisation). A span's self time is its duration minus the part of
// its interval covered by its children, so parallel children (the
// repetitions of one sweep cell) are counted once.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();
/// User plus system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mib();
/// operator new calls made by the calling thread so far (exact: the
/// benchmark interposes the global allocation functions).
std::uint64_t thread_allocations();

struct Span {
  const char* name = "";  // string literal; "layer.call" or "bench.*"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  std::uint32_t run = 0;     // scenario run the span belongs to; 0 = none
  std::uint32_t pass = 0;
  std::uint32_t thread = 0;  // small per-thread index
};

/// Thread-safe span store. Spans stay in memory until write_chrome_trace.
class Tracer {
 public:
  std::uint32_t next_id();
  std::uint32_t next_run();
  void record(const Span& span);
  void set_pass(std::uint32_t pass) { pass_ = pass; }
  std::uint32_t pass() const { return pass_; }

  /// Spans of one pass, in completion order.
  std::vector<Span> spans_of(std::uint32_t pass) const;
  void write_chrome_trace(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint32_t last_id_ = 0;
  std::uint32_t last_run_ = 0;
  std::uint32_t pass_ = 0;
};

/// RAII span; a null tracer makes it a no-op (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent,
             std::uint32_t run = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Per-name totals of one pass: span count, summed duration and self
/// time (seconds, summed across threads).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

}  // namespace perfbench
