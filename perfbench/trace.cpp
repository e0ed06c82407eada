#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <utility>

// ---------------------------------------------------------------------
// Global operator new/delete interposition: exact per-thread counts.
// ---------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_next_thread{0};

std::uint32_t thread_index() {
  thread_local const std::uint32_t index =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t thread_allocations() { return t_allocations; }

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

std::uint32_t Tracer::next_run() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_run_;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans_of(std::uint32_t pass) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.pass == pass) out.push_back(s);
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t origin =
      spans_.empty() ? 0
                     : std::min_element(spans_.begin(), spans_.end(),
                                        [](const Span& a, const Span& b) {
                                          return a.start_ns < b.start_ns;
                                        })->start_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"run\":" << s.run << ",\"pass\":" << s.pass << "}}";
  }
  os << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent,
                       std::uint32_t run)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.run = run;
  span_.pass = tracer_->pass();
  span_.thread = thread_index();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->record(span_);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  // Children's intervals per parent, for the self-time union.
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_start = 0;
      std::int64_t cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
          continue;
        }
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
      if (open) covered += cur_end - cur_start;
    }
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.total_s += seconds(s.end_ns - s.start_ns);
    t.self_s += seconds(s.end_ns - s.start_ns - covered);
  }
  return totals;
}

}  // namespace perfbench
