// Span recorder: structured timing of lifecycle phases on the sim clock.
//
// Every function attempt decomposes into the four phases of the paper's
// Eq. (1) — launch, init, exec, finalize — plus the Canary-specific
// windows layered on top: checkpoint writes, replica provisioning,
// checkpoint restore, and failure-to-recovery intervals. The recorder
// captures each as a Span keyed by simulated time, cheap enough to leave
// on in tests and exportable to chrome://tracing for debugging.
//
// Friendly to hot paths by construction: spans live in one append-only
// vector, handles are plain indices (no shared ownership, no lookup maps),
// closing writes a single timestamp, and each run owns a private recorder
// so the record path takes no locks. A capacity cap bounds memory on
// pathological runs; overflow is counted, never reallocated past the cap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace canary::obs {

/// Health of one capacity-capped recorder stream. A truncated stream means
/// every count derived from it is a lower bound — the report says so
/// explicitly instead of silently under-reporting.
struct RecorderHealth {
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  /// Drops attributed to one event kind (event stream only; empty unless
  /// the cap actually discarded something, so clean runs serialise
  /// exactly as before the per-kind split existed).
  std::map<std::string, std::uint64_t> dropped_by_kind;

  bool truncated() const { return dropped > 0; }
  void merge(const RecorderHealth& other) {
    recorded += other.recorded;
    dropped += other.dropped;
    for (const auto& [kind, count] : other.dropped_by_kind) {
      dropped_by_kind[kind] += count;
    }
  }
};

enum class SpanKind {
  kLaunch,       // cold container creation until the runtime is up
  kInit,         // runtime/library initialisation
  kRestore,      // checkpoint restore / warm dispatch / migration setup
  kExec,         // state-machine execution
  kFinalize,     // result persistence (Eq. (1) "fin")
  kCheckpoint,   // checkpoint write epilogue
  kReplication,  // replica provisioning (launch -> warm)
  kRecovery,     // failure detection until the lost work is regained
  kFailure,      // instant: a container/function kill
  kNodeFailure,  // instant: a node-level failure
  kOther,
};

std::string_view to_string_view(SpanKind kind);

struct SpanLabels {
  JobId job;
  FunctionId function;
  ContainerId container;
  NodeId node;
  int attempt = 0;
};

struct Span {
  SpanKind kind = SpanKind::kOther;
  std::string name;
  TimePoint start;
  TimePoint end;
  bool open = false;     // still awaiting close()
  bool instant = false;  // zero-duration marker event
  SpanLabels labels;

  Duration duration() const { return end - start; }
};

/// Index-based handle into the recorder. Default-constructed (or
/// overflow-issued) handles are inert: close() on them is a no-op.
class SpanHandle {
 public:
  SpanHandle() = default;
  bool valid() const { return index_ != kInvalid; }

 private:
  friend class SpanRecorder;
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
  explicit SpanHandle(std::size_t index) : index_(index) {}
  std::size_t index_ = kInvalid;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 1u << 20)
      : capacity_(capacity) {}

  /// Open a span starting at `start`. Returns an inert handle once the
  /// capacity cap is reached (the drop is counted).
  SpanHandle open(SpanKind kind, std::string name, TimePoint start,
                  SpanLabels labels = {});

  /// Close an open span at `end`. No-op for inert handles and for spans
  /// that were already closed.
  void close(SpanHandle& handle, TimePoint end);

  /// Record a complete [start, end] span retroactively — used for windows
  /// whose start is only known in hindsight (e.g. failure -> recovery).
  void record(SpanKind kind, std::string name, TimePoint start, TimePoint end,
              SpanLabels labels = {});

  /// Record a zero-duration marker event.
  void instant(SpanKind kind, std::string name, TimePoint at,
               SpanLabels labels = {});

  /// Close every still-open span at `end` (simulation teardown).
  void close_all_open(TimePoint end);

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }
  RecorderHealth health() const { return {spans_.size(), dropped_, {}}; }
  std::size_t open_count() const;

  std::size_t count_of(SpanKind kind) const;
  /// Sum of closed-span durations of `kind`.
  Duration total_duration(SpanKind kind) const;

  void clear();

 private:
  bool full() {
    if (spans_.size() < capacity_) return false;
    ++dropped_;
    return true;
  }

  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace canary::obs
