// Causal event log: the per-invocation trace DAG behind the span timeline.
//
// Spans (span.hpp) answer "how long did this phase take"; the event log
// answers "why did it happen". Every invocation carries a TraceContext —
// a trace id plus the id of its most recent event — and each lifecycle
// step (submit, launch, init, restore, exec, state commit, finalize,
// complete), every failure, every detection, and every recovery action
// appends an Event whose `parent` points at the previous event of the
// same causal chain. Cross-chain causality (a node failure killing many
// containers, a failure whose lost work is later regained) is expressed
// through the secondary `cause` edge, which the chrome-trace exporter
// renders as flow arrows.
//
// Like SpanRecorder, the log is one append-only vector with a capacity
// cap: overflow is counted (truncated()), never reallocated past the cap,
// and each run owns a private log so the record path takes no locks. The
// vector reserves its cap on the first append, so appending never copies
// the log, and pages no event reached are never touched. Events are plain
// data: a name is a number (a state index, or an index into the log's
// table of interned names), rendered to text only by name_of() at export.
//
// Flight recorder: when configured with an output prefix, the log dumps
// its most recent events to disk whenever a node failure or an SLA breach
// is appended — a bounded number of post-mortem snapshots for runs too
// big to keep full traces of.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "obs/span.hpp"

namespace canary::obs {

struct TraceTag {};
/// One causal chain: an invocation and everything done on its behalf.
/// TraceId::invalid() marks ambient events (platform/injector scope).
using TraceId = Id<TraceTag>;

/// Index of an event within its EventLog. kNoEvent marks "no parent" /
/// "no cause" / "dropped by the capacity cap".
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = ~EventId{0};

/// Propagated alongside an invocation: which trace it belongs to and the
/// last event appended on its behalf (the parent of the next one).
struct TraceContext {
  TraceId trace;
  EventId last = kNoEvent;

  bool valid() const { return trace.valid(); }
};

enum class EventKind : std::uint32_t {
  kSubmit,          // invocation created at job submission
  kLaunch,          // cold container launch begins
  kInit,            // runtime initialisation begins
  kRestore,         // checkpoint restore / warm dispatch begins
  kExec,            // state-machine execution begins
  kStateCommit,     // one state finished (work_done advanced)
  kCheckpoint,      // checkpoint persisted for the committed state
  kFinalize,        // fin_f begins
  kComplete,        // invocation done
  kFailure,         // container/function kill
  kNodeFailure,     // node-level failure (ambient root of its victims)
  kDetect,          // the platform noticed the failure
  kRecoveryAction,  // a recovery strategy chose its path
  kRecovered,       // lost work regained (cause = the kFailure event)
  kReplica,         // replica/standby provisioning milestones
  kSlaViolation,    // deadline passed without completion
  kAnnotation,      // freeform marker (log mirror, injector notes)
  kQueued,          // open-loop arrival entered admission control
  kShed,            // admission control rejected the request (terminal)
  kHedged,          // a speculative clone was dispatched for this chain
  kHedgeCancelled,  // this copy lost the hedge race (cause = winner)
};

/// Number of EventKind values; sized per-kind arrays (drop counters).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kHedgeCancelled) + 1;

std::string_view to_string_view(EventKind kind);

/// Kinds whose name is the committed state's index, rendered as
/// "state_<i>" (kStateCommit) or "checkpoint_<i>" (kCheckpoint).
constexpr bool is_state_kind(EventKind kind) {
  return kind == EventKind::kStateCommit || kind == EventKind::kCheckpoint;
}

struct Event {
  EventId id = kNoEvent;
  TraceId trace;
  EventId parent = kNoEvent;  // previous event of the same chain
  EventId cause = kNoEvent;   // cross-chain causal edge (flow arrow)
  EventKind kind = EventKind::kAnnotation;
  /// The state index for state kinds, else an index into the owning
  /// log's interned names. Render with EventLog::name_of.
  std::uint32_t name = 0;
  TimePoint at;
  SpanLabels labels;
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 1u << 20)
      : capacity_(capacity) {}
  // The intern index holds views into the name table: a copy would point
  // into the original's strings. A move keeps them where they are.
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  EventLog(EventLog&&) = default;
  EventLog& operator=(EventLog&&) = default;

  TraceId new_trace() { return TraceId{next_trace_++}; }

  /// Append an event chained onto `ctx` (parent = ctx.last) and advance
  /// the context. Returns kNoEvent once the capacity cap is reached (the
  /// drop is counted, the name is not interned and the context is left
  /// unchanged). `kind` must not be a state kind.
  EventId extend(TraceContext& ctx, EventKind kind, std::string_view name,
                 TimePoint at, SpanLabels labels = {},
                 EventId cause = kNoEvent);

  /// Append a leaf event hanging off `ctx` without advancing it — side
  /// branches such as checkpoint writes recorded by the Canary modules.
  EventId append(const TraceContext& ctx, EventKind kind,
                 std::string_view name, TimePoint at, SpanLabels labels = {},
                 EventId cause = kNoEvent);

  /// Append an event with explicit edges (ambient events pass
  /// TraceId::invalid() and kNoEvent).
  EventId append_raw(TraceId trace, EventId parent, EventKind kind,
                     std::string_view name, TimePoint at,
                     SpanLabels labels = {}, EventId cause = kNoEvent);

  /// extend()/append() for a state kind: the event is named by the index
  /// of the state it commits or checkpoints.
  EventId extend_state(TraceContext& ctx, EventKind kind, std::size_t state,
                       TimePoint at, SpanLabels labels = {});
  EventId append_state(const TraceContext& ctx, EventKind kind,
                       std::size_t state, TimePoint at,
                       SpanLabels labels = {});

  /// The event's name as text: "state_<i>" / "checkpoint_<i>" for the
  /// state kinds, otherwise the interned name it was appended with.
  std::string name_of(const Event& event) const;

  /// Re-home an existing event onto another trace under a new parent.
  /// Request replication merges each shadow's submit event into the
  /// primary's trace so the whole race shares one DAG.
  void rebind(EventId event, TraceId trace, EventId parent);

  const std::vector<Event>& events() const { return events_; }
  const Event* find(EventId id) const {
    return id < events_.size() ? &events_[id] : nullptr;
  }
  std::size_t size() const { return events_.size(); }
  /// Distinct names in the intern table (state kinds add none).
  std::size_t interned_names() const { return names_.size(); }
  std::size_t dropped() const { return dropped_; }
  /// Drops attributed to one EventKind: which part of the causal record
  /// is incomplete, not just that something is. A chain missing kDetect
  /// drops reads very differently from one missing kAnnotation drops.
  std::size_t dropped_of(EventKind kind) const {
    return dropped_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// True when the capacity cap discarded at least one event — consumers
  /// must treat counts derived from the log as lower bounds.
  bool truncated() const { return dropped_ > 0; }
  /// Recorded/dropped totals plus the per-kind split, which lists only
  /// kinds with drops (empty when nothing was dropped).
  RecorderHealth health() const;

  std::size_t count_of(EventKind kind) const;

  /// Enable post-mortem dumps: on every kNodeFailure / kSlaViolation
  /// append, write the most recent `tail` events to
  /// "<prefix>.<n>.json" (n = 0..max_dumps-1, then stop).
  void set_flight_recorder(std::string path_prefix, std::size_t max_dumps = 4,
                           std::size_t tail = 256);
  std::size_t flight_dumps_written() const { return flight_dumps_; }

  /// Serialise events [begin, size) as a deterministic JSON array of
  /// objects (the flight-recorder format; also handy in tests).
  void write_json(std::ostream& os, std::size_t begin = 0) const;

  void clear();

 private:
  EventId push(TraceId trace, EventId parent, EventKind kind,
               std::uint32_t name, TimePoint at, const SpanLabels& labels,
               EventId cause);
  /// Count a drop when the log is full; true if the event must be dropped.
  bool at_capacity(EventKind kind);
  std::uint32_t intern(std::string_view name);
  void maybe_flight_dump(EventKind kind);

  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::array<std::size_t, kEventKindCount> dropped_by_kind_{};
  std::array<bool, kEventKindCount> drop_warned_{};
  std::uint64_t next_trace_ = 1;
  std::vector<Event> events_;
  /// Interned names: a deque keeps each string (and the views keyed on
  /// it) at a stable address as the table grows.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, std::uint32_t> name_ids_;

  std::string flight_prefix_;
  std::size_t flight_max_dumps_ = 0;
  std::size_t flight_tail_ = 256;
  std::size_t flight_dumps_ = 0;
};

}  // namespace canary::obs
