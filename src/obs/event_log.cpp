#include "obs/event_log.hpp"

#include <fstream>
#include <ostream>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace canary::obs {

std::string_view to_string_view(EventKind kind) {
  switch (kind) {
    case EventKind::kSubmit: return "submit";
    case EventKind::kLaunch: return "launch";
    case EventKind::kInit: return "init";
    case EventKind::kRestore: return "restore";
    case EventKind::kExec: return "exec";
    case EventKind::kStateCommit: return "state_commit";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kFinalize: return "finalize";
    case EventKind::kComplete: return "complete";
    case EventKind::kFailure: return "failure";
    case EventKind::kNodeFailure: return "node_failure";
    case EventKind::kDetect: return "detect";
    case EventKind::kRecoveryAction: return "recovery_action";
    case EventKind::kRecovered: return "recovered";
    case EventKind::kReplica: return "replica";
    case EventKind::kSlaViolation: return "sla_violation";
    case EventKind::kAnnotation: return "annotation";
    case EventKind::kQueued: return "queued";
    case EventKind::kShed: return "shed";
    case EventKind::kHedged: return "hedged";
    case EventKind::kHedgeCancelled: return "hedge_cancelled";
  }
  return "unknown";
}

EventId EventLog::append_raw(TraceId trace, EventId parent, EventKind kind,
                             std::string name, TimePoint at, SpanLabels labels,
                             EventId cause) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    const auto slot = static_cast<std::size_t>(kind);
    ++dropped_by_kind_[slot];
    if (!drop_warned_[slot]) {
      drop_warned_[slot] = true;
      CANARY_LOG_WARN("event log at capacity (" << capacity_ << "): dropping '"
                                                << to_string_view(kind)
                                                << "' events");
    }
    return kNoEvent;
  }
  const EventId id = events_.size();
  Event event;
  event.id = id;
  event.trace = trace;
  event.parent = parent;
  event.cause = cause;
  event.kind = kind;
  event.name = std::move(name);
  event.at = at;
  event.labels = labels;
  events_.push_back(std::move(event));
  maybe_flight_dump(kind);
  return id;
}

EventId EventLog::extend(TraceContext& ctx, EventKind kind, std::string name,
                         TimePoint at, SpanLabels labels, EventId cause) {
  const EventId id =
      append_raw(ctx.trace, ctx.last, kind, std::move(name), at, labels, cause);
  if (id != kNoEvent) ctx.last = id;
  return id;
}

EventId EventLog::append(const TraceContext& ctx, EventKind kind,
                         std::string name, TimePoint at, SpanLabels labels,
                         EventId cause) {
  return append_raw(ctx.trace, ctx.last, kind, std::move(name), at, labels,
                    cause);
}

void EventLog::rebind(EventId event, TraceId trace, EventId parent) {
  if (event >= events_.size()) return;
  events_[event].trace = trace;
  events_[event].parent = parent;
}

std::size_t EventLog::count_of(EventKind kind) const {
  std::size_t count = 0;
  for (const Event& event : events_) {
    if (event.kind == kind) ++count;
  }
  return count;
}

RecorderHealth EventLog::health() const {
  RecorderHealth health{events_.size(), dropped_, {}};
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (dropped_by_kind_[k] > 0) {
      health.dropped_by_kind[std::string(
          to_string_view(static_cast<EventKind>(k)))] = dropped_by_kind_[k];
    }
  }
  return health;
}

void EventLog::set_flight_recorder(std::string path_prefix,
                                   std::size_t max_dumps, std::size_t tail) {
  flight_prefix_ = std::move(path_prefix);
  flight_max_dumps_ = max_dumps;
  flight_tail_ = tail;
  flight_dumps_ = 0;
}

void EventLog::maybe_flight_dump(EventKind kind) {
  if (flight_prefix_.empty() || flight_dumps_ >= flight_max_dumps_) return;
  if (kind != EventKind::kNodeFailure && kind != EventKind::kSlaViolation) {
    return;
  }
  const std::string path =
      flight_prefix_ + "." + std::to_string(flight_dumps_) + ".json";
  std::ofstream out(path);
  if (!out) return;
  const std::size_t begin =
      events_.size() > flight_tail_ ? events_.size() - flight_tail_ : 0;
  write_json(out, begin);
  if (out.good()) ++flight_dumps_;
}

void EventLog::write_json(std::ostream& os, std::size_t begin) const {
  JsonWriter json(os, /*indent=*/0);
  json.begin_array();
  for (std::size_t i = begin; i < events_.size(); ++i) {
    const Event& event = events_[i];
    json.begin_object();
    json.field("id", event.id);
    if (event.trace.valid()) json.field("trace", event.trace.value());
    if (event.parent != kNoEvent) json.field("parent", event.parent);
    if (event.cause != kNoEvent) json.field("cause", event.cause);
    json.field("kind", to_string_view(event.kind));
    json.field("name", event.name);
    json.field("t_us", event.at.count_usec());
    if (event.labels.job.valid()) {
      json.field("job", event.labels.job.value());
    }
    if (event.labels.function.valid()) {
      json.field("function", event.labels.function.value());
    }
    if (event.labels.container.valid()) {
      json.field("container", event.labels.container.value());
    }
    if (event.labels.node.valid()) {
      json.field("node", event.labels.node.value());
    }
    if (event.labels.attempt > 0) json.field("attempt", event.labels.attempt);
    json.end_object();
  }
  json.end_array();
  os << '\n';
}

void EventLog::clear() {
  events_.clear();
  dropped_ = 0;
  dropped_by_kind_.fill(0);
  drop_warned_.fill(false);
  next_trace_ = 1;
  flight_dumps_ = 0;
}

}  // namespace canary::obs
