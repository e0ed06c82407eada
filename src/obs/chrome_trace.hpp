// Chrome trace-event exporter.
//
// Serialises a SpanRecorder into the chrome://tracing / Perfetto JSON
// format ("traceEvents" with complete "X" and instant "i" events) so a
// simulated run can be inspected on a real timeline: one track per node,
// lifecycle phases nested per function attempt, checkpoint/replication/
// recovery windows overlaid. Open chrome://tracing (or ui.perfetto.dev)
// and load the file.
//
// The combined overload also serialises an EventLog: causal events become
// instant markers, and every cross-chain `cause` edge (node failure ->
// container kill, failure -> recovery completion) becomes a flow-event
// pair ("ph":"s" / "ph":"f") that renders as an arrow across tracks.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/event_log.hpp"
#include "obs/span.hpp"
#include "obs/time_series.hpp"

namespace canary::obs {

/// Write the full trace JSON document for `spans` to `os`.
void write_chrome_trace(std::ostream& os, const SpanRecorder& spans);

/// Combined export: span timeline plus causal events with flow arrows for
/// cause edges. Either input may be null.
void write_chrome_trace(std::ostream& os, const SpanRecorder* spans,
                        const EventLog* events);

/// Full export: spans + causal events + windowed rollups rendered as
/// counter tracks ("ph":"C" — one stepped graph per counter/level/p99
/// stream, named "ts.<stream>"). A null or disabled series emits exactly
/// the two-argument document, byte for byte.
void write_chrome_trace(std::ostream& os, const SpanRecorder* spans,
                        const EventLog* events, const TimeSeries* series);

/// Write to `path`; returns false (and leaves no partial file guarantees)
/// when the file cannot be opened.
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder& spans);
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder* spans,
                             const EventLog* events);
bool write_chrome_trace_file(const std::string& path,
                             const SpanRecorder* spans, const EventLog* events,
                             const TimeSeries* series);

}  // namespace canary::obs
