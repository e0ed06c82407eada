#include "obs/tail_analyzer.hpp"

#include <algorithm>

namespace canary::obs {

namespace {

/// Does `candidate` beat `incumbent` as the representative? The deeper
/// tail wins; ties break toward the smaller trace id so repetition merge
/// order cannot change the outcome.
bool representative_beats(const TailAttribution& candidate,
                          const TailAttribution& incumbent) {
  if (!incumbent.has_exemplar) return candidate.has_exemplar;
  if (!candidate.has_exemplar) return false;
  if (candidate.latency_s != incumbent.latency_s) {
    return candidate.latency_s > incumbent.latency_s;
  }
  return candidate.trace < incumbent.trace;
}

}  // namespace

void TailReport::merge(const TailReport& other) {
  enabled = enabled || other.enabled;
  for (const TailGroup& theirs : other.groups) {
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [&](const TailGroup& g) { return g.metric == theirs.metric; });
    if (it == groups.end()) {
      groups.push_back(theirs);
      continue;
    }
    it->exemplars += theirs.exemplars;
    for (const TailAttribution& attribution : theirs.percentiles) {
      auto pit = std::find_if(it->percentiles.begin(), it->percentiles.end(),
                              [&](const TailAttribution& a) {
                                return a.percentile == attribution.percentile;
                              });
      if (pit == it->percentiles.end()) {
        it->percentiles.push_back(attribution);
        continue;
      }
      pit->samples += attribution.samples;
      if (representative_beats(attribution, *pit)) {
        const std::uint64_t samples = pit->samples;
        *pit = attribution;
        pit->samples = samples;
      }
    }
  }
  std::sort(groups.begin(), groups.end(),
            [](const TailGroup& a, const TailGroup& b) {
              return a.metric < b.metric;
            });
}

TailAnalyzer::TailAnalyzer(const MetricRegistry& metrics, const EventLog& log,
                           const CriticalPathAnalyzer& paths)
    : metrics_(&metrics), log_(&log), paths_(&paths) {}

TailReport TailAnalyzer::analyze(const TailConfig& config) const {
  TailReport report;
  if (!config.enabled) return report;
  report.enabled = true;

  for (const auto& [name, hist] : metrics_->histograms()) {
    if (!hist.exemplars_enabled() || hist.empty()) continue;
    TailGroup group;
    group.metric = name;
    group.exemplars = hist.exemplar_count();
    for (const double percentile : config.percentiles) {
      group.percentiles.push_back(attribute(hist, percentile));
    }
    report.groups.push_back(std::move(group));
  }
  resolve_chains(report);
  // std::map iteration is already name-ordered; the sort documents the
  // invariant merge() relies on.
  std::sort(report.groups.begin(), report.groups.end(),
            [](const TailGroup& a, const TailGroup& b) {
              return a.metric < b.metric;
            });
  return report;
}

TailAttribution TailAnalyzer::attribute(const Histogram& hist,
                                        double percentile) const {
  TailAttribution out;
  out.percentile = percentile;
  out.samples = hist.count();
  out.bucket_estimate_s = hist.percentile(percentile);

  // Representative: the smallest retained exemplar at or above the
  // nearest-rank estimate — the invocation sitting closest to the target
  // rank from the tail side. When retention holds nothing above the
  // estimate (possible right after a prune), fall back to the largest
  // retained exemplar overall.
  std::vector<Exemplar> candidates =
      hist.exemplars_above(out.bucket_estimate_s);
  Exemplar representative;
  if (!candidates.empty()) {
    representative = candidates.back();
  } else {
    candidates = hist.exemplars_above(0.0);
    if (candidates.empty()) return out;
    representative = candidates.front();
  }

  out.has_exemplar = true;
  out.latency_s = representative.value;
  out.trace = representative.trace;
  out.function = representative.ref;

  const auto& decompositions = paths_->per_function_decomposition();
  const auto it = decompositions.find(FunctionId{representative.ref});
  if (it != decompositions.end()) {
    out.components = it->second.end_to_end;
    out.attributed_s = out.components.total();
  }
  return out;
}

void TailAnalyzer::resolve_chains(TailReport& report) const {
  // Chain resolution: every event of a representative's trace, with
  // parents resolving inside the log, anchored by a lifecycle root
  // (queued/submit) and terminated by a completion. Percentiles often
  // share a representative, and the log can hold a million events, so
  // all chains are tallied in one pass over it.
  struct Chain {
    std::uint64_t events = 0;
    bool rooted = false;
    bool completed = false;
    bool parents_ok = true;
  };
  std::vector<TraceId> traces;
  for (const TailGroup& group : report.groups) {
    for (const TailAttribution& a : group.percentiles) {
      if (a.has_exemplar) traces.push_back(TraceId{a.trace});
    }
  }
  std::sort(traces.begin(), traces.end());
  traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
  if (traces.empty()) return;
  const auto index_of = [&traces](TraceId trace) {
    const auto it = std::lower_bound(traces.begin(), traces.end(), trace);
    return it != traces.end() && *it == trace
               ? static_cast<std::size_t>(it - traces.begin())
               : traces.size();
  };

  std::vector<Chain> chains(traces.size());
  for (const Event& event : log_->events()) {
    const std::size_t i = index_of(event.trace);
    if (i == traces.size()) continue;
    Chain& chain = chains[i];
    ++chain.events;
    if (event.kind == EventKind::kQueued ||
        event.kind == EventKind::kSubmit) {
      chain.rooted = true;
    }
    if (event.kind == EventKind::kComplete) chain.completed = true;
    if (event.parent != kNoEvent && log_->find(event.parent) == nullptr) {
      chain.parents_ok = false;
    }
  }

  for (TailGroup& group : report.groups) {
    for (TailAttribution& a : group.percentiles) {
      if (!a.has_exemplar) continue;
      const Chain& chain = chains[index_of(TraceId{a.trace})];
      a.chain_events = chain.events;
      a.chain_complete = chain.rooted && chain.completed &&
                         chain.parents_ok && chain.events > 0;
    }
  }
}

}  // namespace canary::obs
