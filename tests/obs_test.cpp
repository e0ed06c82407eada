// Tests for the observability layer: span recorder semantics, histogram
// percentile math, deterministic JSON exporters, and byte-identical
// run reports across identical seeded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metric_registry.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "recovery/strategies.hpp"
#include "workloads/workloads.hpp"

namespace canary {
namespace {

using obs::Histogram;
using obs::JsonWriter;
using obs::MetricRegistry;
using obs::RunReport;
using obs::SpanKind;
using obs::SpanLabels;
using obs::SpanRecorder;

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

TEST(SpanRecorderTest, OpenCloseRecordsDuration) {
  SpanRecorder rec;
  auto h = rec.open(SpanKind::kExec, "exec", TimePoint::from_usec(100));
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(rec.open_count(), 1u);
  rec.close(h, TimePoint::from_usec(350));
  ASSERT_EQ(rec.size(), 1u);
  const auto& span = rec.spans()[0];
  EXPECT_EQ(span.kind, SpanKind::kExec);
  EXPECT_FALSE(span.open);
  EXPECT_EQ(span.duration(), Duration::usec(250));
  EXPECT_EQ(rec.open_count(), 0u);
}

TEST(SpanRecorderTest, NestedSpansCloseIndependently) {
  // launch ⊃ init ⊃ exec: closing out of order must not corrupt siblings.
  SpanRecorder rec;
  auto launch = rec.open(SpanKind::kLaunch, "launch", TimePoint::from_usec(0));
  auto init = rec.open(SpanKind::kInit, "init", TimePoint::from_usec(10));
  auto exec = rec.open(SpanKind::kExec, "exec", TimePoint::from_usec(40));
  EXPECT_EQ(rec.open_count(), 3u);
  rec.close(init, TimePoint::from_usec(40));
  rec.close(exec, TimePoint::from_usec(90));
  rec.close(launch, TimePoint::from_usec(95));
  EXPECT_EQ(rec.open_count(), 0u);
  EXPECT_EQ(rec.total_duration(SpanKind::kInit), Duration::usec(30));
  EXPECT_EQ(rec.total_duration(SpanKind::kExec), Duration::usec(50));
  EXPECT_EQ(rec.total_duration(SpanKind::kLaunch), Duration::usec(95));
  // Nesting invariant: every child interval lies inside its parent.
  const auto& spans = rec.spans();
  EXPECT_GE(spans[1].start, spans[0].start);
  EXPECT_LE(spans[2].end, spans[0].end);
}

TEST(SpanRecorderTest, DoubleCloseAndInertHandlesAreNoOps) {
  SpanRecorder rec;
  auto h = rec.open(SpanKind::kExec, "exec", TimePoint::from_usec(0));
  rec.close(h, TimePoint::from_usec(10));
  rec.close(h, TimePoint::from_usec(999));  // second close must not move `end`
  EXPECT_EQ(rec.spans()[0].end, TimePoint::from_usec(10));

  obs::SpanHandle inert;
  EXPECT_FALSE(inert.valid());
  rec.close(inert, TimePoint::from_usec(50));  // must not crash or record
  EXPECT_EQ(rec.size(), 1u);
}

TEST(SpanRecorderTest, CapacityCapCountsDrops) {
  SpanRecorder rec(2);
  (void)rec.open(SpanKind::kExec, "a", TimePoint::from_usec(0));
  rec.instant(SpanKind::kFailure, "b", TimePoint::from_usec(1));
  auto overflow = rec.open(SpanKind::kExec, "c", TimePoint::from_usec(2));
  rec.record(SpanKind::kRecovery, "d", TimePoint::from_usec(3), TimePoint::from_usec(4));
  EXPECT_FALSE(overflow.valid());
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 2u);
}

TEST(SpanRecorderTest, CloseAllOpenAndRetroactiveRecord) {
  SpanRecorder rec;
  (void)rec.open(SpanKind::kExec, "left-open", TimePoint::from_usec(5));
  rec.record(SpanKind::kRecovery, "window", TimePoint::from_usec(10),
             TimePoint::from_usec(70), SpanLabels{JobId{1}, FunctionId{2},
                                             ContainerId{3}, NodeId{4}, 2});
  rec.close_all_open(TimePoint::from_usec(100));
  EXPECT_EQ(rec.open_count(), 0u);
  EXPECT_EQ(rec.spans()[0].end, TimePoint::from_usec(100));
  const auto& window = rec.spans()[1];
  EXPECT_EQ(window.duration(), Duration::usec(60));
  EXPECT_EQ(window.labels.attempt, 2);
  EXPECT_EQ(rec.count_of(SpanKind::kRecovery), 1u);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, ExactStatsAndEdgePercentiles) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 5.0);
}

TEST(HistogramTest, PercentileWithinRelativeErrorBound) {
  // Log-linear bucketing with 64 sub-buckets per octave bounds the
  // relative quantile error at ~1/64; check against the exact empirical
  // percentiles of a deterministic sample set.
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> dist(0.001, 90.0);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {50.0, 95.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::min<double>(values.size() - 1, p / 100.0 * values.size()));
    const double exact = values[rank];
    EXPECT_NEAR(h.percentile(p), exact, exact * 0.02)
        << "p" << p << " outside the bucketing error bound";
  }
}

TEST(HistogramTest, MergeMatchesConcatenatedStream) {
  Histogram a, b, both;
  for (int i = 1; i <= 100; ++i) {
    const double v = 0.37 * i;
    (i % 2 == 0 ? a : b).record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_DOUBLE_EQ(a.sum(), both.sum());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), both.percentile(p));
  }
}

TEST(HistogramTest, NegativeValuesClampButCount) {
  Histogram h;
  h.record(-2.5);
  h.record(1.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -2.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), -2.5);
}

TEST(HistogramTest, PercentileEdgeTable) {
  // Pin the nearest-rank contract (rank = ceil(p/100 * n), 1-based) on a
  // table of edge cases. Values are well separated so each lands in its
  // own bucket; the 2% bound is the log-linear bucketing error, not
  // slack in the rank math — a rank off by one selects a neighbouring
  // value, 2x away, and fails loudly.
  struct Case {
    std::size_t n;       // record 1.0, 2.0, ..., n
    double p;
    double expected;     // value at the nearest rank
  };
  const Case kCases[] = {
      {1, 50.0, 1.0},      // a single sample is every percentile
      {1, 99.9, 1.0},
      {2, 50.0, 1.0},      // ceil(1.0) == 1: the lower sample
      {2, 50.1, 2.0},      // just past the boundary: the upper one
      {4, 25.0, 1.0},      // exact boundary ranks must not round up...
      {4, 50.0, 2.0},
      {4, 75.0, 3.0},
      {4, 76.0, 4.0},      // ...but anything past them must
      {10, 10.0, 1.0},
      {10, 90.0, 9.0},
      {10, 91.0, 10.0},
      // FP-rank guard: 0.975 * 40 is 39.000000000000007 in binary;
      // without the guard ceil() inflates the rank to 40 and p97.5
      // reports the max instead of the 39th sample.
      {40, 97.5, 39.0},
      {40, 2.5, 1.0},
      {1000, 99.9, 999.0},
  };
  for (const Case& c : kCases) {
    Histogram h;
    for (std::size_t i = 1; i <= c.n; ++i) h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(c.p), c.expected, c.expected * 0.02)
        << "n=" << c.n << " p=" << c.p;
    // quantile() is the same query on a [0, 1] axis.
    EXPECT_DOUBLE_EQ(h.quantile(c.p / 100.0), h.percentile(c.p))
        << "quantile(q) != percentile(100q) at n=" << c.n << " p=" << c.p;
  }
}

// ---------------------------------------------------------------------------
// Histogram exemplars
// ---------------------------------------------------------------------------

TEST(HistogramExemplarTest, DisabledByDefaultAndRetainsNothing) {
  Histogram h;
  EXPECT_FALSE(h.exemplars_enabled());
  for (int i = 1; i <= 50; ++i) {
    h.record_traced(static_cast<double>(i), 1000 + i, i);
  }
  EXPECT_EQ(h.exemplar_count(), 0u);
  EXPECT_TRUE(h.exemplars_above(0.0).empty());
  // record_traced must still behave exactly like record().
  EXPECT_EQ(h.count(), 50u);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(HistogramExemplarTest, RetainsOnlyTheTailAboveTheQuantileFloor) {
  obs::ExemplarConfig config;
  config.enabled = true;
  config.per_bucket = 2;
  config.min_quantile = 0.5;
  Histogram h;
  h.enable_exemplars(config);
  for (int i = 1; i <= 100; ++i) {
    h.record_traced(static_cast<double>(i), 1000 + i, i);
  }
  const auto retained = h.exemplars_above(0.0);
  ASSERT_FALSE(retained.empty());
  // Retention floor: nothing below the median may survive the prune.
  const double median = h.quantile(0.5);
  for (const obs::Exemplar& e : retained) {
    EXPECT_GE(e.value, median * 0.98)
        << "exemplar " << e.value << " below the retention floor";
    // The exemplar carries the ids it was recorded with.
    EXPECT_EQ(e.trace, 1000 + static_cast<std::uint64_t>(e.value));
    EXPECT_EQ(e.ref, static_cast<std::uint64_t>(e.value));
  }
  // The deepest tail is always retained (reservoir of the max bucket).
  EXPECT_DOUBLE_EQ(retained.front().value, 100.0);
  // Sorted by value descending for deterministic iteration.
  for (std::size_t i = 1; i < retained.size(); ++i) {
    EXPECT_GE(retained[i - 1].value, retained[i].value);
  }
  // exemplars_above(min) filters.
  for (const obs::Exemplar& e : h.exemplars_above(90.0)) {
    EXPECT_GE(e.value, 90.0);
  }
}

TEST(HistogramExemplarTest, SeededReservoirIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    obs::ExemplarConfig config;
    config.enabled = true;
    config.per_bucket = 3;
    config.seed = seed;
    Histogram h;
    h.enable_exemplars(config);
    // Many samples per bucket so the reservoir actually replaces.
    for (int i = 0; i < 2000; ++i) {
      const double v = 1.0 + (i % 17) * 0.5;
      h.record_traced(v, static_cast<std::uint64_t>(i), 7000 + i);
    }
    return h.exemplars_above(0.0);
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].trace, b[i].trace);
    EXPECT_EQ(a[i].ref, b[i].ref);
  }
}

TEST(HistogramExemplarTest, MergeKeepsLargestPerBucketAndStaysBounded) {
  obs::ExemplarConfig config;
  config.enabled = true;
  config.per_bucket = 2;
  config.min_quantile = 0.0;  // retain everywhere: the bound is per bucket
  Histogram a, b;
  a.enable_exemplars(config);
  b.enable_exemplars(config);
  // Same bucket (same value), disjoint trace ids.
  for (int i = 0; i < 8; ++i) {
    a.record_traced(5.0, 100 + i, 100 + i);
    b.record_traced(5.0, 200 + i, 200 + i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 16u);
  const auto retained = a.exemplars_above(0.0);
  // The shared bucket may keep at most per_bucket exemplars.
  EXPECT_LE(retained.size(), config.per_bucket);
  // Merging into an exemplar-less histogram adopts the other's config.
  Histogram c;
  c.merge(a);
  EXPECT_TRUE(c.exemplars_enabled());
  EXPECT_EQ(c.exemplars_above(0.0).size(), retained.size());
}

/// The exemplar retention rule as first written: after every traced
/// sample, find the floor bucket by a cumulative scan from bucket 0 and
/// clear every reservoir below it. Bucketing and reservoir draws repeat
/// Histogram's, so the retained exemplars must match it exactly.
class BruteForceExemplars {
 public:
  explicit BruteForceExemplars(const obs::ExemplarConfig& config)
      : config_(config) {}

  void record(double value) {
    const std::size_t index = bucket_of(value);
    if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
    ++buckets_[index];
    ++count_;
  }

  void record_traced(double value, std::uint64_t trace, std::uint64_t ref) {
    record(value);
    const std::size_t index = bucket_of(value);
    if (slots_.size() < buckets_.size()) slots_.resize(buckets_.size());
    if (index >= floor_bucket()) {
      insert(index, obs::Exemplar{value, trace, ref});
    }
    prune();
  }

  void merge(const BruteForceExemplars& other) {
    if (other.count_ == 0) return;
    count_ += other.count_;
    if (other.buckets_.size() > buckets_.size()) {
      buckets_.resize(other.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    if (other.slots_.empty()) return;
    if (slots_.size() < other.slots_.size()) slots_.resize(other.slots_.size());
    for (std::size_t i = 0; i < other.slots_.size(); ++i) {
      Slot& ours = slots_[i];
      ours.seen += other.slots_[i].seen;
      ours.entries.insert(ours.entries.end(), other.slots_[i].entries.begin(),
                          other.slots_[i].entries.end());
      if (ours.entries.size() > config_.per_bucket) {
        std::sort(ours.entries.begin(), ours.entries.end(), before);
        ours.entries.resize(config_.per_bucket);
      }
    }
    prune();
  }

  std::vector<obs::Exemplar> retained() const {
    std::vector<obs::Exemplar> out;
    for (const Slot& slot : slots_) {
      out.insert(out.end(), slot.entries.begin(), slot.entries.end());
    }
    std::sort(out.begin(), out.end(), before);
    return out;
  }

 private:
  struct Slot {
    std::uint64_t seen = 0;
    std::vector<obs::Exemplar> entries;
  };

  static bool before(const obs::Exemplar& a, const obs::Exemplar& b) {
    if (a.value != b.value) return a.value > b.value;
    if (a.trace != b.trace) return a.trace < b.trace;
    return a.ref < b.ref;
  }

  static std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // Log-linear grid: 64 exact buckets, then 32 per octave.
  static std::size_t bucket_of(double value) {
    const auto ticks =
        static_cast<std::uint64_t>(std::llround(std::max(value, 0.0) * 1e6));
    if (ticks < 64) return static_cast<std::size_t>(ticks);
    int msb = 63;
    while ((ticks >> msb) == 0) --msb;
    const int shift = msb - 5;
    return 64 + static_cast<std::size_t>(shift - 1) * 32 +
           static_cast<std::size_t>((ticks >> shift) - 32);
  }

  std::size_t floor_bucket() const {
    const double q = std::clamp(config_.min_quantile, 0.0, 1.0);
    const auto rank = std::min<std::uint64_t>(
        count_, std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(std::ceil(
                           q * static_cast<double>(count_) - 1e-9))));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      cumulative += buckets_[i];
      if (cumulative >= rank && buckets_[i] > 0) return i;
    }
    return buckets_.empty() ? 0 : buckets_.size() - 1;
  }

  void insert(std::size_t bucket, const obs::Exemplar& exemplar) {
    Slot& slot = slots_[bucket];
    ++slot.seen;
    if (slot.entries.size() < config_.per_bucket) {
      slot.entries.push_back(exemplar);
      return;
    }
    const std::uint64_t draw =
        mix64(config_.seed ^ mix64(bucket * 0x100000001b3ull) ^ slot.seen) %
        slot.seen;
    if (draw < slot.entries.size()) {
      slot.entries[static_cast<std::size_t>(draw)] = exemplar;
    }
  }

  void prune() {
    if (count_ == 0) return;
    const std::size_t limit = std::min(floor_bucket(), slots_.size());
    for (std::size_t i = 0; i < limit; ++i) {
      if (!slots_[i].entries.empty()) {
        slots_[i].entries.clear();
        slots_[i].seen = 0;
      }
    }
  }

  obs::ExemplarConfig config_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::vector<Slot> slots_;
};

TEST(HistogramExemplarTest, IncrementalFloorMatchesBruteForceRule) {
  // Randomized streams mix plain and traced samples, shift the
  // distribution up and back down (so the floor moves both ways), enable
  // exemplars on a populated histogram, and merge side histograms in.
  std::mt19937_64 rng(20221114);
  const double quantiles[] = {0.0, 0.25, 0.5, 0.9, 0.99, 1.0};
  for (int stream = 0; stream < 200; ++stream) {
    obs::ExemplarConfig config;
    config.enabled = true;
    config.per_bucket = 1 + rng() % 4;
    config.min_quantile = quantiles[rng() % std::size(quantiles)];
    config.seed = rng();
    Histogram h;
    BruteForceExemplars ref(config);
    std::uint64_t trace = 1;

    auto sample = [&](double centre) {
      std::lognormal_distribution<double> dist(std::log(centre), 0.8);
      return dist(rng);
    };
    auto feed = [&](Histogram& hist, BruteForceExemplars& model, double v) {
      if (rng() % 3 == 0) {
        hist.record(v);
        model.record(v);
      } else {
        hist.record_traced(v, trace, trace + 7);
        model.record_traced(v, trace, trace + 7);
        ++trace;
      }
    };

    // Some streams start populated, before exemplars are enabled.
    const int untraced_prefix = static_cast<int>(rng() % 3) * 20;
    for (int i = 0; i < untraced_prefix; ++i) {
      const double v = sample(0.5);
      h.record(v);
      ref.record(v);
    }
    h.enable_exemplars(config);

    const double centres[] = {0.05, 2.0, 40.0, 0.2, 5.0};
    for (int step = 0; step < 250; ++step) {
      const double centre = centres[(step / 50) % std::size(centres)];
      if (rng() % 50 == 0) {
        Histogram side;
        side.enable_exemplars(config);
        BruteForceExemplars side_ref(config);
        const int n = static_cast<int>(rng() % 40);
        for (int i = 0; i < n; ++i) feed(side, side_ref, sample(centre * 3));
        h.merge(side);
        ref.merge(side_ref);
      } else {
        feed(h, ref, sample(centre));
      }
      const auto got = h.exemplars_above(0.0);
      const auto want = ref.retained();
      ASSERT_EQ(got.size(), want.size())
          << "stream " << stream << " step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].value, want[i].value)
            << "stream " << stream << " step " << step;
        ASSERT_EQ(got[i].trace, want[i].trace);
        ASSERT_EQ(got[i].ref, want[i].ref);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, MergeAddsCountersAndMergesHistograms) {
  MetricRegistry a, b;
  a.count("failures", 3);
  b.count("failures", 2);
  b.count("recoveries");
  a.set_gauge("replicas", 1.0);
  b.set_gauge("replicas", 4.0);
  a.sample("lat", 1.0);
  b.sample("lat", 3.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.counter("failures"), 5.0);
  EXPECT_DOUBLE_EQ(a.counter("recoveries"), 1.0);
  EXPECT_DOUBLE_EQ(a.counter("never_touched"), 0.0);
  EXPECT_DOUBLE_EQ(a.gauge("replicas"), 4.0);  // last writer wins
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").mean(), 2.0);
  EXPECT_TRUE(a.histogram("missing").empty());
}

// ---------------------------------------------------------------------------
// JSON writer + exporters
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, EscapesAndFormatsDeterministically) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonWriter::format_double(42.0), "42");
  EXPECT_EQ(JsonWriter::format_double(0.5), "0.5");
  EXPECT_EQ(JsonWriter::format_double(std::nan("")), "null");

  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object()
      .field("name", "x")
      .field("n", 3)
      .key("arr")
      .begin_array()
      .value(1.5)
      .value(true)
      .end_array()
      .end_object();
  EXPECT_EQ(os.str(), R"({"name":"x","n":3,"arr":[1.5,true]})");
}

TEST(RunReportTest, JsonRoundTripContainsEveryField) {
  RunReport report;
  report.name = "unit";
  report.set_param("strategy", "canary-dr");
  report.set_param("error_rate", 0.25);
  report.set_scalar("makespan_s_mean", 12.5);
  report.metrics.count("failures", 7);
  report.metrics.sample("lat", 2.0);
  report.series.push_back({"sweep", {"x", "y"}, {{"1", "2"}, {"3", "4"}}});
  report.add_claim("recovers faster", 81.0, "%");

  const std::string json = report.to_json();
  // Structural sanity: braces balance and all sections are present.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  for (const char* needle :
       {"\"schema\": \"canary.run_report/v2\"", "\"name\": \"unit\"",
        "\"strategy\": \"canary-dr\"", "\"error_rate\": \"0.25\"",
        "\"makespan_s_mean\": 12.5", "\"failures\": 7", "\"lat\"",
        "\"p50\"", "\"sweep\"", "\"recovers faster\"", "\"measured\": 81"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
  // Serialisation is a pure function of the report's contents.
  EXPECT_EQ(json, report.to_json());
}

TEST(ChromeTraceTest, EmitsCompleteAndInstantEvents) {
  SpanRecorder rec;
  auto h = rec.open(SpanKind::kExec, "exec", TimePoint::from_usec(100),
                    SpanLabels{JobId{1}, FunctionId{2}, ContainerId{3},
                               NodeId{4}, 1});
  rec.close(h, TimePoint::from_usec(400));
  rec.instant(SpanKind::kFailure, "container_kill", TimePoint::from_usec(250));

  std::ostringstream os;
  obs::write_chrome_trace(os, rec);
  const std::string json = os.str();
  // The exporter emits compact JSON (no whitespace after separators).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":300"), std::string::npos);
  EXPECT_NE(json.find("\"container_kill\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// ---------------------------------------------------------------------------
// End-to-end determinism: identical seeded runs → byte-identical reports.
// ---------------------------------------------------------------------------

harness::ScenarioConfig small_config() {
  harness::ScenarioConfig config;
  config.strategy = recovery::StrategyConfig::canary_full();
  config.error_rate = 0.3;
  config.cluster_nodes = 8;
  config.seed = 99;
  return config;
}

TEST(ReportDeterminismTest, IdenticalSeededRunsProduceIdenticalBytes) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 30)};
  const auto config = small_config();
  const auto agg1 = harness::run_repetitions(config, jobs, 3);
  const auto agg2 = harness::run_repetitions(config, jobs, 3);
  const auto r1 = harness::make_report("determinism", config, agg1);
  const auto r2 = harness::make_report("determinism", config, agg2);
  EXPECT_EQ(r1.to_json(), r2.to_json());
  // The report actually carries data (failures happened and were measured).
  EXPECT_GT(r1.metrics.counter("failures"), 0.0);
  EXPECT_FALSE(r1.metrics.histogram("function_latency").empty());
}

TEST(ReportDeterminismTest, DifferentSeedsProduceDifferentReports) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 30)};
  auto config = small_config();
  const auto agg1 = harness::run_repetitions(config, jobs, 2);
  config.seed = 100;
  const auto agg2 = harness::run_repetitions(config, jobs, 2);
  const auto r1 = harness::make_report("determinism", config, agg1);
  const auto r2 = harness::make_report("determinism", config, agg2);
  EXPECT_NE(r1.to_json(), r2.to_json());
}

TEST(ReportDeterminismTest, SpanTimelineIsDeterministic) {
  const std::vector<faas::JobSpec> jobs = {
      workloads::make_job(workloads::WorkloadKind::kWebService, 20)};
  auto config = small_config();
  config.record_spans = true;
  const auto run1 = harness::ScenarioRunner::run(config, jobs);
  const auto run2 = harness::ScenarioRunner::run(config, jobs);
  ASSERT_NE(run1.spans, nullptr);
  ASSERT_NE(run2.spans, nullptr);
  EXPECT_GT(run1.spans->size(), 0u);
  std::ostringstream t1, t2;
  obs::write_chrome_trace(t1, *run1.spans);
  obs::write_chrome_trace(t2, *run2.spans);
  EXPECT_EQ(t1.str(), t2.str());
  EXPECT_EQ(run1.spans->open_count(), 0u);  // runner closes leftovers
}

}  // namespace
}  // namespace canary
