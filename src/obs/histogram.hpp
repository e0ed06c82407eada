// HDR-style log-linear histogram for latency-like quantities.
//
// Values are bucketed on a log-linear grid (64 linear sub-buckets per
// power-of-two octave over integer micro-units), which bounds the relative
// quantile error at ~1.6% while keeping memory at a few KiB regardless of
// sample count. count/sum/min/max are tracked exactly, so mean() is exact
// and only percentile() is approximate. Recording is O(1) with no
// allocation past the high-water bucket; merging two histograms is exact
// (bucket-wise addition), which is what lets the experiment harness fold
// per-repetition histograms into one deterministic aggregate.
//
// Exemplars (opt-in): when enabled, tail buckets additionally retain up
// to K exemplar trace ids via a deterministic seeded reservoir, so a
// histogram bucket links back into the causal event DAG — "p99.9 moved"
// becomes "these invocations are the p99.9". A bucket only retains
// exemplars while it sits at or above the configured quantile of the live
// distribution, which keeps retention focused on the tail without
// knowing the final shape in advance. That retention floor is tracked
// incrementally (the floor bucket plus the sample count below it), so a
// traced sample moves the floor by the buckets it passes and clears only
// those; a merge or enable_exemplars recomputes it from scratch.
// Everything stays deterministic:
// the reservoir is seeded, replacement depends only on the insertion
// order (which the simulator fixes), and merging keeps the K
// largest-valued exemplars per bucket.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace canary::obs {

/// One retained sample: its exact value plus the ids linking it back to
/// the causal event log. `trace` is the obs::TraceId value; `ref` is an
/// opaque caller reference (the platform stores the FunctionId value so
/// the tail analyzer can look up the invocation's decomposition).
struct Exemplar {
  double value = 0.0;
  std::uint64_t trace = 0;
  std::uint64_t ref = 0;
};

struct ExemplarConfig {
  bool enabled = false;
  /// Reservoir capacity per bucket.
  std::size_t per_bucket = 4;
  /// A bucket retains exemplars only while it lies at or above this
  /// quantile (in [0, 1]) of the histogram's current distribution. 0.5
  /// keeps the upper half — enough to anchor p50 while bounding memory.
  double min_quantile = 0.5;
  /// Reservoir seed; replacement draws are splitmix-style hashes of
  /// (seed, bucket, arrival index), so runs are reproducible.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

class Histogram {
 public:
  /// Record one value. Negative values clamp to zero (still counted, and
  /// reflected in min()); values are quantised to 1e-6 units.
  void record(double value);

  /// Record one value carrying an exemplar reference. Identical to
  /// record() unless exemplars are enabled, in which case the tail
  /// bucket's reservoir may retain (value, trace, ref).
  void record_traced(double value, std::uint64_t trace, std::uint64_t ref);

  /// Enable exemplar retention. Call before recording; enabling on a
  /// populated histogram only affects future samples.
  void enable_exemplars(const ExemplarConfig& config);
  bool exemplars_enabled() const { return exemplar_config_.enabled; }
  const ExemplarConfig& exemplar_config() const { return exemplar_config_; }

  /// Every retained exemplar with value >= min_value, sorted by value
  /// descending (ties by trace id ascending) so iteration order is
  /// deterministic.
  std::vector<Exemplar> exemplars_above(double min_value) const;
  /// Total exemplars currently retained across all buckets.
  std::size_t exemplar_count() const;

  /// Bucket-wise addition of `other` into this histogram. Exact: merging
  /// then querying equals querying the concatenated sample streams.
  /// Exemplar reservoirs merge by keeping the per-bucket K largest
  /// values (deterministic regardless of sample interleaving).
  void merge(const Histogram& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Approximate percentile, p in [0, 100]. Returns the midpoint of the
  /// bucket holding the rank-p sample (nearest-rank, rank = ceil(p/100*n)
  /// with a guard against floating-point rank inflation), clamped to
  /// [min, max]; p <= 0 and p >= 100 return the exact min/max. An empty
  /// histogram returns 0.
  double percentile(double p) const;
  /// quantile(q) == percentile(q * 100), q in [0, 1].
  double quantile(double q) const { return percentile(q * 100.0); }
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }

 private:
  // 64 linear sub-buckets per octave: values below 2^6 micro-units are
  // bucketed exactly, larger ones with <= 1/64 relative bucket width.
  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

  static std::size_t bucket_index(std::uint64_t ticks);
  /// Midpoint of bucket `index`, in micro-units.
  static double bucket_mid(std::size_t index);

  /// Index of the bucket holding the rank-`rank` sample (1-based).
  std::size_t bucket_of_rank(std::uint64_t rank) const;
  /// Count the sample in its bucket; returns the bucket index.
  std::size_t add(double value);

  struct BucketExemplars {
    std::uint64_t seen = 0;  // reservoir stream length for this bucket
    std::vector<Exemplar> entries;
  };
  void reservoir_insert(std::size_t bucket, const Exemplar& exemplar);
  /// Rank of the min_quantile sample in the live distribution.
  std::uint64_t floor_rank() const;
  /// Move floor_bucket_ to the bucket holding floor_rank().
  void advance_floor();
  void recompute_floor();
  /// Drop reservoirs from buckets that fell below the retention floor.
  void prune_exemplars();

  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

  ExemplarConfig exemplar_config_;
  std::vector<BucketExemplars> exemplars_;  // parallel to buckets_ when enabled
  // Retention floor, maintained while exemplars are enabled: the bucket
  // holding the min_quantile sample and the sample count below it.
  std::size_t floor_bucket_ = 0;
  std::uint64_t below_floor_ = 0;
  /// No bucket below this index holds an exemplar.
  std::size_t pruned_below_ = 0;
};

}  // namespace canary::obs
