#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace canary::obs {

namespace {

/// splitmix64-style finalizer: a stateless, deterministic 64-bit mix used
/// for reservoir replacement draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic ordering for exemplar listings and merge truncation:
/// largest value first, ties broken by trace id then ref.
bool exemplar_before(const Exemplar& a, const Exemplar& b) {
  if (a.value != b.value) return a.value > b.value;
  if (a.trace != b.trace) return a.trace < b.trace;
  return a.ref < b.ref;
}

}  // namespace

std::size_t Histogram::bucket_index(std::uint64_t ticks) {
  if (ticks < kSubBuckets) return static_cast<std::size_t>(ticks);
  const int msb = 63 - std::countl_zero(ticks);
  const int shift = msb - (kSubBucketBits - 1);
  // Top kSubBucketBits bits of the value: in [kSubBuckets/2, kSubBuckets).
  const std::uint64_t sub = ticks >> shift;
  return kSubBuckets +
         static_cast<std::size_t>(shift - 1) * (kSubBuckets / 2) +
         static_cast<std::size_t>(sub - kSubBuckets / 2);
}

double Histogram::bucket_mid(std::size_t index) {
  if (index < kSubBuckets) return static_cast<double>(index);
  const std::size_t offset = index - kSubBuckets;
  const int shift = static_cast<int>(offset / (kSubBuckets / 2)) + 1;
  const std::uint64_t sub = kSubBuckets / 2 + offset % (kSubBuckets / 2);
  const double lo = std::ldexp(static_cast<double>(sub), shift);
  const double width = std::ldexp(1.0, shift);
  return lo + width / 2.0;
}

std::size_t Histogram::add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;

  const double clamped = std::max(value, 0.0);
  const auto ticks = static_cast<std::uint64_t>(std::llround(clamped * 1e6));
  const std::size_t index = bucket_index(ticks);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  if (exemplar_config_.enabled && index < floor_bucket_) ++below_floor_;
  return index;
}

void Histogram::record(double value) { add(value); }

void Histogram::record_traced(double value, std::uint64_t trace,
                              std::uint64_t ref) {
  const std::size_t index = add(value);
  if (!exemplar_config_.enabled) return;
  if (exemplars_.size() < buckets_.size()) exemplars_.resize(buckets_.size());

  // Retention floor on the live distribution: the bucket holding the
  // min_quantile sample. Buckets below it never retain and are pruned,
  // so memory tracks only the tail the analyzer will ever ask about.
  advance_floor();
  if (index >= floor_bucket_) {
    reservoir_insert(index, Exemplar{value, trace, ref});
  }
  prune_exemplars();
}

void Histogram::enable_exemplars(const ExemplarConfig& config) {
  exemplar_config_ = config;
  if (!config.enabled) {
    exemplars_.clear();
    exemplars_.shrink_to_fit();
    return;
  }
  recompute_floor();
  pruned_below_ = 0;
}

std::uint64_t Histogram::floor_rank() const {
  const double q = std::clamp(exemplar_config_.min_quantile, 0.0, 1.0);
  return std::min<std::uint64_t>(
      count_, std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::ceil(
                         q * static_cast<double>(count_) - 1e-9))));
}

void Histogram::advance_floor() {
  // Invariant after the walk: below_floor_ < rank <= below_floor_ +
  // buckets_[floor_bucket_], i.e. the first bucket whose cumulative
  // count reaches the rank. Each step passes one bucket.
  const std::uint64_t rank = floor_rank();
  while (below_floor_ >= rank) {
    --floor_bucket_;
    below_floor_ -= buckets_[floor_bucket_];
  }
  while (below_floor_ + buckets_[floor_bucket_] < rank) {
    below_floor_ += buckets_[floor_bucket_];
    ++floor_bucket_;
  }
}

void Histogram::recompute_floor() {
  floor_bucket_ = 0;
  below_floor_ = 0;
  if (count_ > 0) advance_floor();
}

void Histogram::reservoir_insert(std::size_t bucket,
                                 const Exemplar& exemplar) {
  BucketExemplars& slot = exemplars_[bucket];
  ++slot.seen;
  if (slot.entries.size() < exemplar_config_.per_bucket) {
    slot.entries.push_back(exemplar);
    return;
  }
  // Classic reservoir step, drawn from a stateless hash of
  // (seed, bucket, stream position) so the choice is reproducible.
  const std::uint64_t draw =
      mix64(exemplar_config_.seed ^ mix64(bucket * 0x100000001b3ull) ^
            slot.seen) %
      slot.seen;
  if (draw < slot.entries.size()) {
    slot.entries[static_cast<std::size_t>(draw)] = exemplar;
  }
}

void Histogram::prune_exemplars() {
  // [0, pruned_below_) is already clear; a floor that moved down lowers
  // the mark, because the buckets it uncovered may retain again.
  const std::size_t limit = std::min(floor_bucket_, exemplars_.size());
  for (std::size_t i = pruned_below_; i < limit; ++i) {
    if (!exemplars_[i].entries.empty()) {
      exemplars_[i].entries.clear();
      exemplars_[i].seen = 0;  // re-entering the tail restarts the stream
    }
  }
  pruned_below_ = floor_bucket_;
}

std::vector<Exemplar> Histogram::exemplars_above(double min_value) const {
  std::vector<Exemplar> out;
  for (const BucketExemplars& slot : exemplars_) {
    for (const Exemplar& exemplar : slot.entries) {
      if (exemplar.value >= min_value) out.push_back(exemplar);
    }
  }
  std::sort(out.begin(), out.end(), exemplar_before);
  return out;
}

std::size_t Histogram::exemplar_count() const {
  std::size_t total = 0;
  for (const BucketExemplars& slot : exemplars_) total += slot.entries.size();
  return total;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }

  if (!exemplar_config_.enabled && other.exemplar_config_.enabled) {
    exemplar_config_ = other.exemplar_config_;
  }
  if (exemplar_config_.enabled) recompute_floor();
  if (!other.exemplars_.empty()) {
    if (exemplars_.size() < other.exemplars_.size()) {
      exemplars_.resize(other.exemplars_.size());
    }
    for (std::size_t i = 0; i < other.exemplars_.size(); ++i) {
      const BucketExemplars& theirs = other.exemplars_[i];
      if (theirs.entries.empty() && theirs.seen == 0) continue;
      BucketExemplars& ours = exemplars_[i];
      ours.seen += theirs.seen;
      ours.entries.insert(ours.entries.end(), theirs.entries.begin(),
                          theirs.entries.end());
      if (ours.entries.size() > exemplar_config_.per_bucket) {
        // Keep the K largest values: a deterministic rule independent of
        // which repetition finished first.
        std::sort(ours.entries.begin(), ours.entries.end(), exemplar_before);
        ours.entries.resize(exemplar_config_.per_bucket);
      }
    }
    pruned_below_ = 0;  // merged reservoirs may sit anywhere
    prune_exemplars();
  }
}

std::size_t Histogram::bucket_of_rank(std::uint64_t rank) const {
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank && buckets_[i] > 0) return i;
  }
  return buckets_.empty() ? 0 : buckets_.size() - 1;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Nearest-rank with a guard: p/100*count can land an ulp above its
  // exact value (e.g. 40 samples at p=97.5), which would inflate the
  // rank by one full position. Shaving 1e-9 before ceil() keeps exact
  // boundaries on the correct side without disturbing interior ranks.
  const auto rank = std::min<std::uint64_t>(
      count_, std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(std::ceil(
                         p / 100.0 * static_cast<double>(count_) - 1e-9))));
  const std::size_t index = bucket_of_rank(rank);
  const double value = bucket_mid(index) / 1e6;
  return std::clamp(value, min_, max_);
}

}  // namespace canary::obs
