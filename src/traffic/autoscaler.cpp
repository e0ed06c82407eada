#include "traffic/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "common/result.hpp"

namespace canary::traffic {

WarmPoolAutoscaler::WarmPoolAutoscaler(sim::Simulator& sim,
                                       faas::Platform& platform,
                                       TrafficGenerator& generator)
    : sim_(sim),
      platform_(platform),
      generator_(generator),
      config_(generator.config().autoscaler) {
  CANARY_CHECK(config_.sweep_interval > Duration::zero(),
               "autoscaler sweep interval must be positive");
  classes_.reserve(generator_.config().streams.size());
  for (const StreamConfig& stream : generator_.config().streams) {
    PoolClass cls;
    cls.image = stream.fn.runtime;
    cls.memory = stream.fn.effective_memory();
    classes_.push_back(std::move(cls));
  }
}

void WarmPoolAutoscaler::start() {
  if (!config_.enabled || classes_.empty()) return;
  sim_.schedule_after(config_.sweep_interval, [this] { sweep(); });
}

void WarmPoolAutoscaler::retire_all() {
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    PoolClass& cls = classes_[i];
    while (!cls.owned_warm.empty()) {
      const ContainerId id = *cls.owned_warm.begin();
      cls.owned_warm.erase(cls.owned_warm.begin());
      if (!platform_.container(id).warm_idle()) continue;
      retired_.push_back(id);
      m_retirements_.add();
      platform_.destroy_warm_container(id);
    }
  }
}

void WarmPoolAutoscaler::sweep() {
  const TimePoint now = sim_.now();
  const TimePoint hard_stop =
      TimePoint::origin() + generator_.config().horizon + config_.drain_grace;
  if (generator_.quiescent() || now >= hard_stop) {
    // Drain: release everything we still hold and stop rescheduling once
    // no launch is in flight (in-flight launches retire on arrival via
    // the on_ready callback checking stopped_).
    stopped_ = true;
    retire_all();
    return;
  }
  for (std::size_t i = 0; i < classes_.size(); ++i) sweep_class(i);
  sim_.schedule_after(config_.sweep_interval, [this] { sweep(); });
}

void WarmPoolAutoscaler::sweep_class(std::size_t idx) {
  PoolClass& cls = classes_[idx];
  const TimePoint now = sim_.now();
  const AdmissionController& admission = generator_.admission();
  const AdmissionController::ClassStats& stats = admission.stats(idx);

  const double interval_s = config_.sweep_interval.to_seconds();
  const std::uint64_t offered = stats.offered;
  const double sample =
      static_cast<double>(offered - cls.last_offered) / interval_s;
  cls.last_offered = offered;
  cls.ewma_rate_hz = config_.ewma_alpha * sample +
                     (1.0 - config_.ewma_alpha) * cls.ewma_rate_hz;

  const double rate_target =
      std::ceil(cls.ewma_rate_hz * config_.prewarm_window.to_seconds());
  const double queue_target =
      std::ceil(static_cast<double>(stats.queued) * config_.queue_gain);
  const std::size_t desired = std::clamp(
      static_cast<std::size_t>(std::max(0.0, rate_target + queue_target)),
      config_.min_warm, config_.max_warm);

  // Supply: everything warm-idle of this image (ours or the reuse pool's)
  // plus our launches still in flight.
  const std::size_t available =
      platform_.warm_idle_count(cls.image, faas::ContainerPurpose::kFunction) +
      cls.launching.size();

  if (available < desired &&
      now - cls.last_scale_up >= config_.scale_up_cooldown) {
    const std::size_t want = std::min(desired - available, config_.max_step);
    unsigned launched = 0;
    for (std::size_t n = 0; n < want; ++n) {
      const std::optional<NodeId> node =
          platform_.cluster().least_loaded(cls.memory);
      if (!node.has_value()) break;  // saturated; retry next sweep
      const Result<ContainerId> id = platform_.launch_warm_container(
          *node, cls.image, faas::ContainerPurpose::kFunction,
          [this, idx](ContainerId ready) {
            PoolClass& c = classes_[idx];
            if (c.launching.erase(ready) == 0) return;  // died / adopted
            if (stopped_) {
              // Landed after the drain began: retire immediately.
              if (platform_.container(ready).warm_idle()) {
                retired_.push_back(ready);
                m_retirements_.add();
                platform_.destroy_warm_container(ready);
              }
              return;
            }
            c.owned_warm.insert(ready);
          });
      if (!id.ok()) break;
      cls.launching.insert(id.value());
      m_launches_.add();
      ++launched;
    }
    if (launched > 0) {
      cls.last_scale_up = now;
      m_scale_ups_.add();
      events_.push_back(ScaleEvent{now, idx, launched, true});
    }
    return;  // never scale the same class both ways in one sweep
  }

  if (available > desired &&
      now - cls.last_scale_in >= config_.scale_in_cooldown &&
      !cls.owned_warm.empty()) {
    const std::size_t excess = available - desired;
    const std::size_t want =
        std::min({excess, config_.max_step, cls.owned_warm.size()});
    unsigned drained = 0;
    for (std::size_t n = 0; n < want; ++n) {
      // Highest id first: the most recently launched container is the
      // least likely to be the pool's steady-state working set.
      const auto last = std::prev(cls.owned_warm.end());
      const ContainerId id = *last;
      cls.owned_warm.erase(last);
      if (!platform_.container(id).warm_idle()) continue;
      retired_.push_back(id);
      m_retirements_.add();
      platform_.destroy_warm_container(id);
      ++drained;
    }
    if (drained > 0) {
      cls.last_scale_in = now;
      m_scale_ins_.add();
      events_.push_back(ScaleEvent{now, idx, drained, false});
    }
  }
}

void WarmPoolAutoscaler::on_attempt_started(const faas::Invocation& inv) {
  if (!inv.container.valid()) return;
  for (PoolClass& cls : classes_) {
    if (cls.owned_warm.erase(inv.container) > 0) return;
    if (cls.launching.erase(inv.container) > 0) return;
  }
}

void WarmPoolAutoscaler::on_container_destroyed(const faas::Container& c) {
  for (PoolClass& cls : classes_) {
    if (cls.owned_warm.erase(c.id) > 0) return;
    if (cls.launching.erase(c.id) > 0) return;
  }
}

}  // namespace canary::traffic
