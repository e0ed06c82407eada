// The platform's default retry-based recovery strategy (paper §II,
// §IV-C4c): a failed function is relaunched from its first instruction in
// a fresh cold container; all computation since the start of the attempt
// is lost, and simultaneous failures restart concurrently, contending for
// cold-start resources.
#pragma once

#include "faas/events.hpp"
#include "faas/platform.hpp"

namespace canary::faas {

class RetryHandler : public RecoveryHandler {
 public:
  struct Config {
    /// Cap on restarts per function; 0 means unlimited. Public platforms
    /// retry a bounded number of times; the evaluation's failures always
    /// eventually succeed, so the default is unlimited.
    int max_retries = 0;
  };

  explicit RetryHandler(Platform& platform) : platform_(platform) {}
  RetryHandler(Platform& platform, Config config)
      : platform_(platform), config_(config) {}

  /// A function past its retry budget is abandoned and counted as
  /// retry_giveups in the platform's registry.
  void on_failure(const Invocation& inv, const FailureInfo& info) override;

 private:
  Platform& platform_;
  Config config_;
};

}  // namespace canary::faas
