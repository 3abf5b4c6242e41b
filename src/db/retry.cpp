#include "db/retry.hpp"

#include <algorithm>
#include <thread>

namespace fem2::db {

RetrySchedule::RetrySchedule(RetryPolicy policy)
    : policy_(policy), rng_(policy.seed) {}

std::optional<std::chrono::microseconds> RetrySchedule::next_delay() {
  if (retries_ + 1 >= policy_.max_attempts) return std::nullopt;

  double base = static_cast<double>(policy_.initial_backoff.count());
  for (std::size_t i = 0; i < retries_; ++i) base *= policy_.backoff_multiplier;
  base = std::min(base, static_cast<double>(policy_.max_backoff.count()));

  const double jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  const double scaled = base * (1.0 - jitter * rng_.uniform());
  const auto delay =
      std::chrono::microseconds(static_cast<std::int64_t>(scaled));

  if (policy_.overall_timeout.count() > 0 &&
      total_ + delay > policy_.overall_timeout)
    return std::nullopt;

  retries_ += 1;
  total_ += delay;
  return delay;
}

void sleep_for(std::chrono::microseconds delay) {
  std::this_thread::sleep_for(delay);
}

}  // namespace fem2::db
