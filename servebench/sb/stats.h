#pragma once
// Clock, order statistics and arrival schedules for the serving benchmark.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// Seconds from `t0` to `t`.
inline double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond its rank; with fewer, one outlier moves it.
inline constexpr std::size_t kMinBeyond = 10;

/// A run whose generator is late by more than this at p99 (sending after
/// the request's connection or the driving step was free) is invalid. It
/// guards the load generator itself, not the system's performance.
inline constexpr double kLateLimitMs = 50.0;

/// One percentile of a sample, with the counts that justify it.
struct Percentile {
  double q = 0.0;
  /// Nearest-rank value: the ceil(q * n)-th smallest sample (0 when empty).
  double value = 0.0;
  std::size_t n = 0;
  /// Samples ranked above the percentile's rank.
  std::size_t beyond = 0;
  /// beyond >= kMinBeyond.
  bool supported = false;
};

Percentile percentile(std::vector<double> values, double q);

/// Smallest sample size at which `q` has kMinBeyond samples beyond its rank.
std::size_t min_samples_for(double q);

/// Nearest-rank median (0 when empty).
double median(std::vector<double> values);

/// `count` arrival times in [0, window_s): a Poisson process conditioned on
/// its count is `count` independent uniform draws, sorted. Fixing the count
/// keeps the offered load equal across seeds while the spacing stays
/// Poisson. Deterministic in (count, window_s, seed).
std::vector<double> poisson_arrivals(std::size_t count, double window_s,
                                     std::uint64_t seed);

}  // namespace servebench
