#include "sb/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace servebench {

namespace {

// 1-based nearest rank of quantile q in a sample of n. The epsilon keeps
// q * n that is integral in exact arithmetic (0.9 * 100) from rounding up.
std::size_t rank_of(double q, std::size_t n) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

Percentile percentile(std::vector<double> values, double q) {
  MGPT_CHECK(q > 0.0 && q < 1.0, "percentile q must be in (0, 1), got " << q);
  Percentile p;
  p.q = q;
  p.n = values.size();
  if (values.empty()) return p;
  const std::size_t rank = rank_of(q, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (n - rank_of(q, n) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value;
}

std::vector<double> poisson_arrivals(std::size_t count, double window_s,
                                     std::uint64_t seed) {
  MGPT_CHECK(window_s > 0.0, "arrival window must be positive");
  matgpt::Rng rng(seed);
  std::vector<double> at(count);
  for (double& t : at) t = rng.uniform() * window_s;
  std::sort(at.begin(), at.end());
  return at;
}

}  // namespace servebench
