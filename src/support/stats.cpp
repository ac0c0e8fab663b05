#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <utility>

#include "support/assert.hpp"

namespace rg::support {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::stddev() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

double percentile(std::vector<double> samples, double p) {
  RG_ASSERT(!samples.empty());
  RG_ASSERT(p >= 0.0 && p <= 100.0);
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

double median_ratio(const std::vector<double>& variant,
                    const std::vector<double>& base) {
  RG_ASSERT(variant.size() == base.size());
  std::vector<double> ratios;
  ratios.reserve(variant.size());
  for (std::size_t i = 0; i < variant.size(); ++i)
    ratios.push_back(variant[i] / base[i]);
  return percentile(std::move(ratios), 50.0);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace rg::support
