// Summary statistics for the performance experiments (§4.5).
#pragma once

#include <cstddef>
#include <vector>

namespace rg::support {

/// Online accumulator for mean / min / max / stddev (Welford).
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Sample standard deviation; 0 for fewer than two samples.
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample set (linear interpolation, p in [0,100]).
double percentile(std::vector<double> samples, double p);

/// Median over rounds of `variant[i] / base[i]`. Interleaved timing runs
/// pair each variant with the baseline of its own round, so a slow or fast
/// spell of the host moves both sides of a ratio rather than one best case.
double median_ratio(const std::vector<double>& variant,
                    const std::vector<double>& base);

/// CPU time used so far by all threads of the process, in seconds: the work
/// a timed run did, without the time its threads waited for a core while
/// the host ran other processes.
double process_cpu_seconds();

}  // namespace rg::support
