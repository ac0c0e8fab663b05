// MetricsRegistry — one named home for every counter in the stack.
//
// Before this subsystem the repo grew three parallel stats systems:
// `rt::ToolStats` (detector cache counters), the `sip::ProxyStats` atomic
// watermark gauges, and the `support::Accumulator` summaries the benches
// keep. The registry puts the first two behind one insertion-ordered
// JSON export: tools export through `ToolStats::export_to`, and the
// proxy's infra gauges are registry-backed storage with the old accessors
// kept as thin shims. Bench accumulators stay bench-local and reach only
// the bench's printed table.
//
// Counters and gauges are plain relaxed atomics — never detector-visible,
// never a scheduling point — so binding a registry cannot perturb the
// experiment event stream (the same contract the ProxyStats overload
// gauges always had). Registration takes a mutex; updates are lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rg::obs {

/// Monotone counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Snapshot-style overwrite (used when mirroring an external total).
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Up/down gauge with a monotone-max helper (watermarks).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  /// Returns the post-update value (inflight-style scopes want it).
  std::int64_t add(std::int64_t d) {
    return v_.fetch_add(d, std::memory_order_relaxed) + d;
  }
  /// Keeps the largest value ever set (CAS loop, relaxed).
  void update_max(std::int64_t v) {
    std::int64_t prev = v_.load(std::memory_order_relaxed);
    while (v > prev &&
           !v_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram. Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i]; one implicit overflow bucket catches
/// everything above the last bound. Bounds are fixed at registration so
/// exports are comparable across runs.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 (the overflow bucket).
  std::size_t bucket_count() const { return bounds_.size() + 1; }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Bucket-resolution quantile estimate: the upper bound of the bucket
  /// holding the q-th observation (the exact max() when it lands in the
  /// overflow bucket; 0 on an empty histogram). q is clamped to [0, 1].
  std::uint64_t quantile(double q) const;

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Stable addresses: entries are never removed,
  /// so a returned reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` only applies on first registration (must be ascending).
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds);

  bool has(std::string_view name) const;
  std::size_t size() const;

  /// JSON object, one entry per metric in registration order — counters
  /// and gauges as numbers, histograms as {bounds, counts, count, sum,
  /// min, max, mean}. Deterministic given the same registration and
  /// update history.
  std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  enum class Type : std::uint8_t { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    Type type = Type::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& find_or_add(std::string_view name, Type type);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace rg::obs
