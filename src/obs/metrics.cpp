#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/assert.hpp"

namespace rg::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  RG_ASSERT_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(std::uint64_t v) {
  const std::size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t prev = min_.load(std::memory_order_relaxed);
  while (v < prev &&
         !min_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based, ceil(q * n) clamped to >= 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(n)) + 0.5));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    cumulative += bucket(i);
    if (cumulative >= rank) return bounds_[i];
  }
  return max();  // target lands in the overflow bucket
}

MetricsRegistry::Entry& MetricsRegistry::find_or_add(std::string_view name,
                                                     Type type) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    RG_ASSERT_MSG(e.type == type, "metric re-registered with another type");
    return e;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->type = type;
  entries_.push_back(std::move(entry));
  index_[entries_.back()->name] = entries_.size() - 1;
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  Entry& e = find_or_add(name, Type::Counter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  Entry& e = find_or_add(name, Type::Gauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds) {
  Entry& e = find_or_add(name, Type::Histogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

bool MetricsRegistry::has(std::string_view name) const {
  std::lock_guard<std::mutex> guard(mu_);
  return index_.contains(std::string(name));
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> guard(mu_);
  return entries_.size();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out = "{";
  bool first = true;
  auto fmt_double = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  for (const auto& entry : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"" + entry->name + "\": ";
    switch (entry->type) {
      case Type::Counter:
        out += std::to_string(entry->counter->value());
        break;
      case Type::Gauge:
        out += std::to_string(entry->gauge->value());
        break;
      case Type::Histogram: {
        const Histogram& h = *entry->histogram;
        out += "{\"bounds\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i)
          out += (i != 0 ? "," : "") + std::to_string(h.bounds()[i]);
        out += "], \"counts\": [";
        for (std::size_t i = 0; i < h.bucket_count(); ++i)
          out += (i != 0 ? "," : "") + std::to_string(h.bucket(i));
        out += "], \"count\": " + std::to_string(h.count()) +
               ", \"sum\": " + std::to_string(h.sum()) +
               ", \"min\": " + std::to_string(h.min()) +
               ", \"max\": " + std::to_string(h.max()) +
               ", \"mean\": " + fmt_double(h.mean()) + "}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace rg::obs
