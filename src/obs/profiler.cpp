#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "support/table.hpp"

namespace rg::obs {

std::size_t HookProfiler::register_tool(std::string name) {
  const auto it = std::find(tools_.begin(), tools_.end(), name);
  if (it != tools_.end()) return static_cast<std::size_t>(it - tools_.begin());
  tools_.push_back(std::move(name));
  cells_.resize(tools_.size() * kEventKindCount);
  return tools_.size() - 1;
}

std::uint64_t HookProfiler::total_events(std::size_t tool) const {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    n += cells_[tool * kEventKindCount + k].events;
  return n;
}

std::uint64_t HookProfiler::total_cycles(std::size_t tool) const {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    n += cells_[tool * kEventKindCount + k].cycles;
  return n;
}

std::string HookProfiler::render() const {
  support::Table table("per-tool hook profile");
  table.header({"tool", "hook", "events", "cycles", "cycles/event"});
  struct Row {
    std::size_t tool;
    EventKind kind;
    std::uint64_t events;
    std::uint64_t cycles;
  };
  std::vector<Row> rows;
  for (std::size_t t = 0; t < tools_.size(); ++t) {
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      const Cell& c = cell(t, kind);
      if (c.events == 0) continue;
      rows.push_back({t, kind, c.events, c.cycles});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    return x.cycles > y.cycles;
  });
  for (const Row& r : rows) {
    char per[32];
    std::snprintf(per, sizeof per, "%.1f",
                  static_cast<double>(r.cycles) / static_cast<double>(r.events));
    table.add_row({tools_[r.tool], to_string(r.kind), std::to_string(r.events),
                   std::to_string(r.cycles), per});
  }
  for (std::size_t t = 0; t < tools_.size(); ++t) {
    table.add_row({tools_[t], "TOTAL", std::to_string(total_events(t)),
                   std::to_string(total_cycles(t)), ""});
  }
  return table.render();
}

void HookProfiler::export_to(MetricsRegistry& registry) const {
  for (std::size_t t = 0; t < tools_.size(); ++t) {
    const std::string base = "profiler." + tools_[t];
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      const auto kind = static_cast<EventKind>(k);
      const Cell& c = cell(t, kind);
      if (c.events == 0) continue;
      const std::string name = base + "." + to_string(kind);
      registry.counter(name + ".events").set(c.events);
      registry.counter(name + ".cycles").set(c.cycles);
    }
    registry.counter(base + ".total.events").set(total_events(t));
    registry.counter(base + ".total.cycles").set(total_cycles(t));
  }
}

}  // namespace rg::obs
