// Per-tool event profiler — the runtime Fig. 5.
//
// The paper attributes the detector's slowdown to its instrumentation
// phases; this profiler produces the same attribution live. The Runtime
// wraps every tool-hook dispatch in a cycle stamp, so after a run the
// profiler holds, per tool and per dispatched EventKind, the number of
// events delivered and the cycles spent inside the tool's handler. Rows
// are keyed by tool name, so one profiler shared by several Sims sums
// each tool's runs in one row. Rendered as a table (tools x kinds) or
// exported into a MetricsRegistry.
//
// Cycle counts use the TSC on x86-64 (a steady-clock fallback elsewhere);
// they are *measurements*, not part of the deterministic trace — the
// flight-recorder hash never sees them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace rg::obs {

class MetricsRegistry;

// Names the frozen perfbench/ benchmark still uses; they go when it moves to
// EventKind (ROADMAP item 10).
using Hook = EventKind;
constexpr std::size_t kHookCount = kEventKindCount;

/// Cheap cycle stamp for the dispatch wrapper.
inline std::uint64_t cycle_now() {
#if defined(__x86_64__) || defined(_M_X64)
  std::uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

class HookProfiler {
 public:
  /// The row of the tool named `name`, added on first use (tools of one
  /// name share it); the Runtime keeps the index it gets for each tool.
  std::size_t register_tool(std::string name);

  /// Accounts one delivered event and the cycles its handler consumed.
  void add(std::size_t tool, EventKind kind, std::uint64_t cycles) {
    Cell& c = cell(tool, kind);
    ++c.events;
    c.cycles += cycles;
  }

  std::size_t tool_count() const { return tools_.size(); }
  const std::string& tool_name(std::size_t tool) const { return tools_[tool]; }
  std::uint64_t events(std::size_t tool, EventKind kind) const {
    return cell(tool, kind).events;
  }
  std::uint64_t cycles(std::size_t tool, EventKind kind) const {
    return cell(tool, kind).cycles;
  }
  std::uint64_t total_events(std::size_t tool) const;
  std::uint64_t total_cycles(std::size_t tool) const;

  /// Fig. 5-style table: one row per (tool, kind) with events, cycles and
  /// cycles/event, kinds that saw no events omitted, ordered by cycles.
  std::string render() const;

  /// Publishes `profiler.<tool>.<kind>.events/cycles` counters (plus
  /// per-tool totals) into the registry; `<kind>` is to_string(EventKind).
  void export_to(MetricsRegistry& registry) const;

 private:
  struct Cell {
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
  };
  Cell& cell(std::size_t tool, EventKind kind) {
    return cells_[tool * kEventKindCount + static_cast<std::size_t>(kind)];
  }
  const Cell& cell(std::size_t tool, EventKind kind) const {
    return cells_[tool * kEventKindCount + static_cast<std::size_t>(kind)];
  }

  std::vector<std::string> tools_;
  std::vector<Cell> cells_;  // tools_ x kEventKindCount, row-major
};

}  // namespace rg::obs
