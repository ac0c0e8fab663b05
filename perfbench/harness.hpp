// Shared types of the RaceGuard benchmark driver.
//
// The driver sits outside the program: it builds scenarios with sipp, runs
// them through run_scenario or through its own Sim + Proxy + Dispatcher
// sessions (session.cpp), and checks every op's outputs against reference
// digests stored in refs/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.hpp"
#include "sipp/experiment.hpp"
#include "sipp/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// FNV-1a over a sequence of fields; the reference digest of an op.
class Digest {
 public:
  Digest& add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0x1f);  // field separator
    return *this;
  }
  Digest& add(std::uint64_t v) { return add(std::to_string(v)); }
  std::string hex() const;

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Deterministic per-layer counts, by metric name.
using Counters = std::map<std::string, double>;

/// One timed op and the outputs it is checked on.
struct OpRecord {
  std::string key;      // reference key, e.g. "fig6/r17/T3/hwlc"
  std::string digest;   // must equal the reference digest of `key`
  std::string summary;  // the human-readable outputs behind the digest
  Clock::time_point start{};
  double seconds = 0;
  std::uint64_t requests = 0;
  std::string error;  // non-empty: the op failed whatever its digest
  /// The flight-recorder stream hash (0 = no recorder). Every run of `key`
  /// in one process must reproduce it; it is not compared across
  /// processes, because the site ids it folds in are numbered in
  /// first-execution order, which depends on the ops a process ran first.
  std::uint64_t replay = 0;
};

/// The outputs of one simulated execution every digest is made of:
/// reported location keys, distinct data-race locations, total warnings,
/// scheduler steps and responses, plus recorded events and spans when a
/// flight recorder was attached.
struct CellOutputs {
  std::vector<std::string> location_keys;
  std::uint64_t reported_locations = 0;
  std::uint64_t total_warnings = 0;
  std::uint64_t steps = 0;
  std::uint64_t responses = 0;
  std::uint64_t recorder_events = 0;  // 0 = no recorder
  std::uint64_t spans = 0;
  std::uint64_t recorder_hash = 0;

  static CellOutputs of(const rg::sipp::ExperimentResult& result);
  /// Fills op.digest, op.summary and op.replay. Location keys enter the
  /// digest sorted, with each site id replaced by its function's name:
  /// ids depend on first-execution order, names do not.
  void seal(OpRecord& op) const;
};

/// Per-(tool, hook) events and cycles summed over many HookProfilers.
///
/// Use one fresh HookProfiler per Sim and add it here after the run: a
/// profiler reused across Sims registers a new row on every attach while
/// the runtime keeps adding to the row of the tool's index, so the second
/// Sim onwards lands in row 0 and leaves empty "TOTAL 0" rows behind.
class HookTally {
 public:
  struct Cell {
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
  };
  using Row = std::array<Cell, rg::obs::kHookCount>;

  void add(const rg::obs::HookProfiler& profiler);
  void merge(const HookTally& other);
  /// Sum of `hooks` for `tool` (zero when the tool never ran).
  Cell get(const std::string& tool,
           std::initializer_list<rg::obs::Hook> hooks) const;
  std::uint64_t total_cycles() const;
  /// Event counts only (the deterministic half), for exact comparison.
  bool same_events(const HookTally& other) const;
  /// Table of every non-empty cell: tool, hook, events, cycles, ns/event.
  std::string render(double ns_per_cycle) const;

 private:
  std::map<std::string, Row> rows_;
};

// --- sessions (session.cpp) -------------------------------------------------

/// The §4.5 ladder: what is attached to a session.
enum class Stage : std::uint8_t {
  Native,    // Proxy::handle_wire on the calling thread, no Sim
  Vm,        // Sim, no tools
  Detector,  // Sim + the workload's tools
  Observed,  // ... + flight recorder, SpanTracker, ContentionTable
};
const char* to_string(Stage stage);

/// One simulated execution: its traffic and the ExperimentConfig that
/// run_scenario would use for it (the config's observability pointers are
/// ignored: the stage decides what is attached).
struct Cell {
  std::string key;
  const rg::sipp::Scenario* scenario = nullptr;
  rg::sipp::ExperimentConfig config;
  /// > 0: split every phase into dispatch calls of at most this many
  /// requests (closed loop: each call is joined before the next is sent).
  std::size_t batch = 0;
  /// > 0: stop sending after this many traffic calls.
  std::size_t max_calls = 0;
  /// Digest the (sorted) responses of every dispatch call.
  bool digest_responses = false;
};

/// Capacity of the flight recorder attached at Stage::Observed (the soak
/// matrix's ring size).
constexpr std::size_t kRecorderCapacity = 1u << 15;

struct CellRun {
  bool completed = false;
  std::string error;
  /// One entry per traffic call (a dispatch call, or the ChaosClient run).
  std::vector<Clock::time_point> call_start;
  std::vector<double> call_seconds;
  std::vector<std::uint64_t> call_requests;
  std::vector<std::string> call_digests;  // when Cell::digest_responses
  CellOutputs outputs;
  Counters counters;  // per-layer counts of the execution

  double traffic_seconds() const;
  std::uint64_t requests() const;
};

/// Runs `cell` under a Sim at `stage` (not Stage::Native). With `profiler`
/// (a fresh one per call) the runtime stamps every tool hook.
CellRun run_cell(const Cell& cell, Stage stage,
                 rg::obs::HookProfiler* profiler = nullptr);

/// Stage::Native for a ladder unit: single-threaded Proxy::handle_wire, one
/// call per distinct scenario. Times only the handle_wire loop: outside a
/// Sim, Proxy::start and shutdown sleep on the wall clock.
CellRun run_native(const std::vector<Cell>& cells);

// --- workloads (workloads.cpp) ----------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// Number of entries in the reference pool; a run visits entries
  /// (base + k) mod pool_size() for k = 0, 1, ... with base drawn from the
  /// seed, so every input it can meet has a stored reference digest.
  virtual std::size_t pool_size() const = 0;
  /// Builds the scenarios of every pool entry.
  virtual void generate() = 0;
  /// Runs one pool entry as a closed-loop group of ops. With `hooks`, every
  /// Sim gets a fresh HookProfiler that is tallied there.
  virtual std::vector<OpRecord> run_entry(std::size_t entry,
                                          HookTally* hooks) = 0;
  /// The untimed warm-up op of set-up.
  virtual void warm_up() = 0;
  /// The Sims of one ladder unit: the traffic and tools of `entry`.
  virtual std::vector<Cell> ladder_cells(std::size_t entry) const = 0;
  /// The ladder stage whose cells are configured exactly like the ops, so
  /// their outputs must reproduce the ops' reference digests.
  virtual Stage op_stage() const = 0;
  /// The ops `run` stands for, digested exactly as run_entry digests them.
  virtual std::vector<OpRecord> ops_of(const Cell& cell,
                                       const CellRun& run) const;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
