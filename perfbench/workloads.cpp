// The three workloads. Each draws its inputs from a fixed pool of entries
// (see Workload::pool_size) whose reference digests live in refs/.
#include <algorithm>
#include <array>

#include "harness.hpp"
#include "obs/contention.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "sipp/soak.hpp"
#include "sipp/testcases.hpp"

namespace perfbench {

using namespace rg;

namespace {

/// Seed of pool entry `entry`: the (entry + 1)-th positive integer not in
/// `unsafe`. The unsafe seeds are those whose schedules let a BYE's
/// Dialog::terminate copy a MediaSession's cow_string while a concurrent
/// INFO's MediaSession::update frees it: a use-after-free and double free in
/// this process, not just a reported race. AddressSanitizer finds them in a
/// scan of every candidate seed (README.md, "Unsafe seeds").
std::uint64_t pool_seed(std::size_t entry,
                        std::initializer_list<std::uint64_t> unsafe) {
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i <= entry; ++i)
    do ++seed;
    while (std::find(unsafe.begin(), unsafe.end(), seed) != unsafe.end());
  return seed;
}

/// Runs one cell through run_scenario, the public experiment entry point.
/// `observed` attaches a fresh recorder, SpanTracker and ContentionTable.
OpRecord run_scenario_op(const Cell& cell, bool observed, HookTally* hooks,
                         std::uint64_t* reported_locations = nullptr) {
  OpRecord op;
  op.key = cell.key;
  op.start = Clock::now();
  sipp::ExperimentConfig config = cell.config;
  obs::HookProfiler profiler;  // fresh per Sim, see HookTally
  if (hooks != nullptr) config.profiler = &profiler;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::SpanTracker> spans;
  std::unique_ptr<obs::ContentionTable> contention;
  if (observed) {
    obs::RecorderConfig rec_cfg;
    rec_cfg.capacity = kRecorderCapacity;
    recorder = std::make_unique<obs::FlightRecorder>(rec_cfg);
    spans = std::make_unique<obs::SpanTracker>(recorder.get());
    contention = std::make_unique<obs::ContentionTable>();
    config.recorder = recorder.get();
    config.spans = spans.get();
    config.contention = contention.get();
  }
  const sipp::ExperimentResult result = sipp::run_scenario(*cell.scenario, config);
  op.seconds = seconds_between(op.start, Clock::now());

  const bool chaos_client = config.chaos_client || config.chaos.any_faults();
  op.requests = chaos_client ? result.chaos.deliveries
                             : cell.scenario->total_messages();
  if (!result.sim.completed())
    op.error = "sim did not complete: " + result.sim.error;
  else if (chaos_client && !result.chaos.converged())
    op.error = "lost transactions";
  else if (!result.transitions_monotone)
    op.error = "breaker log not monotone: " + result.transitions_error;
  CellOutputs::of(result).seal(op);
  if (hooks != nullptr) hooks->add(profiler);
  if (reported_locations != nullptr)
    *reported_locations = result.reported_locations;
  return op;
}

// --- fig6-sweep ---------------------------------------------------------------

/// T1-T8 x {original, hwlc, hwlc_dr} at intensity 1, thread-per-request
/// dispatch with 8 workers and the paper's faults: the Fig. 6 experiment.
/// One pool entry is one repetition (24 ops) with its own seed.
class Fig6Sweep final : public Workload {
 public:
  static constexpr std::size_t kPool = 64;

  std::size_t pool_size() const override { return kPool; }

  void generate() override {
    scenarios_.assign(kPool, {});
    for (std::size_t e = 0; e < kPool; ++e)
      for (int n = 1; n <= sipp::kTestCaseCount; ++n)
        scenarios_[e].push_back(sipp::build_testcase(n, seed(e)));
  }

  std::vector<OpRecord> run_entry(std::size_t entry,
                                  HookTally* hooks) override {
    std::vector<OpRecord> ops;
    std::vector<std::uint64_t> locations(kCellsPerEntry);
    const std::vector<Cell> cells = ladder_cells(entry);
    for (std::size_t i = 0; i < cells.size(); ++i)
      ops.push_back(run_scenario_op(cells[i], false, hooks, &locations[i]));
    // Each Fig. 6 row must keep the paper's ordering: every improvement
    // removes warnings, none adds any.
    for (std::size_t row = 0; row < ops.size(); row += kVariants.size()) {
      if (locations[row] >= locations[row + 1] &&
          locations[row + 1] >= locations[row + 2])
        continue;
      for (std::size_t v = 0; v < kVariants.size(); ++v)
        ops[row + v].error = "row violates original >= hwlc >= hwlc_dr";
    }
    return ops;
  }

  void warm_up() override {
    (void)run_scenario_op(ladder_cells(0).front(), false, nullptr);
  }

  std::vector<Cell> ladder_cells(std::size_t entry) const override {
    std::vector<Cell> cells;
    for (int n = 1; n <= sipp::kTestCaseCount; ++n) {
      for (const Variant& v : kVariants) {
        Cell cell;
        cell.key = "fig6/r" + std::to_string(seed(entry)) + "/T" +
                   std::to_string(n) + "/" + v.name;
        cell.scenario = &scenarios_[entry][static_cast<std::size_t>(n - 1)];
        cell.config.seed = seed(entry);
        cell.config.mode = sipp::DispatchMode::ThreadPerRequest;
        cell.config.parallelism = 8;
        cell.config.detector = v.detector();
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  }

  Stage op_stage() const override { return Stage::Detector; }

 private:
  struct Variant {
    const char* name;
    core::HelgrindConfig (*detector)();
  };
  static constexpr std::array<Variant, 3> kVariants = {{
      {"original", &core::HelgrindConfig::original},
      {"hwlc", &core::HelgrindConfig::hwlc},
      {"hwlc_dr", &core::HelgrindConfig::hwlc_dr},
  }};
  static constexpr std::size_t kCellsPerEntry =
      sipp::kTestCaseCount * kVariants.size();

  static std::uint64_t seed(std::size_t entry) {
    return pool_seed(entry, {29, 50, 66, 93});
  }

  std::vector<std::vector<sipp::Scenario>> scenarios_;
};

// --- long-session -------------------------------------------------------------

/// One Sim, one proxy, hwlc_dr: T5 heavy mixed traffic at high intensity,
/// sent in fixed-size closed-loop batches. Each op is one dispatch call;
/// one pool entry is one whole session, so detector state (threads,
/// segments, shadow pages, locksets, registrar and transaction tables)
/// grows through the same profile on every run.
class LongSession final : public Workload {
 public:
  static constexpr std::size_t kPool = 16;
  static constexpr std::uint32_t kIntensity = 32;
  static constexpr std::size_t kBatch = 32;

  std::size_t pool_size() const override { return kPool; }

  void generate() override {
    scenarios_.clear();
    for (std::size_t e = 0; e < kPool; ++e)
      scenarios_.push_back(sipp::build_testcase(5, seed(e), kIntensity));
  }

  std::vector<OpRecord> run_entry(std::size_t entry,
                                  HookTally* hooks) override {
    const Cell cell = ladder_cells(entry).front();
    obs::HookProfiler profiler;
    const CellRun run =
        run_cell(cell, Stage::Detector, hooks != nullptr ? &profiler : nullptr);
    if (hooks != nullptr) hooks->add(profiler);
    return ops_of(cell, run);
  }

  void warm_up() override {
    Cell cell = ladder_cells(0).front();
    cell.max_calls = 1;
    (void)run_cell(cell, Stage::Detector);
  }

  std::vector<Cell> ladder_cells(std::size_t entry) const override {
    Cell cell;
    cell.key = "long/s" + std::to_string(seed(entry));
    cell.scenario = &scenarios_[entry];
    cell.config.seed = seed(entry);
    cell.config.mode = sipp::DispatchMode::ThreadPerRequest;
    cell.config.parallelism = 8;
    cell.config.detector = core::HelgrindConfig::hwlc_dr();
    cell.batch = kBatch;
    cell.digest_responses = true;
    return {cell};
  }

  Stage op_stage() const override { return Stage::Detector; }

  /// One op per dispatch call, digested by its sorted responses; the last
  /// op also carries the session's detector outputs.
  std::vector<OpRecord> ops_of(const Cell& cell,
                               const CellRun& run) const override {
    std::vector<OpRecord> ops(run.call_seconds.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      OpRecord& op = ops[i];
      op.key = cell.key + "/b" + std::to_string(i);
      op.start = run.call_start[i];
      op.seconds = run.call_seconds[i];
      op.requests = run.call_requests[i];
      op.error = run.error;
      op.digest = run.call_digests[i];
    }
    if (!ops.empty()) {
      OpRecord end;
      run.outputs.seal(end);
      ops.back().digest = Digest().add(ops.back().digest).add(end.digest).hex();
      ops.back().summary = end.summary;
    }
    return ops;
  }

 private:
  static std::uint64_t seed(std::size_t entry) {
    return pool_seed(entry, {6, 10, 11, 14, 28, 43, 46, 48});
  }

  std::vector<sipp::Scenario> scenarios_;
};

// --- chaos-soak-observed --------------------------------------------------------

/// Soak cells (ChaosClient, 3 upstream targets, hwlc_dr, proxy and upstream
/// fault injection) with the flight recorder, SpanTracker, ContentionTable
/// and LockGraphTool attached: the always-on observability path. One pool
/// entry is one seed across the three default soak mixes.
class ChaosSoakObserved final : public Workload {
 public:
  static constexpr std::size_t kPool = 32;

  std::size_t pool_size() const override { return kPool; }

  void generate() override {
    mixes_ = sipp::default_soak_mixes();
    scenarios_.clear();
    for (std::size_t e = 0; e < kPool; ++e)
      scenarios_.push_back(sipp::build_testcase(5, seed(e)));
  }

  std::vector<OpRecord> run_entry(std::size_t entry,
                                  HookTally* hooks) override {
    std::vector<OpRecord> ops;
    for (const Cell& cell : ladder_cells(entry))
      ops.push_back(run_scenario_op(cell, true, hooks));
    return ops;
  }

  void warm_up() override {
    (void)run_scenario_op(ladder_cells(0).front(), true, nullptr);
  }

  std::vector<Cell> ladder_cells(std::size_t entry) const override {
    std::vector<Cell> cells;
    for (const sipp::SoakMix& mix : mixes_) {
      Cell cell;
      cell.key = "soak/s" + std::to_string(seed(entry)) + "/" + mix.name;
      cell.scenario = &scenarios_[entry];
      cell.config = sipp::soak_experiment(seed(entry), mix);
      cell.config.deadlock_tool = true;
      cells.push_back(std::move(cell));
    }
    return cells;
  }

  Stage op_stage() const override { return Stage::Observed; }

 private:
  static std::uint64_t seed(std::size_t entry) {
    return pool_seed(entry, {5, 15, 16, 44, 51, 52});
  }

  std::vector<sipp::SoakMix> mixes_;
  std::vector<sipp::Scenario> scenarios_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig6-sweep") return std::make_unique<Fig6Sweep>();
  if (name == "long-session") return std::make_unique<LongSession>();
  if (name == "chaos-soak-observed")
    return std::make_unique<ChaosSoakObserved>();
  return nullptr;
}

}  // namespace perfbench
