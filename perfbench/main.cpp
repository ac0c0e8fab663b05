// perfbench — one run of one RaceGuard benchmark workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--refs DIR] [--out DIR]
//   perfbench --workload NAME --make-refs [--refs DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 alternates untraced
// and traced (hook-profiled) repetitions of one pool entry, then runs the
// §4.5 ladder on it and prints the per-layer metrics. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// Traced runs also write <out>/<workload>-seed<N>.spans.json (Chrome trace
// events) and <out>/<workload>-seed<N>.hooks.txt. --make-refs writes the
// reference digests of every pool entry to <refs>/<workload>.tsv.
#include <malloc.h>
#include <sys/resource.h>
#include <ucontext.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.hpp"
#include "obs/profiler.hpp"
#include "support/intern.hpp"
#include "support/prng.hpp"

namespace perfbench {
namespace {

using rg::obs::Hook;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool make_refs = false;
  std::string refs = "perfbench/refs";
  std::string out = ".bench_build/traces";
};

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--make-refs") {
      a.make_refs = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--refs") a.refs = value;
    else if (flag == "--out") a.out = value;
    else die("unknown flag " + flag);
  }
  if (a.workload.empty()) die("--workload is required");
  return a;
}

// --- references -----------------------------------------------------------------

using Refs = std::unordered_map<std::string, std::string>;  // key -> digest

std::string refs_path(const Args& a) { return a.refs + "/" + a.workload + ".tsv"; }

Refs load_refs(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read reference digests " + path);
  Refs refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos) die("malformed line in " + path);
    refs[line.substr(0, a)] = line.substr(a + 1, b - a - 1);
  }
  return refs;
}

/// Replay values (OpRecord::replay) first seen in this process, by key.
using Replays = std::unordered_map<std::string, std::uint64_t>;

/// Checks ops against the references and against earlier runs of the same
/// key in this process; returns the number that failed.
std::uint64_t check_ops(const std::vector<OpRecord>& ops, const Refs& refs,
                        Replays& replays, std::vector<std::string>& failures) {
  std::uint64_t failed = 0;
  for (const OpRecord& op : ops) {
    std::string why = op.error;
    const auto it = refs.find(op.key);
    if (why.empty() && it == refs.end()) {
      why = "no reference digest";
    } else if (why.empty() && it->second != op.digest) {
      why = "digest " + op.digest + " != reference " + it->second + " (" +
            op.summary + ")";
    } else if (why.empty()) {
      const auto [seen, first] = replays.emplace(op.key, op.replay);
      if (!first && seen->second != op.replay)
        why = "recorder hash " + std::to_string(op.replay) +
              " does not replay " + std::to_string(seen->second);
    }
    if (why.empty()) continue;
    ++failed;
    if (failures.size() < 10) failures.push_back(op.key + ": " + why);
  }
  return failed;
}

// --- spans ----------------------------------------------------------------------

/// Spans recorded by the driver around every op, entry and ladder stage;
/// kept in memory and written as Chrome trace events at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::size_t open(std::string name, std::size_t parent) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return spans_.size();  // ids start at 1; 0 = no parent
  }
  void close(std::size_t id) { spans_[id - 1].end = Clock::now(); }
  void add(std::string name, std::size_t parent, Clock::time_point start,
           double seconds) {
    spans_.push_back({std::move(name), parent, start,
                      start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%zu}}\n",
                    i == 0 ? "" : ",", s.name.c_str(), us(s.start),
                    us(s.end) - us(s.start), i + 1, s.parent);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    Clock::time_point start, end;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

void record_ops(SpanLog* spans, std::size_t parent,
                const std::vector<OpRecord>& ops) {
  if (spans == nullptr) return;
  for (const OpRecord& op : ops) spans->add("op " + op.key, parent, op.start, op.seconds);
}

// --- statistics -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- host probe -----------------------------------------------------------------

/// A fixed piece of work, independent of the program, that the driver times
/// next to the ops to track how fast the shared host runs at that moment.
///
/// On the shared 4-core VM the bounds were set on, identical ops drifted by
/// 10-40 % over tens of seconds as other tenants loaded the memory system;
/// process CPU time drifted with them, and a pure-ALU loop did not drift at
/// all. The probe does the kind of work that drifts with the ops: short
/// strings hashed into a map with heap churn, and fiber switches through
/// swapcontext (the Sim's own context switch). Over 1 s passes its time
/// tracked both workloads' throughput with a correlation of -0.96 to -0.97,
/// and scaling each pass by it cut the pass-to-pass spread of
/// requests_per_s from 11-12 % to 3.3 %.
class HostProbe {
 public:
  HostProbe() {
    getcontext(&fiber_);
    fiber_.uc_stack.ss_sp = stack_.data();
    fiber_.uc_stack.ss_size = stack_.size();
    fiber_.uc_link = nullptr;
    makecontext(&fiber_, &HostProbe::bounce, 0);
  }

  /// Seconds one round of the probe took now.
  double sample() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    std::uint64_t sink = 0;
    std::unordered_map<std::string, std::uint64_t> map;
    for (std::size_t i = 0; i < kMapRounds; ++i) {
      map["probe.key." + std::to_string(rg::support::splitmix64(state) % 1024)] += i;
      const std::vector<char> block(64 + i % 512, static_cast<char>(i));
      sink += static_cast<unsigned char>(block.back());
    }
    for (std::size_t i = 0; i < kSwitches; ++i) swapcontext(&caller_, &fiber_);
    sink_ = sink + map.size();
    return seconds_between(t0, Clock::now());
  }

 private:
  static constexpr std::size_t kMapRounds = 3000;
  static constexpr std::size_t kSwitches = 2000;

  static void bounce() {
    for (;;) swapcontext(&fiber_, &caller_);
  }

  static inline ucontext_t caller_{}, fiber_{};
  std::vector<char> stack_ = std::vector<char>(64 * 1024);
  volatile std::uint64_t sink_ = 0;
};

/// Timing metrics are scaled to a host on which one probe sample takes this
/// long (its median on the idle 4-core VM above): a value reads as the
/// measured one times kProbeReferenceSeconds / (the probe's median next to it).
constexpr double kProbeReferenceSeconds = 1.4e-3;

double probe_scale(const std::vector<double>& probe_seconds) {
  return kProbeReferenceSeconds / quantile(probe_seconds, 0.5);
}

// --- the run --------------------------------------------------------------------

constexpr int kSetups = 21;
/// A pass has at least kMinOps ops and kPassSeconds of op time, and is
/// scaled by the probe samples taken between its entries; a run has at
/// least kMinPasses passes.
constexpr std::size_t kMinOps = 100;
constexpr double kPassSeconds = 1.0;
constexpr std::size_t kMinPasses = 8;
constexpr int kLadderReps = 3;
/// The one per-layer count that is not deterministic: whether a shadow
/// lookup hits the last-page TLB depends on where the heap put each block.
constexpr const char* kLayoutDependent = "shadow.tlb_hits";

/// Timed ops of a run: the samples behind requests_per_s and op latency.
struct OpTotals {
  std::vector<double> ms;
  std::uint64_t requests = 0;
  double seconds = 0;

  void add(const std::vector<OpRecord>& ops, double scale = 1) {
    for (const OpRecord& op : ops) {
      ms.push_back(op.seconds * scale * 1e3);
      requests += op.requests;
      seconds += op.seconds * scale;
    }
  }
  double requests_per_s() const { return ratio(static_cast<double>(requests), seconds); }
};

/// Workaround, to be deleted once support::Interner keeps its strings at
/// stable addresses: its map is keyed by views into a std::vector of
/// std::string, so when the vector grows, the keys of short (SSO) strings
/// point into the freed old buffer. A long-session run interns ~6.5k
/// strings (one lock name per transaction). Interning long fillers first
/// makes the vector grow to 2^15 slots before any program string exists,
/// so no reallocation happens while the program runs.
void reserve_interner() {
  auto& interner = rg::support::global_interner();
  for (std::size_t i = 0; interner.size() <= (1u << 14); ++i)
    interner.intern("perfbench.reserved.interner.slot." + std::to_string(i));
}

/// Fixes glibc's allocator thresholds for the whole run: blocks up to 32 MiB
/// come from the heap and free() never shrinks it (malloc_trim between
/// entries still does). With the default dynamic thresholds a freed block
/// may be unmapped at once, and FlightRecorder::AddrMap::id_of reads its
/// slot after grow() has freed the old table: about 4 in 10 traced
/// long-session runs then crash. Like reserve_interner, delete this once
/// the recorder is fixed; it also keeps allocation behaviour from
/// depending on which blocks a process happened to free first.
void fix_malloc_thresholds() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
}

int make_refs(const Args& args) {
  const std::unique_ptr<Workload> w = make_workload(args.workload);
  w->generate();
  std::filesystem::create_directories(args.refs);
  std::ofstream out(refs_path(args));
  out << "# reference digests of " << args.workload
      << ": key, digest, outputs (regenerate with run.py --make-refs)\n";
  std::uint64_t failed = 0;
  for (std::size_t e = 0; e < w->pool_size(); ++e) {
    for (const OpRecord& op : w->run_entry(e, nullptr)) {
      if (!op.error.empty()) {
        std::fprintf(stderr, "%s: %s\n", op.key.c_str(), op.error.c_str());
        ++failed;
      }
      out << op.key << '\t' << op.digest << '\t' << op.summary << '\n';
    }
    std::fprintf(stderr, "entry %zu done\n", e);
  }
  std::printf("wrote %s (%" PRIu64 " failed ops)\n", refs_path(args).c_str(), failed);
  return failed == 0 ? 0 : 1;
}

/// The ladder's timing of one stage over one unit.
struct StageRun {
  double seconds = 0;
  std::uint64_t requests = 0;
  Counters counters;
  double us_per_req() const { return ratio(seconds * 1e6, static_cast<double>(requests)); }
};

StageRun run_stage(const std::vector<Cell>& cells, Stage stage, SpanLog& spans,
                   std::size_t parent, std::vector<CellRun>* keep) {
  StageRun out;
  const std::size_t span = spans.open(std::string("stage ") + to_string(stage), parent);
  auto account = [&](const CellRun& run, std::size_t cell_span) {
    for (std::size_t i = 0; i < run.call_seconds.size(); ++i)
      spans.add("traffic", cell_span, run.call_start[i], run.call_seconds[i]);
    out.seconds += run.traffic_seconds();
    out.requests += run.requests();
    for (const auto& [name, v] : run.counters) out.counters[name] += v;
  };
  if (stage == Stage::Native) {
    const std::size_t cs = spans.open("cell native-unit", span);
    const CellRun run = run_native(cells);
    spans.close(cs);
    account(run, cs);
  } else {
    for (const Cell& cell : cells) {
      const std::size_t cs = spans.open("cell " + cell.key, span);
      CellRun run = run_cell(cell, stage);
      spans.close(cs);
      account(run, cs);
      if (keep != nullptr) keep->push_back(std::move(run));
    }
  }
  spans.close(span);
  return out;
}

/// Per-layer metrics of a traced run, from the ladder medians (µs per
/// request by stage), the observed stage's counters and the hook tallies.
std::vector<Metric> layer_metrics(const std::vector<double>& us, const StageRun& observed,
                                  const HookTally& hooks_round0, const HookTally& hooks_all,
                                  double ns_per_cycle, const OpTotals& untraced,
                                  const OpTotals& traced) {
  const double native = us[0], vm = us[1], detector = us[2], obs = us[3];
  Counters c = observed.counters;  // missing names read as 0
  const double reqs = static_cast<double>(observed.requests);
  const double steps_per_req = ratio(c["rt.steps"], reqs);
  std::vector<Metric> m = {
      {"ladder.native_us_per_req", native, "us"},
      {"ladder.vm_us_per_req", vm, "us"},
      {"ladder.detector_us_per_req", detector, "us"},
      {"ladder.observed_us_per_req", obs, "us"},
      {"ladder.slowdown_x", ratio(detector, native), "x"},
      {"sip.us_per_req", native, "us"},
      {"rt.us_per_req", vm - native, "us"},
      {"core.us_per_req", detector - vm, "us"},
      {"obs.us_per_req", obs - detector, "us"},
      {"trace.overhead", ratio(traced.requests_per_s(), untraced.requests_per_s()), "ratio"},
      {"rt.steps", c["rt.steps"], "count"},
      {"rt.steps_per_req", steps_per_req, "count"},
      {"rt.fast_path_ratio", ratio(c["rt.fast_path_steps"], c["rt.steps"]), "ratio"},
      {"rt.threads_spawned", c["rt.threads_spawned"], "count"},
      {"rt.ns_per_step", ratio((vm - native) * 1e3, steps_per_req), "ns"},
      {"rt.access_events_per_req", ratio(c["rt.access_events"], reqs), "count"},
      {"rt.sync_events_per_req", ratio(c["rt.sync_events"], reqs), "count"},
      {"rt.virtual_time", c["rt.virtual_time"], "ticks"},
  };
  struct Group {
    const char* name;
    std::initializer_list<Hook> hooks;
  };
  const Group groups[] = {
      {"access", {Hook::Access}},
      {"alloc", {Hook::Alloc}},
      {"free", {Hook::Free}},
      {"destruct", {Hook::Destruct}},
      {"thread_start", {Hook::ThreadStart}},
      {"thread_join", {Hook::ThreadJoin}},
      {"lock", {Hook::PreLock, Hook::PostLock, Hook::Unlock}},
      {"lock_create", {Hook::LockCreate}},
      {"queue", {Hook::QueuePut, Hook::QueueGet}},
  };
  // Profiler rows are named by Tool::name(): LockGraphTool reports as
  // "deadlock".
  for (const auto& [metric, tool] : {std::pair{"helgrind", "helgrind"},
                                     std::pair{"lockgraph", "deadlock"}}) {
    for (const Group& g : groups) {
      const std::string base = std::string("core.") + metric + "." + g.name;
      const HookTally::Cell all = hooks_all.get(tool, g.hooks);
      m.push_back({base + ".events",
                   static_cast<double>(hooks_round0.get(tool, g.hooks).events), "count"});
      m.push_back({base + ".ns_per_event",
                   ratio(static_cast<double>(all.cycles) * ns_per_cycle,
                         static_cast<double>(all.events)),
                   "ns"});
    }
  }
  const std::vector<Metric> rest = {
      {"core.hook_share",
       ratio(static_cast<double>(hooks_all.total_cycles()) * ns_per_cycle,
             traced.seconds * 1e9),
       "ratio"},
      {"core.reported_locations", c["core.reported_locations"], "count"},
      {"core.total_warnings", c["core.total_warnings"], "count"},
      {"shadow.locksets", c["shadow.locksets"], "count"},
      {"shadow.segments", c["shadow.segments"], "count"},
      {"shadow.tlb_hit_ratio", ratio(c["shadow.tlb_hits"], c["shadow.tlb_lookups"]), "ratio"},
      {"shadow.tlb_lookups", c["shadow.tlb_lookups"], "count"},
      {"shadow.lockset_cache_hit_ratio",
       ratio(c["shadow.lockset_cache_hits"], c["shadow.lockset_cache_lookups"]), "ratio"},
      {"shadow.lockset_cache_lookups", c["shadow.lockset_cache_lookups"], "count"},
      {"obs.recorder.events", c["obs.recorder.events"], "count"},
      {"obs.recorder.dropped", c["obs.recorder.dropped"], "count"},
      {"obs.spans", c["obs.spans"], "count"},
      {"obs.contention.acquisitions", c["obs.contention.acquisitions"], "count"},
      {"obs.contention.wait_ticks", c["obs.contention.wait_ticks"], "ticks"},
      {"sip.responses", c["sip.responses"], "count"},
      {"sip.sheds", c["sip.sheds"], "count"},
      {"sip.upstream_forwards", c["sip.upstream_forwards"], "count"},
      {"sip.failovers", c["sip.failovers"], "count"},
      {"sip.breaker_opens", c["sip.breaker_opens"], "count"},
      {"sip.degraded_serves", c["sip.degraded_serves"], "count"},
      {"sipp.calls", c["sipp.calls"], "count"},
      {"sipp.finals", c["sipp.finals"], "count"},
      {"sipp.give_ups", c["sipp.give_ups"], "count"},
      {"sipp.retransmissions", c["sipp.retransmissions"], "count"},
      {"sipp.goodput", ratio(c["sipp.finals"], c["sipp.calls"]), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int run(const Args& args, Clock::time_point process_start) {
  const std::uint64_t c0 = rg::obs::cycle_now();
  SpanLog spans(process_start);
  const std::size_t root = spans.open("run " + args.workload, 0);

  // Set-up: scenario generation, reference digests, one warm-up op; done
  // kSetups times (the first from process start), each followed by a probe
  // sample; the median is reported, scaled like the ops.
  HostProbe probe;
  std::unique_ptr<Workload> w;
  Refs refs;
  std::vector<double> setups, setup_probes;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = i == 0 ? process_start : Clock::now();
    const std::size_t s = spans.open("setup", root);
    w = make_workload(args.workload);
    w->generate();
    refs = load_refs(refs_path(args));
    w->warm_up();
    spans.close(s);
    setups.push_back(seconds_between(t0, Clock::now()));
    setup_probes.push_back(probe.sample());
  }

  std::uint64_t state = args.seed;
  const std::size_t base = rg::support::splitmix64(state) % w->pool_size();
  std::vector<std::string> failures;
  Replays replays;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  auto check = [&](const std::vector<OpRecord>& ops) {
    attempted += ops.size();
    failed += check_ops(ops, refs, replays, failures);
  };

  const Clock::time_point t_start = Clock::now();
  auto elapsed = [&] { return seconds_between(t_start, Clock::now()); };
  std::vector<Metric> metrics;

  if (!args.trace) {
    // Closed loop over pool entries, grouped into passes of at least
    // kMinOps ops and kPassSeconds of op time, with a probe sample after
    // every entry. Each pass's op times are scaled by its probe median
    // (see HostProbe); the timing metrics are taken over all scaled ops.
    // A run ends on a whole sweep of the pool, so every seed times the
    // same inputs (the seed picks the entry it starts from): entries differ
    // in cost, and a part-sweep made the metrics depend on which ran.
    OpTotals raw, scaled;
    std::vector<double> probes;
    std::size_t passes = 0;
    std::size_t k = 0;
    // True once the run (counting `pass_done` passes) may end.
    auto done = [&](std::size_t pass_done) {
      return pass_done >= kMinPasses && k % w->pool_size() == 0 &&
             elapsed() >= args.seconds;
    };
    while (!done(passes)) {
      std::vector<std::vector<OpRecord>> entries;
      std::vector<double> pass_probes;
      OpTotals pass;
      while ((pass.ms.size() < kMinOps || pass.seconds < kPassSeconds) &&
             (pass.ms.empty() || !done(passes + 1))) {
        const std::size_t entry = (base + k++) % w->pool_size();
        const std::size_t s = spans.open("entry " + std::to_string(entry), root);
        std::vector<OpRecord> ops = w->run_entry(entry, nullptr);
        spans.close(s);
        check(ops);
        pass.add(ops);
        entries.push_back(std::move(ops));
        // Hand freed heap back between entries, so peak RSS is the largest
        // entry's own footprint, not an artefact of the order entries ran.
        malloc_trim(0);
        pass_probes.push_back(probe.sample());
      }
      const double scale = probe_scale(pass_probes);
      for (const std::vector<OpRecord>& ops : entries) {
        raw.add(ops);
        scaled.add(ops, scale);
      }
      probes.insert(probes.end(), pass_probes.begin(), pass_probes.end());
      ++passes;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", quantile(setups, 0.5) * probe_scale(setup_probes), "s"},
        {"requests_per_s", scaled.requests_per_s(), "1/s"},
        {"op_ms_p50", quantile(scaled.ms, 0.5), "ms"},
        {"op_ms_p90", quantile(scaled.ms, 0.9), "ms"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"success_rate", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"},
    };
    std::printf("%s seed %" PRIu64 ": %" PRIu64 " ops in %zu passes from pool entry %zu on, error_rate %.6f\n",
                args.workload.c_str(), args.seed, attempted, passes, base,
                ratio(static_cast<double>(failed), static_cast<double>(attempted)));
    std::printf("unscaled: setup %.6f s, %.1f requests/s, op p50 %.4f ms, op p90 %.4f ms; "
                "probe median %.4f ms (reference %.4f ms)\n",
                quantile(setups, 0.5), raw.requests_per_s(), quantile(raw.ms, 0.5),
                quantile(raw.ms, 0.9), quantile(probes, 0.5) * 1e3,
                kProbeReferenceSeconds * 1e3);
  } else {
    // Rounds of the same pool entry, untraced then traced: the traced
    // repetitions give the hook tables, the pair gives trace.overhead, and
    // every traced round must reproduce round 0's hook event counts.
    OpTotals untraced, traced;
    HookTally hooks_round0, hooks_all;
    for (int round = 0; round == 0 || elapsed() < args.seconds; ++round) {
      const std::size_t r = spans.open("round " + std::to_string(round), root);
      std::size_t s = spans.open("entry untraced", r);
      std::vector<OpRecord> ops = w->run_entry(base, nullptr);
      spans.close(s);
      record_ops(&spans, s, ops);
      check(ops);
      untraced.add(ops);

      HookTally hooks;
      s = spans.open("entry traced", r);
      ops = w->run_entry(base, &hooks);
      spans.close(s);
      record_ops(&spans, s, ops);
      check(ops);
      traced.add(ops);
      spans.close(r);
      if (round == 0) hooks_round0 = hooks;
      else if (!hooks.same_events(hooks_round0)) {
        correct = false;
        failures.push_back("hook event counts differ between traced rounds");
      }
      hooks_all.merge(hooks);
    }
    const std::uint64_t c1 = rg::obs::cycle_now();
    const double ns_per_cycle =
        ratio(seconds_between(process_start, Clock::now()) * 1e9,
              static_cast<double>(c1 - c0));

    // The §4.5 ladder on the same entry. Stage medians over kLadderReps;
    // the deterministic counters of every rep must agree, and the stage
    // configured like the ops must reproduce their reference digests.
    const std::vector<Cell> cells = w->ladder_cells(base);
    std::vector<std::vector<double>> us(4);
    StageRun observed;
    const std::size_t ladder = spans.open("ladder", root);
    for (int rep = 0; rep < kLadderReps; ++rep) {
      const std::size_t rs = spans.open("ladder rep", ladder);
      for (const Stage stage : {Stage::Native, Stage::Vm, Stage::Detector, Stage::Observed}) {
        std::vector<CellRun> runs;
        const bool op_stage = stage == w->op_stage();
        StageRun sr = run_stage(cells, stage, spans, rs, op_stage ? &runs : nullptr);
        us[static_cast<std::size_t>(stage)].push_back(sr.us_per_req());
        for (std::size_t i = 0; i < runs.size(); ++i) {
          std::vector<std::string> why;
          if (check_ops(w->ops_of(cells[i], runs[i]), refs, replays, why) != 0) {
            correct = false;
            failures.push_back("ladder " + std::string(to_string(stage)) +
                               " stage diverges from the ops: " + why.front());
          }
        }
        if (stage != Stage::Observed) continue;
        if (rep == 0) observed = std::move(sr);
        else
          for (const auto& [name, v] : sr.counters)
            if (name != kLayoutDependent && observed.counters[name] != v) {
              correct = false;
              failures.push_back("ladder counter " + name +
                                 " differs between repetitions");
            }
      }
      spans.close(rs);
    }
    spans.close(ladder);

    std::vector<double> medians;
    for (const auto& v : us) medians.push_back(quantile(v, 0.5));
    metrics = layer_metrics(medians, observed, hooks_round0, hooks_all,
                            ns_per_cycle, untraced, traced);

    std::filesystem::create_directories(args.out);
    const std::string stem =
        args.out + "/" + args.workload + "-seed" + std::to_string(args.seed);
    std::ofstream tables(stem + ".hooks.txt");
    tables << "# " << args.workload << " seed " << args.seed << ", pool entry "
           << base << "\n\n## tool hooks over all traced rounds ("
           << ns_per_cycle << " ns/cycle)\n"
           << hooks_all.render(ns_per_cycle) << "\n## ladder (us/request by rep)\n";
    for (const Stage stage : {Stage::Native, Stage::Vm, Stage::Detector, Stage::Observed}) {
      tables << to_string(stage);
      for (const double v : us[static_cast<std::size_t>(stage)]) tables << ' ' << v;
      tables << '\n';
    }
    tables << "\n## observed-stage counters\n";
    for (const auto& [name, v] : observed.counters) tables << name << ' ' << v << '\n';
  }

  spans.close(root);
  if (args.trace)
    spans.write(args.out + "/" + args.workload + "-seed" +
                std::to_string(args.seed) + ".spans.json");
  for (const std::string& f : failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());
  print_result(correct && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::fix_malloc_thresholds();
  perfbench::reserve_interner();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (perfbench::make_workload(args.workload) == nullptr)
    perfbench::die("unknown workload " + args.workload);
  if (args.make_refs) return perfbench::make_refs(args);
  return perfbench::run(args, process_start);
}
