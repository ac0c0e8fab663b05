// E10 — microbenchmarks of the detector's hot paths (google-benchmark):
// shadow-memory lookups (dense and sparse), the per-event site lookup,
// lockset interning/intersection (with the memo cache that makes Eraser
// practical), segment happens-before queries, scheduler context switches,
// SIP parsing.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/helgrind.hpp"
#include "rt/memory.hpp"
#include "rt/sim.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"
#include "shadow/lockset.hpp"
#include "shadow/segments.hpp"
#include "shadow/shadow_map.hpp"
#include "sip/parser.hpp"
#include "sipp/experiment.hpp"
#include "sipp/scenario.hpp"
#include "sipp/testcases.hpp"
#include "support/prng.hpp"

namespace {

void BM_ShadowMapAccess(benchmark::State& state) {
  rg::shadow::ShadowMap<int> map;
  rg::rt::Addr addr = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.at(addr));
    addr = (addr + 64) & 0xFFFFF;
  }
}
BENCHMARK(BM_ShadowMapAccess);

void BM_ShadowMapSparse(benchmark::State& state) {
  // The proxy's shadow is sparse: a Fig. 6 sweep touches about 5 granules
  // per 4 KiB of client address space (heap objects scattered between fiber
  // stacks). 5 random granules in each of 4096 4-KiB regions, visited in a
  // shuffled order.
  rg::support::Xoshiro256 rng(7);
  std::vector<rg::rt::Addr> addrs;
  for (rg::rt::Addr region = 0; region < 4096; ++region)
    for (int i = 0; i < 5; ++i)
      addrs.push_back(0x7f0000000000ull + (region << 12) + rng.below(4096));
  for (std::size_t i = addrs.size() - 1; i > 0; --i)
    std::swap(addrs[i], addrs[rng.below(i + 1)]);
  rg::shadow::ShadowMap<std::uint64_t> map;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.at(addrs[i]));
    if (++i == addrs.size()) i = 0;
  }
}
BENCHMARK(BM_ShadowMapSparse);

void BM_SiteOf(benchmark::State& state) {
  // The per-event site lookup over 300 distinct sites (a Fig. 6 sweep has
  // about 272), as std::source_location hands them over. The memo keys on
  // the text pointers, so the strings live as long as the thread: built
  // once, however often the benchmark runs this function.
  static const std::string file = "bench/site_of.cpp";
  static const std::vector<std::string> functions = [] {
    std::vector<std::string> names;
    for (int f = 0; f < 30; ++f)
      names.push_back("handler_" + std::to_string(f));
    return names;
  }();
  std::size_t f = 0;
  std::uint32_t line = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rg::rt::site_of(functions[f].c_str(), file.c_str(), line));
    if (++line > 10) {
      line = 1;
      if (++f == functions.size()) f = 0;
    }
  }
}
BENCHMARK(BM_SiteOf);

void BM_LocksetIntern(benchmark::State& state) {
  rg::shadow::LocksetTable table;
  rg::rt::LockId next = 0;
  for (auto _ : state) {
    rg::shadow::LockVec v{next % 64, (next + 7) % 64};
    benchmark::DoNotOptimize(table.intern(std::move(v)));
    ++next;
  }
}
BENCHMARK(BM_LocksetIntern);

void BM_LocksetIntersectCached(benchmark::State& state) {
  rg::shadow::LocksetTable table;
  const auto a = table.intern({1, 2, 3, 4});
  const auto b = table.intern({3, 4, 5, 6});
  for (auto _ : state) benchmark::DoNotOptimize(table.intersect(a, b));
}
BENCHMARK(BM_LocksetIntersectCached);

void BM_SegmentHappensBefore(benchmark::State& state) {
  rg::shadow::SegmentGraph graph;
  const auto main_seg = graph.start_thread(0, rg::shadow::kNoSegment);
  std::vector<rg::shadow::SegmentId> segs{main_seg};
  for (rg::rt::ThreadId t = 1; t <= 16; ++t) {
    segs.push_back(graph.start_thread(t, graph.current(0)));
    graph.advance(0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph.happens_before(segs[i % segs.size()],
                             segs[(i + 5) % segs.size()]));
    ++i;
  }
}
BENCHMARK(BM_SegmentHappensBefore);

void BM_SipParse(benchmark::State& state) {
  rg::sipp::MessageFactory mf;
  const std::string wire = mf.invite("alice", "bob", "bench-call", 1);
  for (auto _ : state) {
    auto result = rg::sip::parse_message(wire);
    benchmark::DoNotOptimize(result.message);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_SipParse);

void BM_SipSerialize(benchmark::State& state) {
  rg::sipp::MessageFactory mf;
  const auto parsed = rg::sip::parse_message(mf.invite("a", "b", "c", 1));
  for (auto _ : state)
    benchmark::DoNotOptimize(parsed.message->serialize());
}
BENCHMARK(BM_SipSerialize);

void BM_HelgrindAccessPath(benchmark::State& state) {
  // Cost of one fully-shared access through the detector state machine.
  rg::core::HelgrindTool tool(rg::core::HelgrindConfig::hwlc_dr());
  rg::rt::Runtime runtime;
  runtime.attach(tool);
  const auto t0 = runtime.register_thread("main", rg::rt::kNoThread, 0);
  const auto t1 = runtime.register_thread("w", t0, 0);
  const auto lock = runtime.register_lock("m", false);
  runtime.post_lock(t0, lock, rg::rt::LockMode::Exclusive, 0);
  rg::rt::Addr addr = 0x10000;
  rg::rt::MemoryAccess access{t0, addr, 4, rg::rt::AccessKind::Write, false,
                              0};
  (void)t1;
  for (auto _ : state) {
    access.addr = addr;
    runtime.access(access);
    addr = 0x10000 + (addr + 8) % 4096;
  }
}
BENCHMARK(BM_HelgrindAccessPath);

void BM_SimContextSwitch(benchmark::State& state) {
  // Ping-pong between two simulated threads; each iteration is two
  // scheduler switches. Run once with a big budget and report per-switch
  // cost via manual timing.
  const std::size_t switches_per_run = 20000;
  for (auto _ : state) {
    rg::rt::SimConfig cfg;
    cfg.sched.switch_probability = 1.0;
    rg::rt::Sim sim(cfg);
    sim.run([&] {
      rg::rt::tracked<int> cell;
      rg::rt::thread a([&] {
        for (std::size_t i = 0; i < switches_per_run / 2; ++i) cell.store(1);
      });
      rg::rt::thread b([&] {
        for (std::size_t i = 0; i < switches_per_run / 2; ++i) cell.store(2);
      });
      a.join();
      b.join();
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(switches_per_run));
}
BENCHMARK(BM_SimContextSwitch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Hot-path cache effectiveness on a real detector run (T1, HWLC+DR):
  // the microbenchmarks above time the primitives, these counters show how
  // often the fast paths actually hit under proxy traffic.
  rg::sipp::ExperimentConfig cfg;
  cfg.seed = 7;
  cfg.detector = rg::core::HelgrindConfig::hwlc_dr();
  const rg::sipp::ExperimentResult r =
      rg::sipp::run_scenario(rg::sipp::build_testcase(1, cfg.seed), cfg);
  const rg::rt::ToolStats stats = r.tool_stats;
  std::printf(
      "\nhot-path counters (T1, HWLC+DR, seed %llu):\n"
      "  sched fast-path steps   %llu / %llu\n"
      "  shadow TLB hit/miss     %llu / %llu\n",
      static_cast<unsigned long long>(cfg.seed),
      static_cast<unsigned long long>(r.sim.fast_path_steps),
      static_cast<unsigned long long>(r.sim.steps),
      static_cast<unsigned long long>(stats.shadow_tlb_hits),
      static_cast<unsigned long long>(stats.shadow_tlb_misses));

  return 0;
}
