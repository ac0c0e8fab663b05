// E2 — regenerates the Fig. 5 stacked-bar data: for each test case, the
// reported locations split into
//   - false positives removed by the hardware-bus-lock correction,
//   - false positives removed by the destructor annotations,
//   - correctly reported data races (what remains under HWLC+DR).
// The attribution is computed exactly the way the figure was constructed:
// by differencing the location sets of consecutive configurations.
#include <algorithm>
#include <cstdio>
#include <string>

#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rg;
  std::uint64_t seed = 7;
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);

  std::printf("Fig. 5 — composition of reported locations (seed %llu)\n\n",
              static_cast<unsigned long long>(seed));

  sipp::ExperimentConfig base;
  base.seed = seed;

  // All 8 x 3 cells fanned over a pool, computed once for both renditions.
  std::vector<int> cases;
  for (int n = 1; n <= sipp::kTestCaseCount; ++n) cases.push_back(n);
  const std::vector<sipp::Fig6Row> rows = sipp::run_fig6_rows(cases, base);

  support::Table table("Fig. 5 — stacked composition");
  table.header({"Test case", "FP (hardware lock)", "FP (destructor)",
                "correctly reported", "total"});
  for (const sipp::Fig6Row& row : rows) {
    table.row(row.testcase, row.hw_lock_fps, row.destructor_fps,
              row.remaining,
              row.hw_lock_fps + row.destructor_fps + row.remaining);
  }
  std::printf("%s\n", table.render().c_str());

  // ASCII rendition of the stacked bars (the paper's chart).
  std::printf("Stacked bars (#=correct, d=destructor FP, h=hw-lock FP):\n");
  for (const sipp::Fig6Row& row : rows) {
    std::string bar;
    bar.append(row.remaining, '#');
    bar.append(row.destructor_fps, 'd');
    bar.append(row.hw_lock_fps, 'h');
    std::printf("  %-3s |%s\n", row.testcase.c_str(), bar.c_str());
  }
  return 0;
}
