// E1 — regenerates the Fig. 6 table: reported possible-data-race locations
// for test cases T1..T8 under the three detector configurations
// (Original Helgrind / corrected hardware bus lock / + destructor
// annotations), plus the paper's headline 65-81% total-reduction figure.
//
// Absolute counts differ from the paper (its proxy was a proprietary
// 500 kLOC code base); the claims being reproduced are the *shape*:
//   - Original >= HWLC >= HWLC+DR for every test case,
//   - HWLC+DR removes more than half of the HWLC column,
//   - total false positives removed land in the 65-81% band.
#include <cstdio>

#include "sipp/experiment.hpp"
#include "sipp/testcases.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace rg;
  std::uint64_t seed = 7;
  std::size_t workers = 0;  // 0 = hardware concurrency
  if (argc > 1) seed = std::strtoull(argv[1], nullptr, 10);
  if (argc > 2) workers = std::strtoull(argv[2], nullptr, 10);

  std::printf("Fig. 6 — reported possible data race locations\n");
  std::printf("(seed %llu; paper values for reference: T1 483/448/120 ... "
              "T8 357/270/78)\n\n",
              static_cast<unsigned long long>(seed));

  sipp::ExperimentConfig base;
  base.seed = seed;

  support::Table table("Fig. 6 — warnings per configuration");
  table.header({"Test case", "Original", "HWLC", "HWLC+DR", "reduction"});

  // The 8 x 3 experiment cells are independent Sims; fan them over a pool
  // (per-cell determinism unchanged — see run_fig6_rows).
  std::vector<int> cases;
  for (int n = 1; n <= sipp::kTestCaseCount; ++n) cases.push_back(n);
  const std::vector<sipp::Fig6Row> rows =
      sipp::run_fig6_rows(cases, base, workers);

  double min_reduction = 1.0, max_reduction = 0.0;
  for (const sipp::Fig6Row& row : rows) {
    char reduction[16];
    std::snprintf(reduction, sizeof reduction, "%.0f%%",
                  row.reduction() * 100.0);
    table.row(row.testcase, row.original, row.hwlc, row.hwlc_dr, reduction);
    min_reduction = std::min(min_reduction, row.reduction());
    max_reduction = std::max(max_reduction, row.reduction());
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Total false-positive reduction across test cases: %.0f%% .. %.0f%%\n"
      "(paper: \"in the range of 65%% to 81%% of the total number of "
      "warnings\")\n\n",
      min_reduction * 100.0, max_reduction * 100.0);
  std::printf("CSV:\n%s", table.render_csv().c_str());
  return 0;
}
