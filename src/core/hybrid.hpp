// Hybrid lockset + happens-before verdicts (Multi-Race style, paper §2.2).
//
// Multi-Race [13] and the hybrid detector of O'Callahan & Choi [12] combine
// the lockset and vector-clock approaches: the lockset pass proposes
// candidate locations (order-independent, over-approximate), the
// happens-before pass classifies which of them actually manifested
// unordered in the observed execution. Both passes are ordinary tools: a
// HelgrindTool and a DjitTool attached to the same runtime see the same
// event stream, and merge_hybrid joins their reports after the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/report.hpp"

namespace rg::core {

struct HybridVerdict {
  Report report;  // the lockset (or HB-only) report
  /// Lockset flagged it AND the observed ordering was genuinely unordered.
  bool confirmed = false;
  /// Flagged only by happens-before (a race the lockset discipline hides,
  /// e.g. accidental lock coincidence).
  bool hb_only = false;
};

struct HybridReport {
  /// Every lockset location in report order, then the HB-only ones.
  std::vector<HybridVerdict> verdicts;
  std::size_t confirmed = 0;
  std::size_t possible = 0;  // lockset only: order-dependent candidates
  std::size_t hb_only = 0;
};

/// The accessed object a report is about: its allocation base when known,
/// else the address. The two passes fire at different accesses (and so at
/// different sites and granules) of one object, so this is the key they
/// are compared by.
std::uint64_t object_of(const Report& r);

/// Joins the reports of a lockset pass and a happens-before pass over one
/// execution by accessed object.
HybridReport merge_hybrid(const ReportManager& lockset,
                          const ReportManager& hb);

}  // namespace rg::core
