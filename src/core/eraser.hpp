// EraserBasicTool — the unrefined lockset algorithm (paper §2.3.2, first
// pseudo-code listing).
//
//   For each v, initialize C(v) to the set of all locks.
//   On each access to v by thread t:
//     C(v) := C(v) ∩ locks_held(t); if C(v) = {} issue warning.
//
// "This should find all possible data-races, but results in too many false
// positives" — it warns on initialisation and read-shared data. Kept as a
// baseline for the detector-comparison experiment (E9) and for the §4.3
// false-negative study: unlike the state-machine version it is independent
// of execution order. The optional read/write-lock rule from the original
// Eraser paper ("not implemented in Helgrind") is available as an
// extension.
#pragma once

#include "core/report.hpp"
#include "rt/tool.hpp"
#include "shadow/lockset.hpp"
#include "shadow/shadow_map.hpp"

namespace rg::core {

struct EraserBasicConfig {
  /// Apply the original-Eraser read-write lock refinement: reads check
  /// locks held in any mode, writes only write-mode locks.
  bool rw_rule = false;
  /// Exclude reads entirely (warn only at writes with empty lockset).
  bool warn_on_reads = true;
};

class EraserBasicTool : public rt::Tool {
 public:
  const char* name() const override { return "eraser"; }
  explicit EraserBasicTool(const EraserBasicConfig& config = {});

  ReportManager& reports() { return reports_; }
  const ReportManager& reports() const { return reports_; }

  void on_access(const rt::MemoryAccess& access) override;
  void on_alloc(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
                support::SiteId site) override;
  void on_free(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
               support::SiteId site) override;
  rt::ToolStats stats() const override;

 private:
  struct Cell {
    shadow::LocksetId lockset = shadow::kUniversalLockset;
    bool reported = false;
  };

  /// locks_held(t) from the runtime's held-lock set; reads and writes
  /// differ only under rw_rule.
  shadow::LocksetId held_lockset(rt::ThreadId tid, bool is_write);

  EraserBasicConfig config_;
  ReportManager reports_;
  shadow::LocksetTable locksets_;
  shadow::ShadowMap<Cell> shadow_;
};

}  // namespace rg::core
