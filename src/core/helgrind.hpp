// HelgrindTool — the paper's subject and contribution.
//
// Implements the Eraser lockset algorithm with the Fig. 1 memory-state
// machine and the VisualThreads thread-segment refinement of Fig. 2, plus
// the two improvements the paper contributes:
//
//  * HWLC  — the hardware bus lock is modelled as a read-write lock
//            (every read holds it shared; LOCK-prefixed writes hold it in
//            write mode) instead of a plain mutex held only around LOCKed
//            instructions. Requires read-write-lock support, which also
//            enables checking the POSIX rwlock API.
//  * DR    — the destructor annotation (VALGRIND_HG_DESTRUCT): memory about
//            to be destroyed becomes EXCLUSIVE to the deleting thread, so
//            the vptr rewrites of the destructor chain stop producing
//            warnings while cross-thread accesses during destruction are
//            still detected.
//
// The hb_message_passing extension (queue/semaphore hand-offs create thread
// segments) implements the "higher level synchronization primitives" future
// work of §5 and removes the thread-pool false positives of Fig. 11.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/report.hpp"
#include "rt/tool.hpp"
#include "shadow/lockset.hpp"
#include "shadow/segments.hpp"
#include "shadow/shadow_map.hpp"

namespace rg::core {

/// How the x86 LOCK prefix is interpreted.
enum class BusLockModel : std::uint8_t {
  /// Original Helgrind: a special mutex held around LOCKed instructions
  /// only. Plain reads of a bus-locked counter empty the lockset — the
  /// Figs. 8/9 false positive.
  Mutex,
  /// The paper's correction: a read-write lock; every read holds it in
  /// read mode, LOCKed writes in write mode.
  RwLock,
};

struct HelgrindConfig {
  BusLockModel bus_lock_model = BusLockModel::Mutex;
  /// Honour VALGRIND_HG_DESTRUCT client requests (the DR improvement).
  bool destructor_annotations = false;
  /// VisualThreads thread segments (on in every configuration the paper
  /// measures; off gives plain per-thread Eraser-with-states for ablation).
  bool thread_segments = true;
  /// Track rw_mutex objects. Original Helgrind had no rw-lock support; the
  /// HWLC work added it ("support for the corresponding POSIX API could be
  /// added easily").
  bool rwlock_api = false;
  /// §5 future-work extension: message-queue and semaphore hand-offs create
  /// happens-before edges (thread segments).
  bool hb_message_passing = false;
  /// Warning-storm hardening: cap on distinct stored report locations
  /// (ReportManager::set_report_cap). 0 = unlimited.
  std::size_t report_cap = 0;
  /// Shadow-map last-page TLB. Pure memoisation — may not change any
  /// verdict; off only for the equivalence tests.
  bool shadow_tlb = true;

  /// The three measured configurations of Figs. 5/6.
  static HelgrindConfig original() { return {}; }
  static HelgrindConfig hwlc() {
    HelgrindConfig c;
    c.bus_lock_model = BusLockModel::RwLock;
    c.rwlock_api = true;
    return c;
  }
  static HelgrindConfig hwlc_dr() {
    HelgrindConfig c = hwlc();
    c.destructor_annotations = true;
    return c;
  }
  /// hwlc_dr + the future-work message-passing extension.
  static HelgrindConfig extended() {
    HelgrindConfig c = hwlc_dr();
    c.hb_message_passing = true;
    return c;
  }
};

class HelgrindTool : public rt::Tool {
 public:
  const char* name() const override { return "helgrind"; }
  explicit HelgrindTool(const HelgrindConfig& config = {});

  const HelgrindConfig& config() const { return config_; }
  ReportManager& reports() { return reports_; }
  const ReportManager& reports() const { return reports_; }
  const shadow::SegmentGraph& segments() const { return segments_; }
  const shadow::LocksetTable& locksets() const { return locksets_; }

  // Tool interface ---------------------------------------------------------
  void on_attach(rt::Runtime& rt) override;
  void on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                       support::SiteId site) override;
  void on_thread_join(rt::ThreadId joiner, rt::ThreadId joined,
                      support::SiteId site) override;
  void on_queue_put(rt::ThreadId tid, rt::SyncId queue, std::uint64_t token,
                    support::SiteId site) override;
  void on_queue_get(rt::ThreadId tid, rt::SyncId queue, std::uint64_t token,
                    support::SiteId site) override;
  void on_sem_post(rt::ThreadId tid, rt::SyncId sem, std::uint64_t token,
                   support::SiteId site) override;
  void on_sem_wait_return(rt::ThreadId tid, rt::SyncId sem,
                          std::uint64_t token, support::SiteId site) override;
  void on_access(const rt::MemoryAccess& access) override;
  void on_alloc(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
                support::SiteId site) override;
  void on_free(rt::ThreadId tid, rt::Addr addr, std::uint32_t size,
               support::SiteId site) override;
  void on_destruct_annotation(rt::ThreadId tid, rt::Addr addr,
                              std::uint32_t size,
                              support::SiteId site) override;
  rt::ToolStats stats() const override;

 private:
  /// Fig. 1 states. Destroyed is EXCLUSIVE-after-annotation; it is kept
  /// distinct only so reports can say so.
  enum class MemState : std::uint8_t {
    New,
    Exclusive,
    SharedRead,
    SharedModified,
    Destroyed,
  };

  struct Cell {
    MemState state = MemState::New;
    shadow::SegmentId owner = shadow::kNoSegment;  // Exclusive/Destroyed
    shadow::LocksetId lockset = shadow::kUniversalLockset;
    /// Eraser stops checking a location after its first warning.
    bool reported = false;
  };

  static const char* state_name(MemState s);

  /// Lockset of `tid` relevant for this access under the configured bus
  /// lock model, built from the runtime's held-lock set and lock kinds.
  /// `for_write` selects the Eraser write rule (locks held in write mode)
  /// vs the read rule (locks held in any mode).
  shadow::LocksetId effective_locks(rt::ThreadId tid, bool for_write,
                                    bool bus_locked);

  void touch(Cell& cell, const rt::MemoryAccess& access);
  void trace_refinement(const rt::MemoryAccess& access);
  void warn(Cell& cell, const rt::MemoryAccess& access, MemState prev_state,
            shadow::LocksetId prev_lockset);

  HelgrindConfig config_;
  ReportManager reports_;
  shadow::LocksetTable locksets_;
  shadow::SegmentGraph segments_;
  shadow::ShadowMap<Cell> shadow_;
  /// Pseudo lock id modelling the hardware bus lock.
  rt::LockId bus_lock_ = rt::kNoLock;
  /// put/post token -> sender segment (hb_message_passing).
  std::unordered_map<std::uint64_t, shadow::SegmentId> queue_tokens_;
  std::unordered_map<std::uint64_t, shadow::SegmentId> sem_tokens_;
};

}  // namespace rg::core
