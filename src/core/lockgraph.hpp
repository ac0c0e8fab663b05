// LockGraphTool — lock-order graphs with cross-thread refinements.
//
// The paper (§3.3) relies on the race checker for deadlock detection
// instead of the application's own timeout hack. The naive lock-order
// check (an edge A→B whenever a thread acquires B while holding A; any
// cycle is flagged) over-approximates badly: single-thread cycles and
// cycles whose critical sections share a common gate lock can never
// block. This tool keeps the naive check as a compatibility tier and adds
// a refined *prediction* tier built on per-acquisition histories:
//
//  - every nested acquisition records an acquisition history — the
//    acquiring thread, the full held-lock set at that moment (with the
//    hold-span identity of each lock), the source sites of both ends, and
//    the flight-recorder cursor;
//  - fork inheritance: a thread spawned while its parent holds L inherits
//    L as a *candidate* guard for its own acquisitions; the candidate is
//    confirmed when the parent's hold span encloses the child's lifetime
//    (released after the join, or never) — the cross-thread critical
//    section refinement of Sulzmann et al. (arXiv 2512.23552, 2307.09855);
//  - a cycle is *predicted* only if some combination of its acquisition
//    histories is feasible: pairwise-distinct threads (single-thread
//    refinement) and no two histories serialized by a common guard lock
//    outside the cycle (gate-lock refinement). Two candidate guards
//    inherited from the same hold span do not serialize — they are the
//    same critical section.
//
// Candidate guards are adjudicated online: a cycle feasible even with all
// candidates present is reported immediately (guards only ever remove
// feasibility); a cycle infeasible even with all candidates absent is
// pruned immediately; everything else is held pending and resolved at
// on_finish, when join order and span closes are known.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "rt/tool.hpp"

namespace rg::core {

/// One predicted deadlock cycle from a non-deadlocking run. Edge i means
/// `tid` acquired `second` while holding `first`; the next edge's `first`
/// is this edge's `second` (and the last wraps to the first).
struct PredictedCycle {
  struct Edge {
    rt::ThreadId tid = rt::kNoThread;
    rt::LockId first = rt::kNoLock;
    rt::LockId second = rt::kNoLock;
    support::SiteId first_site = support::kUnknownSite;   // where first was taken
    support::SiteId second_site = support::kUnknownSite;  // where second was requested
  };
  std::vector<Edge> edges;
  /// Flight-recorder cursor when the cycle closed (0 = no recorder).
  std::uint64_t recorder_cursor = 0;

  std::vector<std::uint64_t> lock_ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(edges.size());
    for (const Edge& e : edges) out.push_back(e.first);
    return out;
  }
  std::vector<rt::ThreadId> thread_ids() const {
    std::vector<rt::ThreadId> out;
    out.reserve(edges.size());
    for (const Edge& e : edges) out.push_back(e.tid);
    return out;
  }
};

class LockGraphTool : public rt::Tool {
 public:
  const char* name() const override { return "deadlock"; }
  LockGraphTool();

  /// Tier A: naive lock-order inversion reports (Helgrind-compatible).
  ReportManager& reports() { return reports_; }
  const ReportManager& reports() const { return reports_; }

  /// Tier B: refined predictions that survived the feasibility refinements.
  ReportManager& predictions() { return predictions_; }
  const ReportManager& predictions() const { return predictions_; }
  const std::vector<PredictedCycle>& predicted() const { return predicted_; }

  void on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                       support::SiteId site) override;
  void on_thread_join(rt::ThreadId joiner, rt::ThreadId joined,
                      support::SiteId site) override;
  void on_pre_lock(rt::ThreadId tid, rt::LockId lock, rt::LockMode mode,
                   support::SiteId site) override;
  void on_unlock(rt::ThreadId tid, rt::LockId lock,
                 support::SiteId site) override;
  void on_finish() override;

  /// Number of distinct lock-order edges observed (statistics).
  std::size_t edge_count() const;

  struct Counters {
    std::uint64_t edges = 0;                // distinct refined edges
    std::uint64_t instances = 0;            // acquisition histories stored
    std::uint64_t cycles_examined = 0;      // candidate cycles adjudicated
    std::uint64_t pruned_single_thread = 0; // no pairwise-distinct combo
    std::uint64_t pruned_guarded = 0;       // gate-lock serialization
    std::uint64_t pending_resolved = 0;     // adjudicated at on_finish
    std::uint64_t predicted = 0;            // cycles reported
  };
  const Counters& counters() const { return counters_; }

  /// Publishes the counters as `lockgraph.*` (plus the report tallies),
  /// and the sizes of the fork-inheritance maps as gauges.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  // --- tier A (naive, byte-compatible with the old DeadlockTool) ---------
  /// True if `from` reaches `to` through order edges (cycle check).
  bool reaches(rt::LockId from, rt::LockId to) const;
  void report_cycle(rt::ThreadId tid, rt::LockId held, rt::LockId wanted,
                    support::SiteId site);

  // --- tier B (acquisition histories + refinements) ----------------------
  /// A guard occurrence: `lock` held during the acquisition, identified by
  /// the hold span that covers it (rt::HeldLock::span). Two occurrences of the same lock from
  /// *different* spans serialize the critical sections; the same span is
  /// one critical section and does not.
  struct GuardRef {
    rt::LockId lock = rt::kNoLock;
    std::uint64_t span = 0;
  };

  /// A guard inherited at fork time, pending confirmation that the
  /// parent's hold span enclosed the child's lifetime.
  struct CandidateGuard {
    rt::LockId lock = rt::kNoLock;
    std::uint64_t span = 0;  // the parent's hold span
  };

  /// One acquisition history for a directed edge first→second.
  struct Instance {
    rt::ThreadId tid = rt::kNoThread;
    support::SiteId first_site = support::kUnknownSite;
    support::SiteId second_site = support::kUnknownSite;
    std::vector<GuardRef> guards;             // other locks held (direct)
    std::vector<CandidateGuard> candidates;   // inherited at fork
    std::uint64_t cursor = 0;
  };

  enum class Mode : std::uint8_t {
    Pessimistic,  // all candidate guards present (max serialization)
    Optimistic,   // all candidate guards absent (min serialization)
    Confirmed,    // candidates resolved against span/join evidence
  };

  struct CycleCandidate {
    std::vector<rt::LockId> locks;  // cycle order; edge i: locks[i]→locks[i+1]
    std::vector<std::vector<Instance>> instances;  // per edge, snapshot
  };

  struct Verdict {
    bool feasible = false;
    bool any_distinct_threads = false;
    std::vector<Instance> combo;  // a feasible witness, one per edge
  };

  /// True when the candidate's span enclosed `child`'s lifetime: the span
  /// never closed, or closed after `child` was joined.
  bool candidate_confirmed(const CandidateGuard& c, rt::ThreadId child) const;

  /// Enumerates instance combinations (capped) and applies the
  /// single-thread and gate-lock refinements under `mode`.
  Verdict evaluate(const CycleCandidate& cycle, Mode mode) const;

  /// Finds refined-graph cycles closed by the new edge first→second and
  /// adjudicates each (report / prune / pending).
  void examine_cycles(rt::LockId first, rt::LockId second);

  /// Runs report/prune/pending triage on one candidate cycle. `final`
  /// (on_finish) resolves with Confirmed mode instead of deferring.
  void adjudicate(CycleCandidate cycle, bool final);

  void report_prediction(const CycleCandidate& cycle, const Verdict& v);

  static std::string canonical_key(const std::vector<rt::LockId>& locks);

  ReportManager reports_;
  ReportManager predictions_;
  std::set<std::pair<rt::LockId, rt::LockId>> reported_pairs_;

  // Tier B state. Holds themselves (sites, spans) are read from
  // Runtime::held_locks; the tool keeps only what fork inheritance needs,
  // so it grows with the threads forked under a held lock, not with every
  // thread or every unlock.
  // Candidate guards of each thread forked while its parent held a lock.
  std::unordered_map<rt::ThreadId, std::vector<CandidateGuard>> inherited_;
  // Inherited spans not closed yet, by (holder, lock): on_unlock's lookup
  // for the span the outermost release closes.
  std::map<std::pair<rt::ThreadId, rt::LockId>, std::uint64_t> open_spans_;
  // Inherited spans that closed -> op_seq_ at the close.
  std::unordered_map<std::uint64_t, std::uint64_t> closed_spans_;
  // Threads in inherited_ that were joined -> op_seq_ at the join.
  std::unordered_map<rt::ThreadId, std::uint64_t> joined_at_;
  // The one lock-order graph: lock -> locks acquired while it was held,
  // each with its capped acquisition-history list. Tier A inserts the
  // edges (and checks reachability over them); tier B fills the histories.
  std::unordered_map<rt::LockId, std::map<rt::LockId, std::vector<Instance>>>
      histories_;
  std::map<std::string, CycleCandidate> pending_;
  std::set<std::string> reported_cycles_;
  std::vector<PredictedCycle> predicted_;
  std::uint64_t op_seq_ = 0;  // orders span closes against joins
  Counters counters_;
  // Reusable DFS scratch for reaches(): the naive-tier reachability check
  // runs on every nested acquisition and must not allocate each time.
  mutable std::vector<rt::LockId> scratch_stack_;
  mutable std::vector<rt::LockId> scratch_seen_;

  static constexpr std::size_t kMaxInstancesPerEdge = 8;
  static constexpr std::size_t kMaxCycleLen = 6;
  static constexpr std::size_t kMaxCombos = 4096;
  static constexpr std::size_t kMaxPathsPerEdge = 64;
};

}  // namespace rg::core
