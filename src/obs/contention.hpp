// Lock-contention observatory — "whose wait, on which lock".
//
// A ContentionTable attaches to the flight recorder and folds its
// PreLock/PostLock/Unlock stream into per-(lock, thread) virtual-time wait
// and hold intervals, plus a waiters-behind histogram (how deep the queue
// was at each acquisition). The export is a deterministic contention
// matrix: top-N locks by total wait, each with its wait-time share and
// per-thread breakdown — the ranking the ROADMAP's sharded-registrar item
// needs ("which locks to stripe").
//
// Locks named "<family>:<instance>" (e.g. "tx-mutex:<branch>") aggregate
// into one family row, so per-transaction lock instances do not fragment
// the ranking.
//
// Cost/determinism contract: single producer (the Sim carrier thread), no
// locks, no scheduling points, no detector-visible state; all arithmetic
// is on virtual time and dense ids, so same-seed tables are bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/ids.hpp"
#include "support/site.hpp"

namespace rg::obs {

class FlightRecorder;

class ContentionTable {
 public:
  static constexpr std::size_t kWaitersBuckets = 8;  // 0..6, 7+
  static constexpr std::uint64_t kIdle = ~0ull;

  struct ThreadStats {
    rt::ThreadId tid = rt::kNoThread;
    std::uint64_t acquisitions = 0;
    std::uint64_t wait_ticks = 0;
    std::uint64_t hold_ticks = 0;
    // Transient per-thread state (export ignores it).
    std::uint64_t pending_since = kIdle;
    std::uint64_t hold_since = kIdle;
    std::uint32_t hold_depth = 0;  // recursive/shared re-acquisitions
  };

  struct LockStats {
    std::uint64_t lock = 0;
    std::uint64_t acquisitions = 0;
    /// Acquisitions that spent virtual time between PreLock and PostLock.
    std::uint64_t contended = 0;
    std::uint64_t wait_ticks = 0;
    std::uint64_t hold_ticks = 0;
    std::uint32_t max_waiters = 0;
    /// waiters_behind[d]: acquisitions that left d other threads still
    /// waiting (d clamped to 7+).
    std::array<std::uint64_t, kWaitersBuckets> waiters_behind{};
    /// Representative acquisition site (first PostLock seen).
    support::SiteId site = support::kUnknownSite;
    std::vector<ThreadStats> threads;  // ordered by first appearance
    std::uint32_t waiting_now = 0;     // transient
    bool used = false;
  };

  /// One family row: locks aggregated by name up to the first ':'.
  struct FamilyStats {
    std::string name;
    std::uint64_t locks = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t contended = 0;
    std::uint64_t wait_ticks = 0;
    std::uint64_t hold_ticks = 0;
  };

  ContentionTable() = default;
  ContentionTable(const ContentionTable&) = delete;
  ContentionTable& operator=(const ContentionTable&) = delete;

  void on_pre_lock(std::uint64_t lock, rt::ThreadId tid, std::uint64_t vtime);
  void on_post_lock(std::uint64_t lock, rt::ThreadId tid, std::uint64_t vtime,
                    support::SiteId site);
  void on_unlock(std::uint64_t lock, rt::ThreadId tid, std::uint64_t vtime);

  std::uint64_t total_wait_ticks() const { return total_wait_; }
  std::uint64_t total_acquisitions() const { return total_acquisitions_; }
  std::uint64_t lock_count() const;

  /// Locks ranked by (total wait desc, lock id asc) — deterministic.
  std::vector<const LockStats*> ranked() const;
  /// Families ranked by (total wait desc, name asc). Lock names resolve
  /// through the recorder's side table; unnamed locks family as "L<id>".
  std::vector<FamilyStats> families(const FlightRecorder& names) const;
  /// The top family's name ("" when nothing was contended or acquired).
  std::string top_family(const FlightRecorder& names) const;

  /// Deterministic contention matrix as JSON (--contention-out): totals,
  /// top-N locks (wait share, waiters-behind histogram, per-thread rows)
  /// and the family ranking.
  std::string json(const FlightRecorder& names, std::size_t top_n = 16) const;
  /// Human-readable top-N table for terminals.
  std::string render(const FlightRecorder& names, std::size_t top_n = 8) const;

 private:
  LockStats& lock_slot(std::uint64_t lock);
  static ThreadStats& thread_slot(LockStats& ls, rt::ThreadId tid);

  std::vector<LockStats> locks_;  // indexed by dense lock id
  std::uint64_t total_wait_ = 0;
  std::uint64_t total_acquisitions_ = 0;
};

}  // namespace rg::obs
