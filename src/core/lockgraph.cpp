#include "core/lockgraph.hpp"

#include <algorithm>
#include <utility>

#include "rt/runtime.hpp"

namespace rg::core {

LockGraphTool::LockGraphTool() : reports_("Helgrind"), predictions_("Helgrind") {}

// --- thread lifecycle / span tracking ---------------------------------------

void LockGraphTool::on_thread_start(rt::ThreadId tid, rt::ThreadId parent,
                                    support::SiteId /*site*/) {
  if (parent == rt::kNoThread) return;
  // Fork inheritance (depth 1): every lock the parent holds right now is a
  // candidate guard for the child's acquisitions, identified by the
  // parent's hold span so same-span siblings do not fake-serialize.
  const auto& held_by_parent = rt_->held_locks(parent);
  if (held_by_parent.empty()) return;
  std::vector<CandidateGuard>& inherited = inherited_[tid];
  for (const rt::HeldLock& held : held_by_parent) {
    inherited.push_back({held.lock, held.span});
    open_spans_.try_emplace({parent, held.lock}, held.span);
  }
}

void LockGraphTool::on_thread_join(rt::ThreadId /*joiner*/, rt::ThreadId joined,
                                   support::SiteId /*site*/) {
  // Only threads with candidate guards are ever asked about.
  if (inherited_.contains(joined)) joined_at_[joined] = ++op_seq_;
}

void LockGraphTool::on_unlock(rt::ThreadId tid, rt::LockId lock,
                              support::SiteId /*site*/) {
  // Only spans some inherited candidate guard references matter to
  // adjudication.
  if (open_spans_.empty()) return;
  auto it = open_spans_.find({tid, lock});
  if (it == open_spans_.end()) return;
  // The runtime has applied the release: a recursive one leaves the lock
  // listed and the span open.
  for (const rt::HeldLock& held : rt_->held_locks(tid))
    if (held.lock == lock) return;
  closed_spans_[it->second] = ++op_seq_;
  open_spans_.erase(it);
}

// --- acquisition ------------------------------------------------------------

void LockGraphTool::on_pre_lock(rt::ThreadId tid, rt::LockId lock,
                                rt::LockMode /*mode*/, support::SiteId site) {
  // Tier A: the naive order graph, unchanged semantics.
  for (const rt::HeldLock& held : rt_->held_locks(tid)) {
    if (held.lock == lock) continue;
    // Would edge held.lock -> lock close a cycle?
    if (reaches(lock, held.lock) &&
        !reported_pairs_.contains({std::min(held.lock, lock),
                                   std::max(held.lock, lock)})) {
      report_cycle(tid, held.lock, lock, site);
      reported_pairs_.insert(
          {std::min(held.lock, lock), std::max(held.lock, lock)});
    }
    if (histories_[held.lock].try_emplace(lock).second) ++counters_.edges;
  }

  // Tier B: record an acquisition history per held lock and re-examine
  // cycles the new edges may have closed. The runtime lists holds in
  // acquisition order with swap-removal; visit them by lock id so the
  // histories and cycle examinations do not depend on release order.
  const auto& held_now = rt_->held_locks(tid);
  if (held_now.empty()) return;
  support::small_vector<rt::HeldLock, 4> holds = held_now;
  std::sort(holds.begin(), holds.end(),
            [](const rt::HeldLock& a, const rt::HeldLock& b) {
              return a.lock < b.lock;
            });
  obs::FlightRecorder* fr = rt_->recorder();
  if (fr != nullptr)
    fr->record_now(obs::EventKind::DeadlockAcquire, tid, lock, holds.size(),
                   site);
  const auto inherited = inherited_.find(tid);
  for (const rt::HeldLock& hold : holds) {
    const rt::LockId first = hold.lock;
    if (first == lock) continue;
    auto& vec = histories_[first][lock];
    // Cap check before building the Instance: in steady state every edge
    // is already full and the nested acquisition must cost two map lookups,
    // not two vector constructions.
    if (vec.size() >= kMaxInstancesPerEdge) continue;  // capped; no new info
    Instance inst;
    inst.tid = tid;
    inst.first_site = hold.site;
    inst.second_site = site;
    inst.cursor = fr != nullptr ? fr->cursor() : 0;
    for (const rt::HeldLock& g : holds)
      if (g.lock != first && g.lock != lock)
        inst.guards.push_back({g.lock, g.span});
    if (inherited != inherited_.end()) inst.candidates = inherited->second;
    vec.push_back(std::move(inst));
    ++counters_.instances;
    examine_cycles(first, lock);
  }
}

// --- tier A helpers ---------------------------------------------------------

bool LockGraphTool::reaches(rt::LockId from, rt::LockId to) const {
  if (from == to) return true;
  if (!histories_.contains(from)) return false;  // no outgoing edges at all
  // Reusable scratch with linear membership: the graph holds tens of locks
  // and this runs on every nested acquisition.
  scratch_stack_.clear();
  scratch_seen_.clear();
  scratch_stack_.push_back(from);
  scratch_seen_.push_back(from);
  while (!scratch_stack_.empty()) {
    const rt::LockId cur = scratch_stack_.back();
    scratch_stack_.pop_back();
    auto it = histories_.find(cur);
    if (it == histories_.end()) continue;
    for (const auto& [next, insts] : it->second) {
      if (next == to) return true;
      if (std::find(scratch_seen_.begin(), scratch_seen_.end(), next) ==
          scratch_seen_.end()) {
        scratch_seen_.push_back(next);
        scratch_stack_.push_back(next);
      }
    }
  }
  return false;
}

void LockGraphTool::report_cycle(rt::ThreadId tid, rt::LockId held,
                                 rt::LockId wanted, support::SiteId site) {
  rt::MemoryAccess at;
  at.thread = tid;
  at.site = site;
  Report r = make_report(*rt_, Report::Kind::LockOrderInversion, at);
  r.extra = "thread " + std::to_string(tid) + " acquires '" +
            std::string(rt_->lock_name(wanted)) + "' while holding '" +
            std::string(rt_->lock_name(held)) +
            "', but the opposite order was also observed";
  reports_.add(std::move(r));
}

std::size_t LockGraphTool::edge_count() const {
  std::size_t n = 0;
  for (const auto& [lock, out] : histories_) n += out.size();
  return n;
}

// --- tier B: cycle enumeration and adjudication ------------------------------

std::string LockGraphTool::canonical_key(const std::vector<rt::LockId>& locks) {
  std::vector<rt::LockId> sorted = locks;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (rt::LockId l : sorted) {
    key += std::to_string(l);
    key += ',';
  }
  return key;
}

void LockGraphTool::examine_cycles(rt::LockId first, rt::LockId second) {
  if (first == second) return;
  // A cycle through the new edge needs a refined path second →* first; if
  // nothing ever left `second` there is none (the common leaf-lock case —
  // bail before building any DFS state).
  if (!histories_.contains(second)) return;
  // Enumerate simple paths second →* first in the refined graph; each,
  // prefixed with the new edge first→second, is a candidate cycle.
  // The self-recursive generic lambda avoids a std::function allocation;
  // on-path membership is a linear scan of the (≤ kMaxCycleLen) path.
  std::vector<std::vector<rt::LockId>> paths;
  std::vector<rt::LockId> path{second};
  auto on_path = [&](rt::LockId v) {
    return v == first ||
           std::find(path.begin(), path.end(), v) != path.end();
  };
  auto dfs = [&](auto&& self, rt::LockId u) -> void {
    if (paths.size() >= kMaxPathsPerEdge) return;
    auto it = histories_.find(u);
    if (it == histories_.end()) return;
    for (const auto& [v, insts] : it->second) {
      if (insts.empty()) continue;
      if (v == first) {
        paths.push_back(path);
        if (paths.size() >= kMaxPathsPerEdge) return;
        continue;
      }
      if (path.size() >= kMaxCycleLen - 1) continue;
      if (on_path(v)) continue;
      path.push_back(v);
      self(self, v);
      path.pop_back();
    }
  };
  dfs(dfs, second);

  for (const std::vector<rt::LockId>& p : paths) {
    CycleCandidate cycle;
    cycle.locks.reserve(p.size() + 1);
    cycle.locks.push_back(first);
    cycle.locks.insert(cycle.locks.end(), p.begin(), p.end());
    const std::size_t n = cycle.locks.size();
    cycle.instances.reserve(n);
    bool complete = true;
    for (std::size_t i = 0; i < n && complete; ++i) {
      const rt::LockId from = cycle.locks[i];
      const rt::LockId to = cycle.locks[(i + 1) % n];
      auto rit = histories_.find(from);
      if (rit == histories_.end()) {
        complete = false;
        break;
      }
      auto eit = rit->second.find(to);
      if (eit == rit->second.end() || eit->second.empty()) {
        complete = false;
        break;
      }
      cycle.instances.push_back(eit->second);
    }
    if (complete) adjudicate(std::move(cycle), /*final=*/false);
  }
}

void LockGraphTool::adjudicate(CycleCandidate cycle, bool final) {
  const std::string key = canonical_key(cycle.locks);
  if (reported_cycles_.contains(key)) return;
  ++counters_.cycles_examined;
  if (final) {
    const Verdict v = evaluate(cycle, Mode::Confirmed);
    if (v.feasible) {
      report_prediction(cycle, v);
    } else if (!v.any_distinct_threads) {
      ++counters_.pruned_single_thread;
    } else {
      ++counters_.pruned_guarded;
    }
    return;
  }
  // Candidate guards only ever *remove* feasibility: a cycle feasible with
  // every candidate treated as present stays feasible however the
  // candidates resolve, and one infeasible with every candidate absent
  // stays infeasible. Anything in between waits for on_finish, when join
  // order and span closes have settled.
  const Verdict pess = evaluate(cycle, Mode::Pessimistic);
  if (pess.feasible) {
    report_prediction(cycle, pess);
    pending_.erase(key);
    return;
  }
  const Verdict opt = evaluate(cycle, Mode::Optimistic);
  if (!opt.feasible) {
    if (!opt.any_distinct_threads) {
      ++counters_.pruned_single_thread;
    } else {
      ++counters_.pruned_guarded;
    }
    pending_.erase(key);
    return;
  }
  pending_[key] = std::move(cycle);  // latest snapshot wins
}

bool LockGraphTool::candidate_confirmed(const CandidateGuard& c,
                                        rt::ThreadId child) const {
  auto sit = closed_spans_.find(c.span);
  if (sit == closed_spans_.end()) return true;  // never released
  auto jit = joined_at_.find(child);
  // Released after the child was joined: the span enclosed its lifetime.
  return jit != joined_at_.end() && sit->second > jit->second;
}

LockGraphTool::Verdict LockGraphTool::evaluate(const CycleCandidate& cycle,
                                               Mode mode) const {
  Verdict v;
  const std::size_t n = cycle.locks.size();
  if (n == 0 || cycle.instances.size() != n) return v;
  for (const std::vector<Instance>& list : cycle.instances)
    if (list.empty()) return v;
  const std::set<rt::LockId> in_cycle(cycle.locks.begin(), cycle.locks.end());

  std::vector<std::size_t> idx(n, 0);
  std::size_t combos = 0;
  std::vector<std::vector<GuardRef>> eff(n);
  while (combos < kMaxCombos) {
    ++combos;
    // Single-thread refinement: a feasible interleaving needs a distinct
    // thread per edge (one thread cannot block on itself).
    bool distinct = true;
    for (std::size_t i = 0; i < n && distinct; ++i)
      for (std::size_t j = i + 1; j < n && distinct; ++j)
        if (cycle.instances[i][idx[i]].tid == cycle.instances[j][idx[j]].tid)
          distinct = false;
    if (distinct) {
      v.any_distinct_threads = true;
      // Gate-lock refinement: a guard lock outside the cycle common to two
      // histories serializes their critical sections — unless both
      // occurrences are the *same* hold span (one critical section,
      // inherited by concurrent children).
      for (std::size_t i = 0; i < n; ++i) {
        const Instance& inst = cycle.instances[i][idx[i]];
        eff[i].clear();
        for (const GuardRef& g : inst.guards)
          if (!in_cycle.contains(g.lock)) eff[i].push_back(g);
        if (mode != Mode::Optimistic) {
          for (const CandidateGuard& c : inst.candidates) {
            if (in_cycle.contains(c.lock)) continue;
            if (mode == Mode::Confirmed && !candidate_confirmed(c, inst.tid))
              continue;
            eff[i].push_back({c.lock, c.span});
          }
        }
      }
      bool serialized = false;
      for (std::size_t i = 0; i < n && !serialized; ++i)
        for (std::size_t j = i + 1; j < n && !serialized; ++j)
          for (const GuardRef& gi : eff[i]) {
            for (const GuardRef& gj : eff[j])
              if (gi.lock == gj.lock && gi.span != gj.span) {
                serialized = true;
                break;
              }
            if (serialized) break;
          }
      if (!serialized) {
        v.feasible = true;
        v.combo.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
          v.combo.push_back(cycle.instances[i][idx[i]]);
        return v;
      }
    }
    // Advance the combination odometer.
    std::size_t k = 0;
    while (k < n) {
      if (++idx[k] < cycle.instances[k].size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == n) break;
  }
  return v;
}

void LockGraphTool::report_prediction(const CycleCandidate& cycle,
                                      const Verdict& v) {
  const std::string key = canonical_key(cycle.locks);
  reported_cycles_.insert(key);
  pending_.erase(key);
  ++counters_.predicted;

  const std::size_t n = cycle.locks.size();
  PredictedCycle pc;
  pc.edges.reserve(n);
  std::vector<support::SiteId> edge_sites;
  edge_sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Instance& inst = v.combo[i];
    PredictedCycle::Edge e;
    e.tid = inst.tid;
    e.first = cycle.locks[i];
    e.second = cycle.locks[(i + 1) % n];
    e.first_site = inst.first_site;
    e.second_site = inst.second_site;
    pc.edges.push_back(e);
    edge_sites.push_back(e.second_site);
  }
  // The report (and its recorder cursor) is taken before the cycle's own
  // event lands in the stream. A cycle's frames are its edges' request
  // sites, not the reporting thread's shadow stack.
  rt::MemoryAccess at;
  at.thread = pc.edges.front().tid;
  at.site = pc.edges.front().second_site;
  Report r = make_report(*rt_, Report::Kind::PredictedDeadlock, at);
  r.stack = std::move(edge_sites);
  r.cycle_locks = pc.lock_ids();
  r.cycle_threads = pc.thread_ids();
  pc.recorder_cursor = r.recorder_cursor;
  if (obs::FlightRecorder* fr = rt_->recorder(); fr != nullptr)
    fr->record_now(obs::EventKind::DeadlockCycle, at.thread,
                   cycle.locks.front(), n, at.site);

  std::string extra;
  for (const PredictedCycle::Edge& e : pc.edges) {
    if (!extra.empty()) extra += "; ";
    extra += "thread " + std::to_string(e.tid) + " acquires '" +
             std::string(rt_->lock_name(e.second)) + "' while holding '" +
             std::string(rt_->lock_name(e.first)) + "'";
  }
  r.extra = "predicted cycle: " + extra;
  predictions_.add(std::move(r));
  predicted_.push_back(std::move(pc));
}

void LockGraphTool::on_finish() {
  // Resolve cycles whose verdict depended on unconfirmed fork-inherited
  // guards; the span/join evidence is complete now.
  std::map<std::string, CycleCandidate> pending;
  pending.swap(pending_);
  for (auto& [key, cycle] : pending) {
    if (reported_cycles_.contains(key)) continue;
    ++counters_.pending_resolved;
    adjudicate(std::move(cycle), /*final=*/true);
  }
}

void LockGraphTool::export_metrics(obs::MetricsRegistry& registry) const {
  registry.counter("lockgraph.edges").set(counters_.edges);
  registry.counter("lockgraph.instances").set(counters_.instances);
  registry.counter("lockgraph.cycles_examined").set(counters_.cycles_examined);
  registry.counter("lockgraph.pruned_single_thread")
      .set(counters_.pruned_single_thread);
  registry.counter("lockgraph.pruned_guarded").set(counters_.pruned_guarded);
  registry.counter("lockgraph.pending_resolved")
      .set(counters_.pending_resolved);
  registry.counter("lockgraph.predicted_cycles").set(counters_.predicted);
  registry.counter("lockgraph.naive_inversions")
      .set(reports_.distinct_locations());
}

}  // namespace rg::core
