#include "obs/contention.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/recorder.hpp"
#include "support/table.hpp"

namespace rg::obs {

namespace {

/// Family key: the lock's name up to the first ':' ("tx-mutex:<branch>" →
/// "tx-mutex"), or "L<id>" for unnamed locks.
std::string family_of(const FlightRecorder& names, std::uint64_t lock) {
  if (const std::string* n = names.lock_name(lock)) {
    const std::size_t colon = n->find(':');
    return colon == std::string::npos ? *n : n->substr(0, colon);
  }
  return "L" + std::to_string(lock);
}

}  // namespace

ContentionTable::LockStats& ContentionTable::lock_slot(std::uint64_t lock) {
  if (lock >= locks_.size()) locks_.resize(lock + 1);
  LockStats& ls = locks_[lock];
  if (!ls.used) {
    ls.used = true;
    ls.lock = lock;
  }
  return ls;
}

ContentionTable::ThreadStats& ContentionTable::thread_slot(LockStats& ls,
                                                           rt::ThreadId tid) {
  for (ThreadStats& ts : ls.threads)
    if (ts.tid == tid) return ts;
  ls.threads.emplace_back();
  ls.threads.back().tid = tid;
  return ls.threads.back();
}

void ContentionTable::on_pre_lock(std::uint64_t lock, rt::ThreadId tid,
                                  std::uint64_t vtime) {
  LockStats& ls = lock_slot(lock);
  ThreadStats& ts = thread_slot(ls, tid);
  ts.pending_since = vtime;
  ++ls.waiting_now;
  ls.max_waiters = std::max(ls.max_waiters, ls.waiting_now);
}

void ContentionTable::on_post_lock(std::uint64_t lock, rt::ThreadId tid,
                                   std::uint64_t vtime,
                                   support::SiteId site) {
  LockStats& ls = lock_slot(lock);
  ThreadStats& ts = thread_slot(ls, tid);
  ++ls.acquisitions;
  ++ts.acquisitions;
  ++total_acquisitions_;
  if (ls.site == support::kUnknownSite) ls.site = site;
  if (ts.pending_since != kIdle) {
    const std::uint64_t wait = vtime - ts.pending_since;
    ts.pending_since = kIdle;
    if (ls.waiting_now > 0) --ls.waiting_now;
    if (wait > 0) {
      ++ls.contended;
      ls.wait_ticks += wait;
      ts.wait_ticks += wait;
      total_wait_ += wait;
    }
  }
  // Queue depth the winner left behind (7+ folds the tail bucket).
  const std::size_t behind =
      std::min<std::size_t>(ls.waiting_now, kWaitersBuckets - 1);
  ++ls.waiters_behind[behind];
  // Recursive/shared re-entry keeps the outermost hold interval.
  if (ts.hold_depth++ == 0) ts.hold_since = vtime;
}

void ContentionTable::on_unlock(std::uint64_t lock, rt::ThreadId tid,
                                std::uint64_t vtime) {
  if (lock >= locks_.size() || !locks_[lock].used) return;
  LockStats& ls = locks_[lock];
  ThreadStats& ts = thread_slot(ls, tid);
  if (ts.hold_depth == 0) return;  // unlock with no recorded acquisition
  if (--ts.hold_depth == 0 && ts.hold_since != kIdle) {
    const std::uint64_t held = vtime - ts.hold_since;
    ls.hold_ticks += held;
    ts.hold_ticks += held;
    ts.hold_since = kIdle;
  }
}

std::uint64_t ContentionTable::lock_count() const {
  std::uint64_t n = 0;
  for (const LockStats& ls : locks_)
    if (ls.used) ++n;
  return n;
}

std::vector<const ContentionTable::LockStats*> ContentionTable::ranked()
    const {
  std::vector<const LockStats*> out;
  for (const LockStats& ls : locks_)
    if (ls.used) out.push_back(&ls);
  std::sort(out.begin(), out.end(),
            [](const LockStats* a, const LockStats* b) {
              if (a->wait_ticks != b->wait_ticks)
                return a->wait_ticks > b->wait_ticks;
              return a->lock < b->lock;
            });
  return out;
}

std::vector<ContentionTable::FamilyStats> ContentionTable::families(
    const FlightRecorder& names) const {
  std::vector<FamilyStats> out;
  for (const LockStats& ls : locks_) {
    if (!ls.used) continue;
    const std::string fam = family_of(names, ls.lock);
    FamilyStats* row = nullptr;
    for (FamilyStats& f : out)
      if (f.name == fam) {
        row = &f;
        break;
      }
    if (row == nullptr) {
      out.emplace_back();
      row = &out.back();
      row->name = fam;
    }
    ++row->locks;
    row->acquisitions += ls.acquisitions;
    row->contended += ls.contended;
    row->wait_ticks += ls.wait_ticks;
    row->hold_ticks += ls.hold_ticks;
  }
  std::sort(out.begin(), out.end(),
            [](const FamilyStats& a, const FamilyStats& b) {
              if (a.wait_ticks != b.wait_ticks)
                return a.wait_ticks > b.wait_ticks;
              return a.name < b.name;
            });
  return out;
}

std::string ContentionTable::top_family(const FlightRecorder& names) const {
  const std::vector<FamilyStats> fams = families(names);
  for (const FamilyStats& f : fams)
    if (f.wait_ticks > 0) return f.name;
  return fams.empty() ? std::string{} : fams.front().name;
}

std::string ContentionTable::json(const FlightRecorder& names,
                                  std::size_t top_n) const {
  auto share = [&](std::uint64_t wait) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f",
                  total_wait_ == 0
                      ? 0.0
                      : static_cast<double>(wait) /
                            static_cast<double>(total_wait_));
    return std::string(buf);
  };
  std::string out = "{\"schema_version\":1";
  out += ",\"total_wait_ticks\":" + std::to_string(total_wait_);
  out += ",\"total_acquisitions\":" + std::to_string(total_acquisitions_);
  out += ",\"locks\":" + std::to_string(lock_count());
  out += ",\"top\":[";
  const std::vector<const LockStats*> order = ranked();
  const std::size_t n = std::min(top_n, order.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LockStats& ls = *order[i];
    if (i != 0) out += ",";
    out += "\n{\"lock\":" + std::to_string(ls.lock);
    if (const std::string* name = names.lock_name(ls.lock))
      out += ",\"name\":\"" + json_escape(*name) + "\"";
    out += ",\"acquisitions\":" + std::to_string(ls.acquisitions);
    out += ",\"contended\":" + std::to_string(ls.contended);
    out += ",\"wait_ticks\":" + std::to_string(ls.wait_ticks);
    out += ",\"wait_share\":" + share(ls.wait_ticks);
    out += ",\"hold_ticks\":" + std::to_string(ls.hold_ticks);
    out += ",\"max_waiters\":" + std::to_string(ls.max_waiters);
    out += ",\"waiters_behind\":[";
    for (std::size_t d = 0; d < kWaitersBuckets; ++d) {
      if (d != 0) out += ",";
      out += std::to_string(ls.waiters_behind[d]);
    }
    out += "],\"threads\":[";
    for (std::size_t t = 0; t < ls.threads.size(); ++t) {
      const ThreadStats& ts = ls.threads[t];
      if (t != 0) out += ",";
      out += "{\"tid\":" + std::to_string(ts.tid);
      out += ",\"acquisitions\":" + std::to_string(ts.acquisitions);
      out += ",\"wait_ticks\":" + std::to_string(ts.wait_ticks);
      out += ",\"hold_ticks\":" + std::to_string(ts.hold_ticks) + "}";
    }
    out += "]}";
  }
  out += "],\"families\":[";
  const std::vector<FamilyStats> fams = families(names);
  for (std::size_t i = 0; i < fams.size(); ++i) {
    const FamilyStats& f = fams[i];
    if (i != 0) out += ",";
    out += "\n{\"name\":\"" + json_escape(f.name) + "\"";
    out += ",\"locks\":" + std::to_string(f.locks);
    out += ",\"acquisitions\":" + std::to_string(f.acquisitions);
    out += ",\"contended\":" + std::to_string(f.contended);
    out += ",\"wait_ticks\":" + std::to_string(f.wait_ticks);
    out += ",\"wait_share\":" + share(f.wait_ticks);
    out += ",\"hold_ticks\":" + std::to_string(f.hold_ticks) + "}";
  }
  out += "\n]}\n";
  return out;
}

std::string ContentionTable::render(const FlightRecorder& names,
                                    std::size_t top_n) const {
  support::Table table("lock contention — top " + std::to_string(top_n) +
                       " by virtual-time wait");
  table.header({"lock", "acquis.", "contended", "wait", "share", "hold",
                "max waiters"});
  const std::vector<const LockStats*> order = ranked();
  for (std::size_t i = 0; i < std::min(top_n, order.size()); ++i) {
    const LockStats& ls = *order[i];
    std::string label = "L" + std::to_string(ls.lock);
    if (const std::string* name = names.lock_name(ls.lock))
      label += "(" + *name + ")";
    char share[32];
    std::snprintf(share, sizeof share, "%.1f%%",
                  total_wait_ == 0 ? 0.0
                                   : 100.0 * static_cast<double>(ls.wait_ticks) /
                                         static_cast<double>(total_wait_));
    table.row(label, std::to_string(ls.acquisitions),
              std::to_string(ls.contended), std::to_string(ls.wait_ticks),
              share, std::to_string(ls.hold_ticks),
              std::to_string(ls.max_waiters));
  }
  return table.render();
}

}  // namespace rg::obs
