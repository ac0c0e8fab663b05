#include "obs/recorder.hpp"

#include <algorithm>
#include <iterator>

#include "obs/span.hpp"
#include "support/intern.hpp"

namespace rg::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::SchedSwitch: return "sched-switch";
    case EventKind::ThreadStart: return "thread-start";
    case EventKind::ThreadExit: return "thread-exit";
    case EventKind::ThreadJoin: return "thread-join";
    case EventKind::LockCreate: return "lock-create";
    case EventKind::LockDestroy: return "lock-destroy";
    case EventKind::PreLock: return "pre-lock";
    case EventKind::PostLock: return "post-lock";
    case EventKind::Unlock: return "unlock";
    case EventKind::CondSignal: return "cond-signal";
    case EventKind::CondWait: return "cond-wait";
    case EventKind::SemPost: return "sem-post";
    case EventKind::SemWait: return "sem-wait";
    case EventKind::QueuePut: return "queue-put";
    case EventKind::QueueGet: return "queue-get";
    case EventKind::Access: return "access";
    case EventKind::Alloc: return "alloc";
    case EventKind::Free: return "free";
    case EventKind::Destruct: return "destruct";
    case EventKind::ChaosInject: return "chaos-inject";
    case EventKind::BreakerTransition: return "breaker";
    case EventKind::TxnState: return "txn-state";
    case EventKind::DetectorShare: return "detector-share";
    case EventKind::DetectorWarning: return "detector-warning";
    case EventKind::DeadlockAcquire: return "deadlock-acquire";
    case EventKind::DeadlockCycle: return "deadlock-cycle";
    case EventKind::SpanBegin: return "span-begin";
    case EventKind::SpanEnd: return "span-end";
    case EventKind::Finish: return "finish";
  }
  return "?";
}

// --- AddrMap -----------------------------------------------------------------

FlightRecorder::AddrMap::AddrMap() {
  // Small: block bases bypass the table, so a T5 run puts a few hundred
  // keys here.
  slots.resize(1u << 9);
  mask = slots.size() - 1;
}

void FlightRecorder::AddrMap::grow() {
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (s.key == 0) continue;
    std::size_t i = slot_hash(s.key) & mask;
    while (slots[i].key != 0) i = (i + 1) & mask;
    slots[i] = s;
  }
}

// --- FlightRecorder ------------------------------------------------------------

FlightRecorder::FlightRecorder(const RecorderConfig& config)
    : capacity_(round_up_pow2(std::max<std::size_t>(config.capacity, 8))),
      mask_(capacity_ - 1),
      ring_(capacity_) {}

void FlightRecorder::note_thread_name(rt::ThreadId tid, std::string name) {
  thread_names_[tid] = std::move(name);
}

void FlightRecorder::note_lock_name(std::uint64_t lock, std::string name) {
  lock_names_[lock] = std::move(name);
}

const std::string* FlightRecorder::thread_name(rt::ThreadId tid) const {
  auto it = thread_names_.find(tid);
  return it == thread_names_.end() ? nullptr : &it->second;
}

const std::string* FlightRecorder::lock_name(std::uint64_t lock) const {
  auto it = lock_names_.find(lock);
  return it == lock_names_.end() ? nullptr : &it->second;
}

std::vector<Event> FlightRecorder::snapshot() const {
  const std::uint64_t end = cursor();
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t s = begin; s < end; ++s)
    out.push_back(ring_[s & mask_]);
  return out;
}

std::vector<Event> FlightRecorder::last_events(
    std::uint64_t cursor, const std::function<bool(const Event&)>& filter,
    std::size_t limit) const {
  const std::uint64_t end = std::min(cursor, this->cursor());
  const std::uint64_t floor =
      this->cursor() > capacity_ ? this->cursor() - capacity_ : 0;
  std::vector<Event> out;
  for (std::uint64_t s = end; s > floor && out.size() < limit;) {
    const Event& e = ring_[--s & mask_];
    if (filter(e)) out.push_back(e);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Event> FlightRecorder::explain(std::uint64_t addr,
                                           std::uint32_t size,
                                           std::uint64_t cursor,
                                           std::size_t limit) const {
  const std::uint64_t hi = addr + std::max<std::uint32_t>(size, 1);
  auto overlaps = [&](const Event& e) {
    if (e.kind == EventKind::Access || e.kind == EventKind::Alloc ||
        e.kind == EventKind::Free || e.kind == EventKind::Destruct) {
      const std::uint64_t e_hi = e.a + std::max<std::uint64_t>(e.b, 1);
      return e.a < hi && addr < e_hi;
    }
    if (e.kind == EventKind::DetectorShare ||
        e.kind == EventKind::DetectorWarning)
      return e.a >= addr && e.a < hi;
    return false;
  };
  // The events on the racing address are the spine of the story (the
  // detector records state changes, not steady-state accesses, so there
  // are few): keep them all, then spend the remaining budget on the most
  // recent lock operations of the threads involved — what the lockset
  // intersection ran over.
  std::vector<Event> on_addr = last_events(cursor, overlaps, limit);
  std::vector<rt::ThreadId> tids;
  for (const Event& e : on_addr)
    if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
      tids.push_back(e.tid);
  auto lock_op = [&](const Event& e) {
    switch (e.kind) {
      case EventKind::PreLock:
      case EventKind::PostLock:
      case EventKind::Unlock:
      case EventKind::LockCreate:
        return std::find(tids.begin(), tids.end(), e.tid) != tids.end();
      default:
        return false;
    }
  };
  const std::size_t lock_budget =
      limit > on_addr.size() ? limit - on_addr.size() : 0;
  std::vector<Event> locks = last_events(cursor, lock_op, lock_budget);
  std::vector<Event> out;
  out.reserve(on_addr.size() + locks.size());
  std::merge(on_addr.begin(), on_addr.end(), locks.begin(), locks.end(),
             std::back_inserter(out),
             [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

std::string FlightRecorder::describe(const Event& e) const {
  std::string out = "#" + std::to_string(e.seq) + " t=" +
                    std::to_string(e.vtime) + " T" + std::to_string(e.tid);
  if (const std::string* n = thread_name(e.tid)) out += "(" + *n + ")";
  out += " ";
  out += to_string(e.kind);
  auto lock_label = [&](std::uint64_t lock) {
    std::string s = " L" + std::to_string(lock);
    if (const std::string* n = lock_name(lock)) s += "(" + *n + ")";
    return s;
  };
  switch (e.kind) {
    case EventKind::SchedSwitch:
      out += " from T" + std::to_string(e.a);
      break;
    case EventKind::ThreadStart:
      if (e.a != rt::kNoThread) out += " parent T" + std::to_string(e.a);
      break;
    case EventKind::ThreadJoin:
      out += " joined T" + std::to_string(e.a);
      break;
    case EventKind::LockCreate:
    case EventKind::LockDestroy:
      out += lock_label(e.a);
      if (e.kind == EventKind::LockCreate && e.b != 0) out += " rw";
      break;
    case EventKind::PreLock:
    case EventKind::PostLock:
    case EventKind::Unlock:
      out += lock_label(e.a);
      if (e.kind != EventKind::Unlock)
        out += e.flags != 0 ? " shared" : " exclusive";
      break;
    case EventKind::Access:
      out += (e.flags & kAccessWrite) != 0 ? " write" : " read";
      if ((e.flags & kAccessBusLocked) != 0) out += " bus-locked";
      out += " obj#" + std::to_string(e.norm) + " size " + std::to_string(e.b);
      break;
    case EventKind::Alloc:
    case EventKind::Free:
    case EventKind::Destruct:
      out += " obj#" + std::to_string(e.norm) + " size " + std::to_string(e.b);
      break;
    case EventKind::ChaosInject:
      out += " msg " + std::to_string(e.a) + " detail " + std::to_string(e.b);
      break;
    case EventKind::BreakerTransition:
      out += " target " + std::to_string(e.a) + " " +
             std::to_string(e.b >> 60) + "->" + std::to_string(e.b >> 56 & 0xF);
      break;
    case EventKind::TxnState:
      out += " txn sym" + std::to_string(e.a) + " -> state " +
             std::to_string(e.b);
      break;
    case EventKind::DetectorShare:
      out += " obj#" + std::to_string(e.norm) + " -> state " +
             std::to_string(e.b);
      break;
    case EventKind::DetectorWarning:
      out += " obj#" + std::to_string(e.norm) + " (location " +
             std::to_string(e.b) + ")";
      break;
    case EventKind::DeadlockAcquire:
      out += lock_label(e.a);
      out += " holding " + std::to_string(e.b) + " lock(s)";
      break;
    case EventKind::DeadlockCycle:
      out += " predicted cycle through" + lock_label(e.a) + " (" +
             std::to_string(e.b) + " locks)";
      break;
    case EventKind::SpanBegin:
      out += " span " + std::to_string(e.a) + " trace " +
             std::to_string(e.b >> 32) + " parent " +
             std::to_string(e.b & 0xFFFF'FFFFull);
      break;
    case EventKind::SpanEnd:
      out += " span " + std::to_string(e.a) + " dur " + std::to_string(e.b);
      break;
    default:
      out += " a=" + std::to_string(e.a) + " b=" + std::to_string(e.b);
      break;
  }
  if (e.span != 0)
    out += " [span " + std::to_string(e.span) + "]";
  if (e.site != support::kUnknownSite)
    out += " at " + support::global_sites().describe(e.site);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FlightRecorder::chrome_trace_json() const {
  // Chrome trace-event format ("JSON Object Format"): metadata events name
  // the threads, every recorded event becomes a thread-scoped instant.
  // Timestamps are virtual ticks presented as microseconds. Addresses
  // appear only as their normalised ids, so two same-seed runs serialise
  // byte-identically.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += "\n" + obj;
  };

  // Thread-name metadata, in thread-id order for determinism.
  std::vector<std::pair<std::uint32_t, std::string>> names(
      thread_names_.begin(), thread_names_.end());
  std::sort(names.begin(), names.end());
  for (const auto& [tid, name] : names)
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");

  for (const Event& e : snapshot()) {
    std::string args = "\"seq\":" + std::to_string(e.seq);
    auto add_lock = [&](std::uint64_t lock) {
      args += ",\"lock\":" + std::to_string(lock);
      if (const std::string* n = lock_name(lock))
        args += ",\"lock_name\":\"" + json_escape(*n) + "\"";
    };
    std::string name = to_string(e.kind);
    const char* cat = "misc";
    switch (e.kind) {
      case EventKind::SchedSwitch:
        cat = "sched";
        args += ",\"from\":" + std::to_string(e.a);
        break;
      case EventKind::ThreadStart:
      case EventKind::ThreadExit:
      case EventKind::ThreadJoin:
        cat = "sched";
        args += ",\"other\":" + std::to_string(e.a);
        break;
      case EventKind::LockCreate:
      case EventKind::LockDestroy:
      case EventKind::PreLock:
      case EventKind::PostLock:
      case EventKind::Unlock:
        cat = "lock";
        add_lock(e.a);
        args += ",\"mode\":" + std::to_string(e.flags);
        break;
      case EventKind::CondSignal:
      case EventKind::CondWait:
      case EventKind::SemPost:
      case EventKind::SemWait:
      case EventKind::QueuePut:
      case EventKind::QueueGet:
        cat = "sync";
        args += ",\"sync\":" + std::to_string(e.a) +
                ",\"token\":" + std::to_string(e.b);
        break;
      case EventKind::Access:
      case EventKind::Alloc:
      case EventKind::Free:
      case EventKind::Destruct:
        cat = "mem";
        args += ",\"obj\":" + std::to_string(e.norm) +
                ",\"size\":" + std::to_string(e.b) +
                ",\"flags\":" + std::to_string(e.flags);
        break;
      case EventKind::ChaosInject:
        cat = "chaos";
        args += ",\"target\":" + std::to_string(e.a) +
                ",\"detail\":" + std::to_string(e.b) +
                ",\"fault\":" + std::to_string(e.flags);
        break;
      case EventKind::BreakerTransition:
        cat = "sip";
        args += ",\"target\":" + std::to_string(e.a) +
                ",\"from\":" + std::to_string(e.b >> 60) +
                ",\"to\":" + std::to_string(e.b >> 56 & 0xF) +
                ",\"cooldown\":" +
                std::to_string(e.b & 0x00FF'FFFF'FFFF'FFFFull);
        break;
      case EventKind::TxnState:
        cat = "sip";
        args += ",\"txn\":" + std::to_string(e.a) +
                ",\"state\":" + std::to_string(e.b);
        break;
      case EventKind::DetectorShare:
      case EventKind::DetectorWarning:
        cat = "detector";
        args += ",\"obj\":" + std::to_string(e.norm) +
                ",\"detail\":" + std::to_string(e.b);
        break;
      case EventKind::SpanBegin:
        cat = "span";
        args += ",\"span_id\":" + std::to_string(e.a) +
                ",\"trace\":" + std::to_string(e.b >> 32) +
                ",\"parent\":" + std::to_string(e.b & 0xFFFF'FFFFull);
        break;
      case EventKind::SpanEnd:
        cat = "span";
        args += ",\"span_id\":" + std::to_string(e.a) +
                ",\"dur\":" + std::to_string(e.b);
        break;
      default:
        args += ",\"a\":" + std::to_string(e.a) +
                ",\"b\":" + std::to_string(e.b);
        break;
    }
    if (e.span != 0) args += ",\"span\":" + std::to_string(e.span);
    if (e.site != support::kUnknownSite)
      args += ",\"site\":\"" +
              json_escape(support::global_sites().describe(e.site)) + "\"";
    emit("{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" +
         std::to_string(e.tid) + ",\"ts\":" + std::to_string(e.vtime) +
         ",\"name\":\"" + json_escape(name) + "\",\"cat\":\"" + cat +
         "\",\"args\":{" + args + "}}");
  }

  // With a SpanTracker attached, closed spans become nested "X" duration
  // events and cross-thread parent→child hand-offs become flow ("s"/"f")
  // pairs, so Perfetto draws the dispatch → worker → upstream causality as
  // arrows. Span ids are dense and virtual-time stamps deterministic, so
  // this section is byte-identical across same-seed runs too.
  if (spans_ != nullptr) {
    const std::vector<SpanInfo>& all = spans_->spans();
    for (std::size_t id = 1; id < all.size(); ++id) {
      const SpanInfo& s = all[id];
      if (!s.closed) continue;
      std::string args = "\"span\":" + std::to_string(s.id) +
                         ",\"trace\":" + std::to_string(s.trace) +
                         ",\"parent\":" + std::to_string(s.parent);
      if (s.detail != 0) args += ",\"detail\":" + std::to_string(s.detail);
      if (s.cls != TxnClass::Other)
        args += std::string(",\"class\":\"") + to_string(s.cls) + "\"";
      emit("{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(s.tid) +
           ",\"ts\":" + std::to_string(s.start) +
           ",\"dur\":" + std::to_string(s.end - s.start) + ",\"name\":\"" +
           json_escape(support::symbol_text(s.name)) +
           "\",\"cat\":\"span\",\"args\":{" + args + "}}");
      if (s.parent != 0 && s.parent_tid != s.tid &&
          s.parent_tid != rt::kNoThread) {
        const std::string flow = "\"name\":\"handoff\",\"cat\":\"span\","
                                 "\"id\":" +
                                 std::to_string(s.id) + ",\"pid\":0";
        emit("{\"ph\":\"s\"," + flow +
             ",\"tid\":" + std::to_string(s.parent_tid) +
             ",\"ts\":" + std::to_string(s.start) + "}");
        emit("{\"ph\":\"f\",\"bp\":\"e\"," + flow +
             ",\"tid\":" + std::to_string(s.tid) +
             ",\"ts\":" + std::to_string(s.start) + "}");
      }
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace rg::obs
