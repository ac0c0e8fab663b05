#include "rt/runtime.hpp"

#include <algorithm>

namespace rg::rt {

std::string AddrOrigin::describe() const {
  if (!known) return "in unallocated or untracked memory";
  std::string out = "is " + std::to_string(offset) +
                    " bytes inside a block of size " +
                    std::to_string(alloc.size) + " alloc'd by thread " +
                    std::to_string(alloc.thread) + " at " +
                    support::global_sites().describe(alloc.site);
  return out;
}

Runtime::Runtime() = default;

void Runtime::attach(Tool& tool) {
  tools_.push_back(&tool);
  // Register the row before on_attach: a tool that creates locks in its
  // attach hook re-enters dispatch() and needs its profiler cell to exist.
  if (profiler_ != nullptr) profiler_->register_tool(tool.name());
  tool.on_attach(*this);
}

void Runtime::set_profiler(obs::HookProfiler* profiler) {
  profiler_ = profiler;
  if (profiler_ == nullptr) return;
  for (const Tool* t : tools_) profiler_->register_tool(t->name());
}

ThreadId Runtime::register_thread(std::string_view name, ThreadId parent,
                                  support::SiteId site) {
  const auto tid = static_cast<ThreadId>(threads_.size());
  ThreadInfo info;
  info.name = std::string(name);
  info.parent = parent;
  threads_.push_back(std::move(info));
  if (recorder_ != nullptr) {
    recorder_->note_thread_name(tid, std::string(name));
    recorder_->record_now(obs::EventKind::ThreadStart, tid, parent, 0, site);
  }
  dispatch(obs::Hook::ThreadStart,
           [&](Tool* t) { t->on_thread_start(tid, parent, site); });
  return tid;
}

void Runtime::thread_exited(ThreadId tid) {
  thread(tid).alive = false;
  trace(obs::EventKind::ThreadExit, tid, 0, 0);
  dispatch(obs::Hook::ThreadExit, [&](Tool* t) { t->on_thread_exit(tid); });
}

void Runtime::thread_joined(ThreadId joiner, ThreadId joined,
                            support::SiteId site) {
  trace(obs::EventKind::ThreadJoin, joiner, joined, 0, site);
  dispatch(obs::Hook::ThreadJoin,
           [&](Tool* t) { t->on_thread_join(joiner, joined, site); });
}

std::string_view Runtime::thread_name(ThreadId tid) const {
  return thread(tid).name;
}

bool Runtime::thread_alive(ThreadId tid) const { return thread(tid).alive; }

LockId Runtime::register_lock(std::string_view name, bool is_rw) {
  const auto id = static_cast<LockId>(locks_.size());
  locks_.push_back(LockInfo{support::intern(name), is_rw, true});
  if (recorder_ != nullptr) {
    recorder_->note_lock_name(id, std::string(name));
    recorder_->record_now(obs::EventKind::LockCreate, kNoThread, id,
                          is_rw ? 1 : 0);
  }
  dispatch(obs::Hook::LockCreate,
           [&, name_sym = locks_.back().name](Tool* t) {
             t->on_lock_create(id, name_sym, is_rw);
           });
  return id;
}

void Runtime::lock_destroyed(LockId lock) {
  RG_ASSERT(lock < locks_.size());
  locks_[lock].alive = false;
  trace(obs::EventKind::LockDestroy, kNoThread, lock, 0);
  dispatch(obs::Hook::LockDestroy, [&](Tool* t) { t->on_lock_destroy(lock); });
}

void Runtime::pre_lock(ThreadId tid, LockId lock, LockMode mode,
                       support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::PreLock, tid, lock, 0, site,
        static_cast<std::uint8_t>(mode));
  dispatch(obs::Hook::PreLock,
           [&](Tool* t) { t->on_pre_lock(tid, lock, mode, site); });
}

void Runtime::post_lock(ThreadId tid, LockId lock, LockMode mode,
                        support::SiteId site) {
  auto& held = thread(tid).held;
  auto it = std::find_if(held.begin(), held.end(),
                         [&](const HeldLock& h) { return h.lock == lock; });
  if (it != held.end()) {
    ++it->count;
    // Upgrades are not modelled; keep the strongest mode seen.
    if (mode == LockMode::Exclusive) it->mode = LockMode::Exclusive;
  } else {
    held.push_back(HeldLock{lock, mode, 1, site, ++hold_seq_});
  }
  trace(obs::EventKind::PostLock, tid, lock, 0, site,
        static_cast<std::uint8_t>(mode));
  dispatch(obs::Hook::PostLock,
           [&](Tool* t) { t->on_post_lock(tid, lock, mode, site); });
}

void Runtime::unlock(ThreadId tid, LockId lock, support::SiteId site) {
  ++sync_events_;
  auto& held = thread(tid).held;
  auto it = std::find_if(held.begin(), held.end(),
                         [&](const HeldLock& h) { return h.lock == lock; });
  RG_ASSERT_MSG(it != held.end(), "unlock of a lock not held");
  if (--it->count == 0) {
    *it = held.back();
    held.pop_back();
  }
  trace(obs::EventKind::Unlock, tid, lock, 0, site);
  dispatch(obs::Hook::Unlock, [&](Tool* t) { t->on_unlock(tid, lock, site); });
}

const support::small_vector<HeldLock, 4>& Runtime::held_locks(
    ThreadId tid) const {
  return thread(tid).held;
}

std::string_view Runtime::lock_name(LockId lock) const {
  RG_ASSERT(lock < locks_.size());
  return support::symbol_text(locks_[lock].name);
}

SyncId Runtime::register_sync(std::string_view name) {
  const auto id = static_cast<SyncId>(syncs_.size());
  syncs_.push_back(support::intern(name));
  return id;
}

std::string_view Runtime::sync_name(SyncId id) const {
  RG_ASSERT(id < syncs_.size());
  return support::symbol_text(syncs_[id]);
}

void Runtime::cond_signal(ThreadId tid, SyncId cond, support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::CondSignal, tid, cond, 0, site);
  dispatch(obs::Hook::CondSignal,
           [&](Tool* t) { t->on_cond_signal(tid, cond, site); });
}

void Runtime::cond_wait_return(ThreadId tid, SyncId cond, LockId lock,
                               support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::CondWait, tid, cond, lock, site);
  dispatch(obs::Hook::CondWait,
           [&](Tool* t) { t->on_cond_wait_return(tid, cond, lock, site); });
}

void Runtime::sem_post(ThreadId tid, SyncId sem, std::uint64_t token,
                       support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::SemPost, tid, sem, token, site);
  dispatch(obs::Hook::SemPost,
           [&](Tool* t) { t->on_sem_post(tid, sem, token, site); });
}

void Runtime::sem_wait_return(ThreadId tid, SyncId sem, std::uint64_t token,
                              support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::SemWait, tid, sem, token, site);
  dispatch(obs::Hook::SemWait,
           [&](Tool* t) { t->on_sem_wait_return(tid, sem, token, site); });
}

void Runtime::queue_put(ThreadId tid, SyncId queue, std::uint64_t token,
                        support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::QueuePut, tid, queue, token, site);
  dispatch(obs::Hook::QueuePut,
           [&](Tool* t) { t->on_queue_put(tid, queue, token, site); });
}

void Runtime::queue_get(ThreadId tid, SyncId queue, std::uint64_t token,
                        support::SiteId site) {
  ++sync_events_;
  trace(obs::EventKind::QueueGet, tid, queue, token, site);
  dispatch(obs::Hook::QueueGet,
           [&](Tool* t) { t->on_queue_get(tid, queue, token, site); });
}

void Runtime::access(const MemoryAccess& a) {
  // Deliberately not traced here: with the schedule, sync ops and
  // allocations recorded, raw accesses are a deterministic function of the
  // program — re-recording each would add the dominant cost of the stream
  // but no information. The detector records the accesses that matter (the
  // ones that change shadow state) as EventKind::Access from its hook.
  ++access_events_;
  dispatch(obs::Hook::Access, [&](Tool* t) { t->on_access(a); });
}

void Runtime::alloc(ThreadId tid, Addr addr, std::uint32_t size,
                    support::SiteId site) {
  const AllocInfo block{addr, size, site, tid, true, ++alloc_seq_};
  allocs_.insert(block);
  if (recorder_ != nullptr)
    recorder_->record_now(obs::EventKind::Alloc, tid, addr, size, site, 0,
                          base_identity(block));
  dispatch(obs::Hook::Alloc,
           [&](Tool* t) { t->on_alloc(tid, addr, size, site); });
}

void Runtime::free(ThreadId tid, Addr addr, support::SiteId site) {
  const AllocInfo* block = allocs_.lookup(addr);
  RG_ASSERT_MSG(block != nullptr && block->live && block->base == addr,
                "free of unknown allocation");
  const std::uint32_t size = block->size;
  // The event carries the block's allocation-seq identity, matching the
  // block's accesses.
  if (recorder_ != nullptr)
    recorder_->record_now(obs::EventKind::Free, tid, addr, size, site, 0,
                          base_identity(*block));
  allocs_.kill(*block);
  if (addr == ident_base_) ident_size_ = 0;
  dispatch(obs::Hook::Free,
           [&](Tool* t) { t->on_free(tid, addr, size, site); });
}

void Runtime::destruct_annotation(ThreadId tid, Addr addr, std::uint32_t size,
                                  support::SiteId site) {
  trace_addr(obs::EventKind::Destruct, tid, addr, size, site);
  dispatch(obs::Hook::Destruct,
           [&](Tool* t) { t->on_destruct_annotation(tid, addr, size, site); });
}

void AllocTable::insert(const AllocInfo& block) {
  const std::uint64_t last = last_granule(block);
  for (std::uint64_t g = first_granule(block); g <= last; ++g) {
    if ((count_ + 1) * 10 >= slots_.size() * 7) grow();
    Slot& s = slots_[probe(g)];
    if (s.key == 0) ++count_;
    s = Slot{g, block};
  }
}

void AllocTable::kill(const AllocInfo& block) {
  const std::uint64_t seq = block.seq;
  const std::uint64_t last = last_granule(block);
  for (std::uint64_t g = first_granule(block); g <= last; ++g) {
    Slot& s = slots_[probe(g)];
    if (s.key == g && s.block.seq == seq) s.block.live = false;
  }
}

void AllocTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  for (const Slot& s : old)
    if (s.key != 0) slots_[probe(s.key)] = s;
}

AddrOrigin Runtime::origin_of(Addr addr) const {
  AddrOrigin out;
  const AllocInfo* block = allocs_.lookup(addr);
  if (block == nullptr || addr - block->base >= block->size) return out;
  out.known = true;
  out.offset = addr - block->base;
  out.alloc = *block;
  return out;
}

void Runtime::push_frame(ThreadId tid, support::SiteId site) {
  thread(tid).stack.push_back(site);
}

void Runtime::pop_frame(ThreadId tid) {
  auto& stack = thread(tid).stack;
  RG_ASSERT_MSG(!stack.empty(), "frame pop on empty shadow stack");
  stack.pop_back();
}

std::vector<support::SiteId> Runtime::stack_of(ThreadId tid) const {
  const auto& stack = thread(tid).stack;
  std::vector<support::SiteId> out(stack.size());
  // Innermost first, like a backtrace.
  for (std::size_t i = 0; i < stack.size(); ++i)
    out[i] = stack[stack.size() - 1 - i];
  return out;
}

void Runtime::finish() {
  dispatch(obs::Hook::Finish, [&](Tool* t) { t->on_finish(); });
}

ToolStats Runtime::tool_stats() const {
  ToolStats total;
  for (const Tool* t : tools_) total += t->stats();
  return total;
}

}  // namespace rg::rt
