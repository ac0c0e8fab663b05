// Runtime core: registries, event fan-out, allocation origins, shadow
// stacks.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "detector_harness.hpp"
#include "rt/runtime.hpp"
#include "support/prng.hpp"

namespace rg::rt {
namespace {

class CountingTool : public Tool {
 public:
  int starts = 0, joins = 0;
  int lock_creates = 0, accesses = 0, allocs = 0, frees = 0, destructs = 0;
  int finishes = 0;
  MemoryAccess last_access;

  void on_thread_start(ThreadId, ThreadId, support::SiteId) override {
    ++starts;
  }
  void on_thread_join(ThreadId, ThreadId, support::SiteId) override {
    ++joins;
  }
  void on_lock_create(LockId, support::Symbol, bool) override {
    ++lock_creates;
  }
  void on_access(const MemoryAccess& a) override {
    ++accesses;
    last_access = a;
  }
  void on_alloc(ThreadId, Addr, std::uint32_t, support::SiteId) override {
    ++allocs;
  }
  void on_free(ThreadId, Addr, std::uint32_t, support::SiteId) override {
    ++frees;
  }
  void on_destruct_annotation(ThreadId, Addr, std::uint32_t,
                              support::SiteId) override {
    ++destructs;
  }
  void on_finish() override { ++finishes; }
};

TEST(Runtime, DispatchesToAllTools) {
  Runtime rt;
  CountingTool a, b;
  rt.attach(a);
  rt.attach(b);
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.access({t, 0x1000, 4, AccessKind::Write, false, 0});
  EXPECT_EQ(a.starts, 1);
  EXPECT_EQ(b.starts, 1);
  EXPECT_EQ(a.accesses, 1);
  EXPECT_EQ(b.accesses, 1);
}

TEST(Runtime, ThreadRegistryNamesAndLiveness) {
  Runtime rt;
  const ThreadId main = rt.register_thread("main", kNoThread, 0);
  const ThreadId worker = rt.register_thread("worker", main, 0);
  EXPECT_EQ(rt.thread_name(main), "main");
  EXPECT_EQ(rt.thread_name(worker), "worker");
  EXPECT_TRUE(rt.thread_alive(worker));
  rt.thread_exited(worker);
  EXPECT_FALSE(rt.thread_alive(worker));
}

TEST(Runtime, DenseThreadIds) {
  Runtime rt;
  EXPECT_EQ(rt.register_thread("t0", kNoThread, 0), 0u);
  EXPECT_EQ(rt.register_thread("t1", 0, 0), 1u);
  EXPECT_EQ(rt.register_thread("t2", 0, 0), 2u);
}

TEST(Runtime, HeldLockModesAndCounts) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  const LockId rw = rt.register_lock("rw", true);
  const auto outer = support::site_id("outer", "held.cpp", 1);
  const auto inner = support::site_id("inner", "held.cpp", 2);
  rt.post_lock(t, rw, LockMode::Shared, outer);
  ASSERT_EQ(rt.held_locks(t).size(), 1u);
  EXPECT_EQ(rt.held_locks(t)[0].mode, LockMode::Shared);
  const std::uint64_t span = rt.held_locks(t)[0].span;
  EXPECT_NE(span, 0u);
  // Recursive shared acquisition: count goes up, entry stays single, and
  // the hold keeps its span and the outermost acquisition's site.
  rt.post_lock(t, rw, LockMode::Shared, inner);
  ASSERT_EQ(rt.held_locks(t).size(), 1u);
  EXPECT_EQ(rt.held_locks(t)[0].count, 2u);
  EXPECT_EQ(rt.held_locks(t)[0].span, span);
  EXPECT_EQ(rt.held_locks(t)[0].site, outer);
  rt.unlock(t, rw, 0);
  ASSERT_EQ(rt.held_locks(t).size(), 1u);
  EXPECT_EQ(rt.held_locks(t)[0].span, span);
  rt.unlock(t, rw, 0);
  EXPECT_TRUE(rt.held_locks(t).empty());
  // A re-acquisition after the full release is a new hold span.
  rt.post_lock(t, rw, LockMode::Shared, inner);
  ASSERT_EQ(rt.held_locks(t).size(), 1u);
  EXPECT_NE(rt.held_locks(t)[0].span, 0u);
  EXPECT_NE(rt.held_locks(t)[0].span, span);
  EXPECT_EQ(rt.held_locks(t)[0].site, inner);
  rt.unlock(t, rw, 0);
}

TEST(Runtime, LockNames) {
  Runtime rt;
  const LockId l = rt.register_lock("registrar-mutex", false);
  EXPECT_EQ(rt.lock_name(l), "registrar-mutex");
}

TEST(Runtime, AllocOriginLookup) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  const auto site = support::site_id("maker", "alloc.cpp", 5);
  rt.alloc(t, 0x5000, 64, site);

  const AddrOrigin exact = rt.origin_of(0x5000);
  ASSERT_TRUE(exact.known);
  EXPECT_EQ(exact.offset, 0u);
  EXPECT_EQ(exact.alloc.size, 64u);

  const AddrOrigin inside = rt.origin_of(0x5008);
  ASSERT_TRUE(inside.known);
  EXPECT_EQ(inside.offset, 8u);
  EXPECT_NE(inside.describe().find("8 bytes inside a block of size 64"),
            std::string::npos);

  EXPECT_FALSE(rt.origin_of(0x5040).known);  // one past the end
  EXPECT_FALSE(rt.origin_of(0x4fff).known);
}

TEST(Runtime, FreedAllocStillDescribable) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x7000, 32, 0);
  rt.free(t, 0x7000, 0);
  // Reports on stale addresses still resolve to the most recent block.
  const AddrOrigin origin = rt.origin_of(0x7010);
  EXPECT_TRUE(origin.known);
  EXPECT_EQ(origin.offset, 16u);
}

TEST(Runtime, OverlappingRealloc) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x9000, 16, 0);
  rt.free(t, 0x9000, 0);
  const auto site2 = support::site_id("second", "alloc.cpp", 9);
  rt.alloc(t, 0x9000, 16, site2);
  const AddrOrigin origin = rt.origin_of(0x9004);
  ASSERT_TRUE(origin.known);
  EXPECT_EQ(origin.alloc.site, site2);  // live block wins over dead one
}

// --- allocation registry ------------------------------------------------------

/// The registry as Runtime kept it before the granule table, copied here as
/// the reference: live blocks, and the most recent freed block per base,
/// each in a map keyed by base and searched with upper_bound.
struct TwoMapRegistry {
  std::map<Addr, AllocInfo> live, dead;

  static const AllocInfo* locate(const std::map<Addr, AllocInfo>& allocs,
                                 Addr addr) {
    auto it = allocs.upper_bound(addr);
    if (it == allocs.begin()) return nullptr;
    --it;
    return addr < it->second.base + it->second.size ? &it->second : nullptr;
  }
  void free(Addr base) {
    auto it = live.find(base);
    dead[base] = it->second;
    dead[base].live = false;
    live.erase(it);
  }
  const AllocInfo* origin(Addr addr) const {
    const AllocInfo* b = locate(live, addr);
    return b != nullptr ? b : locate(dead, addr);
  }
  std::uint64_t identity(Addr addr) const {
    const AllocInfo* b = locate(live, addr);
    if (b == nullptr) return 0;
    return (1ull << 63) | (b->seq << 32) | (addr - b->base);
  }
};

std::uint64_t last_granule(Addr base, std::uint32_t size) {
  return (base + (size == 0 ? 1 : size) - 1) >> 4;
}

TEST(AllocRegistry, MatchesTwoMapReferenceModel) {
  // Seeded alloc/free over 16-byte-aligned bases (malloc's alignment) in a
  // small arena, so freed ranges are reused in every combination. The
  // runtime must equal a granule -> latest block model exactly; where that
  // differs from the two-map reference, the difference must be one of the
  // cases pinned in TombstoneAnswersWhereTheTwoMapLookupDiffered.
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  TwoMapRegistry ref;
  std::vector<AllocInfo> blocks;                    // by seq - 1
  std::map<std::uint64_t, std::uint64_t> owner;     // granule -> latest seq
  std::vector<Addr> live_bases;
  support::Xoshiro256 rng(2024);
  constexpr Addr kBase = 0x100000;
  constexpr std::uint64_t kSpan = 4096;
  int tail_of_newer = 0, older_tombstone = 0, newer_tombstone = 0;

  auto overlaps_live = [&](Addr base, std::uint32_t size) {
    const Addr end = base + (size == 0 ? 1 : size);
    for (const auto& [b, l] : ref.live)
      if (base < b + (l.size == 0 ? 1 : l.size) && b < end) return true;
    return false;
  };

  auto check = [&](Addr addr) {
    ASSERT_EQ(rt.trace_identity(addr), ref.identity(addr)) << addr;
    const AddrOrigin got = rt.origin_of(addr);
    const auto it = owner.find(addr >> 4);
    const AllocInfo* latest =
        it == owner.end() ? nullptr : &blocks[it->second - 1];
    const bool known = latest != nullptr && addr - latest->base < latest->size;
    ASSERT_EQ(got.known, known) << addr;
    if (known) {
      EXPECT_EQ(got.alloc.seq, latest->seq);
      EXPECT_EQ(got.alloc.live, latest->live);
      EXPECT_EQ(got.offset, addr - latest->base);
    }
    const AllocInfo* old = ref.origin(addr);
    if (old != nullptr && got.known && old->seq == got.alloc.seq) return;
    if (old == nullptr && !got.known) return;
    // The answers differ: neither side is a live block containing addr,
    // and the table's block is the more recent one to cover the granule.
    ASSERT_TRUE(old == nullptr || !old->live) << addr;
    ASSERT_TRUE(!got.known || !got.alloc.live) << addr;
    ASSERT_NE(latest, nullptr);
    if (old != nullptr) {
      ASSERT_GT(latest->seq, old->seq) << addr;
    }
    // Either a newer block owns the granule and addr is past it (case 1),
    // or the by-base walk stopped at a closer base or at a newer block on
    // the same base (cases 2, 3), or both sides know addr and the table
    // names the newer block (case 4).
    if (!got.known)
      ++tail_of_newer;
    else if (old == nullptr)
      ++older_tombstone;
    else
      ++newer_tombstone;
  };

  for (int op = 0; op < 20'000; ++op) {
    if (!live_bases.empty() && rng.chance(1, 2)) {
      const std::size_t i = rng.below(live_bases.size());
      const Addr base = live_bases[i];
      live_bases[i] = live_bases.back();
      live_bases.pop_back();
      rt.free(t, base, 0);
      blocks[ref.live.at(base).seq - 1].live = false;
      ref.free(base);
    } else {
      const Addr base = kBase + 16 * rng.below(kSpan / 16);
      const auto size = static_cast<std::uint32_t>(rng.below(301));
      if (overlaps_live(base, size)) continue;
      const auto site = static_cast<support::SiteId>(rng.below(50));
      rt.alloc(t, base, size, site);
      const AllocInfo info{base, size, site, t, true, blocks.size() + 1};
      blocks.push_back(info);
      ref.live[base] = info;
      live_bases.push_back(base);
      for (std::uint64_t g = base >> 4; g <= last_granule(base, size); ++g)
        owner[g] = info.seq;
    }
    for (int probe = 0; probe < 4; ++probe)
      check(kBase - 64 + rng.below(kSpan + 512));
    if (HasFailure()) return;
    // Slots are never deleted, and only allocated granules get one.
    ASSERT_EQ(rt.alloc_granules(), owner.size());
  }
  // The sweep reaches every kind of legitimate divergence.
  EXPECT_GT(tail_of_newer, 0);
  EXPECT_GT(older_tombstone, 0);
  EXPECT_GT(newer_tombstone, 0);
}

TEST(AllocRegistry, TombstoneAnswersWhereTheTwoMapLookupDiffered) {
  // Each granule answers with the most recent block that covered it, live
  // or freed; the by-base maps answered with the closest base at or below
  // the address (live map first). Where the two differ, the table's answer
  // is pinned here (DESIGN §12).
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);

  // 1. addr in the tail of a newer block's granule, past its end, inside
  //    an older dead block: the maps named the dead block; the granule
  //    names the newer one, which does not contain addr. The newer block
  //    is live, or dead with a lower base.
  rt.alloc(t, 0x1000, 64, 1);
  rt.free(t, 0x1000, 0);
  rt.alloc(t, 0x1000, 4, 2);
  EXPECT_FALSE(rt.origin_of(0x1008).known);
  EXPECT_EQ(rt.origin_of(0x1010).alloc.site, 1u);  // granule still dead's
  rt.alloc(t, 0x6040, 64, 9);
  rt.free(t, 0x6040, 0);
  rt.alloc(t, 0x6000, 0x48, 10);
  rt.free(t, 0x6000, 0);
  EXPECT_FALSE(rt.origin_of(0x604c).known);
  EXPECT_EQ(rt.origin_of(0x6050).alloc.site, 9u);  // next granule: agreed

  // 2. An older, larger dead block contains addr, and a smaller, newer dead
  //    block took a lower granule: the maps stopped at the newer base and
  //    answered unknown; the granule still holds the older tombstone.
  rt.alloc(t, 0x2000, 64, 3);
  rt.free(t, 0x2000, 0);
  rt.alloc(t, 0x2010, 4, 4);
  rt.free(t, 0x2010, 0);
  const AddrOrigin older = rt.origin_of(0x2028);
  ASSERT_TRUE(older.known);
  EXPECT_EQ(older.alloc.site, 3u);
  EXPECT_EQ(older.offset, 0x28u);
  EXPECT_FALSE(older.alloc.live);
  EXPECT_FALSE(rt.origin_of(0x2018).known);  // agreed: past the newer block

  // 3. A smaller, newer dead block at the same base: the maps kept only the
  //    newest block per base; the granules past it keep the older one.
  rt.alloc(t, 0x3000, 64, 5);
  rt.free(t, 0x3000, 0);
  rt.alloc(t, 0x3000, 8, 6);
  rt.free(t, 0x3000, 0);
  EXPECT_EQ(rt.origin_of(0x3020).alloc.site, 5u);
  EXPECT_EQ(rt.origin_of(0x3004).alloc.site, 6u);  // agreed

  // 4. A newer dead block with a lower base covers an older dead block: the
  //    maps named the older block (its base is closer); the granule names
  //    the newer one.
  rt.alloc(t, 0x4020, 16, 7);
  rt.free(t, 0x4020, 0);
  rt.alloc(t, 0x4000, 64, 8);
  rt.free(t, 0x4000, 0);
  const AddrOrigin newer = rt.origin_of(0x4028);
  ASSERT_TRUE(newer.known);
  EXPECT_EQ(newer.alloc.site, 8u);
  EXPECT_EQ(newer.offset, 0x28u);

  // Tombstones never give a trace identity.
  EXPECT_EQ(rt.trace_identity(0x2028), 0u);
  EXPECT_NE(rt.trace_identity(0x1000), 0u);  // the live 4-byte block
}

TEST(AllocRegistry, ZeroSizeBlockOwnsItsBaseGranule) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x5000, 0, 1);
  EXPECT_EQ(rt.alloc_granules(), 1u);
  EXPECT_FALSE(rt.origin_of(0x5000).known);  // no byte lies inside it
  EXPECT_EQ(rt.trace_identity(0x5000), 0u);
  rt.free(t, 0x5000, 0);
}

TEST(AllocRegistry, AllocAndFreeEventsCarryTheBlockIdentity) {
  // alloc and free attach the block's identity without a lookup; it must
  // be the one trace_identity gives an access to the block's base, so all
  // three events normalise to one id. A zero-size block has no identity:
  // its events normalise the raw address, like an access there.
  Runtime rt;
  obs::FlightRecorder rec;
  rt.set_recorder(&rec);
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x6000, 32, 1);
  rt.record(obs::EventKind::Access, {t, 0x6000, 4});
  rt.free(t, 0x6000, 0);
  rt.alloc(t, 0x6000, 32, 1);  // same address, new block
  rt.alloc(t, 0x7000, 0, 2);
  rt.record(obs::EventKind::Access, {t, 0x7000, 4});
  rt.free(t, 0x7000, 0);
  std::vector<obs::Event> mem;
  for (const obs::Event& e : rec.snapshot())
    if (e.norm != obs::kNoNorm) mem.push_back(e);
  ASSERT_EQ(mem.size(), 7u);
  EXPECT_EQ(mem[0].norm, mem[1].norm);
  EXPECT_EQ(mem[0].norm, mem[2].norm);
  EXPECT_NE(mem[3].norm, mem[0].norm);
  EXPECT_EQ(mem[4].norm, mem[5].norm);
  EXPECT_EQ(mem[4].norm, mem[6].norm);
  EXPECT_NE(mem[4].norm, mem[3].norm);
}

// RG_ASSERT aborts; the threadsafe style re-executes the test binary for
// each death check instead of forking a possibly multi-threaded process.
TEST(AllocRegistryDeathTest, FreeOfNeverAllocatedAddressAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x8000, 64, 0);
  EXPECT_DEATH(rt.free(t, 0x9000, 0), "free of unknown allocation");
}

TEST(AllocRegistryDeathTest, DoubleFreeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x8000, 64, 0);
  rt.free(t, 0x8000, 0);
  EXPECT_DEATH(rt.free(t, 0x8000, 0), "free of unknown allocation");
}

TEST(AllocRegistryDeathTest, FreeOfInteriorPointerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.alloc(t, 0x8000, 64, 0);
  EXPECT_DEATH(rt.free(t, 0x8010, 0), "free of unknown allocation");
  EXPECT_DEATH(rt.free(t, 0x8008, 0), "free of unknown allocation");
}

TEST(Runtime, ShadowStacks) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  const auto f1 = support::site_id("outer", "s.cpp", 1);
  const auto f2 = support::site_id("inner", "s.cpp", 2);
  rt.push_frame(t, f1);
  rt.push_frame(t, f2);
  const auto stack = rt.stack_of(t);
  ASSERT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack[0], f2);  // innermost first
  EXPECT_EQ(stack[1], f1);
  rt.pop_frame(t);
  EXPECT_EQ(rt.stack_of(t).size(), 1u);
}

TEST(Runtime, PerThreadStacksAreIndependent) {
  Runtime rt;
  const ThreadId a = rt.register_thread("a", kNoThread, 0);
  const ThreadId b = rt.register_thread("b", a, 0);
  rt.push_frame(a, support::site_id("fa", "s.cpp", 1));
  rt.push_frame(b, support::site_id("fb", "s.cpp", 2));
  EXPECT_EQ(rt.stack_of(a).size(), 1u);
  EXPECT_EQ(rt.stack_of(b).size(), 1u);
  EXPECT_NE(rt.stack_of(a)[0], rt.stack_of(b)[0]);
}

TEST(Runtime, EventCounters) {
  Runtime rt;
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  const LockId l = rt.register_lock("l", false);
  rt.pre_lock(t, l, LockMode::Exclusive, 0);
  rt.post_lock(t, l, LockMode::Exclusive, 0);
  rt.unlock(t, l, 0);
  rt.access({t, 0x100, 1, AccessKind::Read, false, 0});
  EXPECT_EQ(rt.access_events(), 1u);
  EXPECT_GE(rt.sync_events(), 1u);
}

TEST(Runtime, FinishNotifiesTools) {
  Runtime rt;
  CountingTool tool;
  rt.attach(tool);
  rt.finish();
  EXPECT_EQ(tool.finishes, 1);
}

TEST(Runtime, DestructAnnotationFansOut) {
  Runtime rt;
  CountingTool tool;
  rt.attach(tool);
  const ThreadId t = rt.register_thread("main", kNoThread, 0);
  rt.destruct_annotation(t, 0x100, 24, 0);
  EXPECT_EQ(tool.destructs, 1);
}

TEST(EventHarnessTest, ConvenienceWrappers) {
  test::EventHarness h;
  CountingTool tool;
  h.attach(tool);
  const ThreadId main = h.thread("main");
  const ThreadId worker = h.thread("worker");
  const LockId l = h.lock("m");
  h.acquire(worker, l);
  h.write(worker, 0x100);
  h.release(worker, l);
  h.join(main, worker);
  EXPECT_EQ(tool.starts, 2);
  EXPECT_EQ(tool.joins, 1);
  EXPECT_EQ(tool.accesses, 1);
  EXPECT_EQ(tool.last_access.thread, worker);
  EXPECT_EQ(tool.last_access.kind, AccessKind::Write);
}

/// 48 functions x 5 files x 10 lines = 2400 distinct (function, file, line)
/// triples, whose text lives as long as the process, like the literals of
/// std::source_location. That is more than a thread's memo keeps (512), so
/// the checks below cover both its hits and its fall-through to the
/// registry.
struct SiteTriples {
  std::vector<std::string> functions, files;
  static constexpr std::uint32_t kLines = 10;
};

const SiteTriples& site_triples() {
  static const SiteTriples triples = [] {
    SiteTriples t;
    for (int i = 0; i < 48; ++i)
      t.functions.push_back("memo_fn_" + std::to_string(i));
    for (int i = 0; i < 5; ++i)
      t.files.push_back("memo_file_" + std::to_string(i) + ".cpp");
    return t;
  }();
  return triples;
}

/// Two passes of site_of over every triple: each returns the registry's id
/// for its content, and the second pass registers no new site.
void check_site_memo() {
  const SiteTriples& t = site_triples();
  std::size_t after_first_pass = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& fn : t.functions)
      for (const std::string& file : t.files)
        for (std::uint32_t line = 1; line <= SiteTriples::kLines; ++line)
          ASSERT_EQ(site_of(fn.c_str(), file.c_str(), line),
                    support::site_id(fn, file, line))
              << "pass " << pass << ": " << fn << " " << file << ":" << line;
    if (pass == 0) after_first_pass = support::global_sites().size();
  }
  EXPECT_EQ(support::global_sites().size(), after_first_pass);
}

TEST(SiteOf, MemoReturnsRegistryIds) { check_site_memo(); }

TEST(SiteOf, MemoIsPerThread) {
  std::thread other(check_site_memo);
  other.join();
}

TEST(SiteOf, EqualTextAtDistinctPointersSharesAnId) {
  static const std::string a = "memo_twin", b = "memo_twin";
  static const std::string file = "memo_twin.cpp";
  ASSERT_NE(a.c_str(), b.c_str());
  EXPECT_EQ(site_of(a.c_str(), file.c_str(), 3),
            site_of(b.c_str(), file.c_str(), 3));
}

TEST(SiteOf, FileIsRelativeToTheCheckout) {
  // The build maps the source root away, so a site reads the same from
  // every checkout of one commit.
  const support::Site site =
      support::global_sites().get(site_of(std::source_location::current()));
  EXPECT_EQ(support::symbol_text(site.file), "tests/test_runtime.cpp");
  const support::Site here = support::global_sites().get(RG_HERE());
  EXPECT_EQ(support::symbol_text(here.file), "tests/test_runtime.cpp");
}

}  // namespace
}  // namespace rg::rt
