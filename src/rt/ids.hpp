// Identifier vocabulary shared by the runtime, the shadow state and the
// detection tools.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>

#include "support/site.hpp"

namespace rg::rt {

/// Dense thread id; the initial (main) simulated thread is 0.
using ThreadId = std::uint32_t;
constexpr ThreadId kNoThread = std::numeric_limits<ThreadId>::max();
constexpr ThreadId kMainThread = 0;

/// Dense id for a lock object (mutex or rw-mutex).
using LockId = std::uint32_t;
constexpr LockId kNoLock = std::numeric_limits<LockId>::max();

/// Dense id for non-lock synchronisation objects (condvars, semaphores,
/// message queues).
using SyncId = std::uint32_t;

/// Byte address in the program under test. Tracked cells use their real
/// object address, so shadow memory maps genuine pointers.
using Addr = std::uint64_t;

/// How a lock is held. Shared is the read side of a rw-lock (and, in the
/// HWLC model, the implicit read side of the hardware bus lock).
enum class LockMode : std::uint8_t { Exclusive, Shared };

enum class AccessKind : std::uint8_t { Read, Write };

/// A single memory access event as seen by a detection tool.
struct MemoryAccess {
  ThreadId thread = kNoThread;
  Addr addr = 0;
  std::uint32_t size = 0;
  AccessKind kind = AccessKind::Read;
  /// True when the access carries the x86 LOCK prefix (bus-locked RMW).
  /// Per the i386 specification only writes ever carry it.
  bool bus_locked = false;
  support::SiteId site = support::kUnknownSite;
};

inline const char* to_string(AccessKind k) {
  return k == AccessKind::Read ? "read" : "write";
}

inline const char* to_string(LockMode m) {
  return m == LockMode::Exclusive ? "exclusive" : "shared";
}

namespace detail {

/// Per-thread memo behind site_of(): 1024 slots keyed by the function and
/// file pointers and the line, multiplicative hash, linear probing, never
/// evicted. Zero is its initial state, so the thread-local needs no guard.
/// A Fig. 6 thread meets about 272 sites; once 512 are in, further triples
/// go to the registry on every lookup instead of growing the table.
struct SiteMemo {
  struct Entry {
    const char* function;  // nullptr marks an empty slot
    const char* file;
    std::uint32_t line;
    support::SiteId id;
  };
  static constexpr unsigned kLog2 = 10;
  Entry slots[1u << kLog2];
  std::size_t count;
};

}  // namespace detail

/// Site id of a (function, file, line) triple, memoised per OS thread, so
/// a thread reaches the registry (two mutexes and two string hashes) once
/// per distinct triple. `function` and `file` must point at text that stays
/// alive and unchanged for the thread's life, such as std::source_location's
/// string literals. Distinct pointers with equal text are distinct memo keys
/// that get the same id, since site_id() dedupes by content.
inline support::SiteId site_of(const char* function, const char* file,
                               std::uint32_t line) {
  thread_local detail::SiteMemo memo;
  constexpr std::size_t kMask = (1u << detail::SiteMemo::kLog2) - 1;
  const std::uint64_t h =
      ((reinterpret_cast<std::uintptr_t>(function) ^ line) *
           0x9E3779B97F4A7C15ull ^
       reinterpret_cast<std::uintptr_t>(file)) *
      0xC2B2AE3D27D4EB4Full;
  std::size_t i = h >> (64 - detail::SiteMemo::kLog2);
  for (; memo.slots[i].function != nullptr; i = (i + 1) & kMask) {
    const detail::SiteMemo::Entry& e = memo.slots[i];
    if (e.function == function && e.file == file && e.line == line)
      return e.id;
  }
  const support::SiteId id = support::site_id(function, file, line);
  if (2 * (memo.count + 1) <= kMask + 1) {
    memo.slots[i] = {function, file, line, id};
    ++memo.count;
  }
  return id;
}

/// Interns a std::source_location into the global site registry. The
/// instrumented API takes defaulted source_location parameters so every
/// event carries the client code position, like Valgrind's debug-info
/// lookup does for Helgrind.
inline support::SiteId site_of(const std::source_location& loc) {
  return site_of(loc.function_name(), loc.file_name(), loc.line());
}

}  // namespace rg::rt

