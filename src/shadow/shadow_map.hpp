// Shadow memory.
//
// Maps client addresses to per-granule detector state, the way Valgrind
// tools shadow the client address space. Two-level: a flat page table from
// page number to a page of granule slots, so a lookup on the hot path is
// one probe + one index. The granule is 8 bytes (Helgrind tracked machine
// words); an access spanning granules touches each of them. A page covers
// 256 bytes of client address space (32 granules): the proxy's heap objects
// lie scattered between fiber stacks, about 5 touched granules per 4 KiB,
// so small pages keep the shadow dense.
//
// The page table is a power-of-two open-addressing array of
// {page number, page} slots: multiplicative hash, linear probing, doubled
// before its load passes one half. Pages are never freed, so a slot is
// never deleted. Each page is its own heap block owned by `pages_`, so its
// address never moves when the table grows.
//
// A one-entry last-page TLB fronts the probe, the way Valgrind's
// translation cache fronts its SP-map: sequential and looping access
// patterns (the common case for the proxy's message buffers) resolve to
// the same page as the previous access, so `at`/`find` reduce to a compare
// and an index. Since pages never move, the cached pointer can never
// dangle. The TLB can be disabled (equivalence testing) and exposes
// hit/miss counters, which count the lookups of the access path
// (`at`/`find`) only.
//
// `reset_range` (every alloc and free) walks its range a page at a time and
// rewrites only pages that already exist: a page that was never created
// reads as default State everywhere, which is exactly what a reset writes,
// so resetting it must not create it. It consults the TLB without counting
// or refilling it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/ids.hpp"

namespace rg::shadow {

constexpr std::uint32_t kGranuleShift = 3;  // 8-byte granules
constexpr std::uint32_t kPageShift = 8;     // 256-byte pages
constexpr std::uint32_t kGranulesPerPage = 1u << (kPageShift - kGranuleShift);

/// Granule index of an address.
inline std::uint64_t granule_of(rt::Addr addr) { return addr >> kGranuleShift; }

/// First byte address of a granule.
inline rt::Addr granule_base(std::uint64_t granule) {
  return granule << kGranuleShift;
}

/// Hit/miss counters of the last-page TLB.
struct ShadowTlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <typename State>
class ShadowMap {
 public:
  /// State slot for the granule containing `addr`, default-constructed on
  /// first touch.
  State& at(rt::Addr addr) {
    const std::uint64_t g = granule_of(addr);
    const std::uint64_t page_no = g >> (kPageShift - kGranuleShift);
    if (tlb_enabled_ && tlb_page_ != nullptr && tlb_page_no_ == page_no) {
      ++tlb_.hits;
      return (*tlb_page_)[g & (kGranulesPerPage - 1)];
    }
    ++tlb_.misses;
    Page& page = ensure_page(page_no);
    tlb_page_no_ = page_no;
    tlb_page_ = &page;
    return page[g & (kGranulesPerPage - 1)];
  }

  /// Existing slot, or nullptr if the granule was never touched.
  const State* find(rt::Addr addr) const {
    const std::uint64_t g = granule_of(addr);
    const std::uint64_t page_no = g >> (kPageShift - kGranuleShift);
    if (tlb_enabled_ && tlb_page_ != nullptr && tlb_page_no_ == page_no) {
      ++tlb_.hits;
      return &(*tlb_page_)[g & (kGranulesPerPage - 1)];
    }
    ++tlb_.misses;
    Page* page = slots_[probe(page_no)].page;
    if (page == nullptr) return nullptr;
    tlb_page_no_ = page_no;
    tlb_page_ = page;
    return &(*page)[g & (kGranulesPerPage - 1)];
  }

  /// Applies `fn(State&)` to every granule overlapping [addr, addr+size).
  template <typename Fn>
  void for_range(rt::Addr addr, std::uint32_t size, Fn&& fn) {
    if (size == 0) size = 1;
    const std::uint64_t first = granule_of(addr);
    const std::uint64_t last = granule_of(addr + size - 1);
    for (std::uint64_t g = first; g <= last; ++g) fn(at(granule_base(g)));
  }

  /// Resets every granule overlapping the range to a default State
  /// (allocation freed — Helgrind reinitialises the shadow state, which is
  /// why allocator-internal reuse *without* free events causes the §4
  /// libstdc++ false positives). Pages that do not exist are skipped, not
  /// created.
  void reset_range(rt::Addr addr, std::uint32_t size) {
    if (size == 0) size = 1;
    const std::uint64_t last = granule_of(addr + size - 1);
    for (std::uint64_t g = granule_of(addr); g <= last;) {
      const std::uint64_t page_no = g >> (kPageShift - kGranuleShift);
      const std::uint64_t page_last =
          std::min(last, g | (kGranulesPerPage - 1));
      if (Page* page = existing_page(page_no))
        for (std::uint64_t i = g; i <= page_last; ++i)
          (*page)[i & (kGranulesPerPage - 1)] = State();
      g = page_last + 1;
    }
  }

  std::size_t page_count() const { return pages_.size(); }

  /// Disables (or re-enables) the last-page TLB; used by the unit
  /// reference-model test to prove the cache changes no lookup.
  void set_tlb_enabled(bool enabled) {
    tlb_enabled_ = enabled;
    tlb_page_ = nullptr;
  }
  bool tlb_enabled() const { return tlb_enabled_; }
  const ShadowTlbStats& tlb_stats() const { return tlb_; }

 private:
  using Page = std::array<State, kGranulesPerPage>;
  /// A page-table slot; `page == nullptr` marks it empty.
  struct Slot {
    std::uint64_t page_no = 0;
    Page* page = nullptr;
  };
  static constexpr unsigned kInitialSlotsLog2 = 6;

  /// The page if it exists; consults the TLB without counting the lookup.
  Page* existing_page(std::uint64_t page_no) {
    if (tlb_enabled_ && tlb_page_ != nullptr && tlb_page_no_ == page_no)
      return tlb_page_;
    return slots_[probe(page_no)].page;
  }

  Page& ensure_page(std::uint64_t page_no) {
    Slot* slot = &slots_[probe(page_no)];
    if (slot->page != nullptr) return *slot->page;
    if ((pages_.size() + 1) * 2 > slots_.size()) {
      grow();
      slot = &slots_[probe(page_no)];
    }
    pages_.push_back(std::make_unique<Page>());
    *slot = Slot{page_no, pages_.back().get()};
    return *slot->page;
  }

  /// Index of `page_no`'s slot, or of the empty slot that ends its run.
  std::size_t probe(std::uint64_t page_no) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (page_no * 0x9E3779B97F4A7C15ull) >> hash_shift_;
    while (slots_[i].page != nullptr && slots_[i].page_no != page_no)
      i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --hash_shift_;
    for (const Slot& s : old)
      if (s.page != nullptr) slots_[probe(s.page_no)] = s;
  }

  std::vector<Slot> slots_ = std::vector<Slot>(1u << kInitialSlotsLog2);
  // The slot index is the top log2(slots_.size()) bits of the product.
  unsigned hash_shift_ = 64 - kInitialSlotsLog2;
  std::vector<std::unique_ptr<Page>> pages_;
  bool tlb_enabled_ = true;
  // `find` is logically const; warming the TLB there is pure caching.
  mutable std::uint64_t tlb_page_no_ = 0;
  mutable Page* tlb_page_ = nullptr;
  mutable ShadowTlbStats tlb_;
};

}  // namespace rg::shadow
