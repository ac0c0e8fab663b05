// String interning.
//
// The detector refers to lock names, function names and file names many
// millions of times while processing an event stream; interning turns every
// comparison into an integer compare and every storage into 4 bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace rg::support {

/// Dense id handed out by an Interner. Id 0 is always the empty string.
using Symbol = std::uint32_t;

/// Thread-safe append-only string interner.
///
/// Interned strings live for the lifetime of the interner; `text()` views
/// stay valid because storage is never reallocated (deque-of-strings).
class Interner {
 public:
  Interner();

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the symbol for `s`, interning it on first sight.
  Symbol intern(std::string_view s);

  /// Returns the text of a previously interned symbol.
  std::string_view text(Symbol sym) const;

  /// Number of distinct strings interned so far.
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  // The map's keys and text() hand out views of the stored strings. A
  // deque never moves its elements on push_back, so the views stay valid;
  // a vector would move them on growth, and a short string kept inline
  // (SSO) moves with its owner, leaving every view of it dangling.
  std::unordered_map<std::string_view, Symbol> map_;
  std::deque<std::string> storage_;
};

/// Process-wide interner used by the runtime and the detectors.
Interner& global_interner();

/// Convenience: intern into the global interner.
inline Symbol intern(std::string_view s) { return global_interner().intern(s); }

/// Convenience: resolve a symbol from the global interner.
inline std::string_view symbol_text(Symbol sym) {
  return global_interner().text(sym);
}

}  // namespace rg::support
