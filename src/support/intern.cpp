#include "support/intern.hpp"

#include "support/assert.hpp"

namespace rg::support {

Interner::Interner() {
  Symbol empty = intern("");
  RG_ASSERT(empty == 0);
}

Symbol Interner::intern(std::string_view s) {
  std::lock_guard lock(mu_);
  if (auto it = map_.find(s); it != map_.end()) return it->second;
  storage_.emplace_back(s);
  const Symbol sym = static_cast<Symbol>(storage_.size() - 1);
  map_.emplace(std::string_view(storage_.back()), sym);
  return sym;
}

std::string_view Interner::text(Symbol sym) const {
  std::lock_guard lock(mu_);
  RG_ASSERT_MSG(sym < storage_.size(), "unknown symbol");
  return storage_[sym];
}

std::size_t Interner::size() const {
  std::lock_guard lock(mu_);
  return storage_.size();
}

Interner& global_interner() {
  static Interner interner;
  return interner;
}

}  // namespace rg::support
