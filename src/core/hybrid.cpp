#include "core/hybrid.hpp"

#include <unordered_set>

namespace rg::core {

std::uint64_t object_of(const Report& r) {
  return r.origin.known ? r.origin.alloc.base : r.access.addr;
}

HybridReport merge_hybrid(const ReportManager& lockset,
                          const ReportManager& hb) {
  std::unordered_set<std::uint64_t> hb_objects;
  for (const Report& r : hb.reports()) hb_objects.insert(object_of(r));

  HybridReport out;
  std::unordered_set<std::uint64_t> lockset_objects;
  for (const Report& r : lockset.reports()) {
    const std::uint64_t obj = object_of(r);
    lockset_objects.insert(obj);
    HybridVerdict v;
    v.report = r;
    v.confirmed = hb_objects.contains(obj);
    v.report.extra = v.confirmed
                         ? "hybrid: confirmed by happens-before ordering"
                         : "hybrid: lockset only (order-dependent candidate)";
    ++(v.confirmed ? out.confirmed : out.possible);
    out.verdicts.push_back(std::move(v));
  }
  for (const Report& r : hb.reports()) {
    if (lockset_objects.contains(object_of(r))) continue;
    HybridVerdict v;
    v.report = r;
    v.hb_only = true;
    v.report.extra = "hybrid: happens-before only (lockset discipline held)";
    ++out.hb_only;
    out.verdicts.push_back(std::move(v));
  }
  return out;
}

}  // namespace rg::core
