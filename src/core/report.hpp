// Warning reports and their management.
//
// The paper counts "reported possible data race locations": distinct static
// locations, not dynamic occurrences. ReportManager deduplicates by a
// location key (kind + innermost frame + allocation origin), applies
// Valgrind-style suppression patterns, and renders Helgrind-style report
// text (cf. Fig. 9).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rt/ids.hpp"
#include "rt/runtime.hpp"
#include "support/site.hpp"

namespace rg::core {

struct Report {
  enum class Kind : std::uint8_t {
    DataRace,
    LockOrderInversion,
    /// A refined lock-order cycle that survived the cross-thread feasibility
    /// refinements: some interleaving of the observed run can deadlock.
    PredictedDeadlock,
  };

  Kind kind = Kind::DataRace;
  /// The offending access (data races only).
  rt::MemoryAccess access;
  /// Shadow call stack at the time of the warning, innermost frame first.
  std::vector<support::SiteId> stack;
  /// Where the accessed memory came from.
  rt::AddrOrigin origin;
  /// Shadow state before this access, e.g. "shared RO, no locks".
  std::string prev_state;
  /// Candidate lockset after the intersection that emptied it.
  std::string lockset_desc;
  /// Free-form detail (lock cycles, hybrid confirmation, ...).
  std::string extra;
  /// Dynamic occurrences folded into this location.
  std::uint32_t occurrences = 1;
  /// Flight-recorder cursor at the moment the warning fired (0 when no
  /// recorder was attached): events with seq < recorder_cursor led up to
  /// it. rg-debug --explain uses it to dump the accesses and lock
  /// operations that drove the lockset to empty.
  std::uint64_t recorder_cursor = 0;
  /// Causal attribution: the (trace, span) active on the offending thread
  /// when the warning fired (0 when no SpanTracker was attached) — the SIP
  /// transaction that drove the warning, by id.
  std::uint32_t trace_id = 0;
  std::uint32_t span_id = 0;
  /// PredictedDeadlock only: the locks of the predicted cycle, in cycle
  /// order, and the thread that takes each edge. rg-debug --explain
  /// filters the flight-recorder stream down to these participants.
  std::vector<std::uint64_t> cycle_locks;
  std::vector<rt::ThreadId> cycle_threads;

  /// Innermost report frame (the access site when the stack is empty).
  support::SiteId top_site() const {
    return stack.empty() ? access.site : stack.front();
  }

  /// Stable identity of the reported *location*.
  std::string location_key() const;
};

const char* to_string(Report::Kind kind);

/// Starts a report of `kind` about `access` with the fields every detector
/// attaches: the shadow stack of `access.thread` with `access.site` pushed
/// in front, the allocation origin of `access.addr` (data races only), the
/// flight-recorder cursor and the thread's ambient (trace, span). Record
/// any event the cursor must cover before calling it.
Report make_report(const rt::Runtime& rt, Report::Kind kind,
                   const rt::MemoryAccess& access);

/// One parsed suppression entry (simplified Valgrind format).
struct Suppression {
  std::string name;
  std::string kind_pattern;  // e.g. "Helgrind:Race", may contain globs
  /// Function-name glob patterns matched against the report stack from the
  /// innermost frame outward; "..." matches any run of frames.
  std::vector<std::string> frame_patterns;
};

/// Parses a suppression file. Format:
///   {
///     <name>
///     <tool>:<kind>
///     fun:<glob>
///     ...
///   }
/// Unknown directives (obj:, ...) are accepted and treated as "...".
std::vector<Suppression> parse_suppressions(std::string_view text);

class ReportManager {
 public:
  explicit ReportManager(std::string tool_name = "raceguard");

  void add_suppressions(const std::vector<Suppression>& sups);
  void load_suppressions(std::string_view text) {
    add_suppressions(parse_suppressions(text));
  }

  /// Warning-storm hardening: once `max_locations` distinct locations have
  /// been filed, further *new* locations are counted but not stored, so a
  /// chaos run whose detector melts down degrades to O(cap) memory instead
  /// of O(warnings). Existing locations keep folding normally. 0 (default)
  /// = unlimited.
  void set_report_cap(std::size_t max_locations) { cap_ = max_locations; }
  std::size_t report_cap() const { return cap_; }
  /// New locations dropped because the cap was reached.
  std::uint64_t overflow_reports() const { return overflow_; }

  /// Files a report. Returns true when it established a *new* location;
  /// false when it was folded into an existing one, suppressed, or dropped
  /// by the report cap.
  bool add(Report report);

  /// Distinct reported locations (the quantity in Figs. 5/6).
  std::size_t distinct_locations() const { return reports_.size(); }
  /// Dynamic warning count including duplicates.
  std::uint64_t total_warnings() const { return total_; }
  std::uint64_t suppressed_warnings() const { return suppressed_; }

  const std::vector<Report>& reports() const { return reports_; }

  /// All distinct location keys (for cross-configuration diffing).
  std::vector<std::string> location_keys() const;

  /// Helgrind-style textual log of every distinct location.
  std::string render() const;

  /// Valgrind's --gen-suppressions: emits one suppression block per
  /// distinct location, ready to be fed back via load_suppressions — the
  /// paper's workflow for "code that is not modifiable (e.g., third-party
  /// libraries)".
  std::string generate_suppressions() const;

 private:
  bool suppressed(const Report& report) const;

  std::string tool_name_;
  std::vector<Suppression> suppressions_;
  std::vector<Report> reports_;
  std::unordered_map<std::string, std::size_t> by_key_;
  std::uint64_t total_ = 0;
  std::uint64_t suppressed_ = 0;
  std::size_t cap_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace rg::core
