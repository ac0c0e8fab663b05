#include "core/report.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"
#include "rt/sim.hpp"
#include "support/glob.hpp"
#include "support/strings.hpp"

namespace rg::core {

const char* to_string(Report::Kind kind) {
  switch (kind) {
    case Report::Kind::DataRace:
      return "Race";
    case Report::Kind::LockOrderInversion:
      return "LockOrder";
    case Report::Kind::PredictedDeadlock:
      return "Deadlock";
  }
  return "?";
}

Report make_report(const rt::Runtime& rt, Report::Kind kind,
                   const rt::MemoryAccess& access) {
  Report r;
  r.kind = kind;
  r.access = access;
  r.stack = rt.stack_of(access.thread);
  r.stack.insert(r.stack.begin(), access.site);
  if (kind == Report::Kind::DataRace) r.origin = rt.origin_of(access.addr);
  if (const obs::FlightRecorder* fr = rt.recorder(); fr != nullptr)
    r.recorder_cursor = fr->cursor();
  const rt::Sim* sim = rt::Sim::current();
  if (const obs::SpanTracker* st = sim != nullptr ? sim->spans() : nullptr) {
    // Causal attribution: the transaction whose span was active on the
    // offending thread when the warning fired.
    r.trace_id = st->active_trace(access.thread);
    r.span_id = st->active_span(access.thread);
  }
  return r;
}

std::string Report::location_key() const {
  // Helgrind deduplicates by call-stack pattern: two warnings are the same
  // *location* when their top frames and the origin of the accessed block
  // coincide.
  std::string key = to_string(kind);
  const std::size_t depth = std::min<std::size_t>(stack.size(), 3);
  for (std::size_t i = 0; i < depth; ++i) {
    key += '@';
    key += std::to_string(stack[i]);
  }
  if (stack.empty()) {
    key += '@';
    key += std::to_string(access.site);
  }
  key += '#';
  key += std::to_string(origin.known ? origin.alloc.site : 0);
  return key;
}

std::vector<Suppression> parse_suppressions(std::string_view text) {
  std::vector<Suppression> out;
  Suppression current;
  int line_in_block = -1;  // -1: outside a block
  for (std::string_view raw : support::split(text, '\n')) {
    const std::string_view line = support::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (line == "{") {
      current = Suppression{};
      line_in_block = 0;
      continue;
    }
    if (line == "}") {
      if (line_in_block > 0) out.push_back(current);
      line_in_block = -1;
      continue;
    }
    if (line_in_block < 0) continue;  // stray content
    if (line_in_block == 0) {
      current.name = std::string(line);
    } else if (line_in_block == 1) {
      current.kind_pattern = std::string(line);
    } else if (support::starts_with(line, "fun:")) {
      current.frame_patterns.emplace_back(line.substr(4));
    } else {
      // obj:, src:, "..." and anything else: wildcard frame.
      current.frame_patterns.emplace_back("...");
    }
    ++line_in_block;
  }
  return out;
}

ReportManager::ReportManager(std::string tool_name)
    : tool_name_(std::move(tool_name)) {}

void ReportManager::add_suppressions(const std::vector<Suppression>& sups) {
  suppressions_.insert(suppressions_.end(), sups.begin(), sups.end());
}

namespace {

/// Matches `patterns` against the stack's function names starting at frame
/// `frame`; "..." matches any (possibly empty) run of frames.
bool match_frames(const std::vector<std::string>& patterns, std::size_t p,
                  const std::vector<support::SiteId>& stack,
                  std::size_t frame) {
  if (p == patterns.size()) return true;
  if (patterns[p] == "...") {
    for (std::size_t skip = frame; skip <= stack.size(); ++skip)
      if (match_frames(patterns, p + 1, stack, skip)) return true;
    return false;
  }
  if (frame >= stack.size()) return false;
  const auto site = support::global_sites().get(stack[frame]);
  if (!support::glob_match(patterns[p], support::symbol_text(site.function)))
    return false;
  return match_frames(patterns, p + 1, stack, frame + 1);
}

}  // namespace

bool ReportManager::suppressed(const Report& report) const {
  std::vector<support::SiteId> stack = report.stack;
  if (stack.empty()) stack.push_back(report.access.site);
  const std::string kind_name = tool_name_ + ":" + to_string(report.kind);
  for (const Suppression& sup : suppressions_) {
    if (!support::glob_match(sup.kind_pattern, kind_name)) continue;
    if (match_frames(sup.frame_patterns, 0, stack, 0)) return true;
  }
  return false;
}

bool ReportManager::add(Report report) {
  if (suppressed(report)) {
    ++suppressed_;
    return false;
  }
  ++total_;
  const std::string key = report.location_key();
  if (auto it = by_key_.find(key); it != by_key_.end()) {
    ++reports_[it->second].occurrences;
    return false;
  }
  if (cap_ != 0 && reports_.size() >= cap_) {
    // Warning storm: keep counting so the loss is visible, store nothing.
    ++overflow_;
    return false;
  }
  by_key_.emplace(key, reports_.size());
  reports_.push_back(std::move(report));
  return true;
}

std::vector<std::string> ReportManager::location_keys() const {
  std::vector<std::string> keys;
  keys.reserve(reports_.size());
  for (const Report& r : reports_) keys.push_back(r.location_key());
  return keys;
}

std::string ReportManager::render() const {
  auto& sites = support::global_sites();
  std::string out;
  for (const Report& r : reports_) {
    switch (r.kind) {
      case Report::Kind::DataRace:
        out += "Possible data race ";
        out += r.access.kind == rt::AccessKind::Write ? "writing" : "reading";
        out += " variable at 0x";
        {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%llx",
                        static_cast<unsigned long long>(r.access.addr));
          out += buf;
        }
        out += " by thread ";
        out += std::to_string(r.access.thread);
        out += '\n';
        break;
      case Report::Kind::LockOrderInversion:
        out += "Potential deadlock: lock order inversion\n";
        break;
      case Report::Kind::PredictedDeadlock:
        out += "Predicted deadlock: feasible lock cycle of ";
        out += std::to_string(r.cycle_locks.size());
        out += " locks across ";
        out += std::to_string(r.cycle_threads.size());
        out += " threads\n";
        break;
    }
    bool first = true;
    for (support::SiteId frame : r.stack) {
      out += first ? "   at " : "   by ";
      first = false;
      out += sites.describe(frame);
      out += '\n';
    }
    if (r.stack.empty() && r.access.site != support::kUnknownSite) {
      out += "   at ";
      out += sites.describe(r.access.site);
      out += '\n';
    }
    if (r.kind == Report::Kind::DataRace) {
      out += " Address ";
      out += r.origin.describe();
      out += '\n';
      if (!r.prev_state.empty()) {
        out += " Previous state: ";
        out += r.prev_state;
        out += '\n';
      }
      if (!r.lockset_desc.empty()) {
        out += " Candidate lockset after access: ";
        out += r.lockset_desc;
        out += '\n';
      }
    }
    if (!r.extra.empty()) {
      out += ' ';
      out += r.extra;
      out += '\n';
    }
    if (r.trace_id != 0) {
      out += " Driven by transaction trace ";
      out += std::to_string(r.trace_id);
      out += " (span ";
      out += std::to_string(r.span_id);
      out += ")\n";
    }
    if (r.occurrences > 1) {
      out += " (";
      out += std::to_string(r.occurrences);
      out += " occurrences at this location)\n";
    }
    out += '\n';
  }
  if (overflow_ != 0) {
    out += "(" + std::to_string(overflow_) +
           " further reports suppressed: report cap of " +
           std::to_string(cap_) + " locations reached)\n";
  }
  return out;
}

std::string ReportManager::generate_suppressions() const {
  auto& sites = support::global_sites();
  std::string out;
  std::size_t index = 0;
  for (const Report& r : reports_) {
    out += "{\n  auto-" + std::to_string(index++) + "\n  ";
    out += tool_name_ + ":" + to_string(r.kind) + "\n";
    // Up to three innermost frames, matching the dedup identity.
    std::size_t emitted = 0;
    auto emit_frame = [&](support::SiteId frame) {
      const auto site = sites.get(frame);
      out += "  fun:";
      out += support::symbol_text(site.function);
      out += '\n';
      ++emitted;
    };
    if (r.stack.empty()) {
      emit_frame(r.access.site);
    } else {
      for (support::SiteId frame : r.stack) {
        if (emitted == 3) break;
        emit_frame(frame);
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace rg::core
