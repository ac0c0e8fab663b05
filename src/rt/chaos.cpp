#include "rt/chaos.hpp"

#include "obs/recorder.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"

namespace rg::rt {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Drop:
      return "drop";
    case FaultKind::Duplicate:
      return "dup";
    case FaultKind::Delay:
      return "delay";
    case FaultKind::Reorder:
      return "reorder";
    case FaultKind::Stall:
      return "stall";
    case FaultKind::UpstreamDrop:
      return "up-drop";
    case FaultKind::UpstreamDelay:
      return "up-delay";
    case FaultKind::UpstreamError:
      return "up-error";
    case FaultKind::UpstreamStall:
      return "up-stall";
  }
  return "?";
}

ChaosEngine::ChaosEngine(const ChaosConfig& config) : config_(config) {}

std::uint64_t ChaosEngine::now() {
  Sim* sim = Sim::current();
  return sim != nullptr ? sim->sched().virtual_time() : 0;
}

support::Xoshiro256 ChaosEngine::stream(std::uint64_t target,
                                        std::uint32_t attempt,
                                        std::uint64_t salt) const {
  // Fold the identifiers into one splitmix state; each identifier passes
  // through the mixer so that (1,2) and (2,1) land in unrelated streams.
  std::uint64_t state = config_.seed;
  (void)support::splitmix64(state);
  state ^= target;
  (void)support::splitmix64(state);
  state ^= static_cast<std::uint64_t>(attempt);
  (void)support::splitmix64(state);
  state ^= salt;
  return support::Xoshiro256(support::splitmix64(state));
}

FaultDecision ChaosEngine::plan(std::uint64_t message_id,
                                std::uint32_t attempt) const {
  FaultDecision d;
  if (!config_.any_faults()) return d;
  support::Xoshiro256 rng = stream(message_id, attempt, /*salt=*/0x11);
  d.drop = rng.chance(config_.drop_permille, 1000);
  d.duplicate = !d.drop && rng.chance(config_.duplicate_permille, 1000);
  if (!d.drop && config_.max_delay_ticks != 0 &&
      rng.chance(config_.delay_permille, 1000))
    d.delay_ticks = rng.range(1, config_.max_delay_ticks);
  return d;
}

void ChaosEngine::record(FaultKind kind, std::uint64_t target,
                         std::uint32_t attempt, std::uint64_t detail) {
  std::lock_guard<std::mutex> guard(mu_);
  InjectionRecord rec;
  rec.seq = trace_.size();
  rec.vtime = now();
  rec.kind = kind;
  rec.target = target;
  rec.attempt = attempt;
  rec.detail = detail;
  trace_.push_back(rec);
  Sim* sim = Sim::current();
  if (obs::FlightRecorder* fr = sim != nullptr ? sim->recorder() : nullptr)
    fr->record(obs::EventKind::ChaosInject, rec.vtime, sim->sched().current(),
               target, detail, support::kUnknownSite,
               static_cast<std::uint8_t>(kind));
  switch (kind) {
    case FaultKind::Drop:
      ++dropped_;
      break;
    case FaultKind::Duplicate:
      ++duplicated_;
      break;
    case FaultKind::Delay:
      ++delayed_;
      break;
    case FaultKind::Reorder:
      ++reordered_;
      break;
    case FaultKind::Stall:
      ++stalls_;
      break;
    case FaultKind::UpstreamDrop:
    case FaultKind::UpstreamDelay:
    case FaultKind::UpstreamError:
    case FaultKind::UpstreamStall:
      ++upstream_faults_;
      break;
  }
}

FaultDecision ChaosEngine::apply(std::uint64_t message_id,
                                 std::uint32_t attempt) {
  const FaultDecision d = plan(message_id, attempt);
  if (d.drop) record(FaultKind::Drop, message_id, attempt, 0);
  if (d.duplicate) record(FaultKind::Duplicate, message_id, attempt, 0);
  if (d.delay_ticks != 0)
    record(FaultKind::Delay, message_id, attempt, d.delay_ticks);
  return d;
}

UpstreamFault ChaosEngine::plan_upstream(std::uint64_t target_id,
                                         std::uint64_t request_id,
                                         std::uint32_t attempt) const {
  UpstreamFault f;
  if (!config_.any_upstream_faults()) return f;
  // Fold the target identity into the salt so each (target, request,
  // attempt) triple draws from its own decision stream — failover to a
  // different target re-rolls the dice, as a distinct server would.
  std::uint64_t salt_state = 0x44 ^ target_id;
  const std::uint64_t salt = support::splitmix64(salt_state);
  support::Xoshiro256 rng = stream(request_id, attempt, salt);
  f.drop = rng.chance(config_.upstream_drop_permille, 1000);
  if (!f.drop && rng.chance(config_.upstream_error_permille, 1000))
    f.error = true;
  if (!f.drop && config_.upstream_max_delay_ticks != 0 &&
      rng.chance(config_.upstream_delay_permille, 1000))
    f.delay_ticks = rng.range(1, config_.upstream_max_delay_ticks);
  if (config_.upstream_max_stall_ticks != 0 &&
      rng.chance(config_.upstream_stall_permille, 1000))
    f.stall_ticks = rng.range(1, config_.upstream_max_stall_ticks);
  return f;
}

UpstreamFault ChaosEngine::apply_upstream(std::uint64_t target_id,
                                          std::uint64_t request_id,
                                          std::uint32_t attempt) {
  const UpstreamFault f = plan_upstream(target_id, request_id, attempt);
  // detail layout: target id in the high 16 bits, ticks (when any) below.
  const std::uint64_t tag = target_id << 48;
  if (f.stall_ticks != 0)
    record(FaultKind::UpstreamStall, request_id, attempt,
           tag | f.stall_ticks);
  if (f.drop) record(FaultKind::UpstreamDrop, request_id, attempt, tag | 1);
  if (f.error) record(FaultKind::UpstreamError, request_id, attempt, tag | 1);
  if (f.delay_ticks != 0)
    record(FaultKind::UpstreamDelay, request_id, attempt,
           tag | f.delay_ticks);
  return f;
}

std::vector<std::size_t> ChaosEngine::delivery_order(std::uint64_t batch_id,
                                                     std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (n < 2) return order;
  support::Xoshiro256 rng = stream(batch_id, 0, /*salt=*/0x22);
  if (!rng.chance(config_.reorder_permille, 1000)) return order;
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(i + 1)]);
  record(FaultKind::Reorder, batch_id, 0, n);
  return order;
}

void ChaosEngine::stall_point(std::uint64_t point_id) {
  if (config_.stall_permille == 0 || config_.max_stall_ticks == 0) return;
  support::Xoshiro256 rng = stream(point_id, 0, /*salt=*/0x33);
  if (!rng.chance(config_.stall_permille, 1000)) return;
  const std::uint64_t ticks = rng.range(1, config_.max_stall_ticks);
  record(FaultKind::Stall, point_id, 0, ticks);
  sleep_ticks(ticks);
}

std::string ChaosEngine::trace_text() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::string out;
  for (const InjectionRecord& r : trace_) {
    out += std::to_string(r.seq);
    out += " t=";
    out += std::to_string(r.vtime);
    out += ' ';
    out += to_string(r.kind);
    out += " target=";
    out += std::to_string(r.target);
    out += " attempt=";
    out += std::to_string(r.attempt);
    if (r.detail != 0) {
      out += " detail=";
      out += std::to_string(r.detail);
    }
    out += '\n';
  }
  return out;
}

}  // namespace rg::rt
