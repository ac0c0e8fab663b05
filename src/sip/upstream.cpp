#include "sip/upstream.hpp"

#include "obs/recorder.hpp"

#include <algorithm>
#include <map>

#include "annotate/runtime.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"
#include "rt/trace.hpp"
#include "sip/stats.hpp"
#include "support/assert.hpp"

namespace rg::sip {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::Closed:
      return "closed";
    case BreakerState::Open:
      return "open";
    case BreakerState::HalfOpen:
      return "half-open";
  }
  return "?";
}

const char* to_string(ForwardOutcome o) {
  switch (o) {
    case ForwardOutcome::Disabled:
      return "disabled";
    case ForwardOutcome::Forwarded:
      return "forwarded";
    case ForwardOutcome::Exhausted:
      return "exhausted";
    case ForwardOutcome::AllOpen:
      return "all-open";
  }
  return "?";
}

// --- circuit breaker ---------------------------------------------------------

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config) {}

void CircuitBreaker::transition(BreakerState to, std::uint64_t now,
                                std::uint64_t cooldown) {
  const BreakerState from = state_;
  state_ = to;
  if (listener_ != nullptr) listener_(listener_ctx_, from, to, now, cooldown);
}

void CircuitBreaker::open(std::uint64_t now) {
  ++opens_streak_;
  // Reopen backoff: cooldown doubles per open in the streak, capped.
  std::uint64_t cooldown = config_.open_cooldown_ticks;
  for (std::uint32_t i = 1; i < opens_streak_ && i < 32; ++i) {
    if (cooldown >= config_.max_cooldown_ticks) break;
    cooldown *= 2;
  }
  cooldown_ = std::min(std::max<std::uint64_t>(cooldown, 1),
                       std::max<std::uint64_t>(config_.max_cooldown_ticks, 1));
  open_until_ = now + cooldown_;
  failures_ = 0;
  transition(BreakerState::Open, now, cooldown_);
}

CircuitBreaker::Admit CircuitBreaker::admit(std::uint64_t now) {
  switch (state_) {
    case BreakerState::Closed:
      return Admit::Allow;
    case BreakerState::Open:
      if (now < open_until_) return Admit::Reject;
      transition(BreakerState::HalfOpen, now, 0);
      probe_inflight_ = true;
      return Admit::Probe;
    case BreakerState::HalfOpen:
      if (probe_inflight_) return Admit::Reject;
      probe_inflight_ = true;
      return Admit::Probe;
  }
  return Admit::Reject;
}

void CircuitBreaker::on_success(std::uint64_t now) {
  switch (state_) {
    case BreakerState::Closed:
      failures_ = 0;
      break;
    case BreakerState::HalfOpen:
      // Probe succeeded: close fully and forget the reopen streak.
      probe_inflight_ = false;
      failures_ = 0;
      opens_streak_ = 0;
      cooldown_ = 0;
      open_until_ = 0;
      transition(BreakerState::Closed, now, 0);
      break;
    case BreakerState::Open:
      // A straggler admitted before the trip finished late; ignored.
      break;
  }
}

void CircuitBreaker::on_failure(std::uint64_t now) {
  switch (state_) {
    case BreakerState::Closed:
      if (++failures_ >= config_.failure_threshold) open(now);
      break;
    case BreakerState::HalfOpen:
      // Probe failed: reopen with a grown cooldown.
      probe_inflight_ = false;
      open(now);
      break;
    case BreakerState::Open:
      break;
  }
}

// --- upstream target ---------------------------------------------------------

UpstreamTarget::UpstreamTarget(std::uint32_t id, const UpstreamConfig& config,
                               UpstreamPool* pool)
    : id_(id),
      config_(config),
      pool_(pool),
      mu_("upstream-" + std::to_string(id)),
      breaker_(config.breaker),
      served_(0),
      failed_(0) {
  breaker_.set_listener(&UpstreamTarget::breaker_listener, this);
}

UpstreamTarget::~UpstreamTarget() { vptr_write(); }

void UpstreamTarget::breaker_listener(void* ctx, BreakerState from,
                                      BreakerState to, std::uint64_t now,
                                      std::uint64_t cooldown) {
  auto* self = static_cast<UpstreamTarget*>(ctx);
  self->pool_->record_transition(self->id_, from, to, now, cooldown);
}

ServeOutcome UpstreamTarget::serve(std::uint64_t request_id,
                                   std::uint32_t attempt,
                                   rt::ChaosEngine* chaos) {
  virtual_dispatch();
  RG_FRAME();
  ServeOutcome out;
  rt::UpstreamFault fault;
  if (chaos != nullptr)
    fault = chaos->apply_upstream(id_, request_id, attempt);

  // The forwarding worker itself may be stalled mid-attempt.
  if (fault.stall_ticks != 0) rt::sleep_ticks(fault.stall_ticks);

  if (fault.drop) {
    // Request or response lost: the attempt burns its whole timeout.
    rt::sleep_ticks(config_.per_try_timeout_ticks);
    out.timed_out = true;
  } else if (fault.delay_ticks != 0 &&
             fault.delay_ticks >= config_.per_try_timeout_ticks) {
    // Answer would arrive after the proxy stopped waiting.
    rt::sleep_ticks(config_.per_try_timeout_ticks);
    out.timed_out = true;
  } else {
    rt::sleep_ticks(fault.delay_ticks + config_.service_ticks);
    out.status = fault.error ? 500 : 200;
  }

  {
    rt::lock_guard guard(mu_);
    if (out.ok())
      served_.store(served_.load() + 1);
    else
      failed_.store(failed_.load() + 1);
  }
  return out;
}

CircuitBreaker::Admit UpstreamTarget::admit(std::uint64_t now) {
  rt::lock_guard guard(mu_);
  return breaker_.admit(now);
}

void UpstreamTarget::settle(std::uint64_t now, bool success) {
  rt::lock_guard guard(mu_);
  if (success)
    breaker_.on_success(now);
  else
    breaker_.on_failure(now);
}

BreakerState UpstreamTarget::breaker_state() const {
  rt::lock_guard guard(mu_);
  return breaker_.state();
}

std::uint64_t UpstreamTarget::breaker_open_until() const {
  rt::lock_guard guard(mu_);
  return breaker_.open_until();
}

std::uint64_t UpstreamTarget::breaker_cooldown() const {
  rt::lock_guard guard(mu_);
  return breaker_.cooldown();
}

std::uint64_t UpstreamTarget::served() const {
  rt::lock_guard guard(mu_);
  return served_.load();
}

std::uint64_t UpstreamTarget::failed() const {
  rt::lock_guard guard(mu_);
  return failed_.load();
}

// --- the pool ---------------------------------------------------------------

std::uint64_t request_key(std::string_view branch) {
  // FNV-1a 64: stable across platforms, stable across retransmissions of
  // the same transaction (same Via branch -> same upstream fault plan).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : branch) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

UpstreamPool::UpstreamPool(const UpstreamConfig& config, ProxyStats* stats)
    : config_(config), stats_(stats) {}

UpstreamPool::~UpstreamPool() { shutdown(); }

std::uint64_t UpstreamPool::now() {
  rt::Sim* sim = rt::Sim::current();
  return sim != nullptr ? sim->sched().virtual_time() : 0;
}

void UpstreamPool::start() {
  if (!enabled() || !targets_.empty()) return;
  targets_.reserve(config_.targets);
  for (std::size_t i = 0; i < config_.targets; ++i)
    targets_.push_back(
        new UpstreamTarget(static_cast<std::uint32_t>(i), config_, this));
}

void UpstreamPool::shutdown() {
  if (targets_.empty()) return;
  rt::Sim* sim = rt::Sim::current();
  if (sim != nullptr && sim->sched().tearing_down()) {
    // Post-deadlock teardown: thread creation is a no-op, so the crew
    // below would never run its deletes — reclaim inline (the run is
    // already aborted; the concurrent-destructor workload is moot).
    for (UpstreamTarget*& t : targets_) {
      delete t;
      t = nullptr;
    }
    targets_.clear();
    return;
  }
  // §4.2.1 destructor workload: the shared polymorphic targets are torn
  // down by several concurrent teardown threads, each announcing the
  // destruction with the Fig. 4 annotation before deleting.
  const std::size_t crew_size = std::min<std::size_t>(targets_.size(), 3);
  std::vector<rt::thread> crew;
  crew.reserve(crew_size);
  for (std::size_t t = 0; t < crew_size; ++t) {
    crew.emplace_back(
        [this, t, crew_size] {
          for (std::size_t i = t; i < targets_.size(); i += crew_size) {
            delete annotate::ca_deletor_single(targets_[i]);
            targets_[i] = nullptr;
          }
        },
        "upstream-teardown");
  }
  // joinable() guard: during post-deadlock teardown thread creation is a
  // no-op and yields an empty handle that must not be joined.
  for (rt::thread& th : crew)
    if (th.joinable()) th.join();
  targets_.clear();
}

void UpstreamPool::record_transition(std::uint32_t target, BreakerState from,
                                     BreakerState to, std::uint64_t vtime,
                                     std::uint64_t cooldown) {
  {
    std::lock_guard<std::mutex> guard(log_mu_);
    BreakerTransition rec;
    // Stamp at append time, not with the caller's sampled clock: a thread
    // can sample `now`, lose its scheduler slot to another target's
    // transition, and append late — the append order under log_mu_ is the
    // serialization order, so only an append-time stamp keeps the global
    // log monotone. The breaker itself still runs on the caller's clock.
    rec.vtime = std::max(vtime, now());
    rec.target = target;
    rec.from = from;
    rec.to = to;
    rec.cooldown = cooldown;
    log_.push_back(rec);
    if (to == BreakerState::Open) ++opens_;
    rt::Sim* sim = rt::Sim::current();
    if (obs::FlightRecorder* fr = sim != nullptr ? sim->recorder() : nullptr)
      fr->record(obs::EventKind::BreakerTransition, rec.vtime,
                 sim->sched().current(), target,
                 obs::pack_breaker(static_cast<std::uint8_t>(from),
                                   static_cast<std::uint8_t>(to), cooldown));
  }
  if (to == BreakerState::Open && stats_ != nullptr)
    stats_->count_breaker_open();
}

std::vector<BreakerTransition> UpstreamPool::transitions() const {
  std::lock_guard<std::mutex> guard(log_mu_);
  return log_;
}

std::string UpstreamPool::transitions_text() const {
  std::lock_guard<std::mutex> guard(log_mu_);
  std::string out;
  for (const BreakerTransition& r : log_) {
    out += "t=";
    out += std::to_string(r.vtime);
    out += " target=";
    out += std::to_string(r.target);
    out += ' ';
    out += to_string(r.from);
    out += "->";
    out += to_string(r.to);
    if (r.cooldown != 0) {
      out += " cooldown=";
      out += std::to_string(r.cooldown);
    }
    out += '\n';
  }
  return out;
}

std::uint64_t UpstreamPool::breaker_opens() const {
  std::lock_guard<std::mutex> guard(log_mu_);
  return opens_;
}

std::uint32_t UpstreamPool::retry_after_hint_s(std::uint64_t at) const {
  std::uint64_t remaining = 0;
  bool any_open = false;
  for (const UpstreamTarget* t : targets_) {
    if (t == nullptr || t->breaker_state() != BreakerState::Open) continue;
    const std::uint64_t until = t->breaker_open_until();
    const std::uint64_t left = until > at ? until - at : 1;
    remaining = any_open ? std::min(remaining, left) : left;
    any_open = true;
  }
  if (!any_open) remaining = config_.breaker.open_cooldown_ticks;
  const std::uint64_t per_s = std::max<std::uint64_t>(config_.ticks_per_second, 1);
  const std::uint64_t seconds = (remaining + per_s - 1) / per_s;
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(seconds, 1));
}

void UpstreamPool::force_open_all(std::uint64_t at) {
  for (UpstreamTarget* t : targets_) {
    if (t == nullptr) continue;
    while (t->breaker_state() != BreakerState::Open)
      t->settle(at, /*success=*/false);
  }
}

ForwardResult UpstreamPool::forward(std::uint64_t request_id) {
  RG_FRAME();
  ForwardResult r;
  if (!enabled() || targets_.empty()) return r;  // Disabled
  // Via-branch-keyed forwarding span: retries/failover/breaker stalls of
  // this request all land inside it.
  rt::TraceSpan span("upstream.forward", request_id);

  const std::uint64_t budget = config_.request_budget_ticks;
  const std::uint64_t deadline = budget == 0 ? ~0ULL : now() + budget;

  // Decorrelated-jitter stream, seeded per request: retries of one request
  // draw a reproducible sleep sequence no matter how workers interleave.
  std::uint64_t jstate = config_.seed;
  (void)support::splitmix64(jstate);
  jstate ^= request_id;
  support::Xoshiro256 jitter(support::splitmix64(jstate));
  const std::uint64_t base = std::max<std::uint64_t>(config_.backoff_base_ticks, 1);
  std::uint64_t prev_sleep = base;

  const std::uint32_t max_attempts = std::max<std::uint32_t>(config_.max_attempts, 1);
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    // Failover rotation: the preferred target is a stable function of the
    // request id; each retry starts one slot further along.
    UpstreamTarget* chosen = nullptr;
    bool preferred = true;
    const std::size_t start =
        (static_cast<std::size_t>(request_id) + attempt) % targets_.size();
    for (std::size_t k = 0; k < targets_.size(); ++k) {
      UpstreamTarget* cand = targets_[(start + k) % targets_.size()];
      if (cand->admit(now()) != CircuitBreaker::Admit::Reject) {
        chosen = cand;
        preferred = k == 0;
        break;
      }
    }
    if (chosen == nullptr) {
      // Every breaker rejected: shed upstream work instead of stalling.
      r.outcome = ForwardOutcome::AllOpen;
      r.attempts = attempt;
      r.retry_after_s = retry_after_hint_s(now());
      return r;
    }

    r.attempts = attempt + 1;
    const ServeOutcome served = chosen->serve(request_id, attempt, chaos_);
    if (served.ok()) {
      chosen->settle(now(), /*success=*/true);
      r.outcome = ForwardOutcome::Forwarded;
      r.status = served.status;
      r.target = chosen->id();
      r.failover = attempt > 0 || !preferred;
      if (stats_ != nullptr) {
        stats_->count_upstream_forward();
        if (r.failover) stats_->count_failover();
      }
      return r;
    }
    chosen->settle(now(), /*success=*/false);

    if (attempt + 1 == max_attempts || now() >= deadline) break;
    // Capped exponential backoff with decorrelated jitter.
    const std::uint64_t hi = std::max(
        base, std::min(std::max<std::uint64_t>(config_.backoff_cap_ticks, base),
                       prev_sleep * 3));
    const std::uint64_t sleep = jitter.range(base, hi);
    prev_sleep = sleep;
    if (now() + sleep >= deadline) break;  // budget would overrun: give up
    if (stats_ != nullptr) stats_->count_upstream_retry();
    rt::sleep_ticks(sleep);
  }

  r.outcome = ForwardOutcome::Exhausted;
  r.retry_after_s = retry_after_hint_s(now());
  return r;
}

// --- transition-log validation ----------------------------------------------

namespace {

bool legal_edge(BreakerState from, BreakerState to) {
  switch (from) {
    case BreakerState::Closed:
      return to == BreakerState::Open;
    case BreakerState::Open:
      return to == BreakerState::HalfOpen;
    case BreakerState::HalfOpen:
      return to == BreakerState::Closed || to == BreakerState::Open;
  }
  return false;
}

}  // namespace

bool validate_transitions(const std::vector<BreakerTransition>& log,
                          std::string* error) {
  auto fail = [error](std::size_t i, const std::string& why) {
    if (error != nullptr)
      *error = "transition " + std::to_string(i) + ": " + why;
    return false;
  };

  std::uint64_t last_time = 0;
  // Per-target expectations: next `from` state and the cooldown of the
  // previous open in the current reopen streak.
  std::map<std::uint32_t, BreakerState> expect;
  std::map<std::uint32_t, std::uint64_t> streak_cooldown;

  for (std::size_t i = 0; i < log.size(); ++i) {
    const BreakerTransition& r = log[i];
    if (r.vtime < last_time) return fail(i, "virtual time went backwards");
    last_time = r.vtime;
    if (!legal_edge(r.from, r.to))
      return fail(i, std::string("illegal edge ") + to_string(r.from) +
                         "->" + to_string(r.to));
    const auto it = expect.find(r.target);
    const BreakerState expected =
        it == expect.end() ? BreakerState::Closed : it->second;
    if (r.from != expected)
      return fail(i, std::string("expected from=") + to_string(expected) +
                         ", got " + to_string(r.from));
    expect[r.target] = r.to;
    if (r.to == BreakerState::Open) {
      const std::uint64_t prev = streak_cooldown[r.target];
      if (r.cooldown == 0) return fail(i, "open armed no cooldown");
      if (prev != 0 && r.cooldown < prev)
        return fail(i, "reopen cooldown shrank within a streak");
      streak_cooldown[r.target] = r.cooldown;
    } else if (r.to == BreakerState::Closed) {
      streak_cooldown[r.target] = 0;  // a close resets the growth
    }
  }
  return true;
}

}  // namespace rg::sip
