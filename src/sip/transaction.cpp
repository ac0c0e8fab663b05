#include "sip/transaction.hpp"

#include "annotate/runtime.hpp"
#include "obs/recorder.hpp"
#include "rt/sim.hpp"
#include "support/intern.hpp"

namespace rg::sip {

const char* to_string(TxState s) {
  switch (s) {
    case TxState::Trying:
      return "Trying";
    case TxState::Proceeding:
      return "Proceeding";
    case TxState::Completed:
      return "Completed";
    case TxState::Confirmed:
      return "Confirmed";
    case TxState::Terminated:
      return "Terminated";
  }
  return "?";
}

TimerState::TimerState() : generation_(0) {}

TimerState::~TimerState() { vptr_write(); }

void TimerState::arm(std::uint64_t generation,
                     const std::source_location& loc) {
  virtual_dispatch(loc);
  generation_.store(generation);
}

std::uint64_t TimerState::generation() const { return generation_.load(); }

ServerTransaction::ServerTransaction(std::string branch, Method method)
    : branch_(std::move(branch)),
      method_(method),
      mu_("tx-mutex:" + branch_),
      state_(TxState::Trying),
      retransmissions_(0),
      timers_(new TimerState) {}

ServerTransaction::~ServerTransaction() {
  vptr_write();
  delete annotate::ca_deletor_single(timers_);
}

TxState ServerTransaction::state(const std::source_location& /*loc*/) const {
  rt::lock_guard guard(mu_);
  return state_.load();
}

void ServerTransaction::set_state(TxState next,
                                  const std::source_location& /*loc*/) {
  // Caller holds mu_.
  state_.store(next);
  rt::Sim* sim = rt::Sim::current();
  if (obs::FlightRecorder* fr = sim != nullptr ? sim->recorder() : nullptr)
    fr->record_now(obs::EventKind::TxnState, sim->sched().current(),
                   support::intern(branch_), static_cast<std::uint64_t>(next));
  // Every state change re-arms the retransmission timers.
  timers_->arm(state_.load() == TxState::Terminated ? 0 : 1);
}

InviteServerTransaction::InviteServerTransaction(std::string branch)
    : ServerTransaction(std::move(branch), Method::Invite) {
  rt::lock_guard guard(mu_);
  set_state(TxState::Proceeding);
}

InviteServerTransaction::~InviteServerTransaction() { vptr_write(); }

bool InviteServerTransaction::on_request(Method method,
                                         const std::source_location& /*loc*/) {
  virtual_dispatch();
  rt::lock_guard guard(mu_);
  timers_->arm(2);  // retransmission re-arms timer G
  const TxState st = state_.load();
  switch (method) {
    case Method::Invite:
      // Retransmitted INVITE: absorbed in any state but Terminated.
      retransmissions_.store(retransmissions_.load() + 1);
      return st != TxState::Terminated;
    case Method::Ack:
      if (st == TxState::Completed) {
        set_state(TxState::Confirmed);
        // Absorb timer I immediately (no timers in the reproduction).
        set_state(TxState::Terminated);
      }
      return true;
    case Method::Cancel:
      if (st == TxState::Proceeding) set_state(TxState::Completed);
      return false;  // CANCEL gets its own response
    default:
      return false;
  }
}

void InviteServerTransaction::on_response(int status,
                                          const std::source_location& /*loc*/) {
  virtual_dispatch();
  rt::lock_guard guard(mu_);
  const TxState st = state_.load();
  if (st != TxState::Proceeding) return;
  if (status >= 200) {
    // 2xx terminates immediately (the TU owns retransmissions);
    // 3xx-6xx waits for ACK in Completed.
    set_state(status < 300 ? TxState::Terminated : TxState::Completed);
  }
}

NonInviteServerTransaction::NonInviteServerTransaction(std::string branch,
                                                       Method method)
    : ServerTransaction(std::move(branch), method) {}

NonInviteServerTransaction::~NonInviteServerTransaction() { vptr_write(); }

bool NonInviteServerTransaction::on_request(Method /*method*/,
                                            const std::source_location& /*loc*/) {
  virtual_dispatch();
  rt::lock_guard guard(mu_);
  timers_->arm(2);  // retransmission re-arms timer E
  const TxState st = state_.load();
  retransmissions_.store(retransmissions_.load() + 1);
  return st != TxState::Terminated;  // absorbed retransmission
}

void NonInviteServerTransaction::on_response(int status,
                                             const std::source_location& /*loc*/) {
  virtual_dispatch();
  rt::lock_guard guard(mu_);
  const TxState st = state_.load();
  if (st == TxState::Terminated) return;
  if (status < 200) {
    set_state(TxState::Proceeding);
  } else {
    set_state(TxState::Completed);
    // Timer J fires immediately in the reproduction.
    set_state(TxState::Terminated);
  }
}

void ServerTransaction::retain_request(
    std::shared_ptr<const SipRequest> request) {
  rt::lock_guard guard(mu_);
  original_ = std::move(request);
}

void ServerTransaction::retain_response(
    std::shared_ptr<const SipResponse> response) {
  rt::lock_guard guard(mu_);
  last_response_ = std::move(response);
}

std::shared_ptr<const SipRequest> ServerTransaction::original_request() const {
  rt::lock_guard guard(mu_);
  return original_;
}

std::shared_ptr<const SipResponse> ServerTransaction::last_response() const {
  rt::lock_guard guard(mu_);
  return last_response_;
}

TransactionTable::TransactionTable() : mu_("tx-table-mutex") {}

namespace {
/// The Fig. 4 annotated delete, run by whichever thread releases last.
void annotated_delete(ServerTransaction* tx) {
  delete annotate::ca_deletor_single(tx);
}
}  // namespace

TransactionTable::~TransactionTable() { table_.clear(); }

std::shared_ptr<ServerTransaction> TransactionTable::find_or_create(
    const std::string& branch, Method method, bool& created,
    std::size_t capacity, const std::source_location& /*loc*/) {
  RG_FRAME();
  rt::lock_guard guard(mu_);
  marker_.read();
  auto it = table_.find(branch);
  if (it != table_.end()) {
    created = false;
    return it->second;
  }
  if (capacity != 0 && table_.size() >= capacity) {
    // Hard watermark: the caller sheds instead of growing the table.
    created = false;
    return nullptr;
  }
  created = true;
  std::shared_ptr<ServerTransaction> tx(
      method == Method::Invite
          ? static_cast<ServerTransaction*>(
                new InviteServerTransaction(branch))
          : static_cast<ServerTransaction*>(
                new NonInviteServerTransaction(branch, method)),
      &annotated_delete);
  marker_.write();
  table_.emplace(branch, tx);
  return tx;
}

std::shared_ptr<ServerTransaction> TransactionTable::find(
    const std::string& branch, const std::source_location& /*loc*/) {
  RG_FRAME();
  rt::lock_guard guard(mu_);
  marker_.read();
  auto it = table_.find(branch);
  return it == table_.end() ? nullptr : it->second;
}

std::size_t TransactionTable::reap(const std::source_location& /*loc*/) {
  RG_FRAME();
  rt::lock_guard guard(mu_);
  std::size_t reaped = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second->terminated()) {
      marker_.write();
      it = table_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

void TransactionTable::clear(const std::source_location& /*loc*/) {
  rt::lock_guard guard(mu_);
  marker_.write();
  table_.clear();
}

std::size_t TransactionTable::size() const {
  rt::lock_guard guard(mu_);
  marker_.read();
  return table_.size();
}

}  // namespace rg::sip
