#include "sip/proxy.hpp"

#include "annotate/runtime.hpp"
#include "rt/sim.hpp"
#include "rt/trace.hpp"
#include "sip/parser.hpp"
#include "sip/time_utils.hpp"
#include "support/assert.hpp"
#include "support/strings.hpp"

namespace rg::sip {

namespace {
/// The domains the proxy serves. The first is its home domain, the one
/// sipp::MessageFactory addresses its requests to.
constexpr std::string_view kDomains[] = {"example.com", "voip.example.net",
                                         "pbx.example.org"};
}  // namespace

// --- handlers -----------------------------------------------------------------

class RegisterHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "RegisterHandler"; }
  ~RegisterHandler() override { vptr_write(); }
};

class InviteHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "InviteHandler"; }
  ~InviteHandler() override { vptr_write(); }
};

class AckHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "AckHandler"; }
  ~AckHandler() override { vptr_write(); }
};

class ByeHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "ByeHandler"; }
  ~ByeHandler() override { vptr_write(); }
};

class CancelHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "CancelHandler"; }
  ~CancelHandler() override { vptr_write(); }
};

/// OPTIONS/INFO come from the "third-party codec module" whose source the
/// instrumentation pass cannot see (§3.1: "Parts of the program where the
/// source code is not available will not benefit from this annotation").
class OptionsHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "OptionsHandler"; }
  ~OptionsHandler() override { vptr_write(); }
};

class InfoHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "InfoHandler"; }
  ~InfoHandler() override { vptr_write(); }
};

class DefaultHandler final : public RequestHandler {
 public:
  std::unique_ptr<SipResponse> handle(Proxy& proxy, const SipRequest& request,
                                      const std::source_location& loc) override;
  const char* name() const override { return "DefaultHandler"; }
  ~DefaultHandler() override { vptr_write(); }
};

// --- proxy --------------------------------------------------------------------

Proxy::Proxy(const ProxyConfig& config)
    : config_(config),
      pool_(/*force_new=*/!config.faults.pooled_allocator_reuse),
      stats_(config.faults.benign_stats_races, config.metrics),
      upstreams_(config.upstream, &stats_),
      request_log_("request-log", pool_),
      transaction_log_("transaction-log", pool_),
      stop_mu_("proxy-stop-mutex"),
      hazard_gate_("hazard-gate"),
      stop_flag_(0),
      reaper_interval_(0),
      handled_count_(0),
      server_header_("RaceGuard-SIP-Proxy/1.0"),
      allow_header_("INVITE, ACK, BYE, CANCEL, OPTIONS, REGISTER, INFO") {}

Proxy::~Proxy() {
  if (started_) shutdown();
  for (RequestHandler* h : handlers_) delete h;
}

std::uint64_t Proxy::now() const {
  rt::Sim* sim = rt::Sim::current();
  return sim != nullptr ? sim->sched().virtual_time() : 0;
}

void Proxy::start(const std::source_location& /*loc*/) {
  RG_FRAME();
  RG_ASSERT_MSG(!started_, "proxy already started");
  started_ = true;

  for (std::string_view d : kDomains)
    modules_.add_domain(d, "sip:core." + std::string(d) + ";lr", 70);

  handlers_[static_cast<std::size_t>(Method::Register)] = new RegisterHandler;
  handlers_[static_cast<std::size_t>(Method::Invite)] = new InviteHandler;
  handlers_[static_cast<std::size_t>(Method::Ack)] = new AckHandler;
  handlers_[static_cast<std::size_t>(Method::Bye)] = new ByeHandler;
  handlers_[static_cast<std::size_t>(Method::Cancel)] = new CancelHandler;
  handlers_[static_cast<std::size_t>(Method::Options)] = new OptionsHandler;
  handlers_[static_cast<std::size_t>(Method::Info)] = new InfoHandler;
  handlers_[static_cast<std::size_t>(Method::Unknown)] = new DefaultHandler;

  // Upstream targets come up with the proxy (no-op when not configured).
  upstreams_.start();

  if (config_.faults.racy_deadlock_monitor) monitor_.start();

  if (config_.faults.init_order_race) {
    // §4.1.1: the reaper starts *before* its configuration is written.
    reaper_ = rt::thread([this] { reaper_loop(); }, "expiry-reaper");
    reaper_interval_.store(config_.reaper_interval);
  } else {
    reaper_interval_.store(config_.reaper_interval);
    reaper_ = rt::thread([this] { reaper_loop(); }, "expiry-reaper");
  }
}

void Proxy::shutdown(const std::source_location& /*loc*/) {
  RG_FRAME();
  // Idempotent: a second shutdown, or a shutdown before start(), is a
  // no-op so teardown paths (destructors, error unwinds, chaos harnesses)
  // can call it unconditionally.
  if (!started_) return;
  started_ = false;

  if (config_.faults.shutdown_order_race) {
    // §4.1.1: "a data structure was destroyed before a thread using it
    // terminated" — tear down domain data while the reaper still runs.
    modules_.unsafe_shutdown_touch();
    modules_.clear(/*annotated=*/true);
  }

  if (config_.hazards.shutdown_inversion) {
    // Hazard family B: raise the stop flag and touch registrar state in
    // one stop-mutex section — the opposite nesting of the reaper's stop
    // check (registrar-lock → stop-mutex).
    auto raise = [&] {
      if (config_.hazards.recover) {
        const std::uint32_t backoffs =
            DeadlockMonitor::with_ordered_locks_recovering(
                stop_mu_, registrar_.lock_handle(), /*deadline_ticks=*/64,
                config_.upstream.seed ^ 0x5ca1ab1eull,
                [&] { stop_flag_.store(1); });
        if (backoffs != 0) stats_.count_deadlock_recoveries(backoffs);
      } else {
        rt::lock_guard guard(stop_mu_);
        stop_flag_.store(1);
        rt::lock_guard reg(registrar_.lock_handle());
      }
    };
    if (config_.hazards.gate_locked) {
      rt::lock_guard gate(hazard_gate_);
      raise();
    } else {
      raise();
    }
  } else {
    rt::lock_guard guard(stop_mu_);
    stop_flag_.store(1);
  }
  if (reaper_.joinable()) reaper_.join();

  if (!config_.faults.shutdown_order_race)
    modules_.clear(/*annotated=*/true);

  if (monitor_.running()) monitor_.stop();

  // Upstream targets are torn down by concurrent teardown threads (the
  // §4.2.1 destructor workload on the forwarding path).
  upstreams_.shutdown();

  dialogs_.clear();
  transactions_.clear();
  registrar_.clear();

  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    RequestHandler* h = handlers_[i];
    if (h == nullptr) continue;
    const auto method = static_cast<Method>(i);
    const bool third_party =
        config_.faults.third_party_unannotated_deletes &&
        (method == Method::Options || method == Method::Info);
    if (third_party)
      delete h;  // binary-only module: no annotation possible
    else
      delete annotate::ca_deletor_single(h);
    handlers_[i] = nullptr;
  }
}

void Proxy::reaper_loop() {
  RG_FRAME();
  for (;;) {
    if (config_.hazards.shutdown_inversion) {
      // Hazard family B: the stop check runs under the registrar lock —
      // inverted against shutdown's stop-mutex → registrar-lock nesting.
      bool stop = false;
      auto check = [&] {
        rt::lock_guard reg(registrar_.lock_handle());
        rt::lock_guard guard(stop_mu_);
        stop = stop_flag_.load() != 0;
      };
      if (config_.hazards.gate_locked) {
        rt::lock_guard gate(hazard_gate_);
        check();
      } else {
        check();
      }
      if (stop) return;
    } else {
      rt::lock_guard guard(stop_mu_);
      if (stop_flag_.load() != 0) return;
    }
    // With the init-order fault, this read races with the post-create
    // store in start().
    const std::uint64_t interval = reaper_interval_.load();
    rt::sleep_ticks(interval == 0 ? 50 : interval);
    hazard_probe_reaper();
    registrar_.expire(now());
    transactions_.reap();
    // The reaper consults domain data each round; during a faulty
    // shutdown this races with the unlocked teardown touch.
    (void)modules_.find_domain(std::string(kDomains[0]));
    request_log_.trim(8);
    transaction_log_.trim(8);
  }
}

void Proxy::hazard_probe_worker() {
  if (!config_.hazards.registrar_vs_upstream || upstreams_.size() == 0) return;
  rt::mutex& reg = registrar_.lock_handle();
  rt::mutex& tgt = upstreams_.target(0)->lock_handle();
  if (config_.hazards.recover) {
    // Non-racy recovery instead of blocking nested acquisition: the
    // worker never blocks on the target lock while holding the registrar
    // lock, so the inversion cannot complete a cycle.
    const std::uint32_t backoffs =
        DeadlockMonitor::with_ordered_locks_recovering(
            reg, tgt, /*deadline_ticks=*/64,
            config_.upstream.seed ^
                (static_cast<std::uint64_t>(rt::Sim::current_thread()) << 32),
            [] {});
    if (backoffs != 0) stats_.count_deadlock_recoveries(backoffs);
    return;
  }
  auto nest = [&] {
    rt::lock_guard a(reg);
    rt::lock_guard b(tgt);
  };
  if (config_.hazards.gate_locked) {
    rt::lock_guard gate(hazard_gate_);
    nest();
  } else {
    nest();
  }
}

void Proxy::hazard_probe_reaper() {
  if (!config_.hazards.registrar_vs_upstream || upstreams_.size() == 0) return;
  auto nest = [&] {
    rt::lock_guard b(upstreams_.target(0)->lock_handle());
    rt::lock_guard a(registrar_.lock_handle());
  };
  if (config_.hazards.gate_locked) {
    rt::lock_guard gate(hazard_gate_);
    nest();
  } else {
    nest();
  }
}

bool Proxy::overloaded() const {
  const OverloadConfig& ol = config_.overload;
  if (ol.tx_watermark != 0 && transactions_.size() >= ol.tx_watermark)
    return true;
  if (ol.inflight_watermark != 0 && stats_.inflight() > ol.inflight_watermark)
    return true;
  return false;
}

RequestHandler* Proxy::handler_for(Method m) const {
  const auto idx = static_cast<std::size_t>(m);
  RequestHandler* h =
      idx < handlers_.size() ? handlers_[idx] : nullptr;
  return h != nullptr
             ? h
             : handlers_[static_cast<std::size_t>(Method::Unknown)];
}

std::unique_ptr<SipResponse> Proxy::make_response(
    int status, const SipRequest& request, const std::source_location& /*loc*/) {
  auto response = std::make_unique<SipResponse>(status);
  // 8.2.6.2: copy Via chain, From, Call-ID, CSeq; To gains a tag.
  for (cow_string& via : request.headers("via"))
    response->add_header("via", std::move(via));
  response->add_header("from", request.header("from"));
  cow_string to = request.header("to");
  if (status != 100 && header_tag(to.str()).empty())
    to.append(";tag=rg-" + std::to_string(now()));
  response->add_header("to", std::move(to));
  response->add_header("call-id", request.header("call-id"));
  response->add_header("cseq", request.header("cseq"));
  // Shared server identity string: one COW rep for the whole proxy, copied
  // here by every concurrent worker (the Figs. 8/9 counter pattern).
  response->add_header("server", cow_string(server_header_));
  return response;
}

namespace {

/// Scoped in-flight accounting; engaged only when overload control is on so
/// classic runs see no difference at all.
class InflightScope {
 public:
  explicit InflightScope(ProxyStats* stats) : stats_(stats) {
    if (stats_ != nullptr) stats_->enter_inflight();
  }
  ~InflightScope() {
    if (stats_ != nullptr) stats_->leave_inflight();
  }
  InflightScope(const InflightScope&) = delete;
  InflightScope& operator=(const InflightScope&) = delete;

 private:
  ProxyStats* stats_;
};

}  // namespace

std::shared_ptr<const SipResponse> Proxy::handle(
    std::shared_ptr<const SipRequest> request,
    const std::source_location& /*loc*/) {
  RG_FRAME();
  const bool overload_on = config_.overload.enabled();
  InflightScope inflight(overload_on ? &stats_ : nullptr);
  stats_.count_request();
  request_log_.append(now(), static_cast<std::uint32_t>(request->method()));

  if (config_.faults.unsafe_time_function) {
    // §4.1.3: non-reentrant time formatting from worker threads.
    (void)unsafe_ctime(now());
  }

  const cow_string via = request->header("via");
  const std::string branch = via_branch(via.str());
  if (branch.empty())
    return std::shared_ptr<SipResponse>(make_response(400, *request));

  // Transaction-class span: covers transaction matching, the handler (and
  // everything it nests — registrar ops, upstream forwards) and the
  // response bookkeeping. Closing it feeds the per-class virtual-time
  // latency histogram (REGISTER/INVITE/OPTIONS).
  obs::TxnClass cls = obs::TxnClass::Other;
  switch (request->method()) {
    case Method::Register: cls = obs::TxnClass::Register; break;
    case Method::Invite: cls = obs::TxnClass::Invite; break;
    case Method::Options: cls = obs::TxnClass::Options; break;
    default: break;
  }
  rt::TraceSpan txn_span(std::string("sip.") + to_string(request->method()),
                         request_key(branch), cls);

  // CANCEL matches the *INVITE* transaction with the same branch.
  std::shared_ptr<ServerTransaction> tx;
  if (request->method() == Method::Cancel ||
      request->method() == Method::Ack) {
    tx = transactions_.find(branch);
  } else {
    // §21.5.4-style local shedding: refuse new work instead of letting
    // the transaction table and in-flight set grow without bound. The
    // in-flight watermark is checked up front; the transaction watermark
    // is enforced atomically inside find_or_create so concurrent workers
    // can never overshoot it. Shed requests are answered statelessly — no
    // transaction is created.
    if (overload_on && overloaded()) {
      stats_.count_shed();
      auto shed = make_response(503, *request);
      shed->add_header("retry-after",
                       cow_string(std::to_string(config_.overload.retry_after_s)));
      stats_.count_response(503);
      return std::shared_ptr<SipResponse>(std::move(shed));
    }
    bool created = false;
    tx = transactions_.find_or_create(branch, request->method(), created,
                                      config_.overload.tx_watermark);
    if (overload_on) stats_.note_transactions(transactions_.size());
    if (tx == nullptr) {
      // Lost the race for the last table slot: shed like above.
      stats_.count_shed();
      auto shed = make_response(503, *request);
      shed->add_header("retry-after",
                       cow_string(std::to_string(config_.overload.retry_after_s)));
      stats_.count_response(503);
      return std::shared_ptr<SipResponse>(std::move(shed));
    }
    transaction_log_.append(now(),
                            static_cast<std::uint32_t>(request->method()));
    if (created) {
      // §17.2: the transaction retains the request that created it, so
      // later messages can be matched against it.
      tx->retain_request(request);
    } else if (tx->on_request(request->method())) {
      // Retransmission: verify against the retained original (a virtual
      // call on the shared message), then replay the retained response.
      if (auto original = tx->original_request())
        (void)original->start_line();
      return tx->last_response();
    }
  }

  RequestHandler* handler = handler_for(request->method());
  std::shared_ptr<SipResponse> response(
      handler->handle(*this, *request).release(), [](SipResponse* r) {
        delete annotate::ca_deletor_single(r);
      });

  if (response != nullptr) {
    if (tx != nullptr) {
      tx->on_response(response->status());
      // §17.2: retain the response for retransmission replay.
      tx->retain_response(response);
    }
    stats_.count_response(response->status());
  }

  // Periodic in-line reaping, like the original's housekeeping.
  std::uint32_t handled = 0;
  {
    rt::lock_guard guard(stop_mu_);
    handled = handled_count_.load() + 1;
    handled_count_.store(handled);
  }
  if (config_.reap_every != 0 && handled % config_.reap_every == 0)
    transactions_.reap();

  return response;
}

std::string Proxy::handle_wire(std::string_view wire,
                               const std::source_location& /*loc*/) {
  RG_FRAME();
  ParseResult parsed = parse_message(wire);
  if (!parsed.ok()) {
    stats_.count_parse_error();
    SipResponse bad(400);
    return bad.serialize();
  }
  if (!parsed.message->is_request()) {
    // Responses would be forwarded upstream; our scenarios are
    // client-driven, so they are absorbed.
    return {};
  }
  // The annotated build wraps this delete like any other (the pass runs
  // on preprocessed source, so the instantiated deleter is covered).
  std::shared_ptr<const SipMessage> message(
      parsed.message.release(), [](const SipMessage* m) {
        delete annotate::ca_deletor_single(m);
      });
  auto request = std::static_pointer_cast<const SipRequest>(message);
  std::shared_ptr<const SipResponse> response = handle(std::move(request));
  return response == nullptr ? std::string{} : response->serialize();
}

// --- handler implementations ---------------------------------------------------

std::unique_ptr<SipResponse> RegisterHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  const SipUri aor = parse_name_addr(request.header("to").str());
  if (!aor.valid) return proxy.make_response(400, request);
  const cow_string contact_hdr = request.header("contact");
  if (contact_hdr.empty()) return proxy.make_response(400, request);
  const SipUri contact = parse_name_addr(contact_hdr.str());
  if (!contact.valid) return proxy.make_response(400, request);

  std::uint32_t expires = 3600;
  if (request.has_header("expires")) {
    support::parse_u32(request.header("expires").str(), expires);
  }
  if (expires == 0) {
    // De-registration is modelled as immediate expiry.
    proxy.registrar().expire(~0ULL);
    return proxy.make_response(200, request);
  }

  auto contacts = proxy.registrar().register_binding(
      aor.aor(), contact_hdr.str(),
      proxy.now() + proxy.config().binding_ttl);
  auto response = proxy.make_response(200, request);
  for (const cow_string& c : contacts)
    response->add_header("contact", cow_string(c));
  response->add_header("expires", cow_string(std::to_string(expires)));
  return response;
}

std::unique_ptr<SipResponse> InviteHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  const SipUri target = parse_uri(request.uri());
  if (!target.valid) return proxy.make_response(400, request);

  // Domain authorisation — through the Fig. 7 bug when seeded.
  DomainData* domain =
      proxy.config().faults.unprotected_domain_map
          ? proxy.modules().find_domain_unprotected(target.host)
          : proxy.modules().find_domain(target.host);
  if (domain == nullptr) return proxy.make_response(403, request);

  // Seeded hazard family A (worker side): registrar-lock → target-lock.
  proxy.hazard_probe_worker();

  // Max-Forwards enforcement (RFC 3261 §16.3): the effective hop budget is
  // the smaller of the domain policy and the request header, and a request
  // that arrives with no hops left is refused — 483 Too Many Hops — rather
  // than forwarded. (The seed parsed the header and then discarded it.)
  std::uint32_t max_forwards = domain->max_forwards();
  if (request.has_header("max-forwards")) {
    std::uint32_t mf = 0;
    if (support::parse_u32(request.header("max-forwards").str(), mf))
      max_forwards = std::min(max_forwards, mf);
  }
  if (max_forwards == 0) {
    proxy.stats().count_too_many_hops();
    return proxy.make_response(483, request);
  }

  const cow_string contact = proxy.registrar().lookup(target.aor());
  if (contact.empty()) return proxy.make_response(404, request);

  // Forward through the upstream resilience pool (retry + failover +
  // breakers, in virtual time). When every target is down, degrade
  // gracefully: the registrar's cached binding still answers the call.
  bool degraded = false;
  if (proxy.upstreams().enabled()) {
    const std::string branch = via_branch(request.header("via").str());
    const ForwardResult fwd = proxy.upstreams().forward(request_key(branch));
    if (fwd.outcome != ForwardOutcome::Forwarded) {
      proxy.stats().count_degraded();
      degraded = true;
    }
  }
  proxy.stats().count_forward();
  proxy.dialogs().create(request.header("call-id").str(),
                         request.body(), proxy.now());
  auto response = proxy.make_response(200, request);
  response->add_header("contact", cow_string(contact));
  // Record-Route from the shared domain route string (cow rep shared
  // across every worker thread — the Figs. 8/9 counter pattern).
  response->add_header("record-route", domain->route());
  if (degraded)
    response->add_header(
        "warning", cow_string("199 rg \"degraded: served from registrar\""));
  return response;
}

std::unique_ptr<SipResponse> AckHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  const cow_string via = request.header("via");
  const std::string branch = via_branch(via.str());
  if (auto tx = proxy.transactions().find(branch)) tx->on_request(Method::Ack);
  if (auto dialog = proxy.dialogs().find(request.header("call-id").str()))
    dialog->confirm();
  return nullptr;  // ACK is absorbed
}

std::unique_ptr<SipResponse> ByeHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  const SipUri target = parse_uri(request.uri());
  if (!target.valid) return proxy.make_response(400, request);
  // In-dialog: terminate the session and tear down its state inline.
  const bool known =
      proxy.dialogs().terminate(request.header("call-id").str(), proxy.now());
  return proxy.make_response(known ? 200 : 481, request);
}

std::unique_ptr<SipResponse> CancelHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  const cow_string via = request.header("via");
  const std::string branch = via_branch(via.str());
  std::shared_ptr<ServerTransaction> tx = proxy.transactions().find(branch);
  if (tx == nullptr) return proxy.make_response(481, request);
  tx->on_request(Method::Cancel);
  proxy.dialogs().terminate(request.header("call-id").str(), proxy.now());
  return proxy.make_response(200, request);
}

std::unique_ptr<SipResponse> OptionsHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  // Capability interrogation is answered by the upstream feature server
  // when one is configured. Unlike INVITE there is no registrar data to
  // fall back on, so when the pool is exhausted or every breaker is open
  // the proxy sheds: 503 with a backoff-derived Retry-After instead of
  // stalling the client.
  if (proxy.upstreams().enabled()) {
    const std::string branch = via_branch(request.header("via").str());
    const ForwardResult fwd = proxy.upstreams().forward(request_key(branch));
    if (fwd.outcome != ForwardOutcome::Forwarded) {
      proxy.stats().count_upstream_shed();
      auto shed = proxy.make_response(503, request);
      shed->add_header("retry-after",
                       cow_string(std::to_string(fwd.retry_after_s)));
      return shed;
    }
  }
  auto response = proxy.make_response(200, request);
  response->add_header("allow", cow_string(proxy.allow_header_));
  return response;
}

std::unique_ptr<SipResponse> InfoHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  // DTMF / media update on a live call renegotiates the media session.
  if (auto dialog = proxy.dialogs().find(request.header("call-id").str())) {
    if (!request.body().empty()) dialog->media().update(request.body());
  }
  return proxy.make_response(200, request);
}

std::unique_ptr<SipResponse> DefaultHandler::handle(
    Proxy& proxy, const SipRequest& request, const std::source_location& /*loc*/) {
  virtual_dispatch();
  RG_FRAME();
  auto response = proxy.make_response(405, request);
  response->add_header("allow", cow_string(proxy.allow_header_));
  return response;
}

}  // namespace rg::sip
