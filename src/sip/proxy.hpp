// The SIP proxy core — the program under test.
//
// A registrar + stateful forwarding proxy in the shape of the paper's
// 500 kLOC VoIP signalling server: polymorphic request handlers, a
// transaction layer, a registrar, per-domain configuration, statistics, an
// expiry reaper thread, and the application-level deadlock watchdog. The
// seeded FaultConfig reproduces every defect class of §4.1 and every
// false-positive source of §4.2.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <source_location>
#include <string>
#include <vector>

#include "rt/memory.hpp"
#include "rt/sync.hpp"
#include "rt/thread.hpp"
#include "sip/audit.hpp"
#include "sip/deadlock_monitor.hpp"
#include "sip/dialog.hpp"
#include "sip/domain_data.hpp"
#include "sip/faults.hpp"
#include "sip/message.hpp"
#include "sip/pool_alloc.hpp"
#include "sip/registrar.hpp"
#include "sip/stats.hpp"
#include "sip/transaction.hpp"
#include "sip/upstream.hpp"

namespace rg::sip {

class Proxy;

/// Polymorphic per-method handler (shared across all worker threads).
class RequestHandler : public SipObject {
 public:
  ~RequestHandler() override { vptr_write(); }
  /// Returns the response, or nullptr when the request is absorbed (ACK,
  /// retransmission).
  virtual std::unique_ptr<SipResponse> handle(
      Proxy& proxy, const SipRequest& request,
      const std::source_location& loc = std::source_location::current()) = 0;
  virtual const char* name() const = 0;
};

/// Overload-control watermarks (RFC 3261 §21.5.4 / RFC 5390 style local
/// shedding). All zero (the default) disables overload control entirely, so
/// the classic experiment paths see a bit-identical event stream.
struct OverloadConfig {
  /// Shed new transaction-creating requests once the transaction table
  /// holds this many entries. 0 = unlimited.
  std::size_t tx_watermark = 0;
  /// Shed once more than this many requests are inside handle() at once.
  /// 0 = unlimited.
  std::size_t inflight_watermark = 0;
  /// Advertised Retry-After (seconds) on shed 503 responses.
  std::uint32_t retry_after_s = 5;

  bool enabled() const { return tx_watermark != 0 || inflight_watermark != 0; }
};

struct ProxyConfig {
  FaultConfig faults;
  /// Seeded lock-inversion hazards (all off by default: classic runs see a
  /// bit-identical event stream).
  DeadlockHazards hazards;
  OverloadConfig overload;
  /// Upstream resilience layer. Zero targets (the default) disables
  /// forwarding entirely, so classic runs see a bit-identical event stream.
  UpstreamConfig upstream;
  std::uint64_t binding_ttl = 100000;
  std::uint64_t reaper_interval = 200;
  /// Reap terminated transactions every N handled requests.
  std::uint32_t reap_every = 16;
  /// Shared metrics registry for the infra gauges (nullptr = the proxy's
  /// stats own a private registry). Caller keeps ownership; must outlive
  /// the proxy.
  obs::MetricsRegistry* metrics = nullptr;
};

class Proxy {
 public:
  explicit Proxy(const ProxyConfig& config);
  ~Proxy();

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Brings up domain data, handlers, the reaper and (fault permitting)
  /// the deadlock watchdog. Must run inside a Sim to exhibit the seeded
  /// init-order race.
  void start(const std::source_location& loc =
                 std::source_location::current());

  /// Tears everything down; with the shutdown-order fault this destroys
  /// domain data before the reaper thread has stopped. Idempotent, and a
  /// no-op on a proxy that was never started.
  void shutdown(const std::source_location& loc =
                    std::source_location::current());

  /// Full request path from wire text: parse -> transaction -> handler ->
  /// serialize. Returns "" for absorbed requests, a 400 for parse errors.
  std::string handle_wire(std::string_view wire,
                          const std::source_location& loc =
                              std::source_location::current());

  /// Typed request path (used by handle_wire and tests). The proxy may
  /// retain the request in its transaction (RFC 3261 §17.2), hence shared
  /// ownership. Returns the (possibly replayed) response, or null when the
  /// request is absorbed.
  std::shared_ptr<const SipResponse> handle(
      std::shared_ptr<const SipRequest> request,
      const std::source_location& loc = std::source_location::current());

  Registrar& registrar() { return registrar_; }
  UpstreamPool& upstreams() { return upstreams_; }
  /// Chaos engine consulted on the proxy<->upstream hop (may be null).
  void set_chaos(rt::ChaosEngine* chaos) { upstreams_.set_chaos(chaos); }
  ServerModulesManagerImpl& modules() { return modules_; }
  TransactionTable& transactions() { return transactions_; }
  DialogTable& dialogs() { return dialogs_; }
  ProxyStats& stats() { return stats_; }
  DeadlockMonitor& monitor() { return monitor_; }
  ObjectPool& pool() { return pool_; }
  const ProxyConfig& config() const { return config_; }

  /// Current virtual time (0 outside a Sim).
  std::uint64_t now() const;

 private:
  friend class RegisterHandler;
  friend class InviteHandler;
  friend class AckHandler;
  friend class ByeHandler;
  friend class CancelHandler;
  friend class OptionsHandler;
  friend class InfoHandler;
  friend class DefaultHandler;

  RequestHandler* handler_for(Method m) const;
  /// True when a transaction-creating request must be shed (503).
  bool overloaded() const;
  void reaper_loop();
  /// Hazard family A, worker side: nests registrar-lock → upstream
  /// target-0 lock (or the recovery path when hazards.recover).
  void hazard_probe_worker();
  /// Hazard family A, reaper side: the opposite nesting.
  void hazard_probe_reaper();
  std::unique_ptr<SipResponse> make_response(
      int status, const SipRequest& request,
      const std::source_location& loc = std::source_location::current());

  ProxyConfig config_;
  ObjectPool pool_;
  Registrar registrar_;
  ServerModulesManagerImpl modules_;
  TransactionTable transactions_;
  DialogTable dialogs_;
  ProxyStats stats_;
  /// Must follow stats_ (the pool counts into it).
  UpstreamPool upstreams_;
  DeadlockMonitor monitor_;
  AuditLog request_log_;
  AuditLog transaction_log_;

  /// Method -> handler; fixed after start(), read concurrently.
  std::array<RequestHandler*, 8> handlers_{};

  // Reaper thread control. Guarded by stop_mu_ (correct by design — the
  // seeded races live elsewhere).
  rt::thread reaper_;
  mutable rt::mutex stop_mu_;
  /// Common gate for the hazards.gate_locked negative control.
  rt::mutex hazard_gate_;
  rt::tracked<std::uint8_t> stop_flag_;
  /// Read by the reaper; with the init-order fault this is written *after*
  /// the reaper already started (§4.1.1).
  rt::tracked<std::uint64_t> reaper_interval_;

  rt::tracked<std::uint32_t> handled_count_;
  /// Shared header constants, copied into every response by concurrent
  /// workers (COW reps with bus-locked reference counters — Figs. 8/9).
  cow_string server_header_;
  cow_string allow_header_;
  bool started_ = false;
};

}  // namespace rg::sip
