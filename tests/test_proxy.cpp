// End-to-end proxy behaviour inside the simulator.
#include <gtest/gtest.h>

#include "core/helgrind.hpp"
#include "rt/sim.hpp"
#include "rt/thread.hpp"
#include "sip/parser.hpp"
#include "sip/proxy.hpp"
#include "sipp/scenario.hpp"

namespace rg::sip {
namespace {

/// Proxy with every seeded fault off: behaviourally identical, race-free.
ProxyConfig clean_config() {
  ProxyConfig cfg;
  cfg.faults = FaultConfig::none();
  return cfg;
}

int status_of(const std::string& wire) {
  const ParseResult r = parse_message(wire);
  if (!r.ok() || r.message->is_request()) return -1;
  return static_cast<const SipResponse&>(*r.message).status();
}

TEST(Proxy, RegisterReturns200WithContact) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    const std::string resp =
        proxy.handle_wire(mf.register_request("alice", "c1", 1));
    EXPECT_EQ(status_of(resp), 200);
    EXPECT_NE(resp.find("Contact:"), std::string::npos);
    EXPECT_EQ(proxy.registrar().size(), 1u);
    proxy.shutdown();
  });
}

TEST(Proxy, InviteToRegisteredCalleeSucceeds) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    const std::string resp =
        proxy.handle_wire(mf.invite("alice", "bob", "call-1", 1));
    EXPECT_EQ(status_of(resp), 200);
    EXPECT_NE(resp.find("Record-Route:"), std::string::npos);
    EXPECT_NE(resp.find("Server: RaceGuard-SIP-Proxy"), std::string::npos);
    EXPECT_EQ(proxy.dialogs().size(), 1u);
    proxy.shutdown();
  });
}

TEST(Proxy, InviteToUnknownCalleeIs404) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(mf.invite("a", "ghost", "c", 1))),
              404);
    proxy.shutdown();
  });
}

TEST(Proxy, InviteToForeignDomainIs403) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(
                  mf.invite("a", "b", "c", 1, "elsewhere.invalid"))),
              403);
    proxy.shutdown();
  });
}

TEST(Proxy, FullDialogFlow) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    EXPECT_EQ(status_of(proxy.handle_wire(mf.invite("a", "bob", "c1", 1))),
              200);
    EXPECT_TRUE(proxy.handle_wire(mf.ack("a", "bob", "c1", 1)).empty());
    EXPECT_EQ(proxy.dialogs().size(), 1u);
    EXPECT_EQ(status_of(proxy.handle_wire(mf.bye("a", "bob", "c1", 2))), 200);
    EXPECT_EQ(proxy.dialogs().size(), 0u);
    proxy.shutdown();
  });
}

TEST(Proxy, ByeWithoutDialogIs481) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(mf.bye("a", "b", "nocall", 1))),
              481);
    proxy.shutdown();
  });
}

TEST(Proxy, RetransmittedInviteRepliesByReplay) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    const std::string first =
        proxy.handle_wire(mf.invite("a", "bob", "c1", 1));
    const std::string replay =
        proxy.handle_wire(mf.invite("a", "bob", "c1", 1));
    EXPECT_EQ(status_of(first), 200);
    EXPECT_EQ(status_of(replay), 200);
    // One transaction, one dialog: the retransmission was absorbed.
    EXPECT_EQ(proxy.dialogs().size(), 1u);
    EXPECT_EQ(proxy.stats().requests(), 3u);
    proxy.shutdown();
  });
}

TEST(Proxy, CancelTerminatesPendingInvite) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    proxy.handle_wire(mf.invite("a", "bob", "c1", 1));
    EXPECT_EQ(status_of(proxy.handle_wire(mf.cancel("a", "bob", "c1", 1))),
              200);
    EXPECT_EQ(proxy.dialogs().size(), 0u);
    proxy.shutdown();
  });
}

TEST(Proxy, CancelWithoutTransactionIs481) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(mf.cancel("a", "b", "none", 1))),
              481);
    proxy.shutdown();
  });
}

TEST(Proxy, OptionsListsAllow) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    const std::string resp = proxy.handle_wire(mf.options("a", "c", 1));
    EXPECT_EQ(status_of(resp), 200);
    EXPECT_NE(resp.find("Allow: INVITE"), std::string::npos);
    proxy.shutdown();
  });
}

TEST(Proxy, UnknownMethodIs405) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(mf.unknown_method("a", "c", 1))),
              405);
    proxy.shutdown();
  });
}

TEST(Proxy, GarbageGets400) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    for (int v = 0; v < 5; ++v)
      EXPECT_EQ(status_of(proxy.handle_wire(mf.garbage(v))), 400);
    EXPECT_EQ(proxy.stats().parse_errors(), 5u);
    proxy.shutdown();
  });
}

TEST(Proxy, InfoUpdatesDialogMedia) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    proxy.handle_wire(mf.invite("a", "bob", "c1", 1));
    EXPECT_EQ(status_of(proxy.handle_wire(
                  mf.info("a", "bob", "c1", 2, "Signal=5\r\n"))),
              200);
    auto dialog = proxy.dialogs().find("c1@client.invalid");
    ASSERT_NE(dialog, nullptr);
    EXPECT_EQ(dialog->media().updates(), 1u);
    proxy.shutdown();
  });
}

TEST(Proxy, DeregistrationExpiresBinding) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r1", 1));
    EXPECT_EQ(proxy.registrar().size(), 1u);
    EXPECT_EQ(status_of(proxy.handle_wire(
                  mf.register_request("bob", "r2", 2, /*expires=*/0))),
              200);
    EXPECT_EQ(proxy.registrar().size(), 0u);
    proxy.shutdown();
  });
}

TEST(Proxy, StatsTrackTraffic) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r", 1));
    proxy.handle_wire(mf.invite("a", "bob", "c", 1));
    proxy.handle_wire(mf.invite("a", "ghost", "c2", 1));
    EXPECT_EQ(proxy.stats().requests(), 3u);
    EXPECT_EQ(proxy.stats().responses_2xx(), 2u);
    EXPECT_EQ(proxy.stats().responses_4xx(), 1u);
    EXPECT_EQ(proxy.stats().forwards(), 1u);
    proxy.shutdown();
  });
}

TEST(Proxy, ReaperExpiresBindingsOverTime) {
  rt::Sim sim;
  sim.run([&] {
    ProxyConfig cfg = clean_config();
    cfg.binding_ttl = 100;       // bindings die fast
    cfg.reaper_interval = 50;
    Proxy proxy(cfg);
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("bob", "r", 1));
    EXPECT_EQ(proxy.registrar().size(), 1u);
    rt::sleep_ticks(1000);  // reaper runs several times
    EXPECT_EQ(proxy.registrar().size(), 0u);
    proxy.shutdown();
  });
}

TEST(Proxy, ShutdownWithoutStartIsSafe) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.shutdown();  // never started: must be a no-op, not an assert
    proxy.shutdown();
  });
}

TEST(Proxy, DoubleShutdownIsIdempotent) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.register_request("alice", "c1", 1));
    proxy.shutdown();
    proxy.shutdown();  // second call must be a no-op
  });
}

TEST(Proxy, ShutdownThenRestartServesTraffic) {
  rt::Sim sim;
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    proxy.shutdown();
    proxy.start();
    sipp::MessageFactory mf;
    EXPECT_EQ(status_of(proxy.handle_wire(mf.options("a", "c", 1))), 200);
    proxy.shutdown();
  });
}

TEST(Proxy, OverloadShedsWith503RetryAfter) {
  rt::Sim sim;
  sim.run([&] {
    ProxyConfig cfg = clean_config();
    cfg.overload.tx_watermark = 1;
    Proxy proxy(cfg);
    proxy.start();
    sipp::MessageFactory mf;
    // First INVITE occupies the only transaction slot (no ACK, so it stays
    // in Completed); the second must be shed statelessly.
    EXPECT_EQ(status_of(proxy.handle_wire(mf.invite("a", "ghost", "c1", 1))),
              404);
    const std::string shed = proxy.handle_wire(mf.invite("b", "ghost", "c2", 1));
    EXPECT_EQ(status_of(shed), 503);
    EXPECT_NE(shed.find("Retry-After: 5"), std::string::npos);
    EXPECT_EQ(proxy.stats().sheds(), 1u);
    EXPECT_EQ(proxy.stats().responses_5xx(), 1u);
    EXPECT_EQ(proxy.transactions().size(), 1u);
    proxy.shutdown();
  });
}

TEST(Proxy, ShedResponseCarriesConfiguredRetryAfter) {
  rt::Sim sim;
  sim.run([&] {
    ProxyConfig cfg = clean_config();
    cfg.overload.tx_watermark = 1;
    cfg.overload.retry_after_s = 120;
    Proxy proxy(cfg);
    proxy.start();
    sipp::MessageFactory mf;
    proxy.handle_wire(mf.invite("a", "ghost", "c1", 1));
    EXPECT_NE(proxy.handle_wire(mf.invite("b", "ghost", "c2", 1))
                  .find("Retry-After: 120"),
              std::string::npos);
    proxy.shutdown();
  });
}

TEST(Proxy, CleanBuildIsRaceFreeUnderDetector) {
  // With every fault disabled and annotations honoured, the HWLC+DR
  // detector must stay quiet over a realistic mixed workload — the "all
  // warnings fixed" end state of the paper's debugging loop.
  core::HelgrindTool tool(core::HelgrindConfig::hwlc_dr());
  rt::SimConfig sim_cfg;
  sim_cfg.sched.seed = 13;
  rt::Sim sim(sim_cfg);
  sim.attach(tool);
  sim.run([&] {
    Proxy proxy(clean_config());
    proxy.start();
    sipp::MessageFactory mf;
    std::vector<rt::thread> workers;
    for (int i = 0; i < 6; ++i)
      workers.emplace_back([&proxy, &mf, i] {
        const std::string user = "u" + std::to_string(i);
        proxy.handle_wire(mf.register_request(user, "r" + user, 1));
        proxy.handle_wire(
            mf.invite("caller" + std::to_string(i), user, "c" + user, 1));
        proxy.handle_wire(mf.ack("caller" + std::to_string(i), user,
                                 "c" + user, 1));
        proxy.handle_wire(
            mf.bye("caller" + std::to_string(i), user, "c" + user, 2));
      });
    for (auto& w : workers) w.join();
    proxy.shutdown();
  });
  EXPECT_EQ(tool.reports().distinct_locations(), 0u)
      << tool.reports().render();
}

}  // namespace
}  // namespace rg::sip
