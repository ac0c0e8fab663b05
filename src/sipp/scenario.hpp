// Scenario model and SIP message factory (the SIPp substitute).
//
// "The basic request patterns are delivered to the application by an
// automated test suite. The main utility of this test suite is SIPp."
// A Scenario is an ordered list of phases; the messages of one phase are
// delivered concurrently (SIPp's simultaneous calls), phases run back to
// back (SIPp's sequence points).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rg::sipp {

struct Scenario {
  std::string name;
  std::vector<std::vector<std::string>> phases;

  std::size_t total_messages() const {
    std::size_t n = 0;
    for (const auto& phase : phases) n += phase.size();
    return n;
  }
};

/// Deterministic SIP wire-message builder.
class MessageFactory {
 public:
  /// The default is the proxy's home domain (kDomains in sip/proxy.cpp).
  explicit MessageFactory(std::string domain = "example.com");

  /// REGISTER sip:domain with Contact for user.
  std::string register_request(const std::string& user,
                               const std::string& call_tag, std::uint32_t cseq,
                               std::uint32_t expires = 3600) const;

  std::string invite(const std::string& caller, const std::string& callee,
                     const std::string& call_tag, std::uint32_t cseq,
                     const std::string& target_domain = {}) const;

  /// ACK for the INVITE with the same call_tag/cseq (same branch).
  std::string ack(const std::string& caller, const std::string& callee,
                  const std::string& call_tag, std::uint32_t cseq) const;

  std::string bye(const std::string& caller, const std::string& callee,
                  const std::string& call_tag, std::uint32_t cseq) const;

  /// CANCEL for a pending INVITE (same branch as the INVITE).
  std::string cancel(const std::string& caller, const std::string& callee,
                     const std::string& call_tag, std::uint32_t cseq) const;

  std::string options(const std::string& user, const std::string& call_tag,
                      std::uint32_t cseq) const;

  std::string info(const std::string& caller, const std::string& callee,
                   const std::string& call_tag, std::uint32_t cseq,
                   const std::string& body = {}) const;

  /// A request with an unknown method (exercises DefaultHandler).
  std::string unknown_method(const std::string& user,
                             const std::string& call_tag,
                             std::uint32_t cseq) const;

  /// Malformed wire text (parse-error path); `variant` picks the flaw.
  std::string garbage(int variant) const;

  const std::string& domain() const { return domain_; }

 private:
  std::string request(const std::string& method, const std::string& uri,
                      const std::string& from_user,
                      const std::string& to_user, const std::string& call_tag,
                      std::uint32_t cseq, const std::string& cseq_method,
                      const std::vector<std::string>& extra_headers,
                      const std::string& body) const;

  std::string domain_;
};

}  // namespace rg::sipp
