// KerberosPolicy: the rpc::SecurityPolicy that gives the paper's default of
// "calls are signed but not encrypted" (Section 3.3).
//
// Client side: for each destination endpoint, the policy acquires a session
// ticket from the auth service (asynchronously, deduplicated) and thereafter
// signs every request with the session key, attaching the sealed ticket blob.
// Calls made before a ticket arrives go out unsigned (counted in metrics);
// callers that need guaranteed-signed traffic Prefetch first, which is what
// the service bootstrap does. Calls *to* the auth service itself are signed
// directly with the principal's master key.
//
// Server side: the blob is unsealed with this process's master key, yielding
// the caller's true identity and the session key to verify the signature —
// no auth-service round trip per call. With `require_signed_requests`,
// unsigned calls are rejected (third-party-service isolation).
//
// Encryption (`encrypt_calls`) XORs the payload with a ChaCha20 keystream
// keyed by the session key and the call id (requests and replies use
// distinct nonces; one-way requests have unique call ids like any other);
// signing covers the ciphertext (encrypt-then-MAC).

#ifndef SRC_AUTH_POLICY_H_
#define SRC_AUTH_POLICY_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/auth/auth_service.h"
#include "src/common/metrics.h"
#include "src/rpc/security.h"

namespace itv::auth {

class KerberosPolicy : public rpc::SecurityPolicy {
 public:
  struct Options {
    bool require_signed_requests = false;
    bool encrypt_calls = false;
  };

  KerberosPolicy(std::string principal, Key master_key)
      : KerberosPolicy(std::move(principal), master_key, Options()) {}
  KerberosPolicy(std::string principal, Key master_key, Options options)
      : principal_(std::move(principal)),
        master_key_(master_key),
        options_(options) {}

  // Wires the ticket fetch path. `runtime` is this process's ORB (the policy
  // signs its own GetTicket calls with the master key). May be called again
  // after the auth service moves.
  void ConfigureTicketSource(rpc::ObjectRuntime& runtime,
                             wire::ObjectRef auth_ref) {
    runtime_ = &runtime;
    auth_ref_ = auth_ref;
  }

  // Only for the auth service's own process: lets it verify master-key
  // signatures of arbitrary principals.
  void set_master_key_registry(const KeyRegistry* registry) {
    registry_ = registry;
  }

  void set_metrics(Metrics* metrics) { metrics_ = metrics; }

  // Acquires (or reuses) a ticket for `dst`; `done` runs with the outcome.
  void PrefetchTicket(const wire::Endpoint& dst,
                      std::function<void(Status)> done);

  bool HasTicketFor(const wire::Endpoint& dst) const {
    return tickets_.count(EndpointKey(dst)) > 0;
  }

  const std::string& principal() const { return principal_; }

  // rpc::SecurityPolicy:
  Status ProtectRequest(const wire::Endpoint& dst, wire::Message* m) override;
  Result<rpc::CallerInfo> AdmitRequest(wire::Message* m) override;
  Status ProtectReply(uint64_t ticket_id, wire::Message* reply) override;
  Status CheckReply(uint64_t ticket_id, wire::Message* reply) override;

 private:
  struct ClientTicket {
    uint64_t ticket_id = 0;
    Key session_key{};
    wire::Bytes blob;
  };

  static uint64_t EndpointKey(const wire::Endpoint& ep) {
    return (static_cast<uint64_t>(ep.host) << 16) | ep.port;
  }

  void Count(std::string_view name) {
    if (metrics_ != nullptr) {
      metrics_->Add(name);
    }
  }

  std::string principal_;
  Key master_key_;
  Options options_;
  rpc::ObjectRuntime* runtime_ = nullptr;
  wire::ObjectRef auth_ref_;
  const KeyRegistry* registry_ = nullptr;
  Metrics* metrics_ = nullptr;

  // Client side: endpoint -> ticket; in-flight fetches with waiter lists.
  std::map<uint64_t, ClientTicket> tickets_;
  std::map<uint64_t, std::vector<std::function<void(Status)>>> fetching_;
  // Client side: ticket id -> session key (for reply verification).
  std::map<uint64_t, Key> client_ticket_keys_;
  // Server side: ticket id -> (client principal, session key).
  std::map<uint64_t, TicketContents> server_tickets_;
};

}  // namespace itv::auth

#endif  // SRC_AUTH_POLICY_H_
