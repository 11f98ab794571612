#include "src/auth/policy.h"

#include <utility>

#include "src/common/logging.h"

namespace itv::auth {

namespace {

// Distinct stream-cipher nonces for the two directions of one call. The
// doubling drops wire::kOneWayCallBit, which is safe because one-way and
// two-way requests draw their ids from one counter: the low 63 bits never
// repeat under one session key.
uint64_t RequestNonce(uint64_t call_id) { return call_id * 2; }
uint64_t ReplyNonce(uint64_t call_id) { return call_id * 2 + 1; }

// Sign-over-spans: streams the message's signed portion through the HMAC
// without materializing the temporary buffer SignedPortion() would build.
Digest SignMessage(const Key& key, const wire::Message& m) {
  HmacSha256Stream stream(key);
  m.ForEachSignedSpan(
      [&stream](const uint8_t* p, size_t n) { stream.Update(p, n); });
  return stream.Finish();
}

}  // namespace

void KerberosPolicy::PrefetchTicket(const wire::Endpoint& dst,
                                    std::function<void(Status)> done) {
  uint64_t key = EndpointKey(dst);
  if (tickets_.count(key) > 0) {
    done(OkStatus());
    return;
  }
  auto fetching = fetching_.find(key);
  if (fetching != fetching_.end()) {
    fetching->second.push_back(std::move(done));
    return;
  }
  if (runtime_ == nullptr || auth_ref_.is_null()) {
    done(FailedPreconditionError("no ticket source configured"));
    return;
  }
  fetching_[key].push_back(std::move(done));

  AuthProxy proxy(*runtime_, auth_ref_);
  proxy.GetTicket(principal_, PrincipalForEndpoint(dst))
      .OnReady([this, key](const Result<TicketGrant>& grant) {
        std::vector<std::function<void(Status)>> waiters;
        auto it = fetching_.find(key);
        if (it != fetching_.end()) {
          waiters = std::move(it->second);
          fetching_.erase(it);
        }
        Status outcome = OkStatus();
        if (!grant.ok()) {
          outcome = grant.status();
          Count("auth.ticket_fetch_failed");
        } else {
          std::optional<Key> session = UnsealSessionKeyForClient(
              master_key_, grant->ticket_id, grant->enc_session_key);
          if (!session.has_value()) {
            outcome = InternalError("could not unseal session key");
            Count("auth.ticket_unseal_failed");
          } else {
            ClientTicket ticket;
            ticket.ticket_id = grant->ticket_id;
            ticket.session_key = *session;
            ticket.blob = grant->ticket_blob;
            tickets_[key] = ticket;
            client_ticket_keys_[grant->ticket_id] = *session;
            Count("auth.ticket_acquired");
          }
        }
        for (auto& waiter : waiters) {
          waiter(outcome);
        }
      });
}

Status KerberosPolicy::ProtectRequest(const wire::Endpoint& dst,
                                      wire::Message* m) {
  m->auth.principal = principal_;

  // Calls to the auth service itself: sign with the master key (ticket 0).
  if (!auth_ref_.is_null() && dst == auth_ref_.endpoint) {
    m->auth.ticket_id = 0;
    m->auth.signature = DigestToBytes(SignMessage(master_key_, *m));
    Count("auth.call_signed_master");
    return OkStatus();
  }

  auto it = tickets_.find(EndpointKey(dst));
  if (it == tickets_.end()) {
    // No ticket yet: send unsigned and start acquiring one for next time.
    Count("auth.call_unsigned");
    if (runtime_ != nullptr && !auth_ref_.is_null()) {
      PrefetchTicket(dst, [](Status) {});
    }
    return OkStatus();
  }

  const ClientTicket& ticket = it->second;
  m->auth.ticket_id = ticket.ticket_id;
  m->auth.ticket_blob = ticket.blob;
  if (options_.encrypt_calls) {
    ChaCha20Crypt(ticket.session_key, RequestNonce(m->call_id), &m->payload);
    m->auth.encrypted = true;
  }
  m->auth.signature = DigestToBytes(SignMessage(ticket.session_key, *m));
  Count("auth.call_signed");
  return OkStatus();
}

Result<rpc::CallerInfo> KerberosPolicy::AdmitRequest(wire::Message* m) {
  if (m->auth.signature.empty()) {
    if (options_.require_signed_requests) {
      Count("auth.rejected_unsigned");
      return PermissionDeniedError("unsigned call rejected");
    }
    return rpc::CallerInfo{m->auth.principal, /*authenticated=*/false};
  }

  Key verify_key;
  std::string verified_principal;
  if (m->auth.ticket_id == 0) {
    // Master-key signature: only verifiable with the key registry (the auth
    // service's own process).
    if (registry_ == nullptr) {
      Count("auth.rejected_unverifiable");
      return PermissionDeniedError("master-key signature not verifiable here");
    }
    std::optional<Key> key = registry_->Find(m->auth.principal);
    if (!key.has_value()) {
      Count("auth.rejected_unknown_principal");
      return PermissionDeniedError("unknown principal " + m->auth.principal);
    }
    verify_key = *key;
    verified_principal = m->auth.principal;
  } else {
    auto cached = server_tickets_.find(m->auth.ticket_id);
    if (cached == server_tickets_.end()) {
      std::optional<TicketContents> contents = UnsealTicketBlobWithId(
          master_key_, m->auth.ticket_id, m->auth.ticket_blob);
      if (!contents.has_value()) {
        Count("auth.rejected_bad_ticket");
        return PermissionDeniedError("ticket blob does not unseal");
      }
      cached = server_tickets_.emplace(m->auth.ticket_id, *contents).first;
    }
    verify_key = cached->second.session_key;
    verified_principal = cached->second.client_principal;
  }

  Digest claimed;
  if (m->auth.signature.size() != claimed.size()) {
    Count("auth.rejected_bad_signature");
    return PermissionDeniedError("malformed signature");
  }
  std::copy(m->auth.signature.begin(), m->auth.signature.end(), claimed.begin());
  if (!DigestsEqual(claimed, SignMessage(verify_key, *m))) {
    Count("auth.rejected_bad_signature");
    return PermissionDeniedError("signature verification failed");
  }
  if (m->auth.encrypted) {
    ChaCha20Crypt(verify_key, RequestNonce(m->call_id), &m->payload);
    m->auth.encrypted = false;
  }
  Count("auth.call_verified");
  return rpc::CallerInfo{verified_principal, /*authenticated=*/true};
}

Status KerberosPolicy::ProtectReply(uint64_t ticket_id, wire::Message* reply) {
  if (ticket_id == 0) {
    // Master-signed request (a GetTicket call): the grant is self-protecting,
    // so the reply goes back unsigned.
    return OkStatus();
  }
  auto it = server_tickets_.find(ticket_id);
  if (it == server_tickets_.end()) {
    return OkStatus();  // Request was admitted unsigned.
  }
  const Key& session_key = it->second.session_key;
  reply->auth.ticket_id = ticket_id;
  if (options_.encrypt_calls) {
    ChaCha20Crypt(session_key, ReplyNonce(reply->call_id), &reply->payload);
    reply->auth.encrypted = true;
  }
  reply->auth.signature = DigestToBytes(SignMessage(session_key, *reply));
  return OkStatus();
}

Status KerberosPolicy::CheckReply(uint64_t ticket_id, wire::Message* reply) {
  if (ticket_id == 0) {
    return OkStatus();  // Unsigned or master-signed request; accept as-is.
  }
  auto it = client_ticket_keys_.find(ticket_id);
  if (it == client_ticket_keys_.end()) {
    return InternalError("no session key for ticket");
  }
  const Key& session_key = it->second;
  Digest claimed;
  if (reply->auth.signature.size() != claimed.size()) {
    Count("auth.reply_rejected");
    return PermissionDeniedError("reply not signed");
  }
  std::copy(reply->auth.signature.begin(), reply->auth.signature.end(),
            claimed.begin());
  if (!DigestsEqual(claimed, SignMessage(session_key, *reply))) {
    Count("auth.reply_rejected");
    return PermissionDeniedError("reply signature verification failed");
  }
  if (reply->auth.encrypted) {
    ChaCha20Crypt(session_key, ReplyNonce(reply->call_id), &reply->payload);
    reply->auth.encrypted = false;
  }
  return OkStatus();
}

}  // namespace itv::auth
