// Helpers used by the hand-written IDL stubs (see idl/README.md for the
// stub pattern). These do the mechanical work a stub compiler would emit:
// packing argument lists, unpacking reply payloads into typed futures, and
// completing servant replies.

#ifndef SRC_RPC_STUB_HELPERS_H_
#define SRC_RPC_STUB_HELPERS_H_

#include <utility>

#include "src/common/future.h"
#include "src/rpc/runtime.h"
#include "src/wire/serialize.h"

namespace itv::rpc {

// --- Client side -------------------------------------------------------------

template <typename... Args>
wire::Bytes EncodeArgs(const Args&... args) {
  wire::Writer w;
  using wire::WireWrite;  // Primitives live in itv::wire; structs found by ADL.
  (WireWrite(w, args), ...);
  return w.TakeBytes();
}

template <typename... Args>
bool DecodeArgs(const wire::Bytes& b, Args*... args) {
  wire::Reader r(b);
  using wire::WireRead;
  (WireRead(r, args), ...);
  return r.ok() && r.remaining() == 0;
}

// Adapts the raw Invoke() future into a typed one.
template <typename T>
Future<T> DecodeReply(Future<wire::Bytes> raw) {
  Promise<T> promise;
  Future<T> typed = promise.future();
  raw.OnReady([promise](const Result<wire::Bytes>& r) mutable {
    if (!r.ok()) {
      promise.Set(r.status());
      return;
    }
    T out{};
    if (!DecodeArgs(r.value(), &out)) {
      promise.Set(InternalError("malformed reply payload"));
      return;
    }
    promise.Set(std::move(out));
  });
  return typed;
}

inline Future<void> DecodeEmptyReply(Future<wire::Bytes> raw) {
  Promise<void> promise;
  Future<void> typed = promise.future();
  raw.OnReady([promise](const Result<wire::Bytes>& r) mutable {
    if (!r.ok()) {
      promise.Set(r.status());
      return;
    }
    promise.Set(Result<void>());
  });
  return typed;
}

// Base class for the hand-written typed proxies.
class Proxy {
 public:
  Proxy(ObjectRuntime& runtime, wire::ObjectRef ref)
      : runtime_(&runtime), ref_(ref) {}

  const wire::ObjectRef& ref() const { return ref_; }
  ObjectRuntime& runtime() const { return *runtime_; }

 protected:
  Future<wire::Bytes> Call(uint32_t method_id, wire::Bytes args,
                           const CallOptions& options = {}) const {
    return runtime_->Invoke(ref_, method_id, std::move(args), options);
  }
  // One-way call (IDL `oneway`): no reply, no error, no NACK comes back.
  void Post(uint32_t method_id, wire::Bytes args) const {
    runtime_->Post(ref_, method_id, std::move(args));
  }

 private:
  ObjectRuntime* runtime_;
  wire::ObjectRef ref_;
};

// --- Server side -------------------------------------------------------------

template <typename... Args>
void ReplyWith(const ReplyFn& reply, const Args&... values) {
  wire::Writer w;
  using wire::WireWrite;
  (WireWrite(w, values), ...);
  reply(OkStatus(), w.TakeBytes());
}

inline void ReplyOk(const ReplyFn& reply) { reply(OkStatus(), {}); }

inline void ReplyError(const ReplyFn& reply, Status status) {
  reply(std::move(status), {});
}

inline void ReplyBadArgs(const ReplyFn& reply) {
  reply(InvalidArgumentError("malformed request arguments"), {});
}

inline void ReplyBadMethod(const ReplyFn& reply, uint32_t method_id) {
  reply(UnimplementedError("unknown method id " + std::to_string(method_id)), {});
}

// Forwards a typed future's outcome as the servant's reply.
template <typename T>
void ReplyFromFuture(const ReplyFn& reply, Future<T> f) {
  f.OnReady([reply](const Result<T>& r) {
    if (!r.ok()) {
      ReplyError(reply, r.status());
    } else {
      ReplyWith(reply, r.value());
    }
  });
}

inline void ReplyFromFuture(const ReplyFn& reply, Future<void> f) {
  f.OnReady([reply](const Result<void>& r) {
    if (!r.ok()) {
      ReplyError(reply, r.status());
    } else {
      ReplyOk(reply);
    }
  });
}

}  // namespace itv::rpc

#endif  // SRC_RPC_STUB_HELPERS_H_
