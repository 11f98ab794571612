// Real TCP transport over localhost: the same rpc::Transport contract the
// simulator provides, backed by non-blocking sockets on an EventLoop.
//
// Framing: each message is [u32 length][u32 sender_host][u16 sender_port]
// [EncodeMessage body]. The sender's *listening* endpoint rides in the frame
// so msg.source identifies the peer's service address (the fd's ephemeral
// port would be useless for replies). Connections are cached per destination
// and reused in both directions.
//
// Failure mapping (mirrors sim::Network):
//   - connect refused / connection reset with a two-way request in flight
//     -> a synthesized NACK to our own receiver, so dead implementors are
//     detected immediately (one-way requests are never NACKed);
//   - anything slower (host gone, blackhole) -> the caller's RPC timeout.

#ifndef SRC_NET_TCP_TRANSPORT_H_
#define SRC_NET_TCP_TRANSPORT_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/event_loop.h"
#include "src/rpc/transport.h"

namespace itv::net {

// 127.0.0.1 as the cluster host id in real mode.
inline constexpr uint32_t kLoopbackHost = 0x7f000001;

class TcpTransport : public rpc::Transport {
 public:
  // Listens on 127.0.0.1:port (0 = kernel-assigned; see local_endpoint()).
  // Fatal if the port cannot be bound.
  TcpTransport(EventLoop& loop, uint16_t port, Metrics* metrics = nullptr);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void Send(const wire::Endpoint& dst, wire::Message msg) override;
  void SetReceiver(Receiver receiver) override { receiver_ = std::move(receiver); }
  wire::Endpoint local_endpoint() const override { return local_; }

 private:
  struct Connection {
    int fd = -1;
    bool connecting = false;
    bool closed = false;
    std::vector<uint8_t> read_buffer;
    std::deque<std::vector<uint8_t>> write_queue;
    size_t write_offset = 0;
    // Call ids of two-way requests sent on this connection and not yet
    // answered; used to synthesize NACKs if the connection dies.
    std::vector<uint64_t> inflight_requests;
    wire::Endpoint peer;  // Peer's listening endpoint (when known).
  };

  void AcceptReady();
  Connection* ConnectTo(const wire::Endpoint& dst);
  void WatchConnection(Connection* conn);
  void OnConnectionReady(Connection* conn, bool readable, bool writable);
  void FlushWrites(Connection* conn);
  void ConsumeFrames(Connection* conn);
  void CloseConnection(Connection* conn, bool nack_inflight);
  std::vector<uint8_t> FrameMessage(const wire::Message& msg);
  void DeliverLocalNack(uint64_t call_id, const wire::Endpoint& from);
  // Frame buffers recycle through a small pool, so a reply's frame reuses
  // the capacity freed by an earlier request's frame instead of allocating.
  wire::Bytes TakeFrameBuffer();
  void RecycleFrameBuffer(wire::Bytes buffer);

  EventLoop& loop_;
  Metrics* metrics_;
  Metrics::Counter* c_msg_total_ = nullptr;  // Interned on first Send().
  int listen_fd_ = -1;
  wire::Endpoint local_;
  Receiver receiver_;
  // Owned connections; keyed by destination endpoint for outgoing reuse.
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<uint64_t, Connection*> by_destination_;
  std::vector<wire::Bytes> frame_pool_;
};

}  // namespace itv::net

#endif  // SRC_NET_TCP_TRANSPORT_H_
