// Shared types of the ITV media stack (paper Sections 3.3-3.5).

#ifndef SRC_MEDIA_TYPES_H_
#define SRC_MEDIA_TYPES_H_

#include <string>
#include <vector>

#include "src/common/future.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"
#include "src/wire/object_ref.h"

namespace itv::media {

// Orlando deployment numbers (paper Section 3.1): "each settop is allowed a
// maximum of 50 Kbits per second from the settop to the server and 6 Mbits
// per second from the server to the settop."
inline constexpr int64_t kSettopDownstreamBps = 6'000'000;
inline constexpr int64_t kSettopUpstreamBps = 50'000;

struct MovieInfo {
  std::string title;
  int64_t bitrate_bps = 0;   // Constant-bit-rate stream (e.g. 3 Mb/s MPEG).
  int64_t size_bytes = 0;

  friend bool operator==(const MovieInfo&, const MovieInfo&) = default;
};

inline void WireWrite(wire::Writer& w, const MovieInfo& m) {
  w.WriteString(m.title);
  w.WriteI64(m.bitrate_bps);
  w.WriteI64(m.size_bytes);
}
inline void WireRead(wire::Reader& r, MovieInfo* m) {
  m->title = r.ReadString();
  m->bitrate_bps = r.ReadI64();
  m->size_bytes = r.ReadI64();
}

// A granted network connection (Connection Manager).
struct ConnectionGrant {
  uint64_t connection_id = 0;
  uint32_t settop_host = 0;
  uint32_t server_host = 0;
  int64_t downstream_bps = 0;

  friend bool operator==(const ConnectionGrant&, const ConnectionGrant&) = default;
};

inline void WireWrite(wire::Writer& w, const ConnectionGrant& c) {
  w.WriteU64(c.connection_id);
  w.WriteU32(c.settop_host);
  w.WriteU32(c.server_host);
  w.WriteI64(c.downstream_bps);
}
inline void WireRead(wire::Reader& r, ConnectionGrant* c) {
  c->connection_id = r.ReadU64();
  c->settop_host = r.ReadU32();
  c->server_host = r.ReadU32();
  c->downstream_bps = r.ReadI64();
}

// --- MediaSink -------------------------------------------------------------------
// The settop-side object that receives stream data. The MDS posts OnData
// periodically while a movie plays; a gap in arrivals is how the settop
// application detects an MDS/server crash (paper Section 3.5.2: "the
// application detects the failure when it stops receiving data"). Both
// methods are one-way: the MDS never learns whether a chunk arrived.

inline constexpr std::string_view kMediaSinkInterface = "itv.MediaSink";

enum MediaSinkMethod : uint32_t {
  kSinkMethodOnData = 1,
  kSinkMethodOnEndOfStream = 2,
};

class MediaSinkProxy : public rpc::Proxy {
 public:
  using Proxy::Proxy;
  void OnData(uint64_t stream_id, int64_t position_bytes, uint32_t chunk_bytes) const {
    Post(kSinkMethodOnData, rpc::EncodeArgs(stream_id, position_bytes, chunk_bytes));
  }
  void OnEndOfStream(uint64_t stream_id) const {
    Post(kSinkMethodOnEndOfStream, rpc::EncodeArgs(stream_id));
  }
};

}  // namespace itv::media

#endif  // SRC_MEDIA_TYPES_H_
