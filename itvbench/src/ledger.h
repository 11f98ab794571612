// Message and latency ledger for the ITV benchmark.
//
// The ledger sees the simulated cluster only from outside, through the
// public sim::Network tap: every routed message with its kind, type_id,
// method_id, call_id, endpoints and the sim time it was sent. From that it
// keeps
//
//   - a running tally of messages, bytes and NACKs, split into control
//     traffic and the MediaSink data plane, and request counts per
//     (interface, method), all and settop-originated, so a workload can
//     difference two snapshots into a background or foreground window;
//   - the open timeline of each benchmark-issued open (due -> successful
//     MediaManagement.Open reply at the settop -> first MediaSink.OnData at
//     the settop), matched by call_id and stream_id rather than by polling
//     VodApp::playing();
//   - request -> reply latency of the open-path RPCs the report names;
//   - per-viewer chunk arrivals, from which stalls (interruptions) follow;
//   - optionally, one Chrome-trace span per control RPC in a TraceBuffer the
//     benchmark owns (the traced run).
//
// Arrival times add the link latency of the sim::NetworkOptions the cluster
// was booted with to the tap's send time.

#ifndef ITVBENCH_SRC_LEDGER_H_
#define ITVBENCH_SRC_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/common/trace.h"
#include "src/sim/cluster.h"
#include "src/wire/message.h"

namespace itvbench {

using itv::Duration;
using itv::Time;

// Interface and method names for every IDL interface the cluster serves.
// Requests with an unknown type id count under "Unknown", method ids without
// a name as "m<id>".
size_t InterfaceCount();
std::string MethodName(uint16_t iface, uint16_t method);  // "MediaManagement.Open".

// Method slots per interface in the request tables.
inline constexpr uint16_t kMethodSlots = 16;

class Ledger {
 public:
  struct Tally {
    uint64_t msgs = 0;
    uint64_t bytes = 0;
    // Everything except MediaSink traffic (its requests and the settops'
    // replies).
    uint64_t control = 0;
    uint64_t nacks = 0;
    uint64_t control_to_settops = 0;  // Control requests a settop served.
    std::vector<uint64_t> reqs;         // [iface * kMethodSlots + method]
    std::vector<uint64_t> settop_reqs;  // Same, settop-originated only.
    uint64_t Reqs(std::string_view method) const;  // "Iface.method"
    uint64_t SettopReqs(std::string_view method) const;
  };

  struct Open {
    uint32_t settop = 0;
    Time due;
    std::optional<Time> ticket;   // Successful Open reply reaches the settop.
    std::optional<Time> picture;  // First OnData of that stream arrives.
    uint64_t stream_id = 0;
    uint32_t open_requests = 0;   // >1: a sibling retry was sent.
    bool sibling_ok = false;      // A retried Open succeeded.
    bool finished = false;        // VodApp reported a final status.
    itv::Status final_status;
  };

  // A stalled viewer stream: last chunk before the gap -> first chunk after.
  struct Stall {
    uint32_t settop = 0;
    Time last_before;
    Time first_after;
  };

  // `network` must be the options `cluster` was built with. `spans` may be
  // null: no per-RPC spans (the untraced run).
  Ledger(itv::sim::Cluster& cluster, const itv::sim::NetworkOptions& network,
         itv::trace::TraceBuffer* spans, size_t span_budget);
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  const Tally& tally() const { return tally_; }

  // Opens issued by the benchmark; at most one pending per settop.
  size_t BeginOpen(uint32_t settop, Time due);
  void FinishOpen(size_t id, itv::Status status);
  const std::vector<Open>& opens() const { return opens_; }

  // Viewers whose chunk stream is watched for stalls (gaps longer than
  // 1.5 chunk periods).
  void WatchViewer(uint32_t settop, Duration chunk_period);
  const std::vector<Stall>& stalls() const { return stalls_; }
  std::optional<Time> LastChunk(uint32_t settop) const;

  // Request -> reply latency (sim seconds, send to reply send) of completed
  // calls since construction, for the five open-path methods
  // (MediaManagement.Open, ConnectionManager.Allocate, TrunkManager.Reserve,
  // MediaDelivery.Open, Movie.Play).
  const itv::Histogram* RpcLatency(std::string_view method) const;
  // Control requests that saw neither a reply nor a NACK.
  size_t unanswered() const { return pending_.size(); }

  // Spans: pushes a root span for a benchmark-level operation (open, fault)
  // with optional children, under the ledger's TraceBuffer. No-op untraced.
  uint64_t RootSpan(const std::string& name, Time begin, Time end,
                    const std::string& detail);
  void ChildSpan(uint64_t root, const std::string& name, Time begin, Time end,
                 const std::string& detail);
  // Emits spans for requests still unanswered (flagged as timeouts).
  void FlushUnanswered();
  uint64_t spans_recorded() const { return spans_recorded_; }
  uint64_t spans_skipped() const { return spans_skipped_; }

 private:
  struct MethodId {
    uint16_t iface = 0;
    uint16_t method = 0;
  };
  struct CallKey {
    uint64_t endpoint;
    uint64_t call_id;
    friend bool operator==(const CallKey&, const CallKey&) = default;
  };
  struct CallKeyHash {
    size_t operator()(const CallKey& k) const {
      return std::hash<uint64_t>()(k.endpoint * 0x9e3779b97f4a7c15ull ^
                                   k.call_id);
    }
  };
  struct Pending {
    Time sent;
    MethodId method;
    itv::wire::Endpoint src;
    itv::wire::Endpoint dst;
    int64_t open = -1;  // Benchmark open this MediaManagement.Open serves.
  };
  struct Viewer {
    Duration period;
    std::optional<Time> last;
  };

  void OnMessage(const itv::wire::Endpoint& src, const itv::wire::Endpoint& dst,
                 const itv::wire::Message& msg);
  void OnControlRequest(const itv::wire::Endpoint& src,
                        const itv::wire::Endpoint& dst,
                        const itv::wire::Message& msg, MethodId method);
  void OnAnswer(const itv::wire::Endpoint& src, const itv::wire::Endpoint& dst,
                const itv::wire::Message& msg);
  void OnChunk(const itv::wire::Endpoint& src, const itv::wire::Endpoint& dst,
               const itv::wire::Message& msg);
  void RpcSpan(const Pending& call, Time end, const std::string& outcome);
  std::string Identity(const itv::wire::Endpoint& endpoint);
  MethodId Classify(const itv::wire::Message& msg);

  itv::sim::Cluster& cluster_;
  const itv::sim::NetworkOptions network_;
  itv::trace::TraceBuffer* spans_;
  size_t span_budget_;
  uint64_t spans_recorded_ = 0;
  uint64_t spans_skipped_ = 0;

  Tally tally_;
  std::unordered_map<uint64_t, uint16_t> iface_by_type_;
  std::unordered_map<CallKey, Pending, CallKeyHash> pending_;
  std::vector<Open> opens_;
  std::unordered_map<uint32_t, size_t> open_by_settop_;
  std::unordered_map<uint32_t, Viewer> viewers_;
  std::vector<Stall> stalls_;
  std::vector<itv::Histogram> latency_;  // [iface * kMethodSlots + method]
  std::vector<bool> keep_latency_;
};

}  // namespace itvbench

#endif  // ITVBENCH_SRC_LEDGER_H_
