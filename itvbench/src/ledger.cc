#include "itvbench/src/ledger.h"

#include <array>
#include <cstdio>

#include "src/common/address.h"
#include "src/common/logging.h"
#include "src/media/mms.h"
#include "src/rpc/stub_helpers.h"

namespace itvbench {
namespace {

using itv::wire::Endpoint;
using itv::wire::Message;
using itv::wire::MsgKind;

// Interface name (without the "itv." prefix) and method names by method id
// (index 0 unused). Mirrors the method enums of the service headers.
struct InterfaceSpec {
  std::string_view name;
  std::vector<std::string_view> methods;
};

const std::vector<InterfaceSpec>& Interfaces() {
  static const std::vector<InterfaceSpec> kSpecs = {
      {"NamingContext",
       {"", "Resolve", "Bind", "Unbind", "BindNewContext", "BindReplContext",
        "List", "ListRepl", "CreateFile"}},
      {"NameReplica",
       {"", "RequestVote", "Heartbeat", "ForwardUpdate", "ApplyUpdate",
        "GetSnapshot"}},
      {"Selector", {"", "Select"}},
      {"FileSystemContext",
       {"", "Resolve", "Bind", "Unbind", "BindNewContext", "BindReplContext",
        "List", "ListRepl", "CreateFile"}},
      {"ResourceAudit", {"", "CheckStatus"}},
      {"ObjectStatusCallback", {"", "ObjectsReady", "ObjectsDead"}},
      {"ServerServiceController",
       {"", "StartService", "StopService", "ListServices", "NotifyReady",
        "RegisterCallback", "Ping", "ListObjects"}},
      {"ClusterServiceController",
       {"", "Assign", "Unassign", "GetAssignments", "IsPrimary"}},
      {"SettopManager", {"", "Heartbeat", "GetStatus", "Count"}},
      {"Database", {"", "Put", "Get", "Delete", "Scan", "ListTables"}},
      {"Auth", {"", "GetTicket"}},
      {"File", {"", "Read", "Write", "Size"}},
      {"LoadBoard", {"", "Report", "Snapshot"}},
      {"MediaManagement",
       {"", "Open", "Close", "ListSessions", "ListSessionHosts",
        "GetAdmission"}},
      {"ConnectionManager",
       {"", "Allocate", "Release", "ListConnections", "ApplyReplica",
        "SettopUsage", "Accounting"}},
      {"TrunkManager", {"", "Reserve", "Release", "Usage"}},
      {"MediaDelivery",
       {"", "Open", "GetInventory", "GetLoad", "ListSessions", "Close"}},
      {"Movie", {"", "Play", "Pause", "Position"}},
      {"MediaSink", {"", "OnData", "OnEndOfStream"}},
      {"ReliableDelivery", {"", "OpenData", "ListItems"}},
      {"DataSink", {"", "OnComplete"}},
      {"BootBroadcast", {"", "GetBootParams"}},
      {"KernelBroadcast", {"", "GetKernelInfo", "SetKernelInfo"}},
      {"ShardMap", {""}},
  };
  return kSpecs;
}

// The last slot collects unknown interfaces.
uint16_t UnknownInterface() { return static_cast<uint16_t>(Interfaces().size()); }

uint64_t PackEndpoint(const Endpoint& e) {
  return (static_cast<uint64_t>(e.host) << 16) | e.port;
}

std::string InterfaceName(uint16_t iface) {
  if (iface >= Interfaces().size()) {
    return "Unknown";
  }
  return std::string(Interfaces()[iface].name);
}

// Index of a named interface ("MediaManagement"); fatal when unknown.
uint16_t InterfaceIndex(std::string_view name) {
  for (size_t i = 0; i < Interfaces().size(); ++i) {
    if (Interfaces()[i].name == name) {
      return static_cast<uint16_t>(i);
    }
  }
  ITV_CHECK(false) << "unknown interface " << name;
  return 0;
}

// Arrival time at `dst` of a message the tap saw sent at `sent`.
Time ArrivalAt(const itv::sim::NetworkOptions& network, uint32_t src_host,
               uint32_t dst_host, Time sent) {
  bool settop = itv::IsSettopHost(src_host) || itv::IsSettopHost(dst_host);
  return sent + (settop ? network.server_settop_latency
                        : network.server_server_latency);
}

// Open-path methods whose request -> reply latency the report prints.
constexpr std::array<std::string_view, 5> kLatencyMethods = {
    "MediaManagement.Open", "ConnectionManager.Allocate",
    "TrunkManager.Reserve", "MediaDelivery.Open", "Movie.Play",
};

int SlotOf(std::string_view method) {
  size_t dot = method.find('.');
  ITV_CHECK(dot != std::string_view::npos) << "bad method name " << method;
  uint16_t iface = InterfaceIndex(method.substr(0, dot));
  const auto& names = Interfaces()[iface].methods;
  for (size_t m = 1; m < names.size(); ++m) {
    if (names[m] == method.substr(dot + 1)) {
      return iface * kMethodSlots + static_cast<int>(m);
    }
  }
  ITV_CHECK(false) << "unknown method " << method;
  return -1;
}

}  // namespace

size_t InterfaceCount() { return Interfaces().size() + 1; }

std::string MethodName(uint16_t iface, uint16_t method) {
  std::string out = InterfaceName(iface) + ".";
  if (iface < Interfaces().size() &&
      method < Interfaces()[iface].methods.size() &&
      !Interfaces()[iface].methods[method].empty()) {
    return out + std::string(Interfaces()[iface].methods[method]);
  }
  return out + "m" + std::to_string(method);
}

uint64_t Ledger::Tally::Reqs(std::string_view method) const {
  return reqs[SlotOf(method)];
}

uint64_t Ledger::Tally::SettopReqs(std::string_view method) const {
  return settop_reqs[SlotOf(method)];
}

Ledger::Ledger(itv::sim::Cluster& cluster,
               const itv::sim::NetworkOptions& network,
               itv::trace::TraceBuffer* spans, size_t span_budget)
    : cluster_(cluster),
      network_(network),
      spans_(spans),
      span_budget_(span_budget) {
  size_t slots = InterfaceCount() * kMethodSlots;
  tally_.reqs.assign(slots, 0);
  tally_.settop_reqs.assign(slots, 0);
  latency_.resize(slots);
  keep_latency_.assign(slots, false);
  for (std::string_view method : kLatencyMethods) {
    keep_latency_[SlotOf(method)] = true;
  }
  for (size_t i = 0; i < Interfaces().size(); ++i) {
    std::string full = "itv." + std::string(Interfaces()[i].name);
    iface_by_type_[itv::wire::TypeIdFromName(full)] = static_cast<uint16_t>(i);
  }
  cluster_.network().SetTap(
      [this](const Endpoint& src, const Endpoint& dst, const Message& msg) {
        OnMessage(src, dst, msg);
      });
}

Ledger::~Ledger() { cluster_.network().SetTap(nullptr); }

Ledger::MethodId Ledger::Classify(const Message& msg) {
  auto it = iface_by_type_.find(msg.type_id);
  MethodId id;
  id.iface = it == iface_by_type_.end() ? UnknownInterface() : it->second;
  id.method = static_cast<uint16_t>(
      msg.method_id < kMethodSlots ? msg.method_id : kMethodSlots - 1);
  return id;
}

void Ledger::OnMessage(const Endpoint& src, const Endpoint& dst,
                       const Message& msg) {
  ++tally_.msgs;
  // Same per-message size model as sim::Network's net.bytes.total.
  tally_.bytes += msg.payload.size() + 64;
  switch (msg.kind) {
    case MsgKind::kRequest: {
      MethodId method = Classify(msg);
      size_t slot = method.iface * kMethodSlots + method.method;
      ++tally_.reqs[slot];
      if (itv::IsSettopHost(src.host)) {
        ++tally_.settop_reqs[slot];
      }
      static const uint16_t kSink = InterfaceIndex("MediaSink");
      if (method.iface == kSink) {
        OnChunk(src, dst, msg);
        return;
      }
      ++tally_.control;
      OnControlRequest(src, dst, msg, method);
      return;
    }
    case MsgKind::kReply:
      // Settops serve nothing but their MediaSink in these workloads (the
      // workloads check it), so a settop's reply is data-plane traffic.
      if (itv::IsSettopHost(src.host)) {
        return;
      }
      ++tally_.control;
      OnAnswer(src, dst, msg);
      return;
    case MsgKind::kNack:
      ++tally_.control;
      ++tally_.nacks;
      OnAnswer(src, dst, msg);
      return;
  }
}

void Ledger::OnControlRequest(const Endpoint& src, const Endpoint& dst,
                              const Message& msg, MethodId method) {
  if (itv::IsSettopHost(dst.host)) {
    ++tally_.control_to_settops;
  }
  Pending call;
  call.sent = cluster_.Now();
  call.method = method;
  call.src = src;
  call.dst = dst;
  static const uint16_t kMms = InterfaceIndex("MediaManagement");
  if (method.iface == kMms && method.method == itv::media::kMmsMethodOpen) {
    auto it = open_by_settop_.find(src.host);
    if (it != open_by_settop_.end()) {
      call.open = static_cast<int64_t>(it->second);
      ++opens_[it->second].open_requests;
    }
  }
  pending_[CallKey{PackEndpoint(src), msg.call_id}] = call;
}

void Ledger::OnAnswer(const Endpoint& src, const Endpoint& dst,
                      const Message& msg) {
  auto it = pending_.find(CallKey{PackEndpoint(dst), msg.call_id});
  if (it == pending_.end()) {
    return;  // Answers a request sent before the tap was installed.
  }
  Pending call = it->second;
  pending_.erase(it);
  Time now = cluster_.Now();
  bool nack = msg.kind == MsgKind::kNack;
  if (!nack && msg.status == itv::StatusCode::kOk) {
    size_t slot = call.method.iface * kMethodSlots + call.method.method;
    if (keep_latency_[slot]) {
      latency_[slot].Record((now - call.sent).seconds());
    }
    if (call.open >= 0) {
      Open& open = opens_[static_cast<size_t>(call.open)];
      if (!open.ticket.has_value()) {
        itv::media::MmsTicket ticket;
        if (itv::rpc::DecodeArgs(msg.payload, &ticket)) {
          open.ticket = ArrivalAt(network_, src.host, dst.host, now);
          open.stream_id = ticket.stream_id;
          open.sibling_ok = open.open_requests > 1;
        }
      }
    }
  }
  if (spans_ != nullptr) {
    RpcSpan(call, now,
            nack ? "nack"
                 : std::string(itv::StatusCodeName(msg.status)));
  }
}

void Ledger::OnChunk(const Endpoint& src, const Endpoint& dst,
                     const Message& msg) {
  if (msg.method_id != itv::media::kSinkMethodOnData) {
    return;
  }
  Time arrival = ArrivalAt(network_, src.host, dst.host, cluster_.Now());
  if (auto it = open_by_settop_.find(dst.host); it != open_by_settop_.end()) {
    Open& open = opens_[it->second];
    if (open.ticket.has_value() && !open.picture.has_value()) {
      uint64_t stream_id = 0;
      int64_t position = 0;
      uint32_t chunk = 0;
      if (itv::rpc::DecodeArgs(msg.payload, &stream_id, &position, &chunk) &&
          stream_id == open.stream_id) {
        open.picture = arrival;
      }
    }
  }
  if (auto it = viewers_.find(dst.host); it != viewers_.end()) {
    Viewer& viewer = it->second;
    if (viewer.last.has_value() &&
        arrival - *viewer.last > viewer.period + viewer.period / 2) {
      stalls_.push_back(Stall{dst.host, *viewer.last, arrival});
    }
    viewer.last = arrival;
  }
}

size_t Ledger::BeginOpen(uint32_t settop, Time due) {
  Open open;
  open.settop = settop;
  open.due = due;
  opens_.push_back(open);
  size_t id = opens_.size() - 1;
  open_by_settop_[settop] = id;
  return id;
}

void Ledger::FinishOpen(size_t id, itv::Status status) {
  Open& open = opens_[id];
  if (!open.finished) {
    open.finished = true;
    open.final_status = std::move(status);
  }
}

void Ledger::WatchViewer(uint32_t settop, Duration chunk_period) {
  viewers_[settop] = Viewer{chunk_period, std::nullopt};
}

std::optional<Time> Ledger::LastChunk(uint32_t settop) const {
  auto it = viewers_.find(settop);
  return it == viewers_.end() ? std::nullopt : it->second.last;
}

const itv::Histogram* Ledger::RpcLatency(std::string_view method) const {
  return &latency_[SlotOf(method)];
}

std::string Ledger::Identity(const Endpoint& endpoint) {
  itv::sim::Process* process = cluster_.ProcessAtEndpoint(endpoint);
  return process != nullptr ? process->log_identity() : endpoint.ToString();
}

void Ledger::RpcSpan(const Pending& call, Time end, const std::string& outcome) {
  if (spans_recorded_ >= span_budget_) {
    ++spans_skipped_;
    return;
  }
  ++spans_recorded_;
  itv::trace::TraceEvent e;
  e.kind = itv::trace::EventKind::kSpan;
  e.trace_id = spans_->NextId();
  e.span_id = spans_->NextId();
  e.begin = call.sent;
  e.duration = end - call.sent;
  e.name = "rpc." + MethodName(call.method.iface, call.method.method);
  e.detail = Identity(call.src) + " -> " + Identity(call.dst) + " " + outcome;
  itv::sim::Node* node = cluster_.FindNode(call.src.host);
  e.node = node != nullptr ? node->name() : call.src.ToString();
  e.process = Identity(call.src);
  e.pid = PackEndpoint(call.src);
  spans_->Push(std::move(e));
}

uint64_t Ledger::RootSpan(const std::string& name, Time begin, Time end,
                          const std::string& detail) {
  if (spans_ == nullptr) {
    return 0;
  }
  itv::trace::TraceEvent e;
  e.kind = itv::trace::EventKind::kSpan;
  e.trace_id = spans_->NextId();
  e.span_id = e.trace_id;
  e.begin = begin;
  e.duration = end - begin;
  e.name = name;
  e.detail = detail;
  e.node = "itvbench";
  e.process = "workload";
  uint64_t root = e.trace_id;
  spans_->Push(std::move(e));
  return root;
}

void Ledger::ChildSpan(uint64_t root, const std::string& name, Time begin,
                       Time end, const std::string& detail) {
  if (spans_ == nullptr || root == 0) {
    return;
  }
  itv::trace::TraceEvent e;
  e.kind = itv::trace::EventKind::kSpan;
  e.trace_id = root;
  e.span_id = spans_->NextId();
  e.parent_span_id = root;
  e.begin = begin;
  e.duration = end - begin;
  e.name = name;
  e.detail = detail;
  e.node = "itvbench";
  e.process = "workload";
  spans_->Push(std::move(e));
}

void Ledger::FlushUnanswered() {
  if (spans_ == nullptr) {
    return;
  }
  Time now = cluster_.Now();
  for (const auto& [key, call] : pending_) {
    RpcSpan(call, now, "timeout");
  }
}

}  // namespace itvbench
