#include "itvbench/src/workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "itvbench/src/ledger.h"
#include "itvbench/src/reference.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/common/strings.h"
#include "src/load/load_board.h"
#include "src/media/cmgr.h"
#include "src/media/factories.h"
#include "src/media/mds.h"
#include "src/media/mms.h"
#include "src/rpc/binding_table.h"
#include "src/settop/vod_app.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"
#include "src/wire/shard_map.h"

namespace itvbench {
namespace {

using itv::Histogram;
using itv::Rng;
using itv::Status;

// --- Host measurements ---------------------------------------------------------

// Peak resident set size of this process (VmHWM), KiB. Not getrusage's
// ru_maxrss: that survives exec, so it starts at the spawning process's size.
double PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0;
}

// --- Generated inputs ------------------------------------------------------------

// FNV-1a over the generated inputs, so a run can show that the seed (and
// nothing else) chose them.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) { Add(static_cast<uint64_t>(std::llround(v * 1e6))); }
  std::string Hex() const { return itv::StrFormat("%016llx", static_cast<unsigned long long>(h_)); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Arrival {
  double at_s = 0;     // Offset from the start of the arrivals window.
  size_t settop = 0;   // Index into the workload's open-loop population.
  size_t title = 0;
  double hold_s = 0;   // Viewing time before Stop().
};

constexpr double kMinHoldS = 2.0;

// Poisson arrivals at `rate`/s over [0, horizon_s); holds are kMinHoldS plus
// an exponential, `mean_hold_s` on average.
// Each arrival picks an idle settop (one session per settop at a time);
// with probability `hot_share` it picks among the `hot` settops.
std::vector<Arrival> GenerateArrivals(uint64_t seed, double rate,
                                      double mean_hold_s, double horizon_s,
                                      const std::vector<bool>& hot,
                                      double hot_share, size_t titles) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x1995);
  std::vector<size_t> hot_ids;
  std::vector<size_t> cold_ids;
  for (size_t i = 0; i < hot.size(); ++i) {
    (hot[i] ? hot_ids : cold_ids).push_back(i);
  }
  // A settop is busy until its hold ends plus a margin for the close.
  std::vector<double> busy_until(hot.size(), -1);
  std::vector<Arrival> out;
  double t = rng.Exponential(1.0 / rate);
  while (t < horizon_s) {
    const std::vector<size_t>& pool =
        !hot_ids.empty() && rng.Bernoulli(hot_share) ? hot_ids : cold_ids;
    size_t first = rng.Below(pool.size());
    for (size_t probe = 0; probe < pool.size(); ++probe) {
      size_t pick = pool[(first + probe) % pool.size()];
      if (busy_until[pick] <= t) {
        Arrival a;
        a.at_s = t;
        a.settop = pick;
        a.title = rng.Below(titles);
        // Every viewer watches at least kMinHold, so an open is never
        // stopped before its first chunk is due.
        a.hold_s = kMinHoldS + rng.Exponential(mean_hold_s - kMinHoldS);
        busy_until[pick] = t + a.hold_s + 5.0;
        out.push_back(a);
        break;
      }
    }
    t += rng.Exponential(1.0 / rate);
  }
  return out;
}

// `count` stream starts, one per settop in order, Poisson-spaced at `rate`.
std::vector<Arrival> GenerateStarts(uint64_t seed, size_t count, double rate,
                                    size_t titles) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x4000);
  std::vector<Arrival> out(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += rng.Exponential(1.0 / rate);
    out[i].at_s = t;
    out[i].settop = i;
    out[i].title = rng.Below(titles);
    out[i].hold_s = 1e9;  // Long movies: no stop inside the run.
  }
  return out;
}

void DigestArrivals(Digest& d, const std::vector<Arrival>& arrivals) {
  for (const Arrival& a : arrivals) {
    d.Add(a.at_s);
    d.Add(static_cast<uint64_t>(a.settop));
    d.Add(static_cast<uint64_t>(a.title));
    d.Add(a.hold_s);
  }
}

// --- Windows -----------------------------------------------------------------------

// Everything a window difference needs, captured at one instant.
struct Snap {
  Time at;
  double cpu = 0;
  uint64_t events = 0;
  Ledger::Tally tally;
  std::map<std::string, uint64_t, std::less<>> counters;
};

Snap Take(itv::svc::ClusterHarness& harness, const Ledger& ledger) {
  Snap s;
  s.at = harness.cluster().Now();
  s.cpu = CpuSeconds();
  s.events = harness.cluster().scheduler().executed_events();
  s.tally = ledger.tally();
  s.counters = harness.metrics().counters();
  return s;
}

uint64_t SumPrefix(const Snap& s, std::string_view prefix) {
  uint64_t total = 0;
  for (auto it = s.counters.lower_bound(prefix); it != s.counters.end(); ++it) {
    if (!itv::StartsWith(it->first, prefix)) {
      break;
    }
    total += it->second;
  }
  return total;
}

struct Window {
  Snap begin;
  Snap end;
  double seconds() const { return (end.at - begin.at).seconds(); }
  uint64_t Counter(std::string_view prefix) const {
    return SumPrefix(end, prefix) - SumPrefix(begin, prefix);
  }
  uint64_t Reqs(std::string_view method) const {
    return end.tally.Reqs(method) - begin.tally.Reqs(method);
  }
  uint64_t SettopReqs(std::string_view method) const {
    return end.tally.SettopReqs(method) - begin.tally.SettopReqs(method);
  }
  uint64_t Control() const { return end.tally.control - begin.tally.control; }
  uint64_t Msgs() const { return end.tally.msgs - begin.tally.msgs; }
  uint64_t Bytes() const { return end.tally.bytes - begin.tally.bytes; }
  uint64_t Nacks() const { return end.tally.nacks - begin.tally.nacks; }
  uint64_t Events() const { return end.events - begin.events; }
};

// Runs a measured window in 2 sim-s steps and, between steps, times a
// reference lap whenever this process has used the probe's lap interval of
// CPU. The laps thus sample the host's speed all through the window, on the
// CPU the window runs on. Stepping changes nothing the simulation does.
class LapClock {
 public:
  LapClock(itv::sim::Cluster& cluster, ReferenceProbe& reference)
      : cluster_(cluster), reference_(reference), next_(cluster.Now() + kStep) {}

  void RunUntil(Time t) {
    while (next_ <= t) {
      cluster_.RunUntil(next_);
      reference_.MaybeLap();
      next_ = next_ + kStep;
    }
    cluster_.RunUntil(t);
  }
  void RunFor(Duration d) { RunUntil(cluster_.Now() + d); }

 private:
  static constexpr Duration kStep = Duration::Seconds(2);

  itv::sim::Cluster& cluster_;
  ReferenceProbe& reference_;
  Time next_;
};

Window Join(const Window& first, const Window& last) {
  return Window{first.begin, last.end};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Cluster set-up ------------------------------------------------------------------

struct Shape {
  size_t servers = 8;
  uint32_t mms_shards = 4;
  size_t mms_replicas = 4;
  size_t titles = 64;
  int64_t mds_capacity_bps = 48'000'000;
  int64_t trunk_capacity_bps = 400'000'000;
  Duration chunk_period = Duration::Millis(500);
  bool paper_failover_timings = false;
};

std::unique_ptr<itv::svc::ClusterHarness> Boot(const Shape& shape,
                                              Duration settle) {
  itv::svc::HarnessOptions opts;
  opts.server_count = shape.servers;
  opts.neighborhood_count = static_cast<uint8_t>(shape.servers);
  if (shape.paper_failover_timings) {
    // Paper Section 9.7: bind retry 10 s, NS audit 10 s, RAS poll 5 s.
    opts.binder.retry_interval = Duration::Seconds(10);
    opts.ns.audit_interval = Duration::Seconds(10);
    opts.ras.peer_poll_interval = Duration::Seconds(5);
    opts.ras.peer_failures_to_dead = 1;
    opts.ras.rpc_timeout = Duration::Seconds(1);
  }
  auto harness = std::make_unique<itv::svc::ClusterHarness>(opts);
  itv::media::MediaDeployment deploy;
  deploy.movies = itv::media::SyntheticCatalog(shape.titles, shape.servers,
                                               /*replicas=*/2);
  deploy.mds_capacity_bps = shape.mds_capacity_bps;
  deploy.trunk_capacity_bps = shape.trunk_capacity_bps;
  deploy.mds_chunk_period = shape.chunk_period;
  deploy.mms_shards = shape.mms_shards;
  deploy.mms_replicas = shape.mms_replicas;
  deploy.load_board = true;
  if (shape.paper_failover_timings) {
    // Opens whose ticket reply is lost in a fault window leave never-played
    // streams; the MDS reclaims them (as the chaos deployment does).
    deploy.mds_unplayed_grace = Duration::Seconds(20);
  }
  itv::media::RegisterMediaServices(*harness, deploy);
  harness->Boot();
  harness->cluster().RunFor(settle);
  return harness;
}

struct Settop {
  itv::sim::Node* node = nullptr;
  itv::sim::Process* process = nullptr;
  itv::settop::VodApp* vod = nullptr;
};

itv::settop::VodApp::Options VodOptions(bool fault_tolerant) {
  itv::settop::VodApp::Options vopts;
  vopts.load_board_path = std::string(itv::load::kLoadBoardName);
  if (fault_tolerant) {
    // The chaos viewers' budget: enough rebind attempts to ride out one
    // fail-over (25 s bound), finite so an open never spins forever, and
    // jittered so the settops one fault hits do not retry in lock-step (the
    // caller gives each settop its own jitter_seed).
    vopts.mms_rebind.max_attempts = 50;
    vopts.mms_rebind.initial_backoff = Duration::Millis(500);
    vopts.mms_rebind.backoff_multiplier = 1.2;
    vopts.mms_rebind.deadline = Duration::Seconds(30);
    vopts.mms_rebind.backoff_jitter = 0.25;
  }
  return vopts;
}

Settop AddVodSettop(itv::svc::ClusterHarness& harness, uint8_t neighborhood,
                    const itv::settop::VodApp::Options& vopts) {
  Settop s;
  s.node = &harness.AddSettop(neighborhood);
  s.process = &s.node->Spawn("settop");
  s.vod = s.process->Emplace<itv::settop::VodApp>(
      s.process->runtime(), s.process->executor(),
      harness.ClientFor(*s.process), vopts, &harness.metrics());
  return s;
}

std::string Title(size_t index) { return "movie-" + std::to_string(index); }

// Schedules `arrivals` on the open-loop `population`, starting now: each
// arrival opens at its due time through the ledger and stops after its hold.
void ScheduleArrivals(itv::svc::ClusterHarness& harness, Ledger& ledger,
                      const std::vector<Arrival>& arrivals,
                      const std::vector<Settop>& population) {
  itv::sim::Scheduler& scheduler = harness.cluster().scheduler();
  Time start = scheduler.Now();
  for (const Arrival& a : arrivals) {
    const Settop* s = &population[a.settop];
    Time due = start + Duration::Seconds(a.at_s);
    std::string title = Title(a.title);
    scheduler.ScheduleAt(due, [&ledger, s, due, title] {
      if (s->vod->playing()) {
        s->vod->Stop();  // Still opening from a slow earlier arrival.
      }
      size_t id = ledger.BeginOpen(s->node->host(), due);
      s->vod->PlayMovie(title, [&ledger, id](Status status) {
        ledger.FinishOpen(id, std::move(status));
      });
    });
    scheduler.ScheduleAt(due + Duration::Seconds(a.hold_s),
                         [s] { s->vod->Stop(); });
  }
}

// --- Probes (after the measured windows) -----------------------------------------------

template <typename T>
itv::Result<T> Await(itv::sim::Cluster& cluster, itv::Future<T> f,
                     Duration limit = Duration::Seconds(10)) {
  Time deadline = cluster.Now() + limit;
  while (!f.is_ready() && cluster.Now() < deadline) {
    cluster.RunFor(Duration::Millis(50));
  }
  if (!f.is_ready()) {
    return itv::DeadlineExceededError("probe timed out");
  }
  return f.result();
}

bool PointsAtLiveProcess(itv::sim::Cluster& cluster,
                         const itv::wire::ObjectRef& ref) {
  if (ref.incarnation == 0 || itv::wire::IsShardMapRef(ref)) {
    return true;
  }
  itv::sim::Process* p = cluster.ProcessAtEndpoint(ref.endpoint);
  return p != nullptr && p->incarnation() == ref.incarnation;
}

// Every shard's admission ledger, read like E2c and the chaos invariant do:
// grants may never have exceeded the pool.
Check CheckAdmissionSound(itv::svc::ClusterHarness& harness, uint32_t shards) {
  Check check{"admission_peak_within_pool", true, ""};
  itv::sim::Process& probe = harness.SpawnProcessOn(0, "bench-admission");
  itv::naming::NameClient nc = harness.ClientFor(probe);
  itv::wire::ShardMap map{shards, itv::wire::kDefaultShardSalt};
  for (uint32_t s = 0; s < shards; ++s) {
    auto ref = Await(harness.cluster(),
                     nc.Resolve(itv::wire::ShardPath(itv::media::kMmsName, s, map)));
    if (!ref.ok()) {
      check.ok = false;
      check.detail += itv::StrFormat("shard %u unresolvable; ", s + 1);
      continue;
    }
    auto state = Await(harness.cluster(),
                       itv::media::MmsProxy(probe.runtime(), *ref).GetAdmission());
    if (!state.ok()) {
      check.ok = false;
      check.detail += itv::StrFormat("shard %u ledger unreadable; ", s + 1);
      continue;
    }
    check.detail += itv::StrFormat(
        "shard %u peak %lld/%lld; ", s + 1,
        static_cast<long long>(state->peak_granted_bps),
        static_cast<long long>(state->pool_bps));
    if (state->peak_granted_bps > state->pool_bps) {
      check.ok = false;
    }
  }
  return check;
}

// No MDS replica may hold a session once every viewer has stopped.
Check CheckNoMdsSessions(itv::svc::ClusterHarness& harness) {
  Check check{"no_mds_sessions_after_drain", true, ""};
  itv::sim::Process& probe = harness.SpawnProcessOn(0, "bench-mds");
  itv::naming::NameClient nc = harness.ClientFor(probe);
  size_t total = 0;
  for (size_t i = 0; i < harness.server_count(); ++i) {
    auto ref = Await(harness.cluster(),
                     nc.Resolve("svc/mds/" + std::to_string(i + 1)));
    if (!ref.ok()) {
      check.ok = false;
      check.detail += "svc/mds/" + std::to_string(i + 1) + " unresolvable; ";
      continue;
    }
    auto sessions = Await(harness.cluster(),
                          itv::media::MdsProxy(probe.runtime(), *ref).ListSessions());
    if (!sessions.ok()) {
      check.ok = false;
      check.detail += "svc/mds/" + std::to_string(i + 1) + " unreadable; ";
      continue;
    }
    total += sessions->size();
  }
  if (total > 0) {
    check.ok = false;
  }
  check.detail += itv::StrFormat("%zu sessions left", total);
  return check;
}

// --- Metrics common to every workload ---------------------------------------------

// The windows a workload hands to Summarize:
//   measured: host CPU and every per-sim-second rate;
//   bg:       background per server-second (the ledger's bg column);
//   fg:       the window its opens ran in, with fg_base the open-free window
//             whose per-second rate is subtracted from it.
struct Windows {
  Window measured;
  Window bg;
  Window fg;
  Window fg_base;
};

// Methods the per-layer report follows one by one: the open path and the
// busiest background loops.
const std::vector<std::string>& LayerMethods() {
  static const std::vector<std::string> kMethods = {
      "NamingContext.Resolve",       "MediaManagement.Open",
      "MediaManagement.Close",       "ConnectionManager.Allocate",
      "ConnectionManager.Release",   "TrunkManager.Reserve",
      "TrunkManager.Release",        "MediaDelivery.Open",
      "MediaDelivery.Close",         "Movie.Play",
      "LoadBoard.Snapshot",          "LoadBoard.Report",
      "NameReplica.Heartbeat",       "ServerServiceController.Ping",
      "ServerServiceController.ListObjects", "ResourceAudit.CheckStatus",
      "SettopManager.Heartbeat",     "MediaDelivery.ListSessions",
      "MediaDelivery.GetLoad",       "MediaManagement.ListSessions",
      "ConnectionManager.ApplyReplica",
  };
  return kMethods;
}

void Summarize(Record& r, itv::svc::ClusterHarness& harness,
               const Ledger& ledger, const Windows& w) {
  const std::vector<Ledger::Open>& opens = ledger.opens();
  const double servers = static_cast<double>(harness.server_count());
  auto& sim = r.sim;

  // --- Opens: tap-timed ticket and picture latency ---------------------------
  Histogram ticket_ms;
  Histogram picture_ms;
  size_t misses = 0;
  size_t refused = 0;
  size_t failed = 0;
  size_t sibling_tries = 0;
  size_t sibling_ok = 0;
  size_t below_rtt = 0;
  size_t on_poll_step = 0;
  for (const Ledger::Open& open : opens) {
    if (open.ticket.has_value()) {
      double ms = (*open.ticket - open.due).seconds() * 1e3;
      ticket_ms.Record(ms);
      below_rtt += ms < 4.0 - 1e-9;
      // Poll artefacts read 50 ms / 100 ms steps exactly.
      on_poll_step += std::fmod(ms, 50.0) < 1e-6;
    }
    bool in_time = open.picture.has_value() &&
                   *open.picture - open.due <= Duration::Seconds(1);
    if (open.picture.has_value()) {
      picture_ms.Record((*open.picture - open.due).seconds() * 1e3);
    }
    misses += !in_time;
    if (!open.picture.has_value()) {
      std::string outcome =
          !open.finished ? "UNFINISHED"
                         : std::string(itv::StatusCodeName(open.final_status.code()));
      sim["opens.no_picture." + outcome] += 1;
      if (open.finished && itv::IsResourceExhausted(open.final_status)) {
        ++refused;
      } else if (open.finished && !open.final_status.ok()) {
        ++failed;
      } else if (!open.ticket.has_value()) {
        ++failed;  // Never answered by the end of the run.
      }
    }
    sibling_tries += open.open_requests > 1;
    sibling_ok += open.sibling_ok;
  }
  const double n_opens = static_cast<double>(opens.size());
  sim["opens.attempted"] = n_opens;
  sim["opens.refused"] = static_cast<double>(refused);
  sim["opens.failed"] = static_cast<double>(failed);
  sim["ticket_mean_ms"] = ticket_ms.Mean();
  sim["ticket_p50_ms"] = ticket_ms.Percentile(50);
  sim["ticket_p99_ms"] = ticket_ms.Percentile(99);
  sim["ticket_samples"] = static_cast<double>(ticket_ms.count());
  sim["picture_mean_ms"] = picture_ms.Mean();
  sim["picture_p50_ms"] = picture_ms.Percentile(50);
  sim["picture_p99_ms"] = picture_ms.Percentile(99);
  sim["picture_samples"] = static_cast<double>(picture_ms.count());
  sim["open_miss_frac"] = Ratio(static_cast<double>(misses), n_opens);
  r.checks.push_back(Check{
      "ticket_at_least_round_trip", below_rtt == 0,
      itv::StrFormat("%zu of %zu tickets under 2 x 2 ms", below_rtt,
                     ticket_ms.count())});
  r.checks.push_back(Check{
      "ticket_not_poll_quantised",
      on_poll_step * 100 <= ticket_ms.count(),
      itv::StrFormat("%zu of %zu tickets on a 50 ms step", on_poll_step,
                     ticket_ms.count())});
  r.checks.push_back(Check{
      "p99_has_ten_samples_beyond", ticket_ms.count() >= 1000,
      itv::StrFormat("%zu ticket samples", ticket_ms.count())});

  // --- Foreground / background ledger --------------------------------------------
  const double fg_s = w.fg.seconds();
  const double base_s = w.fg_base.seconds();
  const double bg_s = w.bg.seconds();
  double fg_control =
      static_cast<double>(w.fg.Control()) -
      Ratio(static_cast<double>(w.fg_base.Control()), base_s) * fg_s;
  sim["fg_msgs_per_open"] = Ratio(std::max(0.0, fg_control), n_opens);
  sim["fg_msgs_residual"] = fg_control;
  sim["bg_msgs_per_server_s"] =
      Ratio(static_cast<double>(w.bg.Control()), servers * bg_s);
  size_t clamped = 0;
  for (size_t iface = 0; iface < InterfaceCount(); ++iface) {
    for (uint16_t m = 1; m < kMethodSlots; ++m) {
      size_t slot = iface * kMethodSlots + m;
      uint64_t fg_count = w.fg.end.tally.reqs[slot] - w.fg.begin.tally.reqs[slot];
      uint64_t bg_count = w.bg.end.tally.reqs[slot] - w.bg.begin.tally.reqs[slot];
      uint64_t base_count =
          w.fg_base.end.tally.reqs[slot] - w.fg_base.begin.tally.reqs[slot];
      if (fg_count == 0 && bg_count == 0 && base_count == 0) {
        continue;
      }
      LedgerRow row;
      row.method = MethodName(static_cast<uint16_t>(iface), m);
      row.bg_per_server_s =
          Ratio(static_cast<double>(bg_count), servers * bg_s);
      row.fg_count = fg_count;
      row.fg_residual = static_cast<double>(fg_count) -
                        Ratio(static_cast<double>(base_count), base_s) * fg_s;
      row.fg_per_open = Ratio(std::max(0.0, row.fg_residual), n_opens);
      clamped += row.fg_residual < 0;
      r.ledger.push_back(row);
    }
  }
  sim["ledger.clamped_rows"] = static_cast<double>(clamped);
  for (const std::string& method : LayerMethods()) {
    auto it = std::find_if(r.ledger.begin(), r.ledger.end(),
                           [&](const LedgerRow& row) { return row.method == method; });
    std::string key = "rpc." + method;
    sim[key + ".fg_per_open"] = it == r.ledger.end() ? 0 : it->fg_per_open;
    sim[key + ".bg_per_server_s"] = it == r.ledger.end() ? 0 : it->bg_per_server_s;
  }

  // --- sim: scheduler and network -------------------------------------------------
  const Window& m = w.measured;
  const double m_s = m.seconds();
  sim["window_sim_s"] = m_s;
  sim["sim.window_events"] = static_cast<double>(m.Events());
  sim["sim.events_per_sim_s"] = Ratio(static_cast<double>(m.Events()), m_s);
  sim["net.msgs_per_sim_s"] = Ratio(static_cast<double>(m.Msgs()), m_s);
  sim["net.bytes_per_msg"] =
      Ratio(static_cast<double>(m.Bytes()), static_cast<double>(m.Msgs()));
  sim["net.control_share"] =
      Ratio(static_cast<double>(m.Control()), static_cast<double>(m.Msgs()));
  // net.msg.total counts every Route() call the tap saw.
  sim["net.msgs_untapped"] = static_cast<double>(m.Counter("net.msg.total")) -
                             static_cast<double>(m.Msgs());

  // --- rpc runtime, binding, cache, shard router ---------------------------------------
  sim["rpc.timeouts"] = static_cast<double>(m.Counter("rpc.timeout"));
  sim["rpc.nacks"] = static_cast<double>(m.Nacks());
  sim["rpc.unanswered"] = static_cast<double>(ledger.unanswered());
  double hits = static_cast<double>(w.fg.Counter("resolve.cache.hit"));
  double lookups = hits + static_cast<double>(w.fg.Counter("resolve.cache.miss"));
  sim["rpc.resolve_cache.hit_ratio"] = Ratio(hits, lookups);
  sim["rpc.resolve_cache.lookups"] = lookups;
  sim["rpc.rebind.count"] = static_cast<double>(m.Counter("rebind.count"));
  sim["rpc.rebind.attempts"] = static_cast<double>(
      m.Counter("rebind.count") + m.Counter("rebind.coalesced"));
  sim["rpc.shard_map.reloads_per_open"] =
      Ratio(static_cast<double>(w.fg.Counter("shard.map.reloads")), n_opens);

  // --- naming, ras, svc -------------------------------------------------------------------
  sim["naming.settop_resolves_per_open"] = Ratio(
      static_cast<double>(w.fg.SettopReqs("NamingContext.Resolve")), n_opens);
  sim["naming.resolves_per_sim_s"] =
      Ratio(static_cast<double>(m.Reqs("NamingContext.Resolve")), m_s);
  sim["naming.heartbeats_per_sim_s"] =
      Ratio(static_cast<double>(m.Reqs("NameReplica.Heartbeat")), m_s);
  sim["naming.audit_unbinds"] = static_cast<double>(m.Counter("ns.audit.unbind"));
  sim["ras.polls_per_server_s"] =
      Ratio(static_cast<double>(m.Counter("ras.peer_poll")), servers * m_s);
  sim["svc.binder_attempts_per_sim_s"] =
      Ratio(static_cast<double>(m.Counter("binder.bind_attempts")), m_s);
  sim["svc.shardhost_reconciles_per_sim_s"] =
      Ratio(static_cast<double>(m.Counter("shardhost.reconcile")), m_s);
  sim["svc.settop_heartbeats_per_sim_s"] =
      Ratio(static_cast<double>(m.Reqs("SettopManager.Heartbeat")), m_s);

  // --- load -------------------------------------------------------------------------------
  sim["load.reports_per_sim_s"] =
      Ratio(static_cast<double>(m.Reqs("LoadBoard.Report")), m_s);
  sim["load.snapshots_per_open"] =
      Ratio(static_cast<double>(w.fg.SettopReqs("LoadBoard.Snapshot")), n_opens);
  double sheds = static_cast<double>(w.fg.Counter("mms.admission_shed"));
  sim["load.sheds"] = sheds;
  sim["load.shed_ratio"] = Ratio(sheds, n_opens);
  sim["load.sibling_retries"] = static_cast<double>(sibling_tries);
  sim["load.sibling_retry_ok_ratio"] = Ratio(static_cast<double>(sibling_ok),
                                             static_cast<double>(sibling_tries));

  // --- media --------------------------------------------------------------------------------
  const std::pair<const char*, const char*> kOpenPath[] = {
      {"MediaManagement.Open", "media.mms_open"},
      {"ConnectionManager.Allocate", "media.cmgr_allocate"},
      {"TrunkManager.Reserve", "media.trunk_reserve"},
      {"MediaDelivery.Open", "media.mds_open"},
      {"Movie.Play", "media.movie_play"},
  };
  for (const auto& [method, key] : kOpenPath) {
    const Histogram* h = ledger.RpcLatency(method);
    sim[std::string(key) + ".p50_ms"] = h->Percentile(50) * 1e3;
    sim[std::string(key) + ".p99_ms"] = h->Percentile(99) * 1e3;
  }
  // "mms.open" counts Open calls; the "mms.open_*" counters are outcomes.
  double mms_opens = static_cast<double>(w.fg.Counter("mms.open") -
                                         w.fg.Counter("mms.open_"));
  sim["media.mms_opens"] = mms_opens;
  sim["media.open_ok_ratio"] =
      Ratio(static_cast<double>(w.fg.Counter("mms.open_ok")), mms_opens);
  sim["media.cmgr_denied"] = static_cast<double>(w.fg.Counter("mms.cmgr_denied"));
  sim["media.mds_capacity_exhausted"] =
      static_cast<double>(w.fg.Counter("mds.capacity_exhausted"));
  sim["media.chunks_per_sim_s"] =
      Ratio(static_cast<double>(m.Reqs("MediaSink.OnData")), m_s);

  // --- settop ----------------------------------------------------------------------------------
  sim["settop.reopens"] = static_cast<double>(m.Counter("vod.reopen"));
  sim["settop.data_gaps"] = static_cast<double>(m.Counter("vod.stream_failure"));
  sim["settop.control_requests_served"] =
      static_cast<double>(m.end.tally.control_to_settops -
                          m.begin.tally.control_to_settops);
  r.checks.push_back(Check{
      "settops_serve_only_media_sink", sim["settop.control_requests_served"] == 0,
      "control requests addressed to settops in the measured window"});
}

// Traced runs: root spans for a sample of ~2,000 opens (due -> ticket ->
// picture), spans for requests never answered, and the span counts.
void FinishSpans(Record& r, Ledger& ledger) {
  size_t stride = std::max<size_t>(1, ledger.opens().size() / 2000);
  for (size_t i = 0; i < ledger.opens().size(); i += stride) {
    const Ledger::Open& o = ledger.opens()[i];
    Time end = o.picture.value_or(o.ticket.value_or(o.due));
    uint64_t root = ledger.RootSpan("open", o.due, end,
                                    itv::StrFormat("settop=%u", o.settop));
    if (o.ticket.has_value()) {
      ledger.ChildSpan(root, "open.ticket", o.due, *o.ticket, "");
      if (o.picture.has_value()) {
        ledger.ChildSpan(root, "open.picture", *o.ticket, *o.picture, "");
      }
    }
  }
  ledger.FlushUnanswered();
  r.spans_recorded = ledger.spans_recorded();
  r.spans_skipped = ledger.spans_skipped();
}

void NoFaults(Record& r) {
  for (const char* key :
       {"interrupt_p50_s", "interrupt_p90_s", "interrupt_samples",
        "viewer_lost_frac", "settop.stream_failures", "ras.detect_s",
        "svc.kill_to_bind_s", "faults"}) {
    r.sim[key] = 0;
  }
}

// --- vod-open -----------------------------------------------------------------------------------

// The open path under an open loop: Poisson arrivals with exponential holds
// on 1,024 settops, offered concurrency ~90% of cluster MDS capacity, with a
// mild share of arrivals on settops hashed to one hot MMS shard.
struct VodOpenShape {
  Shape cluster;
  size_t settops = 1024;
  double rate = 12.0;       // Opens per sim second.
  double mean_hold_s = 10;  // Offered concurrency = rate * hold = 120.
  double hot_share = 0.30;  // Arrivals on shard-0 settops (25% of them).
  Duration quiet = Duration::Seconds(60);
  Duration arrivals = Duration::Seconds(600);
  VodOpenShape() {
    // 8 x 50 Mb/s = 133 streams of 3 Mb/s: 120 offered is ~90%.
    cluster.mds_capacity_bps = 50'000'000;
  }
};

Record RunVodOpen(const RunOptions& options, itv::trace::TraceBuffer* spans,
                  ReferenceProbe& reference) {
  VodOpenShape shape;
  Record r;
  double cpu0 = CpuSeconds();
  auto harness = Boot(shape.cluster, Duration::Seconds(20));
  itv::sim::Cluster& cluster = harness->cluster();
  r.rss_before_settops_kib = PeakRssKib();

  std::vector<Settop> population;
  std::vector<bool> hot;
  itv::wire::ShardMap map{shape.cluster.mms_shards, itv::wire::kDefaultShardSalt};
  auto vopts = VodOptions(/*fault_tolerant=*/false);
  for (size_t i = 0; i < shape.settops; ++i) {
    population.push_back(AddVodSettop(
        *harness, static_cast<uint8_t>(1 + i % shape.cluster.servers), vopts));
    hot.push_back(itv::wire::ShardOf(population.back().node->host(), map) == 0);
  }
  cluster.RunFor(Duration::Seconds(1));
  r.rss_with_community_kib = PeakRssKib();

  double horizon = shape.arrivals.seconds() - 5.0;
  auto arrivals = GenerateArrivals(options.seed, shape.rate, shape.mean_hold_s,
                                   horizon, hot, shape.hot_share,
                                   shape.cluster.titles);
  Digest digest;
  DigestArrivals(digest, arrivals);
  r.inputs_digest = digest.Hex();
  r.settops = shape.settops;
  r.servers = shape.cluster.servers;

  Ledger ledger(cluster, harness->options().network, spans,
                /*span_budget=*/60000);
  r.setup_cpu_s = CpuSeconds() - cpu0;

  Snap q0 = Take(*harness, ledger);
  LapClock clock(cluster, reference);
  clock.RunFor(shape.quiet);
  Snap q1 = Take(*harness, ledger);
  ScheduleArrivals(*harness, ledger, arrivals, population);
  clock.RunFor(shape.arrivals);
  Snap a1 = Take(*harness, ledger);
  r.window_cpu_s = a1.cpu - q0.cpu;

  Window quiet{q0, q1};
  Window open{q1, a1};
  Summarize(r, *harness, ledger, Windows{Join(quiet, open), quiet, open, quiet});
  NoFaults(r);
  r.attempted = ledger.opens().size();
  r.failed = static_cast<uint64_t>(r.sim["opens.failed"]);

  // Drain: every viewer stops, then no MDS may hold a session.
  for (Settop& s : population) {
    s.vod->Stop();
  }
  cluster.RunFor(Duration::Seconds(30));
  r.checks.push_back(CheckAdmissionSound(*harness, shape.cluster.mms_shards));
  r.checks.push_back(CheckNoMdsSessions(*harness));
  // Outside the timed set-up: the seed + 1 inputs only feed a check.
  Digest next;
  DigestArrivals(next, GenerateArrivals(options.seed + 1, shape.rate,
                                        shape.mean_hold_s, horizon, hot,
                                        shape.hot_share, shape.cluster.titles));
  r.next_seed_digest = next.Hex();
  FinishSpans(r, ledger);
  return r;
}

// --- community-steady ----------------------------------------------------------------------------

// Orlando scale (paper Section 1): 16 servers, 4,000 settops heartbeating the
// Settop Manager every 5 s, 1,000 of them streaming long movies. Nothing
// opens or closes in the measured window.
struct CommunityShape {
  Shape cluster;
  size_t community = 4000;
  size_t viewers = 1000;
  double open_rate = 25.0;  // Initial stream starts per sim second.
  Duration heartbeat = Duration::Seconds(5);
  // Both windows span whole periods of every background loop (2, 5 and
  // 10 s), so the pre-open rate subtracts cleanly from the open phase.
  Duration pre_open = Duration::Seconds(60);
  Duration open_phase = Duration::Seconds(60);
  Duration window = Duration::Seconds(120);
  CommunityShape() {
    cluster.servers = 16;
    cluster.titles = 100;
    // 16 x 240 Mb/s = 1,280 streams: 1,000 fit with two-replica placement.
    cluster.mds_capacity_bps = 240'000'000;
    cluster.chunk_period = Duration::Seconds(1);
  }
};

Record RunCommunity(const RunOptions& options, itv::trace::TraceBuffer* spans,
                    ReferenceProbe& reference) {
  CommunityShape shape;
  Record r;
  double cpu0 = CpuSeconds();
  auto harness = Boot(shape.cluster, Duration::Seconds(15));
  itv::sim::Cluster& cluster = harness->cluster();
  r.rss_before_settops_kib = PeakRssKib();

  std::vector<Settop> community;
  community.reserve(shape.community);
  auto vopts = VodOptions(/*fault_tolerant=*/false);
  for (size_t i = 0; i < shape.community; ++i) {
    uint8_t nb = static_cast<uint8_t>(1 + i % shape.cluster.servers);
    Settop s;
    if (i < shape.viewers) {
      s = AddVodSettop(*harness, nb, vopts);
    } else {
      s.node = &harness->AddSettop(nb);
      s.process = &s.node->Spawn("settop");
    }
    auto* bindings = s.process->Emplace<itv::rpc::BindingTable>(
        s.process->runtime(), harness->ClientFor(*s.process).PathResolverFn());
    auto mgr = bindings->Bind<itv::svc::SettopManagerProxy>(
        itv::svc::kSettopManagerName);
    auto* timer = s.process->Emplace<itv::PeriodicTimer>();
    uint32_t host = s.node->host();
    timer->Start(s.process->executor(), shape.heartbeat, [mgr, host] {
      mgr.Call<void>(
          [host](const itv::svc::SettopManagerProxy& p) { return p.Heartbeat(host); },
          [](itv::Result<void>) {});
    });
    community.push_back(s);
  }

  // Inputs: which title each viewer plays and when its stream starts.
  auto starts = GenerateStarts(options.seed, shape.viewers, shape.open_rate,
                               shape.cluster.titles);
  Digest digest;
  DigestArrivals(digest, starts);
  r.inputs_digest = digest.Hex();
  r.settops = shape.community;
  r.servers = shape.cluster.servers;

  Ledger ledger(cluster, harness->options().network, spans,
                /*span_budget=*/60000);
  cluster.RunFor(Duration::Seconds(10));  // Heartbeats bind and settle.
  Snap p0 = Take(*harness, ledger);
  cluster.RunFor(shape.pre_open);
  Snap p1 = Take(*harness, ledger);
  std::vector<Settop> viewers(community.begin(),
                              community.begin() + static_cast<long>(shape.viewers));
  ScheduleArrivals(*harness, ledger, starts, viewers);
  Duration open_phase = shape.open_phase;
  while (open_phase < Duration::Seconds(starts.back().at_s + 10)) {
    open_phase = open_phase + Duration::Seconds(10);
  }
  cluster.RunFor(open_phase);
  Snap o1 = Take(*harness, ledger);
  r.rss_with_community_kib = PeakRssKib();
  r.setup_cpu_s = CpuSeconds() - cpu0;

  size_t playing_before = 0;
  for (const Settop& s : viewers) {
    playing_before += s.vod->playing();
  }
  Snap w0 = Take(*harness, ledger);
  LapClock clock(cluster, reference);
  clock.RunFor(shape.window);
  Snap w1 = Take(*harness, ledger);
  r.window_cpu_s = w1.cpu - w0.cpu;

  Window steady{w0, w1};
  Summarize(r, *harness, ledger,
            Windows{steady, steady, Window{p1, o1}, Window{p0, p1}});
  NoFaults(r);

  size_t playing = 0;
  for (const Settop& s : viewers) {
    playing += s.vod->playing();
  }
  r.checks.push_back(Check{
      "all_viewers_playing", playing == shape.viewers && playing_before == shape.viewers,
      itv::StrFormat("%zu of %zu streams playing (%zu when the window opened)",
                     playing, shape.viewers, playing_before)});

  // Operations: heartbeats and chunks the window should carry. Every
  // source emits at least floor(window / period) in any window that long.
  uint64_t per_settop = static_cast<uint64_t>(shape.window.seconds() /
                                              shape.heartbeat.seconds());
  uint64_t per_stream = static_cast<uint64_t>(shape.window.seconds() /
                                              shape.cluster.chunk_period.seconds());
  uint64_t expect_hb = per_settop * shape.community;
  uint64_t expect_chunks = per_stream * shape.viewers;
  uint64_t got_hb = steady.Reqs("SettopManager.Heartbeat");
  uint64_t got_chunks = steady.Reqs("MediaSink.OnData");
  r.sim["community.heartbeats_expected"] = static_cast<double>(expect_hb);
  r.sim["community.heartbeats_received"] = static_cast<double>(got_hb);
  r.sim["community.chunks_expected"] = static_cast<double>(expect_chunks);
  r.sim["community.chunks_received"] = static_cast<double>(got_chunks);
  r.attempted = expect_hb + expect_chunks;
  r.failed = (got_hb < expect_hb ? expect_hb - got_hb : 0) +
             (got_chunks < expect_chunks ? expect_chunks - got_chunks : 0);

  // Outside the timed set-up: the seed + 1 inputs only feed a check.
  Digest next;
  DigestArrivals(next, GenerateStarts(options.seed + 1, shape.viewers,
                                      shape.open_rate, shape.cluster.titles));
  r.next_seed_digest = next.Hex();
  FinishSpans(r, ledger);
  return r;
}

// --- failover-churn ----------------------------------------------------------------------------

enum class FaultKind { kCrashServer, kKillMmsShard, kKillCmgr, kKillNsMaster, kKillBoard };

const char* FaultName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashServer: return "crash-server";
    case FaultKind::kKillMmsShard: return "kill-mms-shard-primary";
    case FaultKind::kKillCmgr: return "kill-cmgr-primary";
    case FaultKind::kKillNsMaster: return "kill-ns-master";
    case FaultKind::kKillBoard: return "kill-loadboard-primary";
  }
  return "?";
}

struct FaultSpec {
  double at_s = 0;  // Offset from the start of the churn window.
  FaultKind kind = FaultKind::kCrashServer;
  uint32_t target = 0;  // Server index / shard / neighborhood, per kind.
};

struct FailoverShape {
  Shape cluster;
  size_t viewers = 256;
  size_t open_loop = 256;
  // Enough opens that fault-recovery traffic is a small share of the
  // foreground: ~90 open-loop streams beside the viewers.
  double rate = 8.0;
  double mean_hold_s = 10;
  size_t rounds = 4;          // Each round injects every fault kind once.
  double spacing_s = 50;      // Between faults: twice the 25 s bound.
  double restore_after_s = 20;
  double lead_s = 20;         // Churn before the first fault.
  double tail_s = 40;         // After the last fault, before the check.
  Duration quiet = Duration::Seconds(30);
  FailoverShape() {
    cluster.paper_failover_timings = true;
    // 8 x 240 Mb/s = 640 streams: ~350 wanted still fit on 7 servers.
    cluster.mds_capacity_bps = 240'000'000;
  }
  double horizon_s() const {
    return lead_s + spacing_s * static_cast<double>(rounds * 5 - 1) + tail_s;
  }
};

// Targets of one kind come from a seeded shuffle of all candidates, used in
// turn, so the rounds spread over distinct servers, shards and neighborhoods.
class TargetCycle {
 public:
  TargetCycle(Rng& rng, uint32_t first, uint32_t count) : rng_(rng) {
    for (uint32_t i = 0; i < count; ++i) {
      pool_.push_back(first + i);
    }
  }
  uint32_t Next() {
    if (next_ == 0) {
      for (size_t i = pool_.size(); i > 1; --i) {
        std::swap(pool_[i - 1], pool_[rng_.Below(i)]);
      }
    }
    uint32_t target = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    return target;
  }

 private:
  Rng& rng_;
  std::vector<uint32_t> pool_;
  size_t next_ = 0;
};

std::vector<FaultSpec> GenerateFaults(uint64_t seed, const FailoverShape& shape) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ull + 0x25);
  const uint32_t servers = static_cast<uint32_t>(shape.cluster.servers);
  // Server 1 holds the only database replica; it is never crashed.
  TargetCycle crash(rng, 1, servers - 1);
  TargetCycle shard(rng, 0, shape.cluster.mms_shards);
  TargetCycle neighborhood(rng, 1, servers);
  std::vector<FaultSpec> out;
  const FaultKind kinds[] = {FaultKind::kCrashServer, FaultKind::kKillMmsShard,
                             FaultKind::kKillCmgr, FaultKind::kKillNsMaster,
                             FaultKind::kKillBoard};
  double at = shape.lead_s;
  for (size_t round = 0; round < shape.rounds; ++round) {
    std::vector<FaultKind> order(std::begin(kinds), std::end(kinds));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    for (FaultKind kind : order) {
      FaultSpec f;
      f.kind = kind;
      // Jitter within the spacing so faults hit every phase of the RAS,
      // audit and bind-retry cycles.
      f.at_s = at + static_cast<double>(rng.Below(10'000)) / 1000.0;
      if (kind == FaultKind::kCrashServer) {
        f.target = crash.Next();
      } else if (kind == FaultKind::kKillMmsShard) {
        f.target = shard.Next();
      } else if (kind == FaultKind::kKillCmgr) {
        f.target = neighborhood.Next();
      }
      out.push_back(f);
      at += shape.spacing_s;
    }
  }
  return out;
}

void DigestFaults(Digest& d, const std::vector<FaultSpec>& faults) {
  for (const FaultSpec& f : faults) {
    d.Add(f.at_s);
    d.Add(static_cast<uint64_t>(f.kind));
    d.Add(static_cast<uint64_t>(f.target));
  }
}

// The NS master mirrors its election into a lifecycle under this label.
constexpr std::string_view kNsMasterRole = "svc/ns-master";

// The live primary lifecycle serving exactly `path`, or null.
itv::svc::ServiceLifecycle* PrimaryOf(itv::svc::ClusterHarness& harness,
                                      const std::string& path) {
  for (auto& [p, lifecycles] : harness.LiveLifecycles()) {
    if (p != path) {
      continue;
    }
    for (itv::svc::ServiceLifecycle* lc : lifecycles) {
      if (lc->is_primary()) {
        return lc;
      }
    }
  }
  return nullptr;
}

struct AppliedFault {
  FaultSpec spec;
  Time at;
  std::vector<std::string> paths;  // Service paths the fault took down.
  std::optional<Time> detected;    // Crash: ras.peer_dead.
  std::optional<Time> rebound;     // Kill: the promoted primary's bind.
  std::string outcome;
};

Record RunFailover(const RunOptions& options, itv::trace::TraceBuffer* spans,
                   ReferenceProbe& reference) {
  FailoverShape shape;
  Record r;
  double cpu0 = CpuSeconds();
  auto harness = Boot(shape.cluster, Duration::Seconds(30));
  itv::sim::Cluster& cluster = harness->cluster();
  // Program trace events (ras.peer_dead, bind.primary) feed the per-fault
  // timelines; each fault's events are read and cleared before the next.
  cluster.trace_buffer().set_capacity(1 << 16);
  r.rss_before_settops_kib = PeakRssKib();

  auto vopts = VodOptions(/*fault_tolerant=*/true);
  std::vector<Settop> viewers;
  std::vector<Settop> open_loop;
  for (size_t i = 0; i < shape.viewers + shape.open_loop; ++i) {
    vopts.mms_rebind.jitter_seed = i + 1;
    Settop s = AddVodSettop(
        *harness, static_cast<uint8_t>(1 + i % shape.cluster.servers), vopts);
    (i < shape.viewers ? viewers : open_loop).push_back(s);
  }

  auto arrivals = GenerateArrivals(options.seed, shape.rate, shape.mean_hold_s,
                                   shape.horizon_s() - 5.0,
                                   std::vector<bool>(shape.open_loop, false),
                                   0.0, shape.cluster.titles);
  auto faults = GenerateFaults(options.seed, shape);
  Digest digest;
  DigestArrivals(digest, arrivals);
  DigestFaults(digest, faults);
  r.inputs_digest = digest.Hex();
  r.settops = shape.viewers + shape.open_loop;
  r.servers = shape.cluster.servers;

  Ledger ledger(cluster, harness->options().network, spans,
                /*span_budget=*/60000);
  // Viewers: a user whose VodApp gives up presses play again 2 s later.
  auto stream_failures = std::make_shared<size_t>(0);
  auto play = std::make_shared<std::function<void(size_t)>>();
  *play = [&viewers, play, stream_failures](size_t i) {
    viewers[i].vod->PlayMovie(Title(i % 64), [&viewers, play, stream_failures,
                                               i](Status s) {
      if (s.ok()) {
        return;
      }
      ++*stream_failures;
      viewers[i].process->executor().ScheduleAfter(
          Duration::Seconds(2), [play, i] { (*play)(i); });
    });
  };
  for (size_t i = 0; i < viewers.size(); ++i) {
    ledger.WatchViewer(viewers[i].node->host(), shape.cluster.chunk_period);
    cluster.scheduler().ScheduleAfter(Duration::Millis(100 * static_cast<int64_t>(i)),
                                      [play, i] { (*play)(i); });
  }
  cluster.RunFor(Duration::Millis(100 * static_cast<int64_t>(viewers.size())) +
                 Duration::Seconds(20));
  r.rss_with_community_kib = PeakRssKib();
  size_t warm = 0;
  for (const Settop& v : viewers) {
    warm += v.vod->playing();
  }
  r.checks.push_back(Check{"viewers_playing_before_faults", warm == viewers.size(),
                           itv::StrFormat("%zu of %zu", warm, viewers.size())});
  r.setup_cpu_s = CpuSeconds() - cpu0;

  Snap q0 = Take(*harness, ledger);
  LapClock clock(cluster, reference);
  clock.RunFor(shape.quiet);
  Snap q1 = Take(*harness, ledger);
  size_t stalls_before = ledger.stalls().size();
  size_t failures_before = *stream_failures;

  // --- Churn: open loop plus one fault at a time ---------------------------------------
  ScheduleArrivals(*harness, ledger, arrivals, open_loop);
  std::vector<AppliedFault> applied;
  applied.reserve(faults.size());
  Time churn_start = cluster.Now();
  itv::wire::ShardMap map{shape.cluster.mms_shards, itv::wire::kDefaultShardSalt};
  for (const FaultSpec& f : faults) {
    clock.RunUntil(churn_start + Duration::Seconds(f.at_s));
    cluster.trace_buffer().Clear();
    AppliedFault a;
    a.spec = f;
    a.at = cluster.Now();
    switch (f.kind) {
      case FaultKind::kCrashServer: {
        uint32_t host = harness->HostOf(f.target);
        for (auto& [path, lcs] : harness->LiveLifecycles()) {
          if (path == kNsMasterRole) {
            continue;  // A role label, not a bound name; checked on its own.
          }
          for (itv::svc::ServiceLifecycle* lc : lcs) {
            if (lc->is_primary() && lc->process().host() == host) {
              a.paths.push_back(path);
            }
          }
        }
        harness->server(f.target).Crash();
        a.outcome = "crashed server " + std::to_string(f.target + 1);
        size_t index = f.target;
        itv::svc::ClusterHarness* h = harness.get();
        cluster.scheduler().ScheduleAfter(
            Duration::Seconds(shape.restore_after_s), [h, index] {
              h->server(index).Restart();
              h->StartSsc(index);
            });
        break;
      }
      case FaultKind::kKillMmsShard:
      case FaultKind::kKillCmgr:
      case FaultKind::kKillBoard: {
        std::string path =
            f.kind == FaultKind::kKillMmsShard
                ? itv::wire::ShardPath(itv::media::kMmsName, f.target, map)
            : f.kind == FaultKind::kKillCmgr
                ? itv::media::CmgrName(static_cast<uint8_t>(f.target))
                : std::string(itv::load::kLoadBoardName);
        itv::svc::ServiceLifecycle* lc = PrimaryOf(*harness, path);
        if (lc == nullptr) {
          a.outcome = "no live primary for " + path;
          break;
        }
        a.paths.push_back(path);
        itv::sim::Process& p = lc->process();
        a.outcome = "killed " + p.log_identity() + " (" + path + ")";
        p.node().Kill(p.pid());
        break;
      }
      case FaultKind::kKillNsMaster: {
        uint32_t host = harness->NsMasterHost();
        itv::sim::Node* node = cluster.FindNode(host);
        itv::sim::Process* nsd = node != nullptr ? node->FindProcessByName("nsd") : nullptr;
        if (nsd == nullptr) {
          a.outcome = "no NS master";
          break;
        }
        a.paths.push_back(std::string(itv::svc::kSettopManagerName));
        a.outcome = "killed NS master " + nsd->log_identity();
        node->Kill(nsd->pid());
        break;
      }
    }
    // Read this fault's program trace just before the next one: a crash is
    // detected at the first ras.peer_dead, a killed primary is replaced at
    // the first bind.primary for its path.
    clock.RunFor(Duration::Seconds(shape.spacing_s - 1));
    for (const itv::trace::TraceEvent& e : cluster.trace_buffer().Snapshot()) {
      if (e.begin < a.at) {
        continue;
      }
      if (!a.detected.has_value() && e.name == itv::trace::kEventPeerDead) {
        a.detected = e.begin;
      }
      if (!a.rebound.has_value() && e.name == itv::trace::kEventBindPrimary &&
          !a.paths.empty() && e.detail == a.paths.front()) {
        a.rebound = e.begin;
      }
    }
    applied.push_back(std::move(a));
  }
  clock.RunUntil(churn_start + Duration::Seconds(shape.horizon_s()));
  Snap c1 = Take(*harness, ledger);
  r.window_cpu_s = c1.cpu - q0.cpu;

  Window quiet{q0, q1};
  Window churn{q1, c1};
  Summarize(r, *harness, ledger, Windows{Join(quiet, churn), quiet, churn, quiet});

  // --- Interruptions and lost viewers -------------------------------------------------------
  const double period_s = shape.cluster.chunk_period.seconds();
  Histogram interrupts;
  for (size_t i = stalls_before; i < ledger.stalls().size(); ++i) {
    const Ledger::Stall& s = ledger.stalls()[i];
    interrupts.Record((s.first_after - s.last_before).seconds() - period_s);
  }
  size_t lost = 0;
  Time now = cluster.Now();
  for (const Settop& v : viewers) {
    std::optional<Time> last = ledger.LastChunk(v.node->host());
    if (!last.has_value() || now - *last > Duration::Seconds(5)) {
      ++lost;
    }
  }
  r.sim["interrupt_p50_s"] = interrupts.Percentile(50);
  r.sim["interrupt_p90_s"] = interrupts.Percentile(90);
  r.sim["interrupt_samples"] = static_cast<double>(interrupts.count());
  r.sim["viewer_lost_frac"] =
      Ratio(static_cast<double>(lost), static_cast<double>(viewers.size()));
  r.sim["settop.stream_failures"] =
      static_cast<double>(*stream_failures - failures_before);
  r.sim["faults"] = static_cast<double>(applied.size());
  size_t missed = 0;
  for (const AppliedFault& a : applied) {
    missed += a.paths.empty();
  }
  r.checks.push_back(Check{
      "every_fault_found_its_target", missed == 0,
      itv::StrFormat("%zu of %zu faults found no live target", missed,
                     applied.size())});
  r.checks.push_back(Check{
      "interrupt_p90_has_ten_samples_beyond", interrupts.count() >= 100,
      itv::StrFormat("%zu interruptions", interrupts.count())});

  Histogram detect_s;
  Histogram bind_s;
  for (const AppliedFault& a : applied) {
    if (a.spec.kind == FaultKind::kCrashServer && a.detected.has_value()) {
      detect_s.Record((*a.detected - a.at).seconds());
    }
    if (a.spec.kind != FaultKind::kCrashServer &&
        a.spec.kind != FaultKind::kKillNsMaster && a.rebound.has_value()) {
      bind_s.Record((*a.rebound - a.at).seconds());
    }
  }
  r.sim["ras.detect_s"] = detect_s.Percentile(50);
  r.sim["ras.detect_samples"] = static_cast<double>(detect_s.count());
  r.sim["svc.kill_to_bind_s"] = bind_s.Percentile(50);
  r.sim["svc.kill_to_bind_samples"] = static_cast<double>(bind_s.count());

  // Root span per fault: fault -> last affected viewer's first chunk after it.
  for (size_t i = 0; i < applied.size(); ++i) {
    const AppliedFault& a = applied[i];
    Time until = i + 1 < applied.size() ? applied[i + 1].at : now;
    Time end = std::max({a.at, a.detected.value_or(a.at), a.rebound.value_or(a.at)});
    size_t hit = 0;
    for (size_t s = stalls_before; s < ledger.stalls().size(); ++s) {
      const Ledger::Stall& st = ledger.stalls()[s];
      if (st.last_before + shape.cluster.chunk_period >= a.at && st.last_before < until) {
        end = std::max(end, st.first_after);
        ++hit;
      }
    }
    uint64_t root = ledger.RootSpan(
        std::string("fault.") + FaultName(a.spec.kind), a.at, end,
        itv::StrFormat("%s; %zu viewers stalled", a.outcome.c_str(), hit));
    if (a.detected.has_value()) {
      ledger.ChildSpan(root, "fault.detect", a.at, *a.detected, "ras.peer_dead");
    }
    if (a.rebound.has_value()) {
      ledger.ChildSpan(root, "fault.rebind", a.at, *a.rebound, "bind.primary");
    }
  }

  // Quiescence: every faulted service path resolves to a live process again.
  Check resolves{"faulted_paths_resolve", true, ""};
  std::set<std::string> paths;
  for (const AppliedFault& a : applied) {
    paths.insert(a.paths.begin(), a.paths.end());
    if (a.spec.kind == FaultKind::kCrashServer) {
      paths.insert("svc/mds/" + std::to_string(a.spec.target + 1));
    }
  }
  itv::sim::Process& probe = harness->SpawnProcessOn(0, "bench-resolve");
  itv::naming::NameClient nc = harness->ClientFor(probe);
  for (const std::string& path : paths) {
    auto ref = Await(cluster, nc.Resolve(path));
    if (!ref.ok() || !PointsAtLiveProcess(cluster, *ref)) {
      resolves.ok = false;
      resolves.detail += path + " unresolved; ";
    }
  }
  resolves.detail += itv::StrFormat("%zu paths checked", paths.size());
  r.checks.push_back(resolves);
  r.checks.push_back(Check{"ns_master_elected", harness->NsMasterHost() != 0,
                           "a live NS replica claims mastership"});

  r.attempted = ledger.opens().size();
  r.failed = static_cast<uint64_t>(r.sim["opens.failed"]);

  // Outside the timed set-up: the seed + 1 inputs only feed a check.
  Digest next;
  DigestArrivals(
      next, GenerateArrivals(options.seed + 1, shape.rate, shape.mean_hold_s,
                             shape.horizon_s() - 5.0,
                             std::vector<bool>(shape.open_loop, false), 0.0,
                             shape.cluster.titles));
  DigestFaults(next, GenerateFaults(options.seed + 1, shape));
  r.next_seed_digest = next.Hex();
  FinishSpans(r, ledger);
  return r;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"vod-open", "community-steady", "failover-churn"};
}

Record RunWorkload(const RunOptions& options) {
  itv::SetMinLogLevel(itv::LogLevel::kError);
  // One CPU for the whole repetition; the reference child inherits the mask,
  // so its laps time the CPU the workload runs on. Best effort: unpinned,
  // the laps still sample the same minutes of host time.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof(cpus), &cpus);
  // Before anything boots, so the reference child starts small and fresh.
  ReferenceProbe reference;
  std::unique_ptr<itv::trace::TraceBuffer> spans;
  if (!options.trace_out.empty()) {
    spans = std::make_unique<itv::trace::TraceBuffer>(1 << 17);
  }
  Record r;
  if (options.workload == "vod-open") {
    r = RunVodOpen(options, spans.get(), reference);
  } else if (options.workload == "community-steady") {
    r = RunCommunity(options, spans.get(), reference);
  } else if (options.workload == "failover-churn") {
    r = RunFailover(options, spans.get(), reference);
  } else {
    ITV_CHECK(false) << "unknown workload " << options.workload;
  }
  r.workload = options.workload;
  r.seed = options.seed;
  r.traced = spans != nullptr;
  std::vector<double> laps = reference.laps();
  std::nth_element(laps.begin(), laps.begin() + laps.size() / 2, laps.end());
  r.reference_cpu_s = laps[laps.size() / 2] * ReferenceProbe::kLapsPerPass;
  r.reference_laps = laps.size();
  if (spans != nullptr) {
    std::string json = itv::trace::ChromeTraceJson(*spans);
    std::string error;
    r.checks.push_back(Check{"trace_json_valid",
                             itv::trace::ValidateChromeTrace(json, &error), error});
    std::ofstream(options.trace_out) << json;
  }
  return r;
}

}  // namespace itvbench
