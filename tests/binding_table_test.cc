// Client binding layer tests: BindingTable / BoundClient over the simulated
// cluster. Covers the three capabilities the layer adds over a bare Rebinder
// (single-flight re-resolution, deadline propagation, per-binding metrics)
// plus the recovery-storm acceptance property: with a fleet of settops
// calling through a killed binding, name-service resolves during recovery
// scale with the number of processes, not with the number of in-flight calls.
// Against the real name service, the binding is the client's one cache for
// an object path: repeat calls send the name service nothing, and a NACK
// costs exactly one re-resolve.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/naming/name_client.h"
#include "src/rpc/binding_table.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"
#include "src/sim/cluster.h"
#include "src/svc/harness.h"
#include "src/svc/settop_manager.h"

namespace itv::rpc {
namespace {

// --- Ping stubs ---------------------------------------------------------------

inline constexpr std::string_view kPingInterface = "itv.test.Ping";

enum PingMethod : uint32_t { kPingMethodPing = 1 };

class PingSkeleton : public Skeleton {
 public:
  std::string_view interface_name() const override { return kPingInterface; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const CallContext& ctx, ReplyFn reply) override {
    if (method_id != kPingMethodPing) {
      return ReplyBadMethod(reply, method_id);
    }
    ++pings;
    return ReplyWith(reply, pings);
  }
  uint64_t pings = 0;
};

class PingProxy : public Proxy {
 public:
  using Proxy::Proxy;
  Future<uint64_t> Ping() const {
    return DecodeReply<uint64_t>(Call(kPingMethodPing, {}));
  }
};

// --- Fixture ------------------------------------------------------------------

class BindingTableTest : public ::testing::Test {
 protected:
  BindingTableTest() {
    server_ = &cluster_.AddServer("forge");
    client_node_ = &cluster_.AddServer("kiln");
    client_proc_ = &client_node_->Spawn("client");
    SpawnService();
  }

  // (Re)starts the ping service on the same well-known port and records the
  // fresh reference as what the resolver hands out.
  void SpawnService() {
    server_proc_ = &server_->Spawn("ping", 700);
    skeleton_ = server_proc_->Emplace<PingSkeleton>();
    current_ref_ = server_proc_->runtime().Export(skeleton_);
  }

  void KillService() {
    server_->Kill(server_proc_->pid());
    cluster_.RunUntilIdle();
  }

  // A path resolver that counts lookups, like a name service would under
  // "ns.resolve". Results are delivered asynchronously — a real resolve is a
  // name-service round trip, and single-flight coalescing only matters while
  // a lookup is genuinely in flight.
  PathResolver MakeResolver() {
    return [this](const std::string& path,
                  std::function<void(Result<wire::ObjectRef>)> cb) {
      ++resolve_calls_;
      ++resolves_by_path_[path];
      last_resolved_path_ = path;
      Result<wire::ObjectRef> r = current_ref_.is_null()
                                      ? Result<wire::ObjectRef>(
                                            NotFoundError("no binding"))
                                      : Result<wire::ObjectRef>(current_ref_);
      client_proc_->executor().ScheduleAfter(Duration::Millis(10),
                                             [cb, r] { cb(r); });
    };
  }

  BindingTable& Table() {
    if (table_ == nullptr) {
      table_ = client_proc_->Emplace<BindingTable>(client_proc_->runtime(),
                                                   MakeResolver());
    }
    return *table_;
  }

  sim::Cluster cluster_;
  sim::Node* server_ = nullptr;
  sim::Node* client_node_ = nullptr;
  sim::Process* server_proc_ = nullptr;
  sim::Process* client_proc_ = nullptr;
  PingSkeleton* skeleton_ = nullptr;
  wire::ObjectRef current_ref_;
  BindingTable* table_ = nullptr;
  int resolve_calls_ = 0;
  std::map<std::string, int> resolves_by_path_;
  std::string last_resolved_path_;
};

// --- Basic table behaviour ----------------------------------------------------

TEST_F(BindingTableTest, BindResolvesByPathAndCaches) {
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  std::vector<Result<uint64_t>> out;
  for (int i = 0; i < 3; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { out.push_back(r); });
    cluster_.RunFor(Duration::Seconds(1));
  }
  ASSERT_EQ(out.size(), 3u);
  for (const auto& r : out) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  EXPECT_EQ(resolve_calls_, 1);  // First call resolves; the rest hit the cache.
  EXPECT_EQ(last_resolved_path_, "svc/ping");
  EXPECT_EQ(Table().size(), 1u);
  EXPECT_EQ(Table().Find("svc/ping"), &ping.binding());
  EXPECT_EQ(Table().Find("svc/other"), nullptr);
}

TEST_F(BindingTableTest, SameBindingSharedAcrossBinds) {
  BoundClient<PingProxy> a = Table().Bind<PingProxy>("svc/ping");
  BoundClient<PingProxy> b = Table().Bind<PingProxy>("svc/ping");
  EXPECT_EQ(&a.binding(), &b.binding());
  EXPECT_EQ(Table().size(), 1u);
}

// --- Single-flight re-resolution ----------------------------------------------

TEST_F(BindingTableTest, ConcurrentColdCallsCoalesceIntoOneResolve) {
  constexpr int kCalls = 16;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(ok, kCalls);
  EXPECT_EQ(resolve_calls_, 1);  // One lookup for all sixteen calls.
  EXPECT_EQ(ping.binding().rebind_count(), 1u);
  EXPECT_EQ(ping.binding().coalesced_count(), kCalls - 1u);
}

TEST_F(BindingTableTest, StormAfterRestartCoalescesPerProcess) {
  // Warm the cache, then restart the service: every concurrent call fails
  // with UNAVAILABLE and wants to re-resolve at once. The binding must fold
  // them into one lookup (plus the initial one).
  BindingOptions opts;  // No jitter: keep the retry instants aligned so the
  opts.initial_backoff = Duration::Millis(50);  // storm truly collides.
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  bool warm = false;
  ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                      [&](Result<uint64_t> r) { warm = r.ok(); });
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(warm);

  KillService();
  SpawnService();

  constexpr int kCalls = 12;
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kCalls);
  // One warm-up resolve plus one shared post-restart resolve.
  EXPECT_EQ(resolve_calls_, 2);
  EXPECT_EQ(ping.binding().rebind_count(), 2u);
  EXPECT_GE(ping.binding().coalesced_count(), kCalls - 1u);
}

TEST_F(BindingTableTest, FailedSharedResolveFailsAllWaiters) {
  current_ref_ = wire::ObjectRef{};  // Resolver finds nothing.
  BindingOptions opts;
  opts.max_attempts = 2;
  opts.initial_backoff = Duration::Millis(10);
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { failed += !r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  EXPECT_EQ(failed, 5);
  // Two attempts each, but resolves stay shared per retry wave, far below
  // the 10 a per-call lookup would cost.
  EXPECT_LE(resolve_calls_, 4);
}

TEST_F(BindingTableTest, ShardStormDoesNotReresolveOtherShards) {
  // Sharded services key bindings by (service, shard) path — one Binding per
  // shard. A re-resolution storm on one shard's binding must stay on that
  // binding: the others keep their cached references and issue no lookups.
  BindingOptions opts;
  opts.initial_backoff = Duration::Millis(50);
  std::vector<BoundClient<PingProxy>> shards;
  for (int s = 1; s <= 4; ++s) {
    shards.push_back(
        Table().Bind<PingProxy>("svc/ping/" + std::to_string(s), opts));
  }
  int warm = 0;
  for (auto& shard : shards) {
    shard.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                         [&](Result<uint64_t> r) { warm += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(2));
  ASSERT_EQ(warm, 4);

  KillService();
  SpawnService();

  constexpr int kStorm = 10;
  int storm_ok = 0;
  for (int i = 0; i < kStorm; ++i) {
    shards[3].Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                             [&](Result<uint64_t> r) { storm_ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(storm_ok, kStorm);
  // Shard 4: initial resolve plus one shared post-restart resolve.
  EXPECT_EQ(resolves_by_path_["svc/ping/4"], 2);
  EXPECT_GE(shards[3].binding().coalesced_count(),
            static_cast<uint64_t>(kStorm - 1));
  // Shards 1-3: untouched by the storm.
  for (int s = 1; s <= 3; ++s) {
    EXPECT_EQ(resolves_by_path_["svc/ping/" + std::to_string(s)], 1)
        << "shard " << s;
    EXPECT_EQ(shards[s - 1].binding().rebind_count(), 1u) << "shard " << s;
  }
}

// --- Deadline propagation -----------------------------------------------------

TEST_F(BindingTableTest, DeadlineBudgetExhaustedMidFailover) {
  // Service dies and never comes back; the resolver keeps handing out the
  // dead reference, so every attempt fails UNAVAILABLE and wants to retry.
  // A 2 s budget must cut the retry loop short with DEADLINE_EXCEEDED well
  // before the 20-attempt policy runs out.
  KillService();
  BindingOptions opts;
  opts.max_attempts = 20;
  opts.initial_backoff = Duration::Millis(500);
  opts.backoff_multiplier = 2.0;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);

  Result<uint64_t> out = InternalError("unset");
  bool done = false;
  Time start = cluster_.Now();
  ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                      [&](Result<uint64_t> r) {
                        out = std::move(r);
                        done = true;
                      },
                      Duration::Seconds(2));
  cluster_.RunFor(Duration::Seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(IsDeadlineExceeded(out.status())) << out.status();
  // The budget was honored: we gave up around the 2 s mark, not after the
  // full exponential-backoff ladder (which would take > 15 s).
  EXPECT_LE((cluster_.Now() - start).seconds(), 30.0);
  EXPECT_LT(ping.binding().rebind_count(), 8u);
}

TEST_F(BindingTableTest, BudgetLeftoverAllowsRecovery) {
  // Fail-over completes inside the budget: the call must ride through it.
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  bool warm = false;
  ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                      [&](Result<uint64_t> r) { warm = r.ok(); });
  cluster_.RunFor(Duration::Seconds(1));
  ASSERT_TRUE(warm);

  KillService();
  SpawnService();

  Result<uint64_t> out = InternalError("unset");
  ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                      [&](Result<uint64_t> r) { out = std::move(r); },
                      Duration::Seconds(10));
  cluster_.RunFor(Duration::Seconds(15));
  EXPECT_TRUE(out.ok()) << out.status();
}

// --- Per-binding metrics ------------------------------------------------------

TEST_F(BindingTableTest, RebindMetricsFlowIntoProcessMetrics) {
  Metrics& m = cluster_.metrics();
  uint64_t count_before = m.Get("rebind.count");
  uint64_t coalesced_before = m.Get("rebind.coalesced");

  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping");
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(5));
  ASSERT_EQ(ok, 4);
  EXPECT_EQ(m.Get("rebind.count") - count_before, 1u);
  EXPECT_EQ(m.Get("rebind.coalesced") - coalesced_before, 3u);
  const Histogram* latency = m.FindHistogram("rebind.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count(), 1u);
}

// --- Pinned bindings ----------------------------------------------------------

TEST_F(BindingTableTest, PinnedBindingNeverConsultsResolver) {
  BoundClient<PingProxy> ping = Table().BindPinned<PingProxy>(
      "ping/pinned", current_ref_, Table().default_options());
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
    cluster_.RunFor(Duration::Seconds(1));
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(resolve_calls_, 0);
}

// --- Jitter -------------------------------------------------------------------

TEST_F(BindingTableTest, JitteredBackoffStaysWithinConfiguredBounds) {
  // With jitter, retry delays land in (backoff * (1 - jitter), backoff]: the
  // whole ladder finishes no later than un-jittered, and still finishes.
  KillService();
  current_ref_ = wire::ObjectRef{};
  BindingOptions opts;
  opts.max_attempts = 4;
  opts.initial_backoff = Duration::Millis(100);
  opts.backoff_multiplier = 2.0;
  opts.backoff_jitter = 0.5;
  opts.jitter_seed = 42;
  BoundClient<PingProxy> ping = Table().Bind<PingProxy>("svc/ping", opts);
  bool done = false;
  Time start = cluster_.Now();
  Time done_at;
  ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                      [&](Result<uint64_t> r) {
                        done = !r.ok();
                        done_at = cluster_.Now();
                      });
  cluster_.RunFor(Duration::Seconds(5));
  ASSERT_TRUE(done);
  double elapsed = (done_at - start).seconds();
  // Un-jittered ladder: 100 + 200 + 400 ms of sleep plus four 10 ms
  // resolves. Jitter in [0, 0.5) only shortens delays.
  EXPECT_LE(elapsed, 0.8);
  EXPECT_EQ(resolve_calls_, 4);
}

// --- Acceptance: recovery-storm resolve count is O(processes) -----------------

TEST(BindingStormTest, ResolvesScaleWithProcessesNotCalls) {
  // 64 settop processes each hold a primed binding to a popular service and
  // fire 4 concurrent calls right after the service restarts (paper Section
  // 8.2's recovery storm). Without single-flight the name service would see
  // ~256 resolves; the binding layer folds each process's calls into one.
  constexpr size_t kSettops = 64;
  constexpr int kCallsPerSettop = 4;

  svc::HarnessOptions hopts;
  hopts.server_count = 2;
  hopts.start_csc = false;
  svc::ClusterHarness harness(hopts);
  harness.Boot();
  sim::Cluster& cluster = harness.cluster();

  auto spawn_service = [&]() -> wire::ObjectRef {
    sim::Process& p = harness.SpawnProcessOn(1, "popular");
    auto* skeleton = p.Emplace<svc::SettopManagerService>(p.executor());
    wire::ObjectRef ref = p.runtime().Export(skeleton);
    svc::SscProxy ssc(p.runtime(), svc::SscRefAt(p.host()));
    ssc.NotifyReady(p.pid(), {ref}).OnReady([](const Result<void>&) {});
    return ref;
  };
  wire::ObjectRef ref_v1 = spawn_service();
  sim::Process& setup = harness.SpawnProcessOn(0, "setup");
  harness.ClientFor(setup).Bind("svc/popular", ref_v1).OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(2));

  struct SettopClient {
    sim::Process* process;
    BindingTable* table;
    int ok = 0;
  };
  std::vector<SettopClient> settops;
  settops.reserve(kSettops);
  for (size_t i = 0; i < kSettops; ++i) {
    sim::Node& node = harness.AddSettop(static_cast<uint8_t>(1 + (i % 2)));
    sim::Process& p = node.Spawn("client");
    auto* table = p.Emplace<BindingTable>(
        p.runtime(), harness.ClientFor(p).PathResolverFn());
    table->Get("svc/popular").Prime(ref_v1);
    settops.push_back(SettopClient{&p, table});
  }

  // Restart the popular service and repoint the name binding.
  harness.server(1).Kill(harness.server(1).FindProcessByName("popular")->pid());
  cluster.RunFor(Duration::Millis(200));
  wire::ObjectRef ref_v2 = spawn_service();
  harness.ClientFor(setup).Unbind("svc/popular").OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(1));
  harness.ClientFor(setup).Bind("svc/popular", ref_v2).OnReady(
      [](const Result<void>&) {});
  cluster.RunFor(Duration::Seconds(1));

  uint64_t resolves_before = harness.metrics().Get("ns.resolve");

  // The storm: every settop fires all its calls at the same virtual instant.
  for (SettopClient& s : settops) {
    BoundClient<svc::SettopManagerProxy> mgr =
        s.table->Bind<svc::SettopManagerProxy>("svc/popular");
    for (int c = 0; c < kCallsPerSettop; ++c) {
      sim::Process* p = s.process;
      SettopClient* self = &s;
      mgr.Call<void>(
          [p](const svc::SettopManagerProxy& proxy) {
            return proxy.Heartbeat(p->host());
          },
          [self](Result<void> r) { self->ok += r.ok(); });
    }
  }
  cluster.RunFor(Duration::Seconds(30));

  uint64_t total_calls = 0;
  uint64_t coalesced = 0;
  for (const SettopClient& s : settops) {
    EXPECT_EQ(s.ok, kCallsPerSettop);
    total_calls += kCallsPerSettop;
    coalesced += s.table->total_coalesced();
  }
  uint64_t resolves = harness.metrics().Get("ns.resolve") - resolves_before;
  // O(processes): every settop needs about one lookup; allow slack for a
  // straggler retry, but stay far below one lookup per in-flight call.
  EXPECT_GE(resolves, kSettops / 2);
  EXPECT_LE(resolves, 2 * kSettops);
  EXPECT_LT(resolves, total_calls);
  // The folded calls show up in the coalescing counters. (Not every extra
  // call coalesces — jitter spreads retries, and late ones hit the already
  // refreshed cache, which is just as cheap.)
  EXPECT_GT(coalesced, 0u);
}

// --- The binding as the client's cache, against the real name service ---------

class CacheHarnessTest : public ::testing::Test {
 protected:
  CacheHarnessTest() {
    svc::HarnessOptions opts;
    opts.server_count = 2;
    harness_ = std::make_unique<svc::ClusterHarness>(opts);
    harness_->Boot();
  }

  sim::Cluster& cluster() { return harness_->cluster(); }

  // Starts a ping servant on server `index` and (re)binds it at `path`.
  PingSkeleton* BindPing(size_t index, const std::string& path) {
    sim::Process& service =
        harness_->SpawnProcessOn(index, "ping" + std::to_string(++spawned_));
    auto* skeleton = service.Emplace<PingSkeleton>();
    services_.push_back(&service);
    BindRef(path, service.runtime().Export(skeleton));
    return skeleton;
  }

  // (Re)binds `path` to `ref` through a setup process on server 0.
  void BindRef(const std::string& path, const wire::ObjectRef& ref) {
    sim::Process& setup = harness_->SpawnProcessOn(0, "setup");
    naming::NameClient nc = harness_->ClientFor(setup);
    nc.Unbind(path).OnReady([](const Result<void>&) {});
    bool bound = false;
    nc.Bind(path, ref).OnReady(
        [&bound](const Result<void>& r) { bound = r.ok(); });
    cluster().RunFor(Duration::Seconds(1));
    EXPECT_TRUE(bound) << path;
  }

  // Resolves `path` through `client` and runs the cluster until done.
  Result<wire::ObjectRef> ResolveNow(const naming::NameClient& client,
                                     const std::string& path) {
    Future<wire::ObjectRef> f = client.Resolve(path);
    cluster().RunFor(Duration::Seconds(1));
    if (!f.is_ready()) {
      return DeadlineExceededError("resolve did not complete");
    }
    return f.result();
  }

  // A settop process whose bindings resolve through the name service.
  BindingTable& SettopTable() {
    sim::Process& p = harness_->AddSettop(1).Spawn("app");
    return *p.Emplace<BindingTable>(p.runtime(),
                                    harness_->ClientFor(p).PathResolverFn());
  }

  bool PingOnce(const BoundClient<PingProxy>& ping) {
    bool ok = false;
    ping.Call<uint64_t>([](const PingProxy& p) { return p.Ping(); },
                        [&ok](Result<uint64_t> r) { ok = r.ok(); });
    cluster().RunFor(Duration::Seconds(1));
    return ok;
  }

  std::unique_ptr<svc::ClusterHarness> harness_;
  std::vector<sim::Process*> services_;
  int spawned_ = 0;
};

TEST_F(CacheHarnessTest, FirstCallMissesThenEveryClientOfThePathHits) {
  PingSkeleton* skeleton = BindPing(0, "svc/cacheping");
  BindingTable& table = SettopTable();
  BoundClient<PingProxy> first = table.Bind<PingProxy>("svc/cacheping");

  // Nothing is cached before the first call: it misses and resolves once.
  EXPECT_FALSE(first.binding().cached_ref().has_value());
  EXPECT_EQ(first.binding().rebind_count(), 0u);
  ASSERT_TRUE(PingOnce(first));
  EXPECT_EQ(first.binding().rebind_count(), 1u);

  // A second client of the path in the same process shares the binding, so
  // its first call is served from the cached reference with no lookup.
  BoundClient<PingProxy> second = table.Bind<PingProxy>("svc/cacheping");
  EXPECT_EQ(&second.binding(), &first.binding());
  ASSERT_TRUE(PingOnce(second));
  EXPECT_EQ(second.binding().rebind_count(), 1u);
  EXPECT_EQ(skeleton->pings, 2u);
}

TEST_F(CacheHarnessTest, CacheHitSkipsNameServiceRpc) {
  PingSkeleton* skeleton = BindPing(0, "svc/cacheping");
  BoundClient<PingProxy> ping =
      SettopTable().Bind<PingProxy>("svc/cacheping");

  ASSERT_TRUE(PingOnce(ping));
  EXPECT_EQ(ping.binding().rebind_count(), 1u);
  ASSERT_TRUE(ping.binding().cached_ref().has_value());

  // The binding serves every later call from its cached reference: this
  // client sends the name service nothing more.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PingOnce(ping));
  }
  EXPECT_EQ(ping.binding().rebind_count(), 1u);
  EXPECT_EQ(skeleton->pings, 4u);
}

TEST_F(CacheHarnessTest, NackInvalidatesThenExactlyOneReResolve) {
  BindPing(0, "svc/cacheping");
  BoundClient<PingProxy> ping =
      SettopTable().Bind<PingProxy>("svc/cacheping");
  ASSERT_TRUE(PingOnce(ping));
  ASSERT_EQ(ping.binding().rebind_count(), 1u);
  wire::ObjectRef stale = *ping.binding().cached_ref();

  // Kill the service and bind a replacement on the other server (new
  // endpoint). Bounded runs, not RunUntilIdle: primary binders keep
  // verifying their bindings forever, so a booted cluster never goes idle.
  harness_->server(0).Kill(services_.back()->pid());
  cluster().RunFor(Duration::Seconds(1));
  PingSkeleton* replacement = BindPing(1, "svc/cacheping");

  // The next call hits the dead incarnation and is NACKed; the binding drops
  // its reference and re-resolves exactly once, reaching the replacement.
  uint64_t nacks_before = harness_->metrics().Get("rpc.nack.recv");
  ASSERT_TRUE(PingOnce(ping));
  EXPECT_GT(harness_->metrics().Get("rpc.nack.recv"), nacks_before);
  EXPECT_EQ(ping.binding().rebind_count(), 2u);
  EXPECT_EQ(replacement->pings, 1u);
  ASSERT_TRUE(ping.binding().cached_ref().has_value());
  EXPECT_NE(ping.binding().cached_ref()->endpoint, stale.endpoint);

  // Later calls resolve zero times.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(PingOnce(ping));
  }
  EXPECT_EQ(ping.binding().rebind_count(), 2u);
  EXPECT_EQ(replacement->pings, 4u);
}

TEST_F(CacheHarnessTest, DeadEndpointReResolvesOnlyThePathsOnIt) {
  // Two paths served by one process on server 0, a third by server 1.
  sim::Process& pair = harness_->SpawnProcessOn(0, "pingpair");
  BindRef("svc/a", pair.runtime().Export(pair.Emplace<PingSkeleton>()));
  BindRef("svc/b", pair.runtime().Export(pair.Emplace<PingSkeleton>()));
  PingSkeleton* c = BindPing(1, "svc/c");

  BindingTable& table = SettopTable();
  BoundClient<PingProxy> a = table.Bind<PingProxy>("svc/a");
  BoundClient<PingProxy> b = table.Bind<PingProxy>("svc/b");
  BoundClient<PingProxy> other = table.Bind<PingProxy>("svc/c");
  ASSERT_TRUE(PingOnce(a));
  ASSERT_TRUE(PingOnce(b));
  ASSERT_TRUE(PingOnce(other));
  ASSERT_EQ(a.binding().cached_ref()->endpoint,
            b.binding().cached_ref()->endpoint);

  // The shared endpoint dies and both of its paths move to server 1.
  harness_->server(0).Kill(pair.pid());
  cluster().RunFor(Duration::Seconds(1));
  PingSkeleton* a2 = BindPing(1, "svc/a");
  PingSkeleton* b2 = BindPing(1, "svc/b");

  // Each binding to the dead endpoint is NACKed on its next call and
  // re-resolves once; the binding to the live endpoint keeps its reference.
  ASSERT_TRUE(PingOnce(a));
  ASSERT_TRUE(PingOnce(b));
  ASSERT_TRUE(PingOnce(other));
  EXPECT_EQ(a.binding().rebind_count(), 2u);
  EXPECT_EQ(b.binding().rebind_count(), 2u);
  EXPECT_EQ(other.binding().rebind_count(), 1u);
  EXPECT_EQ(a2->pings, 1u);
  EXPECT_EQ(b2->pings, 1u);
  EXPECT_EQ(c->pings, 2u);
}

TEST_F(CacheHarnessTest, LocalBindAndUnbindInvalidateThePath) {
  // Two objects announced to the SSC like a real service's, so the name
  // service's audit finds them alive and never unbinds them on its own.
  sim::Process& service = harness_->SpawnProcessOn(0, "pingsvc");
  wire::ObjectRef ref =
      service.runtime().Export(service.Emplace<PingSkeleton>());
  wire::ObjectRef ref2 =
      service.runtime().Export(service.Emplace<PingSkeleton>());
  ASSERT_NE(ref2.object_id, ref.object_id);
  svc::SscProxy ssc(service.runtime(), svc::SscRefAt(service.host()));
  ssc.NotifyReady(service.pid(), {ref, ref2})
      .OnReady([](const Result<void>&) {});

  sim::Process& proc = harness_->SpawnProcessOn(1, "client");
  naming::NameClient client = harness_->ClientFor(proc);
  auto bind = [&](const wire::ObjectRef& r) {
    bool bound = false;
    client.Bind("svc/localinval", r).OnReady(
        [&bound](const Result<void>& b) { bound = b.ok(); });
    cluster().RunFor(Duration::Seconds(1));
    return bound;
  };
  ASSERT_TRUE(bind(ref));
  Result<wire::ObjectRef> first = ResolveNow(client, "svc/localinval");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->object_id, ref.object_id);

  // The name client keeps no path state, so an unbind through it is seen by
  // this process's very next resolve...
  bool unbound = false;
  client.Unbind("svc/localinval").OnReady(
      [&unbound](const Result<void>& r) { unbound = r.ok(); });
  cluster().RunFor(Duration::Seconds(1));
  ASSERT_TRUE(unbound);
  EXPECT_TRUE(IsNotFound(ResolveNow(client, "svc/localinval").status()));

  // ...and so is a bind of a different object at the same path.
  ASSERT_TRUE(bind(ref2));
  Result<wire::ObjectRef> second = ResolveNow(client, "svc/localinval");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->object_id, ref2.object_id);
}

}  // namespace
}  // namespace itv::rpc
