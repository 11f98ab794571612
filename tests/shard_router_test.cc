// Shard router tests: the client side of the sharded-service path space.
// Covers the pseudo-ref encoding, map caching (max age, expiry on a NACK or
// timeout) and the unsharded NOT_FOUND fallback, hash stability across map
// reloads, the per-(service, shard) binding isolation that gives a shard kill
// a one-shard blast radius — a re-resolution storm on one shard must never
// touch the other shards' bindings — and the versioned-adoption matrix for
// live resharding: newer maps cut over (retiring dropped shards' bindings),
// older maps from lagging name-service replicas are ignored, and a NOT_FOUND
// seen after a sharded map was adopted is the publish's unbind+bind gap, not
// an unsharded flip.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/rpc/binding_table.h"
#include "src/rpc/shard_router.h"
#include "src/rpc/stub_helpers.h"
#include "src/sim/cluster.h"
#include "src/wire/shard_map.h"

namespace itv::rpc {
namespace {

inline constexpr std::string_view kPingInterface = "itv.test.Ping";
inline constexpr std::string_view kBase = "svc/ping";

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

// --- Pure encoding tests ------------------------------------------------------

TEST(ShardMapTest, EncodeDecodeRoundtrip) {
  wire::ShardMap map{5, 0xfeedfacecafebeefull};
  wire::ObjectRef ref = wire::EncodeShardMapRef(map);
  EXPECT_TRUE(wire::IsShardMapRef(ref));
  EXPECT_FALSE(ref.is_null());  // Must survive name-server bind validation.
  EXPECT_EQ(wire::DecodeShardMapRef(ref), map);

  wire::ObjectRef live;
  live.endpoint = wire::Endpoint{7, 700};
  live.incarnation = 3;
  live.object_id = 9;
  EXPECT_FALSE(wire::IsShardMapRef(live));
}

TEST(ShardMapTest, ShardOfIsStableAndInRange) {
  wire::ShardMap map{4, wire::kDefaultShardSalt};
  for (uint64_t key = 1; key < 200; ++key) {
    uint32_t s = wire::ShardOf(key, map);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, wire::ShardOf(key, map));  // Pure function of (key, map).
  }
  // Unsharded map routes everything to shard 0 / the base path.
  wire::ShardMap single;
  EXPECT_EQ(wire::ShardOf(12345, single), 0u);
  EXPECT_EQ(wire::ShardPath(kBase, 0, single), kBase);
  EXPECT_EQ(wire::ShardPath(kBase, 2, map), "svc/ping/3");
}

// --- Fixture ------------------------------------------------------------------

class ShardRouterTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  ShardRouterTest() {
    server_ = &cluster_.AddServer("forge");
    client_node_ = &cluster_.AddServer("kiln");
    client_proc_ = &client_node_->Spawn("client");
    map_.shard_count = kShards;
    for (uint32_t s = 0; s < kShards; ++s) {
      SpawnShard(s);
    }
    table_ = client_proc_->Emplace<BindingTable>(client_proc_->runtime(),
                                                 MakeResolver());
    router_ = client_proc_->Emplace<ShardRouter>(*table_);
  }

  // (Re)starts shard `s`'s primary on a fresh port; the resolver hands out
  // the fresh reference afterwards, like a promoted backup's new binding.
  void SpawnShard(uint32_t s) {
    ++spawn_count_[s];
    procs_[s] = &server_->Spawn("shard-" + std::to_string(s),
                                700 + s + 10 * spawn_count_[s]);
    skeletons_[s] = procs_[s]->Emplace<PingSkeleton>();
    refs_[s] = procs_[s]->runtime().Export(skeletons_[s]);
  }

  void KillShard(uint32_t s) {
    server_->Kill(procs_[s]->pid());
    cluster_.RunUntilIdle();
  }

  // Name-service stand-in: serves the shard map at "<base>/.shards" (unless
  // unsharded), shard primaries at "<base>/1".."<base>/N", and — in the
  // unsharded configuration — shard 0's servant at the base path itself.
  // Counts lookups per path; async delivery like a real NS round trip.
  PathResolver MakeResolver() {
    return [this](const std::string& path,
                  std::function<void(Result<wire::ObjectRef>)> cb) {
      ++resolves_[path];
      Result<wire::ObjectRef> r(NotFoundError("no binding"));
      if (path == wire::ShardMapPath(kBase)) {
        if (sharded_) {
          r = Result<wire::ObjectRef>(wire::EncodeShardMapRef(map_));
        }
      } else if (!sharded_ && path == kBase) {
        r = Result<wire::ObjectRef>(refs_[0]);
      } else {
        for (uint32_t s = 0; s < kShards; ++s) {
          if (path == wire::ShardPath(kBase, s)) {
            r = Result<wire::ObjectRef>(refs_[s]);
          }
        }
      }
      client_proc_->executor().ScheduleAfter(Duration::Millis(10),
                                             [cb, r] { cb(r); });
    };
  }

  // Smallest key that hashes to `shard` under the test map.
  uint64_t KeyFor(uint32_t shard) {
    for (uint64_t k = 1;; ++k) {
      if (wire::ShardOf(k, map_) == shard) {
        return k;
      }
    }
  }

  BindingOptions FastRetry() {
    BindingOptions opts;
    opts.initial_backoff = Duration::Millis(50);
    opts.max_attempts = 20;
    return opts;
  }

  int MapResolves() { return resolves_[wire::ShardMapPath(kBase)]; }
  int ShardResolves(uint32_t s) { return resolves_[wire::ShardPath(kBase, s)]; }

  sim::Cluster cluster_;
  sim::Node* server_ = nullptr;
  sim::Node* client_node_ = nullptr;
  sim::Process* client_proc_ = nullptr;
  sim::Process* procs_[kShards] = {};
  PingSkeleton* skeletons_[kShards] = {};
  wire::ObjectRef refs_[kShards];
  int spawn_count_[kShards] = {};
  wire::ShardMap map_;
  bool sharded_ = true;
  BindingTable* table_ = nullptr;
  ShardRouter* router_ = nullptr;
  std::map<std::string, int> resolves_;
};

// --- Map caching + routing ----------------------------------------------------

TEST_F(ShardRouterTest, RoutesByKeyAndCachesTheMap) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  int ok = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    for (int i = 0; i < 3; ++i) {
      ping.Call<uint64_t>(KeyFor(s),
                          [](const PingProxy& p) { return p.Ping(); },
                          [&](Result<uint64_t> r) { ok += r.ok(); });
      cluster_.RunFor(Duration::Millis(200));
    }
  }
  EXPECT_EQ(ok, 12);
  // Every shard's servant saw exactly its keys' calls: routing is by hash,
  // not round-robin or sticky-to-first.
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(skeletons_[s]->pings, 3u) << "shard " << s;
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
  }
  // One map fetch served all twelve routes.
  EXPECT_EQ(MapResolves(), 1);
  ASSERT_TRUE(router_->CachedMap(std::string(kBase)).has_value());
  EXPECT_EQ(*router_->CachedMap(std::string(kBase)), map_);
}

TEST_F(ShardRouterTest, HashStableAcrossMapReloads) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  uint64_t key = KeyFor(3);
  auto call = [&] {
    bool done = false;
    ping.Call<uint64_t>(key, [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { done = r.ok(); });
    cluster_.RunFor(Duration::Seconds(1));
    return done;
  };
  ASSERT_TRUE(call());
  EXPECT_EQ(skeletons_[3]->pings, 1u);

  // Expire and re-read the map (what a stale-target NACK does): the same key
  // must land on the same shard, or sessions would straddle primaries.
  router_->ExpireAllMaps();
  ASSERT_TRUE(call());
  EXPECT_EQ(MapResolves(), 2);  // The reload really happened.
  EXPECT_EQ(skeletons_[3]->pings, 2u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(skeletons_[s]->pings, 0u) << "shard " << s;
  }
}

TEST_F(ShardRouterTest, UnshardedServiceFallsBackToBasePath) {
  sharded_ = false;  // ".shards" now resolves NOT_FOUND, like any plain name.
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  int ok = 0;
  for (int i = 0; i < 5; ++i) {
    ping.Call<uint64_t>(/*key=*/i * 977 + 1,
                        [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
    cluster_.RunFor(Duration::Millis(200));
  }
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(skeletons_[0]->pings, 5u);  // Every key routes to the base path.
  EXPECT_EQ(resolves_[std::string(kBase)], 1);
  // The NOT_FOUND is cached as "unsharded": one lookup, not one per call.
  EXPECT_EQ(MapResolves(), 1);
  ASSERT_TRUE(router_->CachedMap(std::string(kBase)).has_value());
  EXPECT_FALSE(router_->CachedMap(std::string(kBase))->sharded());
}

TEST_F(ShardRouterTest, MapServedUntilMaxAgeThenRefetched) {
  const std::string base(kBase);
  auto route = [&] {
    router_->Route(base, KeyFor(1), [](Binding&) {});
  };
  route();
  cluster_.RunFor(Duration::Millis(200));
  ASSERT_EQ(MapResolves(), 1);
  std::optional<Time> fetched = router_->MapFetchedAt(base);
  ASSERT_TRUE(fetched.has_value());

  // Within the max age every route is served from the cached map...
  cluster_.RunFor(*fetched + ShardRouter::kMapMaxAge - Duration::Seconds(1) -
                  cluster_.Now());
  route();
  EXPECT_EQ(MapResolves(), 1);
  EXPECT_EQ(router_->MapFetchedAt(base), fetched);

  // ...and past it the next route re-reads the map, which the router then
  // serves with a fresh fetch time.
  cluster_.RunFor(Duration::Seconds(2));
  route();
  EXPECT_EQ(MapResolves(), 2);
  cluster_.RunFor(Duration::Millis(200));
  ASSERT_TRUE(router_->MapFetchedAt(base).has_value());
  EXPECT_GT(*router_->MapFetchedAt(base), *fetched);
}

TEST_F(ShardRouterTest, MapMaxAgeIsFifteenSecondsInclusive) {
  ASSERT_EQ(ShardRouter::kMapMaxAge, Duration::Seconds(15));
  const std::string base(kBase);
  auto route = [&] {
    router_->Route(base, KeyFor(1), [](Binding&) {});
  };
  route();
  cluster_.RunFor(Duration::Millis(200));
  ASSERT_EQ(MapResolves(), 1);
  std::optional<Time> fetched = router_->MapFetchedAt(base);
  ASSERT_TRUE(fetched.has_value());

  // A map exactly kMapMaxAge old still serves: expiry is `age > max age`.
  cluster_.RunFor(*fetched + ShardRouter::kMapMaxAge - cluster_.Now());
  route();
  EXPECT_EQ(MapResolves(), 1);

  // One millisecond later it no longer does.
  cluster_.RunFor(Duration::Millis(1));
  route();
  EXPECT_EQ(MapResolves(), 2);
}

TEST_F(ShardRouterTest, StaleTargetNotificationExpiresMaps) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto call = [&](uint32_t shard) {
    bool ok = false;
    ping.Call<uint64_t>(KeyFor(shard),
                        [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  ASSERT_TRUE(call(1));
  ASSERT_EQ(MapResolves(), 1);

  // A call to shard 1's dead primary fails over; the failure also expires
  // the cached map, which may have been read before the failure.
  KillShard(1);
  SpawnShard(1);
  ASSERT_TRUE(call(1));
  EXPECT_EQ(ShardResolves(1), 2);
  EXPECT_FALSE(router_->MapFetchedAt(std::string(kBase)).has_value());

  // So the next route on any shard re-reads the map first.
  ASSERT_TRUE(call(0));
  EXPECT_EQ(MapResolves(), 2);
  EXPECT_TRUE(router_->MapFetchedAt(std::string(kBase)).has_value());
}

// --- Per-shard blast radius ---------------------------------------------------

TEST_F(ShardRouterTest, PrimaryMoveRebindsOnlyThatShard) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto call = [&](uint32_t shard) {
    bool ok = false;
    ping.Call<uint64_t>(KeyFor(shard),
                        [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(call(s)) << "shard " << s;
  }

  // Shard 2's primary dies and a new incarnation takes over its binding.
  KillShard(2);
  SpawnShard(2);
  ASSERT_TRUE(call(2));
  EXPECT_EQ(skeletons_[2]->pings, 1u);  // The new incarnation answered.

  // Only shard 2 re-resolved; the other shards' bindings were never touched.
  EXPECT_EQ(ShardResolves(2), 2);
  for (uint32_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
    EXPECT_EQ(
        table_->Get(wire::ShardPath(kBase, s), FastRetry()).rebind_count(), 1u)
        << "shard " << s;
  }
  // Other shards still answer without any new lookups.
  ASSERT_TRUE(call(0));
  EXPECT_EQ(ShardResolves(0), 1);
}

TEST_F(ShardRouterTest, StormOnOneShardIsSingleFlightPerShard) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto prime = [&](uint32_t shard) {
    bool ok = false;
    ping.Call<uint64_t>(KeyFor(shard),
                        [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(prime(s)) << "shard " << s;
  }

  // Shard 3 fails over, then takes a 12-call storm at one virtual instant.
  KillShard(3);
  SpawnShard(3);
  constexpr int kStorm = 12;
  int ok = 0;
  for (int i = 0; i < kStorm; ++i) {
    ping.Call<uint64_t>(KeyFor(3), [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kStorm);

  // The storm folded into one shared re-resolve on shard 3's binding...
  EXPECT_EQ(ShardResolves(3), 2);
  EXPECT_GE(table_->Get(wire::ShardPath(kBase, 3), FastRetry())
                .coalesced_count(),
            static_cast<uint64_t>(kStorm - 1));
  // ...and shards 0-2 saw no re-resolution at all.
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(ShardResolves(s), 1) << "shard " << s;
    EXPECT_EQ(
        table_->Get(wire::ShardPath(kBase, s), FastRetry()).rebind_count(), 1u)
        << "shard " << s;
  }
}

// --- Versioned adoption (live resharding) -------------------------------------

TEST_F(ShardRouterTest, ShrinkCutoverRetiresDroppedShardBindings) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto call = [&](uint64_t key) {
    bool ok = false;
    ping.Call<uint64_t>(key, [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  // Prime every shard's binding under v1.
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(call(KeyFor(s))) << "shard " << s;
  }
  EXPECT_EQ(router_->AdoptedVersion(std::string(kBase)), 1u);

  // Publish v2: 4 -> 2 shards. The next route past the cache re-reads the
  // map and must cut over: dropped shards' bindings retire at adoption.
  uint64_t old_keys[kShards];
  for (uint32_t s = 0; s < kShards; ++s) {
    old_keys[s] = KeyFor(s);
  }
  uint64_t pings_before[kShards];
  for (uint32_t s = 0; s < kShards; ++s) {
    pings_before[s] = skeletons_[s]->pings;
  }
  map_ = wire::NextShardMap(map_, 2);
  router_->ExpireAllMaps();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(call(old_keys[s])) << "old shard " << s;
  }
  EXPECT_EQ(router_->AdoptedVersion(std::string(kBase)), 2u);
  EXPECT_EQ(router_->map_cutovers(), 1u);
  EXPECT_EQ(router_->shards_retired(), 2u);
  EXPECT_EQ(table_->retired_count(), 2u);
  // The dropped shards' bindings are gone from the live table and their
  // servants saw no post-cutover traffic.
  EXPECT_EQ(table_->Find(wire::ShardPath(kBase, 2)), nullptr);
  EXPECT_EQ(table_->Find(wire::ShardPath(kBase, 3)), nullptr);
  EXPECT_EQ(skeletons_[2]->pings, pings_before[2]);
  EXPECT_EQ(skeletons_[3]->pings, pings_before[3]);
  // Surviving shards keep their bindings (no gratuitous re-resolution).
  EXPECT_EQ(ShardResolves(0), 1);
  EXPECT_EQ(ShardResolves(1), 1);
}

TEST_F(ShardRouterTest, IgnoresStaleLowerVersionMap) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto call = [&](uint64_t key) {
    bool ok = false;
    ping.Call<uint64_t>(key, [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  wire::ShardMap v1 = map_;
  ASSERT_TRUE(call(KeyFor(0)));

  // Adopt v2 (same shard count: a pure version bump, no retirement).
  map_ = wire::NextShardMap(v1, kShards);
  router_->ExpireAllMaps();
  ASSERT_TRUE(call(KeyFor(1)));
  ASSERT_EQ(router_->AdoptedVersion(std::string(kBase)), 2u);
  EXPECT_EQ(router_->shards_retired(), 0u);

  // A lagging name-service replica re-serves v1: the router must keep v2 AND
  // keep the entry expired, so every route re-fetches until the replicas
  // converge on the new map.
  map_ = v1;
  router_->ExpireAllMaps();
  int fetches = MapResolves();
  ASSERT_TRUE(call(KeyFor(2)));
  EXPECT_EQ(router_->AdoptedVersion(std::string(kBase)), 2u);
  EXPECT_EQ(MapResolves(), fetches + 1);
  ASSERT_TRUE(call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), fetches + 2);  // Still refetching: not adopted.

  // The replica catches up; the fetch parks the entry fresh again.
  map_ = wire::NextShardMap(v1, kShards);
  ASSERT_TRUE(call(KeyFor(0)));
  int settled = MapResolves();
  ASSERT_TRUE(call(KeyFor(1)));
  EXPECT_EQ(MapResolves(), settled);  // Cache hit: adoption un-expired it.
}

TEST_F(ShardRouterTest, NotFoundAfterShardedMapIsTransient) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  auto call = [&](uint64_t key) {
    bool ok = false;
    ping.Call<uint64_t>(key, [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok = r.ok(); });
    cluster_.RunFor(Duration::Seconds(2));
    return ok;
  };
  ASSERT_TRUE(call(KeyFor(3)));
  EXPECT_EQ(skeletons_[3]->pings, 1u);

  // The versioned publish swaps ".shards" with unbind+bind; a resolve lands
  // in the gap and sees NOT_FOUND. The router must NOT flip to unsharded —
  // that would hash every key to the base path mid-cutover.
  sharded_ = false;
  router_->ExpireAllMaps();
  ASSERT_TRUE(call(KeyFor(3)));
  EXPECT_EQ(skeletons_[3]->pings, 2u);  // Still routed to shard 3.
  ASSERT_TRUE(router_->CachedMap(std::string(kBase)).has_value());
  EXPECT_TRUE(router_->CachedMap(std::string(kBase))->sharded());
  int fetches = MapResolves();
  ASSERT_TRUE(call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), fetches + 1);  // Stays expired: keeps retrying.

  // The publish's bind half lands; the next fetch re-adopts and settles.
  sharded_ = true;
  ASSERT_TRUE(call(KeyFor(3)));
  int settled = MapResolves();
  ASSERT_TRUE(call(KeyFor(3)));
  EXPECT_EQ(MapResolves(), settled);
}

TEST_F(ShardRouterTest, SettopStormDuringCutoverSingleFlightsTheMapFetch) {
  ShardedClient<PingProxy> ping(*router_, std::string(kBase), FastRetry());
  // Prime under v1.
  int ok = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    ping.Call<uint64_t>(KeyFor(s), [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
    cluster_.RunFor(Duration::Millis(200));
  }
  ASSERT_EQ(ok, 4);
  ASSERT_EQ(MapResolves(), 1);

  // Cutover to v2 (4 -> 2) lands while 64 settops all route at one virtual
  // instant. This process must fold the storm into ONE map fetch — fetches
  // stay O(processes), not O(settops) — and every call must complete.
  map_ = wire::NextShardMap(map_, 2);
  router_->ExpireAllMaps();
  constexpr int kSettops = 64;
  ok = 0;
  for (int i = 0; i < kSettops; ++i) {
    ping.Call<uint64_t>(/*key=*/i * 977 + 1,
                        [](const PingProxy& p) { return p.Ping(); },
                        [&](Result<uint64_t> r) { ok += r.ok(); });
  }
  cluster_.RunFor(Duration::Seconds(10));
  EXPECT_EQ(ok, kSettops);
  EXPECT_EQ(MapResolves(), 2);  // One pre-cutover fetch + one for the storm.
  EXPECT_EQ(router_->AdoptedVersion(std::string(kBase)), 2u);
  EXPECT_EQ(router_->map_cutovers(), 1u);
  // Post-cutover traffic stayed on the surviving shards.
  EXPECT_EQ(skeletons_[2]->pings + skeletons_[3]->pings, 2u);  // Priming only.
}

}  // namespace
}  // namespace itv::rpc
