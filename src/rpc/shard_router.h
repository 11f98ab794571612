// ShardRouter: client-side routing for sharded services.
//
// A sharded service publishes a wire::ShardMap pseudo-reference at
// "<base>/.shards" and binds one primary per shard at "<base>/1" ..
// "<base>/N" (wire/shard_map.h). This layer sits on top of a BindingTable
// and picks the shard for each call from a stable hash of the caller's key
// (settop host, session owner, ...), so:
//
//   - the table keys bindings by (service, shard) — each shard gets its own
//     Binding, and with it its own single-flight re-resolution, backoff, and
//     rebind metrics. A storm on shard 3 never re-resolves shards 0-2.
//   - load divides ~1/N across the N concurrently active primaries, and a
//     primary kill invalidates (and re-binds) only that shard's binding.
//
// The decoded map is cached per base path with a max age, single-flight per
// base: concurrent routes during a fetch queue behind it. Unsharded services
// need no special-casing — the ".shards" lookup comes back NOT_FOUND, the
// router caches "1 shard" and routes to the base path itself, so callers can
// adopt the router unconditionally.
//
// Versioned adoption (ROADMAP "Shard rebalancing"): maps carry a version and
// the router adopts them MONOTONICALLY. A re-fetch that returns a lower
// version than the cached one (a lagging name-service replica re-serving the
// pre-reshard map) is ignored — the cached map keeps serving and stays
// expired so the next route retries. A higher version is a live cutover:
// the router swaps maps atomically between routes (a key that moves shards
// simply hashes into the new shard path from the next dispatch on) and, when
// the shard count SHRANK, retires the BindingTable entries of the dropped
// shards so a retired shard's cached primary reference can never serve
// another call. Serving the last adopted map on a transient fetch failure is
// always safe: the worst case is routing one more call to a source shard
// that is still draining, which serves it like any pre-cutover call.
//
// A NOT_FOUND after a sharded map has been adopted is also treated as
// transient: the versioned publish swaps the ".shards" binding with an
// unbind+bind pair, so a resolve can land in the gap. Flipping to unsharded
// there would hash every key to the base path mid-cutover.
//
// Staleness: the router subscribes to the runtime's stale-target
// notifications and expires its decoded maps on any NACK/timeout, so the
// next route re-reads the map through the name service rather than trusting
// a cache that may have been populated by a now-dead replica. The router
// must therefore outlive the runtime's message dispatch (true for
// process-owned routers, the normal case).

#ifndef SRC_RPC_SHARD_ROUTER_H_
#define SRC_RPC_SHARD_ROUTER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/rpc/binding_table.h"
#include "src/wire/shard_map.h"

namespace itv::rpc {

class ShardRouter {
 public:
  // How long a decoded shard map is trusted before re-reading it through
  // the resolver (the order of the name service's 10 s audit interval).
  static constexpr Duration kMapMaxAge = Duration::Seconds(15);

  explicit ShardRouter(BindingTable& table) : table_(table) {
    table_.runtime().AddStaleTargetObserver([this] { ExpireAllMaps(); });
  }

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  BindingTable& table() { return table_; }

  // Routes one call for `key` under `base`: loads the shard map (cached,
  // single-flight) and hands the per-(service, shard) Binding to `done`.
  // `done` may run synchronously on a map cache hit.
  void Route(const std::string& base, uint64_t key,
             std::function<void(Binding&)> done) {
    Route(base, key, table_.default_options(), std::move(done));
  }
  void Route(const std::string& base, uint64_t key,
             const BindingOptions& binding_options,
             std::function<void(Binding&)> done) {
    WithMap(base, [this, base, key, binding_options,
                   done = std::move(done)](const wire::ShardMap& map) {
      done(table_.Get(wire::ShardPath(base, wire::ShardOf(key, map), map),
                      binding_options));
    });
  }

  // Routes one call to an EXPLICIT shard index under `base` (shard-aware
  // placement: a client shed by its home shard retries against the sibling
  // the load board names). Shares the cached-map machinery with Route; the
  // index is clamped modulo the adopted map's shard count, and an unsharded
  // base routes to the base path regardless of index.
  void RouteShard(const std::string& base, uint32_t shard,
                  const BindingOptions& binding_options,
                  std::function<void(Binding&)> done) {
    WithMap(base, [this, base, shard, binding_options,
                   done = std::move(done)](const wire::ShardMap& map) {
      uint32_t index = map.sharded() ? shard % map.shard_count : shard;
      done(table_.Get(wire::ShardPath(base, index, map), binding_options));
    });
  }

  // Forces the next route under `base` to re-read the map.
  void ExpireMap(const std::string& base) {
    auto it = maps_.find(base);
    if (it != maps_.end()) it->second.expired = true;
  }
  void ExpireAllMaps() {
    for (auto& [base, entry] : maps_) entry.expired = true;
  }

  // Last decoded map for `base`, if any fetch has completed (possibly
  // expired). Empty before the first route.
  std::optional<wire::ShardMap> CachedMap(const std::string& base) const {
    auto it = maps_.find(base);
    if (it == maps_.end() || !it->second.valid) return std::nullopt;
    return it->second.map;
  }

  // Version of the adopted map for `base` (0 before any fetch completes).
  // Benches and tests use this to assert cutover convergence.
  uint32_t AdoptedVersion(const std::string& base) const {
    auto it = maps_.find(base);
    return it != maps_.end() && it->second.valid ? it->second.map.version : 0;
  }

  // When the map a route under `base` would serve without re-fetching was
  // fetched; empty when the next route re-fetches regardless of age (no map
  // yet, or expired by a stale-target notification or a lagging replica).
  // Routes also re-fetch once the map is older than kMapMaxAge.
  std::optional<Time> MapFetchedAt(const std::string& base) const {
    auto it = maps_.find(base);
    if (it == maps_.end() || !it->second.valid || it->second.expired) {
      return std::nullopt;
    }
    return it->second.fetched;
  }

  uint64_t map_reloads() const { return map_reloads_; }
  // Live cutovers performed (map adopted with a version above the cached
  // one) and retired-shard bindings purged across them.
  uint64_t map_cutovers() const { return map_cutovers_; }
  uint64_t shards_retired() const { return shards_retired_; }

 private:
  struct MapEntry {
    wire::ShardMap map;
    Time fetched{};
    bool valid = false;    // `map` holds a decoded (or inferred) value.
    bool expired = true;   // Must re-fetch before trusting `map` again.
    bool fetching = false;
    std::vector<std::function<void(const wire::ShardMap&)>> waiters;
  };

  // Runs `dispatch` with the map for `base`: at once while the cached map is
  // fresh, otherwise once the single-flight fetch completes.
  template <typename F>
  void WithMap(const std::string& base, F dispatch) {
    MapEntry& entry = maps_[base];
    if (entry.valid && !entry.expired &&
        table_.runtime().executor().Now() - entry.fetched <= kMapMaxAge) {
      Count("shard.router.hits");
      dispatch(entry.map);
      return;
    }
    entry.waiters.push_back(std::move(dispatch));
    if (entry.fetching) {
      Count("shard.map.coalesced");
      return;
    }
    entry.fetching = true;
    Count("shard.map.reloads");
    ++map_reloads_;
    table_.resolver()(wire::ShardMapPath(base),
                      [this, base](Result<wire::ObjectRef> r) {
                        OnMapResult(base, std::move(r));
                      });
  }

  void OnMapResult(const std::string& base, Result<wire::ObjectRef> r) {
    MapEntry& entry = maps_[base];
    entry.fetching = false;
    if (r.ok() && wire::IsShardMapRef(*r)) {
      Adopt(base, entry, wire::DecodeShardMapRef(*r));
    } else if (r.ok() ||
               (IsNotFound(r.status()) &&
                !(entry.valid && entry.map.sharded()))) {
      // No ".shards" binding (or a foreign one): the service is unsharded.
      // Cache that — the lookup cost is one resolve per kMapMaxAge.
      entry.map = wire::ShardMap{};
      entry.valid = true;
      entry.expired = false;
      entry.fetched = table_.runtime().executor().Now();
    } else {
      // Transient: the name service is unreachable, or a known-sharded
      // service answered NOT_FOUND — which is the versioned publish's
      // unbind+bind gap, not evidence the service went unsharded. The last
      // adopted map is still routable — serve it but stay expired so the
      // next route retries the fetch. With no known value yet, route
      // unsharded without caching; the per-path binding will surface the
      // real error to the caller.
      Count("shard.map.fetch_fail");
      if (!entry.valid) entry.map = wire::ShardMap{};
    }
    auto waiters = std::move(entry.waiters);
    entry.waiters.clear();
    const wire::ShardMap map = entry.map;  // Entry may mutate re-entrantly.
    for (auto& waiter : waiters) waiter(map);
  }

  // Monotonic adoption of a fetched map. Equal or first-seen versions just
  // refresh the entry; a higher version is a live cutover (purge bindings of
  // shards the new map dropped); a lower version is a lagging name-service
  // replica and is ignored, keeping the entry expired so the next route
  // re-fetches until the replicas converge.
  void Adopt(const std::string& base, MapEntry& entry, wire::ShardMap fetched) {
    if (entry.valid && fetched.version < entry.map.version) {
      Count("shard.map.stale_version");
      return;
    }
    if (entry.valid && fetched.version > entry.map.version) {
      Count("shard.map.cutover");
      ++map_cutovers_;
      // Shrink: shards >= the new count no longer exist under any map.
      // Their (service, shard) bindings would otherwise keep a cached
      // primary reference forever — retire them now, at adoption.
      for (uint32_t shard = fetched.shard_count;
           shard < entry.map.shard_count; ++shard) {
        if (table_.Retire(wire::ShardPath(base, shard))) {
          Count("shard.binding.retired");
          ++shards_retired_;
        }
      }
    }
    entry.map = fetched;
    entry.valid = true;
    entry.expired = false;
    entry.fetched = table_.runtime().executor().Now();
  }

  void Count(std::string_view counter) {
    if (Metrics* m = table_.runtime().metrics()) m->Add(counter);
  }

  BindingTable& table_;
  std::map<std::string, MapEntry> maps_;
  uint64_t map_reloads_ = 0;
  uint64_t map_cutovers_ = 0;
  uint64_t shards_retired_ = 0;
};

// Typed smart proxy over (router, base, options): the sharded analog of
// BoundClient. Copyable value; the router (and its table) must outlive it.
// Each Call routes by `key` first, then runs like a BoundClient call against
// that shard's binding.
template <typename P>
class ShardedClient {
 public:
  ShardedClient() = default;
  ShardedClient(ShardRouter& router, std::string base, BindingOptions options)
      : router_(&router), base_(std::move(base)), options_(options) {}

  explicit operator bool() const { return router_ != nullptr; }
  const std::string& base() const { return base_; }
  ShardRouter& router() const { return *router_; }

  template <typename T>
  void Call(uint64_t key, std::function<Future<T>(const P&)> call,
            std::function<void(Result<T>)> done) const {
    ObjectRuntime* runtime = &router_->table().runtime();
    router_->Route(base_, key, options_,
                   [runtime, call = std::move(call),
                    done = std::move(done)](Binding& binding) mutable {
                     BoundClient<P>(*runtime, binding)
                         .template Call<T>(std::move(call), std::move(done));
                   });
  }

  // Like Call, but against an explicit shard index instead of a hashed key
  // (sibling-shard retry after an admission shed).
  template <typename T>
  void CallShard(uint32_t shard, std::function<Future<T>(const P&)> call,
                 std::function<void(Result<T>)> done) const {
    ObjectRuntime* runtime = &router_->table().runtime();
    router_->RouteShard(
        base_, shard, options_,
        [runtime, call = std::move(call),
         done = std::move(done)](Binding& binding) mutable {
          BoundClient<P>(*runtime, binding)
              .template Call<T>(std::move(call), std::move(done));
        });
  }

 private:
  ShardRouter* router_ = nullptr;
  std::string base_;
  BindingOptions options_;
};

}  // namespace itv::rpc

#endif  // SRC_RPC_SHARD_ROUTER_H_
