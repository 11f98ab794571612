#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/cluster.h"
#include "src/sim/scheduler.h"

namespace itv::sim {
namespace {

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(Time::FromNanos(300), [&] { order.push_back(3); });
  s.ScheduleAt(Time::FromNanos(100), [&] { order.push_back(1); });
  s.ScheduleAt(Time::FromNanos(200), [&] { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), Time::FromNanos(300));
}

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.ScheduleAt(Time::FromNanos(100), [&, i] { order.push_back(i); });
  }
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  TimerId id = s.ScheduleAt(Time::FromNanos(100), [&] { ran = true; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // Second cancel is a no-op.
  s.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, RunUntilAdvancesClockWithoutEvents) {
  Scheduler s;
  s.RunUntil(Time::FromNanos(5000));
  EXPECT_EQ(s.Now(), Time::FromNanos(5000));
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler s;
  bool late_ran = false;
  s.ScheduleAt(Time::FromNanos(100), [] {});
  s.ScheduleAt(Time::FromNanos(10000), [&] { late_ran = true; });
  s.RunUntil(Time::FromNanos(500));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.Now(), Time::FromNanos(500));
  s.RunUntil(Time::FromNanos(10000));
  EXPECT_TRUE(late_ran);
}

TEST(SchedulerTest, EventsScheduledInPastRunNow) {
  Scheduler s;
  s.RunUntil(Time::FromNanos(1000));
  bool ran = false;
  s.ScheduleAt(Time::FromNanos(1), [&] { ran = true; });
  s.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.Now(), Time::FromNanos(1000));  // Clock never goes backwards.
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) {
      s.ScheduleAfter(Duration::Millis(1), chain);
    }
  };
  s.ScheduleAfter(Duration::Millis(1), chain);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.Now(), Time() + Duration::Millis(10));
}

TEST(SchedulerTest, StepRunsExactlyOne) {
  Scheduler s;
  int count = 0;
  s.ScheduleAt(Time::FromNanos(1), [&] { ++count; });
  s.ScheduleAt(Time::FromNanos(2), [&] { ++count; });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.Step());
}

TEST(SchedulerTest, CancelReclaimsTombstonesByCompaction) {
  Scheduler s;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.ScheduleAt(Time::FromNanos(100 + i), [] {}));
  }
  // Cancel most of them: tombstones must outnumber live entries at some
  // point, which triggers the sweep instead of letting the heap fill up
  // with dead entries (the seed implementation's leak).
  for (int i = 0; i < 1000; i += 2) {
    EXPECT_TRUE(s.Cancel(ids[i]));
  }
  EXPECT_GE(s.compactions(), 1u);
  EXPECT_LE(s.tombstone_entries(), 500u);
  EXPECT_EQ(s.pending_events(), 500u);
  s.RunUntilIdle();
  EXPECT_EQ(s.executed_events(), 500u);
  EXPECT_EQ(s.tombstone_entries(), 0u);
}

TEST(SchedulerTest, CompactionPreservesFifoOrder) {
  Scheduler s;
  std::vector<int> order;
  std::vector<TimerId> victims;
  // Many events at the same virtual time: compaction rebuilds the heap, and
  // equal-time entries must still run in scheduling order afterwards.
  for (int i = 0; i < 200; ++i) {
    s.ScheduleAt(Time::FromNanos(100), [&order, i] { order.push_back(i); });
    victims.push_back(s.ScheduleAt(Time::FromNanos(100), [] {}));
  }
  for (TimerId id : victims) {
    EXPECT_TRUE(s.Cancel(id));
  }
  EXPECT_GE(s.compactions(), 1u);
  s.RunUntilIdle();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, StaleCancelOfFiredTimerIsSafeAfterSlotReuse) {
  Scheduler s;
  int second_ran = 0;
  TimerId first = s.ScheduleAt(Time::FromNanos(100), [] {});
  s.RunUntilIdle();
  // The fired timer's slot is free; the next schedule reuses it with a new
  // generation. Cancelling the stale id must not touch the new tenant.
  TimerId second = s.ScheduleAt(Time::FromNanos(200), [&] { ++second_ran; });
  EXPECT_FALSE(s.Cancel(first));
  s.RunUntilIdle();
  EXPECT_EQ(second_ran, 1);
  EXPECT_NE(first, second);
}

TEST(SchedulerTest, CallbackMayRescheduleIntoOwnSlot) {
  Scheduler s;
  int runs = 0;
  // The slot is freed before the callback runs, so the callback's own
  // ScheduleAt may land in the very slot it is executing from.
  s.ScheduleAt(Time::FromNanos(100), [&] {
    ++runs;
    s.ScheduleAt(Time::FromNanos(200), [&] { ++runs; });
  });
  s.RunUntilIdle();
  EXPECT_EQ(runs, 2);
}

TEST(SchedulerTest, RunUntilIdleBudgetExhaustionIsNonFatal) {
  Scheduler s;
  uint64_t steps = 0;
  std::function<void()> spin = [&] {
    ++steps;
    s.ScheduleAfter(Duration::Nanos(1), spin);
  };
  s.ScheduleAfter(Duration::Nanos(1), spin);
  // The seed implementation ITV_CHECK-crashed here; now it warns and returns
  // with the runaway event still pending.
  s.RunUntilIdle(/*max_events=*/100);
  EXPECT_EQ(steps, 100u);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Cancel(0);  // kInvalidTimerId: never valid, never crashes.
}

TEST(SchedulerTest, InvalidAndOutOfRangeCancelReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.Cancel(0));
  EXPECT_FALSE(s.Cancel(~uint64_t{0}));
  TimerId id = s.ScheduleAt(Time::FromNanos(1), [] {});
  EXPECT_FALSE(s.Cancel(id + (uint64_t{1} << 32)));  // Wrong generation.
  EXPECT_TRUE(s.Cancel(id));
}

TEST(SchedulerTest, MoveOnlyCallbacksAreSupported) {
  Scheduler s;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  s.ScheduleAt(Time::FromNanos(10),
               [p = std::move(payload), &seen] { seen = *p + 1; });
  s.RunUntilIdle();
  EXPECT_EQ(seen, 42);
}

TEST(SchedulerTest, CancelOwnedCancelsAllOfOneOwnerAcrossCompactions) {
  Scheduler s;
  const std::string a_name = "node/a";
  Scheduler::Owner a{&a_name};
  Scheduler::Owner b;
  int a_fired = 0;
  int b_fired = 0;
  int bare_fired = 0;
  const std::string* a_identity = nullptr;
  // Interleaved, so the owner's entries are spread through the heap; its
  // cancels reach half the heap several times, and each compaction
  // reorders the heap in the middle of CancelOwned.
  auto a_timer = [&] {
    ++a_fired;
    a_identity = CurrentLogIdentity();
  };
  auto b_timer = [&] { ++b_fired; };
  for (int i = 0; i < 100; ++i) {
    s.ScheduleOwned(Time::FromNanos(1000 + i), a_timer, &a);
    if (i % 5 == 0) {
      s.ScheduleOwned(Time::FromNanos(500 + i), b_timer, &b);
    }
    if (i % 10 == 0) {
      s.ScheduleAt(Time::FromNanos(2000 - i), [&] { ++bare_fired; });
    }
  }
  s.ScheduleOwned(Time::FromNanos(3000), a_timer, &a);
  s.RunUntil(Time::FromNanos(1000));  // One of a's timers fires.
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(a_identity, &a_name);
  EXPECT_EQ(b_fired, 20);

  s.CancelOwned(&a);
  EXPECT_GE(s.compactions(), 1u);
  EXPECT_EQ(s.pending_events(), 10u);
  s.RunUntilIdle();
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(bare_fired, 10);
}

TEST(AddressingTest, ServerAndSettopHostEncoding) {
  uint32_t server = MakeServerHost(3);
  EXPECT_TRUE(IsServerHost(server));
  EXPECT_FALSE(IsSettopHost(server));

  uint32_t settop = MakeSettopHost(5, 12);
  EXPECT_TRUE(IsSettopHost(settop));
  EXPECT_FALSE(IsServerHost(settop));
  EXPECT_EQ(NeighborhoodOfHost(settop), 5);
}

TEST(ClusterTest, AddServerAssignsDistinctHosts) {
  Cluster c;
  Node& a = c.AddServer("forge");
  Node& b = c.AddServer("kiln");
  EXPECT_NE(a.host(), b.host());
  EXPECT_EQ(c.servers().size(), 2u);
  EXPECT_EQ(c.FindNode(a.host()), &a);
}

TEST(ClusterTest, AddSettopEncodesNeighborhood) {
  Cluster c;
  Node& s1 = c.AddSettop(1);
  Node& s2 = c.AddSettop(1);
  Node& s3 = c.AddSettop(2);
  EXPECT_EQ(NeighborhoodOfHost(s1.host()), 1);
  EXPECT_EQ(NeighborhoodOfHost(s3.host()), 2);
  EXPECT_NE(s1.host(), s2.host());
}

TEST(ClusterTest, SpawnAssignsPidsAndPorts) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& p1 = n.Spawn("ns", 500);
  Process& p2 = n.Spawn("ras");
  EXPECT_NE(p1.pid(), p2.pid());
  EXPECT_EQ(p1.port(), 500);
  EXPECT_GE(p2.port(), 30000);
  EXPECT_NE(p1.incarnation(), p2.incarnation());
  EXPECT_EQ(n.process_count(), 2u);
  EXPECT_EQ(n.FindProcessByName("ras"), &p2);
}

TEST(ClusterTest, KillTakesEffectOnNextTurn) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& p = n.Spawn("svc");
  uint64_t pid = p.pid();
  n.Kill(pid);
  EXPECT_NE(n.FindProcess(pid), nullptr);  // Deferred.
  c.RunUntilIdle();
  EXPECT_EQ(n.FindProcess(pid), nullptr);
  EXPECT_EQ(c.FindProcessGlobal(pid), nullptr);
}

TEST(ClusterTest, ExitWatcherFiresWithReason) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& watcher = n.Spawn("ssc");
  Process& target = n.Spawn("svc");
  uint64_t seen_pid = 0;
  ExitReason seen_reason = ExitReason::kExited;
  watcher.WatchExitOf(target, [&](uint64_t pid, ExitReason reason) {
    seen_pid = pid;
    seen_reason = reason;
  });
  uint64_t target_pid = target.pid();
  n.Kill(target_pid, ExitReason::kKilled);
  c.RunUntilIdle();
  EXPECT_EQ(seen_pid, target_pid);
  EXPECT_EQ(seen_reason, ExitReason::kKilled);
}

TEST(ClusterTest, ExitWatcherSkippedIfWatcherDead) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& watcher = n.Spawn("ssc");
  Process& target = n.Spawn("svc");
  bool fired = false;
  watcher.WatchExitOf(target, [&](uint64_t, ExitReason) { fired = true; });
  n.Kill(watcher.pid());
  n.Kill(target.pid());
  c.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(ClusterTest, NodeCrashKillsAllProcessesWithNodeCrashReason) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Node& other = c.AddServer("kiln");
  Process& watcher = other.Spawn("csc");
  Process& a = n.Spawn("a");
  n.Spawn("b");
  ExitReason reason = ExitReason::kExited;
  watcher.WatchExitOf(a, [&](uint64_t, ExitReason r) { reason = r; });
  n.Crash();
  EXPECT_FALSE(n.alive());
  c.RunUntilIdle();
  EXPECT_EQ(n.process_count(), 0u);
  EXPECT_EQ(reason, ExitReason::kNodeCrash);
}

TEST(ClusterTest, RestartBringsNodeBackEmpty)
{
  Cluster c;
  Node& n = c.AddServer("forge");
  n.Spawn("a", 500);
  n.Crash();
  c.RunUntilIdle();
  n.Restart();
  EXPECT_TRUE(n.alive());
  EXPECT_EQ(n.process_count(), 0u);
  // The well-known port is free again after restart.
  Process& again = n.Spawn("a", 500);
  EXPECT_EQ(again.port(), 500);
}

TEST(ClusterTest, ProcessEmplaceOwnsObjects) {
  struct Tracked {
    explicit Tracked(bool* flag) : flag(flag) {}
    ~Tracked() { *flag = true; }
    bool* flag;
  };
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& p = n.Spawn("svc");
  bool destroyed = false;
  p.Emplace<Tracked>(&destroyed);
  n.Kill(p.pid());
  c.RunUntilIdle();
  EXPECT_TRUE(destroyed);
}

TEST(ClusterTest, ProcessTimersCancelledOnKill) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& p = n.Spawn("svc");
  bool fired = false;
  p.executor().ScheduleAfter(Duration::Seconds(1), [&] { fired = true; });
  n.Kill(p.pid());
  c.RunFor(Duration::Seconds(5));
  EXPECT_FALSE(fired);
}

TEST(ClusterTest, KillCancelsOnlyTheKilledProcessesTimers) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& victim = n.Spawn("victim");
  Process& sibling = n.Spawn("sibling");
  int victim_fired = 0;
  int sibling_fired = 0;
  TimerId victim_timer = victim.executor().ScheduleAfter(
      Duration::Seconds(1), [&] { ++victim_fired; });
  victim.executor().ScheduleAfter(Duration::Seconds(2),
                                  [&] { ++victim_fired; });
  for (int i = 1; i <= 3; ++i) {
    sibling.executor().ScheduleAfter(Duration::Seconds(i),
                                     [&] { ++sibling_fired; });
  }
  TimerId sibling_timer = sibling.executor().ScheduleAfter(
      Duration::Seconds(4), [&] { ++sibling_fired; });

  n.Kill(victim.pid());
  c.RunFor(Duration::Millis(1));  // The kill, nothing else.
  EXPECT_EQ(n.process_count(), 1u);
  EXPECT_FALSE(c.scheduler().Cancel(victim_timer));
  EXPECT_EQ(c.scheduler().pending_events(), 4u);

  c.RunFor(Duration::Seconds(3));
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(sibling_fired, 3);
  EXPECT_FALSE(c.scheduler().Cancel(victim_timer));
  EXPECT_TRUE(sibling.executor().Cancel(sibling_timer));
  EXPECT_EQ(c.scheduler().pending_events(), 0u);
}

TEST(ClusterTest, NodeCrashCancelsTheTimersOfEveryProcessOnIt) {
  Cluster c;
  Node& n = c.AddServer("forge");
  Node& other = c.AddServer("kiln");
  int fired_on_crashed = 0;
  int fired_elsewhere = 0;
  for (const char* name : {"a", "b", "c"}) {
    Process& p = n.Spawn(name);
    p.executor().ScheduleAfter(Duration::Seconds(1),
                               [&] { ++fired_on_crashed; });
    p.executor().ScheduleAfter(Duration::Seconds(3),
                               [&] { ++fired_on_crashed; });
  }
  other.Spawn("d").executor().ScheduleAfter(Duration::Seconds(2),
                                            [&] { ++fired_elsewhere; });
  n.Crash();
  c.RunFor(Duration::Seconds(5));
  EXPECT_EQ(fired_on_crashed, 0);
  EXPECT_EQ(fired_elsewhere, 1);
  EXPECT_EQ(c.scheduler().pending_events(), 0u);
}

TEST(ClusterTest, TimersScheduledDuringTeardownAreCancelled) {
  // A service object whose destructor schedules on its process's executor:
  // the process is freed right after teardown, so the timer must not stay
  // armed (it would run into a destroyed process).
  struct PostsOnDestroy {
    PostsOnDestroy(Executor& executor, bool* fired)
        : executor(executor), fired(fired) {}
    ~PostsOnDestroy() {
      executor.ScheduleAfter(Duration::Seconds(1),
                             [fired = fired] { *fired = true; });
    }
    Executor& executor;
    bool* fired;
  };
  Cluster c;
  Node& n = c.AddServer("forge");
  Process& p = n.Spawn("svc");
  bool fired = false;
  p.Emplace<PostsOnDestroy>(p.executor(), &fired);
  n.Kill(p.pid());
  c.RunFor(Duration::Seconds(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(c.scheduler().pending_events(), 0u);
}

TEST(ClusterTest, ProcessCallbacksRunUnderTheProcessLogIdentity) {
  Cluster c;
  Process& tx = c.AddServer("forge").Spawn("tx");
  Process& rx = c.AddServer("kiln").Spawn("rx");
  const std::string kNotRun = "not run";
  const std::string* timer_identity = &kNotRun;
  const std::string* delivery_identity = &kNotRun;
  const std::string* bare_identity = &kNotRun;
  const std::string* nested_bare_identity = &kNotRun;
  tx.executor().ScheduleAfter(Duration::Millis(1), [&] {
    timer_identity = CurrentLogIdentity();
    // A scheduler event posted from process code belongs to no process.
    c.scheduler().Post([&] { nested_bare_identity = CurrentLogIdentity(); });
  });
  rx.transport().SetReceiver(
      [&](wire::Message) { delivery_identity = CurrentLogIdentity(); });
  c.scheduler().ScheduleAt(c.Now() + Duration::Millis(2),
                           [&] { bare_identity = CurrentLogIdentity(); });
  tx.transport().Send(rx.endpoint(), wire::Message{});
  c.RunFor(Duration::Seconds(1));

  EXPECT_EQ(timer_identity, &tx.log_identity());
  EXPECT_EQ(tx.log_identity(), "forge/tx");
  EXPECT_EQ(delivery_identity, &rx.log_identity());
  EXPECT_EQ(bare_identity, nullptr);
  EXPECT_EQ(nested_bare_identity, nullptr);
  EXPECT_EQ(CurrentLogIdentity(), nullptr);
}

TEST(ClusterTest, FindNodeAndForEachProcessFollowHostOrder) {
  Cluster c;
  // Added out of host order: settops of neighborhood 2 before 1, servers in
  // between.
  std::vector<Node*> added = {&c.AddSettop(2), &c.AddServer("a"),
                              &c.AddSettop(1), &c.AddServer("b"),
                              &c.AddSettop(2)};
  std::vector<uint32_t> hosts;
  for (Node* node : added) {
    EXPECT_EQ(c.FindNode(node->host()), node);
    node->Spawn("p");
    hosts.push_back(node->host());
  }
  EXPECT_EQ(c.FindNode(MakeServerHost(200)), nullptr);
  EXPECT_EQ(c.FindNode(MakeSettopHost(3, 1)), nullptr);
  EXPECT_EQ(c.FindNode(0), nullptr);

  std::vector<uint32_t> visited;
  c.ForEachProcess([&](Process& p) { visited.push_back(p.host()); });
  std::sort(hosts.begin(), hosts.end());
  EXPECT_EQ(visited, hosts);
}

TEST(NetworkTest, PartitionBookkeeping) {
  Cluster c;
  Network& net = c.network();
  net.Partition(1, 2, true);
  EXPECT_TRUE(net.IsBlocked(1, 2));
  EXPECT_TRUE(net.IsBlocked(2, 1));
  EXPECT_FALSE(net.IsBlocked(1, 3));
  net.Partition(1, 2, false);
  EXPECT_FALSE(net.IsBlocked(1, 2));
  net.Isolate(7, true);
  EXPECT_TRUE(net.IsBlocked(7, 9));
  EXPECT_TRUE(net.IsBlocked(9, 7));
  net.Isolate(7, false);
  EXPECT_FALSE(net.IsBlocked(7, 9));
}

TEST(NetworkTest, PartitionIsSymmetricByConstruction) {
  Cluster c;
  Network& net = c.network();
  net.Partition(3, 9, true);
  // Healing through the swapped pair addresses the same canonical link: a
  // fuzz schedule can never half-heal a partition it installed.
  net.Partition(9, 3, false);
  EXPECT_FALSE(net.IsBlocked(3, 9));
  EXPECT_FALSE(net.IsBlocked(9, 3));
  net.Partition(9, 3, true);
  net.Isolate(5, true);
  EXPECT_EQ(net.partition_count(), 1u);
  EXPECT_EQ(net.isolated_count(), 1u);
  net.HealAllPartitions();
  EXPECT_EQ(net.partition_count(), 0u);
  EXPECT_EQ(net.isolated_count(), 0u);
  EXPECT_FALSE(net.IsBlocked(3, 9));
  EXPECT_FALSE(net.IsBlocked(5, 1));
}

// --- Message-fault injection (chaos substrate) --------------------------------

struct FaultRig {
  Cluster cluster;
  Process* tx = nullptr;
  Process* rx = nullptr;
  std::vector<uint64_t> received;

  FaultRig() {
    Node& a = cluster.AddServer("a");
    Node& b = cluster.AddServer("b");
    tx = &a.Spawn("tx");
    rx = &b.Spawn("rx");
    rx->transport().SetReceiver(
        [this](wire::Message m) { received.push_back(m.call_id); });
  }

  void SendBurst(uint64_t count) {
    for (uint64_t i = 1; i <= count; ++i) {
      wire::Message m;
      m.call_id = i;
      tx->transport().Send(rx->endpoint(), std::move(m));
    }
  }
};

TEST(NetworkTest, EqualTimeMessagesOnOneLinkArriveInSendOrder) {
  Cluster c;
  Process& tx = c.AddServer("a").Spawn("tx");
  Process& rx = c.AddServer("b").Spawn("rx");
  std::vector<uint64_t> ids;
  std::vector<wire::Bytes> payloads;
  rx.transport().SetReceiver([&](wire::Message m) {
    ids.push_back(m.call_id);
    payloads.push_back(std::move(m.payload));
  });
  constexpr uint64_t kCount = 1000;
  for (uint64_t i = 1; i <= kCount; ++i) {
    wire::Message m;
    m.call_id = i;
    m.payload = wire::Bytes(i % 17, static_cast<uint8_t>(i));
    tx.transport().Send(rx.endpoint(), std::move(m));
  }
  c.RunFor(Duration::Seconds(1));
  ASSERT_EQ(ids.size(), kCount);
  for (uint64_t i = 1; i <= kCount; ++i) {
    EXPECT_EQ(ids[i - 1], i);
    EXPECT_EQ(payloads[i - 1], wire::Bytes(i % 17, static_cast<uint8_t>(i)));
  }
}

TEST(NetworkTest, RequestToDeadPortIsNackedAmidManyInFlight) {
  Cluster c;
  Process& tx = c.AddServer("a").Spawn("tx");
  Node& far = c.AddServer("b");
  Process& echo = far.Spawn("echo");
  // The echo replies from inside its delivery, so replies reuse the
  // in-flight entries the requests just freed.
  echo.transport().SetReceiver([&](wire::Message m) {
    wire::Message reply;
    reply.kind = wire::MsgKind::kReply;
    reply.call_id = m.call_id;
    reply.payload = std::move(m.payload);
    echo.transport().Send(m.source, std::move(reply));
  });
  struct Seen {
    wire::MsgKind kind;
    uint64_t call_id;
    wire::Bytes payload;
  };
  std::vector<Seen> seen;
  tx.transport().SetReceiver([&](wire::Message m) {
    seen.push_back(Seen{m.kind, m.call_id, std::move(m.payload)});
  });
  constexpr uint64_t kCount = 200;
  constexpr uint64_t kDeadCall = 9999;
  auto payload_of = [](uint64_t i) {
    return wire::Bytes(8 + i % 5, static_cast<uint8_t>(i * 7));
  };
  for (uint64_t i = 1; i <= kCount; ++i) {
    wire::Message m;
    m.call_id = i;
    m.payload = payload_of(i);
    tx.transport().Send(echo.endpoint(), std::move(m));
    if (i == kCount / 2) {
      wire::Message dead;
      dead.call_id = kDeadCall;
      dead.payload = wire::Bytes(64, 0xee);
      tx.transport().Send(wire::Endpoint{far.host(), 4242}, std::move(dead));
    }
  }
  c.RunFor(Duration::Seconds(1));

  // Every request left at t=0, so every answer lands at the same instant,
  // in the order the requests were delivered: the NACK sits between the
  // replies to request kCount / 2 and kCount / 2 + 1.
  ASSERT_EQ(seen.size(), kCount + 1);
  size_t pos = 0;
  for (uint64_t i = 1; i <= kCount; ++i) {
    EXPECT_EQ(seen[pos].kind, wire::MsgKind::kReply);
    EXPECT_EQ(seen[pos].call_id, i);
    EXPECT_EQ(seen[pos].payload, payload_of(i));
    ++pos;
    if (i == kCount / 2) {
      EXPECT_EQ(seen[pos].kind, wire::MsgKind::kNack);
      EXPECT_EQ(seen[pos].call_id, kDeadCall);
      EXPECT_TRUE(seen[pos].payload.empty());
      ++pos;
    }
  }
  EXPECT_EQ(c.metrics().Get("net.msg.total"), 2 * (kCount + 1));
  EXPECT_EQ(c.metrics().Get("net.msg.dropped"), 0u);
}

TEST(NetworkTest, OneWayRequestToDeadPortIsNotNacked) {
  Cluster c;
  Process& tx = c.AddServer("a").Spawn("tx");
  Node& far = c.AddServer("b");
  std::vector<uint64_t> nacked;
  tx.transport().SetReceiver([&](wire::Message m) {
    EXPECT_EQ(m.kind, wire::MsgKind::kNack);
    nacked.push_back(m.call_id);
  });
  wire::Endpoint dead{far.host(), 4242};
  for (uint64_t call_id : {wire::kOneWayCallBit | 6, uint64_t{7}, wire::kOneWayCallBit | 8}) {
    wire::Message m;
    m.kind = wire::MsgKind::kRequest;
    m.call_id = call_id;
    tx.transport().Send(dead, std::move(m));
  }
  c.RunFor(Duration::Seconds(1));
  EXPECT_EQ(nacked, std::vector<uint64_t>{7});
  EXPECT_EQ(c.metrics().Get("net.msg.total"), 4u);
}

TEST(NetworkFaultTest, DelayBurstStretchesLinkButPreservesFifo) {
  FaultRig rig;
  rig.cluster.network().SeedFaultRng(7);
  NetworkFaultOptions faults;
  faults.delay_rate = 1.0;
  faults.delay_min = Duration::Millis(5);
  faults.delay_max = Duration::Millis(50);
  rig.cluster.network().SetFaultInjection(faults);

  rig.SendBurst(50);
  rig.cluster.RunFor(Duration::Seconds(5));
  ASSERT_EQ(rig.received.size(), 50u);
  // Delays are clamped behind the link's latest scheduled arrival: the burst
  // stretches the link but never reorders it.
  EXPECT_TRUE(std::is_sorted(rig.received.begin(), rig.received.end()));
  EXPECT_EQ(rig.cluster.metrics().Get("net.msg.delayed"), 50u);
  EXPECT_EQ(rig.cluster.metrics().Get("net.msg.reordered"), 0u);
}

TEST(NetworkFaultTest, ReorderBurstBreaksFifo) {
  FaultRig rig;
  rig.cluster.network().SeedFaultRng(7);
  NetworkFaultOptions faults;
  faults.reorder_rate = 0.5;
  rig.cluster.network().SetFaultInjection(faults);

  rig.SendBurst(100);
  rig.cluster.RunFor(Duration::Seconds(5));
  ASSERT_EQ(rig.received.size(), 100u);
  // Held messages skip the FIFO clamp, so later sends overtake them.
  EXPECT_FALSE(std::is_sorted(rig.received.begin(), rig.received.end()));
  EXPECT_GE(rig.cluster.metrics().Get("net.msg.reordered"), 1u);
}

TEST(NetworkFaultTest, DropBurstDropsThenClearRecovers) {
  FaultRig rig;
  rig.cluster.network().SeedFaultRng(7);
  NetworkFaultOptions faults;
  faults.drop_rate = 1.0;
  rig.cluster.network().SetFaultInjection(faults);

  rig.SendBurst(20);
  rig.cluster.RunFor(Duration::Seconds(1));
  EXPECT_TRUE(rig.received.empty());
  EXPECT_EQ(rig.cluster.metrics().Get("net.msg.fault_dropped"), 20u);

  rig.cluster.network().ClearFaultInjection();
  rig.SendBurst(20);
  rig.cluster.RunFor(Duration::Seconds(1));
  EXPECT_EQ(rig.received.size(), 20u);
  EXPECT_EQ(rig.cluster.metrics().Get("net.msg.fault_dropped"), 20u);
}

TEST(NetworkFaultTest, SeededInjectionReplaysIdentically) {
  auto run = [] {
    FaultRig rig;
    rig.cluster.network().SeedFaultRng(99);
    NetworkFaultOptions faults;
    faults.drop_rate = 0.3;
    faults.delay_rate = 0.3;
    faults.reorder_rate = 0.2;
    rig.cluster.network().SetFaultInjection(faults);
    rig.SendBurst(100);
    rig.cluster.RunFor(Duration::Seconds(5));
    return rig.received;
  };
  // Same seed, same sends: byte-identical delivery order — the property the
  // whole seed-replay reproduction story rests on.
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace itv::sim
