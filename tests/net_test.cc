// Real-socket transport tests: the ORB over TCP on localhost, single thread
// driving one EventLoop shared by "client" and "server" transports (legal:
// the loop serializes everything).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/naming/name_client.h"
#include "src/naming/name_server.h"
#include "src/net/event_loop.h"
#include "src/net/tcp_transport.h"
#include "src/rpc/runtime.h"
#include "src/rpc/stub_helpers.h"

namespace itv::net {
namespace {

TEST(EventLoopTest, TimersFireInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAfter(Duration::Millis(20), [&] { order.push_back(2); });
  loop.ScheduleAfter(Duration::Millis(5), [&] { order.push_back(1); });
  loop.RunFor(Duration::Millis(60));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  TimerId id = loop.ScheduleAfter(Duration::Millis(5), [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunFor(Duration::Millis(30));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, PostRunsSoon) {
  EventLoop loop;
  bool ran = false;
  loop.Post([&] { ran = true; });
  loop.RunFor(Duration::Millis(20));
  EXPECT_TRUE(ran);
}

// Minimal echo servant (same pattern as the sim-side tests).
class EchoSkeleton : public rpc::Skeleton {
 public:
  std::string_view interface_name() const override { return "itv.test.Echo"; }
  void Dispatch(uint32_t method_id, const wire::Bytes& args,
                const rpc::CallContext& ctx, rpc::ReplyFn reply) override {
    ++calls;
    if (method_id != 1) {
      return rpc::ReplyBadMethod(reply, method_id);
    }
    std::string s;
    if (!rpc::DecodeArgs(args, &s)) {
      return rpc::ReplyBadArgs(reply);
    }
    return rpc::ReplyWith(reply, "echo:" + s);
  }
  int calls = 0;
};

class TcpRpcTest : public ::testing::Test {
 protected:
  TcpRpcTest()
      : server_transport_(loop_, 0),
        client_transport_(loop_, 0),
        server_runtime_(loop_, server_transport_, /*incarnation=*/100),
        client_runtime_(loop_, client_transport_, /*incarnation=*/200,
                        /*policy=*/nullptr, &client_metrics_) {
    echo_ref_ = server_runtime_.Export(&echo_);
  }

  template <typename T>
  Result<T> Wait(Future<T> f, Duration limit = Duration::Seconds(3)) {
    Time deadline = loop_.Now() + limit;
    while (!f.is_ready() && loop_.Now() < deadline) {
      loop_.RunFor(Duration::Millis(10));
    }
    if (!f.is_ready()) {
      return DeadlineExceededError("future not ready in test");
    }
    return f.result();
  }

  EventLoop loop_;
  Metrics client_metrics_;
  TcpTransport server_transport_;
  TcpTransport client_transport_;
  rpc::ObjectRuntime server_runtime_;
  rpc::ObjectRuntime client_runtime_;
  EchoSkeleton echo_;
  wire::ObjectRef echo_ref_;
};

TEST_F(TcpRpcTest, InvocationOverRealSockets) {
  auto f = rpc::DecodeReply<std::string>(
      client_runtime_.Invoke(echo_ref_, 1, rpc::EncodeArgs(std::string("hi"))));
  auto r = Wait(f);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "echo:hi");
}

TEST_F(TcpRpcTest, ManyCallsReuseOneConnection) {
  for (int i = 0; i < 20; ++i) {
    auto f = rpc::DecodeReply<std::string>(client_runtime_.Invoke(
        echo_ref_, 1, rpc::EncodeArgs(std::to_string(i))));
    auto r = Wait(f);
    ASSERT_TRUE(r.ok()) << i << ": " << r.status();
    EXPECT_EQ(*r, "echo:" + std::to_string(i));
  }
}

TEST_F(TcpRpcTest, LargePayloadRoundTrip) {
  std::string big(200000, 'x');
  auto f = rpc::DecodeReply<std::string>(
      client_runtime_.Invoke(echo_ref_, 1, rpc::EncodeArgs(big)));
  auto r = Wait(f, Duration::Seconds(5));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), big.size() + 5);
}

TEST_F(TcpRpcTest, ConnectionRefusedYieldsUnavailable) {
  wire::ObjectRef dead = echo_ref_;
  dead.endpoint.port = 1;  // Nothing listens there.
  auto f = rpc::DecodeReply<std::string>(
      client_runtime_.Invoke(dead, 1, rpc::EncodeArgs(std::string("x"))));
  auto r = Wait(f, Duration::Seconds(3));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsUnavailable(r.status())) << r.status();
}

TEST_F(TcpRpcTest, NameServiceWorksOverTcp) {
  // The same NameServer that powers the simulated cluster, on real sockets,
  // in its own "process" (transport + ORB — the root context needs the
  // well-known object id): bootstrap-resolve, bind, resolve.
  TcpTransport ns_transport(loop_, 0);
  rpc::ObjectRuntime ns_runtime(loop_, ns_transport, /*incarnation=*/300);
  naming::NameServerOptions opts;
  opts.replica_id = 1;
  opts.peers = {ns_transport.local_endpoint()};
  opts.initial_contexts = {{"svc"}};
  naming::NameServer ns(ns_runtime, loop_, opts);
  ns.Start();

  naming::NameClient nc(client_runtime_, net::kLoopbackHost,
                        ns_transport.local_endpoint().port);
  auto bind = Wait(nc.Bind("svc/echo", echo_ref_));
  ASSERT_TRUE(bind.ok()) << bind.status();

  auto resolved = Wait(nc.Resolve("svc/echo"));
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, echo_ref_);

  // And the resolved reference is invocable.
  auto f = rpc::DecodeReply<std::string>(
      client_runtime_.Invoke(*resolved, 1, rpc::EncodeArgs(std::string("tcp"))));
  auto r = Wait(f);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "echo:tcp");

  EXPECT_TRUE(IsNotFound(Wait(nc.Resolve("svc/missing")).status()));
}

TEST_F(TcpRpcTest, StaleIncarnationNacked) {
  wire::ObjectRef stale = echo_ref_;
  stale.incarnation = 12345;
  auto f = rpc::DecodeReply<std::string>(
      client_runtime_.Invoke(stale, 1, rpc::EncodeArgs(std::string("x"))));
  auto r = Wait(f);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsUnavailable(r.status()));
}

TEST_F(TcpRpcTest, OneWayCallsArriveAndAreNeverNacked) {
  auto transport = std::make_unique<TcpTransport>(loop_, 0);
  uint16_t port = transport->local_endpoint().port;
  auto runtime = std::make_unique<rpc::ObjectRuntime>(loop_, *transport, /*incarnation=*/300);
  EchoSkeleton sink;
  wire::ObjectRef ref = runtime->Export(&sink);

  constexpr int kPosts = 1000;
  for (int i = 0; i < kPosts; ++i) {
    client_runtime_.Post(ref, 1, rpc::EncodeArgs(std::to_string(i)));
  }
  Time deadline = loop_.Now() + Duration::Seconds(5);
  while (sink.calls < kPosts && loop_.Now() < deadline) {
    loop_.RunFor(Duration::Millis(10));
  }
  EXPECT_EQ(sink.calls, kPosts);
  EXPECT_EQ(client_metrics_.Get("rpc.oneway.sent"), uint64_t{kPosts});

  // The server goes away and the client's connection closes. Only two-way
  // calls are ever in flight, so nothing is NACKed.
  runtime.reset();
  transport.reset();
  loop_.RunFor(Duration::Millis(200));
  EXPECT_EQ(client_metrics_.Get("rpc.nack.recv"), 0u);

  // A server restarted on the same port is reached over a fresh connection.
  TcpTransport restarted(loop_, port);
  rpc::ObjectRuntime restarted_runtime(loop_, restarted, /*incarnation=*/400);
  EchoSkeleton echo;
  wire::ObjectRef fresh = restarted_runtime.Export(&echo);
  auto r = Wait(rpc::DecodeReply<std::string>(client_runtime_.Invoke(
      fresh, 1, rpc::EncodeArgs(std::string("again")))));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, "echo:again");
  EXPECT_EQ(client_metrics_.Get("rpc.nack.recv"), 0u);
}

}  // namespace
}  // namespace itv::net
