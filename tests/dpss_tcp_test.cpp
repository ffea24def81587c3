// DPSS over real loopback TCP sockets: the same client/master/server code
// as the pipe tests, exercised through the kernel's network stack.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>

#include <cstring>
#include <filesystem>

#include "dpss/deployment.h"
#include "dpss/protocol.h"
#include "net/tcp.h"
#include "support/test_support.h"

namespace visapult::dpss {
namespace {

TEST(DpssTcp, EndToEndRead) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(3);
  ASSERT_TRUE(deployment.start().is_ok());
  ASSERT_TRUE(deployment.ingest(desc, 8192).is_ok());

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();

  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), v.byte_size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
  deployment.stop();
}

TEST(DpssTcp, MultipleSequentialClients) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());

  for (int i = 0; i < 3; ++i) {
    auto client = deployment.make_client();
    ASSERT_TRUE(client.is_ok());
    auto file = client.value().open(desc.name);
    ASSERT_TRUE(file.is_ok());
    std::vector<std::uint8_t> buf(1024);
    EXPECT_TRUE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());
  }
  deployment.stop();
}

TEST(DpssTcp, ServerDeathSurfacesAsTransportError) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  auto deployment = std::make_unique<TcpDeployment>(2);
  ASSERT_TRUE(deployment->ingest(desc).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok());
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok());

  // Kill the whole deployment, then try to read: the client must get a
  // clean error, not hang or crash.
  deployment->stop();
  std::vector<std::uint8_t> buf(4096);
  auto n = file.value()->pread(buf.data(), buf.size(), 0);
  EXPECT_FALSE(n.is_ok());
}

TEST(DpssTcp, ConnectToDeadMasterPortFailsCleanly) {
  // A master that is not there must surface as a connect error, not a
  // hang; the port comes from the support picker, so nothing listens on it.
  auto stream =
      net::TcpStream::connect("127.0.0.1", test_support::pick_dead_port());
  EXPECT_FALSE(stream.is_ok());
  EXPECT_EQ(stream.status().code(), core::StatusCode::kUnavailable);
}

TEST(DpssTcp, AclOverSockets) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());
  deployment.master().set_acl({"corridor-project"});

  auto denied_client = deployment.make_client();
  ASSERT_TRUE(denied_client.is_ok());
  EXPECT_FALSE(denied_client.value().open(desc.name, "wrong").is_ok());

  auto ok_client = deployment.make_client();
  ASSERT_TRUE(ok_client.is_ok());
  EXPECT_TRUE(ok_client.value().open(desc.name, "corridor-project").is_ok());
  deployment.stop();
}

TEST(DpssTcp, HostileSpanExportFrameLeavesMasterServing) {
  vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment deployment(2);
  ASSERT_TRUE(deployment.ingest(desc).is_ok());

  // A 49-byte frame (32-byte header, 17-byte payload) whose span count
  // claims 2^32 - 1 records.  The master must answer it with a typed error
  // and keep serving, not die allocating for the claim.
  net::Writer w;
  w.str("x");
  w.f64(0.0);
  w.u32(0xFFFFFFFFu);
  const net::Message frame{kSpanExportRequest, 0, 0, w.take()};
  ASSERT_EQ(net::kFrameHeaderBytes + frame.payload.size(), 49u);
  auto stream = net::TcpStream::connect("127.0.0.1", deployment.master_port());
  ASSERT_TRUE(stream.is_ok()) << stream.status().to_string();
  ASSERT_TRUE(net::send_message(*stream.value(), frame).is_ok());
  auto reply = net::recv_message(*stream.value());
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(decode_span_export_reply(reply.value()).status().code(),
            core::StatusCode::kDataLoss);

  auto client = deployment.make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  EXPECT_TRUE(file.is_ok()) << file.status().to_string();
  deployment.stop();
}

// Open descriptors of this process and the highest one in use; the scan's
// own directory fd is excluded.
struct FdCensus {
  int open = 0;
  int highest = -1;
};

FdCensus fd_census() {
  std::vector<int> fds;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    fds.push_back(std::stoi(e.path().filename().string()));
  }
  // The iterator's own descriptor is closed by now; skip it.
  FdCensus c;
  for (int fd : fds) {
    if (::fcntl(fd, F_GETFD) == -1) continue;
    ++c.open;
    c.highest = std::max(c.highest, fd);
  }
  return c;
}

TEST(DpssTcp, FailedStartTearsDownSoARetrySucceeds) {
  constexpr int kServers = 4;
  TcpDeploymentOptions options;
  options.reactor_loops = 1;  // a fixed descriptor cost per start
  auto make = [&] {
    return std::make_unique<TcpDeployment>(kServers, DiskModel{},
                                           /*throttle=*/false,
                                           ServerCacheConfig(), options);
  };

  // What one start costs: the loop's descriptors, the master front, and
  // two doors per server.
  int start_fds = 0;
  {
    auto probe = make();
    const int before = fd_census().open;
    ASSERT_TRUE(probe->start().is_ok());
    start_fds = fd_census().open - before;
    probe->stop();
  }
  ASSERT_GE(start_fds, 1 + 2 * kServers);

  auto deployment = make();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // Room for all but the last three doors: start() fails partway through
  // the server fronts, with the master front already listening.  Every
  // open descriptor sits below the limit, so exactly the budget is free.
  const FdCensus now = fd_census();
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(now.open + start_fds - 3);
  ASSERT_GT(static_cast<int>(low.rlim_cur), now.highest);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  const core::Status failed = deployment->start();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_FALSE(failed.is_ok());
  EXPECT_NE(failed.message().find("Too many open files"), std::string::npos)
      << failed.to_string();
  // Nothing of the failed attempt is left open.
  EXPECT_EQ(fd_census().open, now.open);

  // The retry builds everything afresh and serves.
  ASSERT_TRUE(deployment->start().is_ok());
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(deployment->ingest(desc, 8192).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  const vol::Volume v = desc.generate(0);
  std::vector<std::uint8_t> buf(v.byte_size());
  auto n = file.value()->read(buf.data(), buf.size());
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), buf.size());
  EXPECT_EQ(std::memcmp(buf.data(), v.data().data(), buf.size()), 0);
  deployment->stop();
}

}  // namespace
}  // namespace visapult::dpss
