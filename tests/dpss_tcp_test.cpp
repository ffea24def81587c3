// DPSS over real loopback TCP sockets: the same client/master/server code
// as the pipe tests, exercised through the kernel's network stack.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

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
  // one door per server.
  int start_fds = 0;
  {
    auto probe = make();
    const int before = fd_census().open;
    ASSERT_TRUE(probe->start().is_ok());
    start_fds = fd_census().open - before;
    probe->stop();
  }
  ASSERT_GE(start_fds, 1 + kServers);

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

TEST(DpssTcp, StartFailsCleanlyWhenTheLoopsCannotGetDescriptors) {
  TcpDeploymentOptions options;
  options.reactor_loops = 1;  // one epoll fd + one eventfd
  auto deployment = std::make_unique<TcpDeployment>(
      2, DiskModel{}, /*throttle=*/false, ServerCacheConfig(), options);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // One free descriptor: the loop's epoll instance gets it, its eventfd
  // cannot, so the loop itself fails to come up.
  const FdCensus now = fd_census();
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(now.open + 1);
  ASSERT_GT(static_cast<int>(low.rlim_cur), now.highest);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  const core::Status failed = deployment->start();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(failed.code(), core::StatusCode::kUnavailable)
      << failed.to_string();
  EXPECT_NE(failed.message().find("eventfd"), std::string::npos)
      << failed.to_string();
  // The half-built loop's epoll descriptor went with the unwind.
  EXPECT_EQ(fd_census().open, now.open);

  ASSERT_TRUE(deployment->start().is_ok());
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  ASSERT_TRUE(deployment->ingest(desc, 8192).is_ok());
  auto client = deployment->make_client();
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  auto file = client.value().open(desc.name);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  std::vector<std::uint8_t> buf(4096);
  EXPECT_TRUE(file.value()->pread(buf.data(), buf.size(), 0).is_ok());
  deployment->stop();
}

// ---- block reads answered on the front door's event loop ----

net::Message block_read(const std::string& dataset, std::uint64_t block,
                        Codec codec = Codec::kNone) {
  BlockReadRequest req;
  req.dataset = dataset;
  req.block = block;
  req.compression.codec = codec;
  return encode_block_read_request(req);
}

// One request/reply exchange on a raw connection to a front door.
core::Result<BlockReadReply> exchange_read(net::ByteStream& stream,
                                           const net::Message& request) {
  if (auto st = net::send_message(stream, request); !st.is_ok()) return st;
  auto reply = net::recv_message(stream);
  if (!reply.is_ok()) return reply.status();
  return decode_block_read_reply(reply.value());
}

// Tasks server `i`'s worker pool has been handed so far.
double pool_submitted(TcpDeployment& d, int i) {
  for (const auto& s : d.server(i).metrics_registry().samples()) {
    if (s.name == "dpss_util_pool_tasks_submitted_total") return s.value;
  }
  ADD_FAILURE() << "no pool sample on server " << i;
  return -1;
}

net::StreamPtr connect_server(TcpDeployment& d, int i) {
  const ServerAddress addr = d.server_address(i);
  auto stream = net::TcpStream::connect(addr.host, addr.port);
  EXPECT_TRUE(stream.is_ok()) << stream.status().to_string();
  return stream.is_ok() ? std::move(stream).take() : nullptr;
}

TEST(DpssTcp, ResidentReadsAreAnsweredOnTheLoop) {
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment d(1);
  ASSERT_TRUE(d.ingest(desc, 8192).is_ok());  // write-through: all resident
  auto stream = connect_server(d, 0);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(exchange_read(*stream, block_read(desc.name, 0)).is_ok());

  constexpr std::uint64_t kReads = 16;
  const auto inline_before = d.server_net_stats(0).inline_requests;
  const double pooled_before = pool_submitted(d, 0);
  for (std::uint64_t b = 0; b < kReads; ++b) {
    auto reply = exchange_read(*stream, block_read(desc.name, b));
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_EQ(reply.value().block, b);
    EXPECT_EQ(reply.value().data, d.server(0).get_block(desc.name, b).value());
  }
  EXPECT_EQ(d.server_net_stats(0).inline_requests, inline_before + kReads);
  EXPECT_EQ(pool_submitted(d, 0), pooled_before);

  // A miss goes to the pool (it may sleep on the disk model) ...
  d.server(0).drop_cache();
  ASSERT_TRUE(exchange_read(*stream, block_read(desc.name, 3)).is_ok());
  EXPECT_EQ(d.server_net_stats(0).inline_requests, inline_before + kReads);
  EXPECT_EQ(pool_submitted(d, 0), pooled_before + 1);
  // ... and so does a compressed read, even of the block just filled.
  auto compressed =
      exchange_read(*stream, block_read(desc.name, 3, Codec::kLossless));
  ASSERT_TRUE(compressed.is_ok()) << compressed.status().to_string();
  EXPECT_TRUE(compressed.value().compressed);
  EXPECT_EQ(d.server_net_stats(0).inline_requests, inline_before + kReads);
  EXPECT_EQ(pool_submitted(d, 0), pooled_before + 2);
  d.stop();
}

TEST(DpssTcp, ResidentHitIsNotQueuedBehindADiskMiss) {
  // One loop, one worker, a slow modelled disk that really sleeps, and no
  // read-ahead: the only way a hit can return while a miss occupies the
  // worker is on the loop, without touching the disk model.
  TcpDeploymentOptions options;
  options.reactor_loops = 1;
  options.worker_threads = 1;
  DiskModel disk;
  disk.seek_seconds = 0.4;
  ServerCacheConfig cache;
  cache.prefetch = false;
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment d(1, disk, /*throttle=*/true, cache, options);
  ASSERT_TRUE(d.ingest(desc, 8192).is_ok());
  BlockServer& srv = d.server(0);
  // Block 1 only on disk, block 0 resident again (a write re-admits it
  // without a disk charge).
  srv.drop_cache();
  ASSERT_TRUE(
      srv.put_block(desc.name, 0, srv.get_block(desc.name, 0).value()).is_ok());
  const double miss_seconds = disk.block_service_seconds(8192, 1);
  const double disk_before = srv.modeled_disk_seconds();

  auto miss_conn = connect_server(d, 0);
  auto hit_conn = connect_server(d, 0);
  ASSERT_NE(miss_conn, nullptr);
  ASSERT_NE(hit_conn, nullptr);
  const auto requests_before = d.server_net_stats(0).requests;
  const auto miss_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      net::send_message(*miss_conn, block_read(desc.name, 1)).is_ok());
  ASSERT_TRUE(test_support::wait_until([&] {
    return d.server_net_stats(0).requests == requests_before + 1;
  }));

  const auto hit_start = std::chrono::steady_clock::now();
  auto hit = exchange_read(*hit_conn, block_read(desc.name, 0));
  const double hit_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - hit_start)
                                 .count();
  ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
  EXPECT_EQ(hit.value().data, srv.get_block(desc.name, 0).value());
  EXPECT_LT(hit_seconds, miss_seconds / 4);

  auto miss = net::recv_message(*miss_conn);
  const double miss_wall = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - miss_start)
                               .count();
  ASSERT_TRUE(miss.is_ok()) << miss.status().to_string();
  auto miss_reply = decode_block_read_reply(miss.value());
  ASSERT_TRUE(miss_reply.is_ok());
  EXPECT_EQ(miss_reply.value().data, srv.get_block(desc.name, 1).value());
  EXPECT_GE(miss_wall, miss_seconds * 0.9);
  // Exactly one disk charge: the miss's.  The hit never reached the model.
  EXPECT_NEAR(srv.modeled_disk_seconds() - disk_before, miss_seconds, 1e-3);
  d.stop();
}

TEST(DpssTcp, PipelinedResidentBurstComesBackInOrder) {
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment d(1);
  constexpr std::uint32_t kBlockBytes = 4096;
  ASSERT_TRUE(d.ingest(desc, kBlockBytes).is_ok());
  const std::uint64_t blocks = d.server(0).block_count(desc.name);
  ASSERT_GT(blocks, 1u);
  std::vector<std::vector<std::uint8_t>> expected;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    expected.push_back(d.server(0).get_block(desc.name, b).value());
  }

  // Every request framed into one buffer, sent with one write.
  constexpr int kReads = 10000;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kReads; ++i) {
    const net::Message m =
        block_read(desc.name, static_cast<std::uint64_t>(i) % blocks);
    const std::uint32_t magic = net::kMessageMagic;
    const std::uint64_t len = m.payload.size();
    std::uint8_t header[net::kFrameHeaderBytes] = {};
    std::memcpy(header, &magic, 4);
    std::memcpy(header + 4, &m.type, 4);
    std::memcpy(header + 8, &len, 8);
    burst.insert(burst.end(), header, header + sizeof header);
    burst.insert(burst.end(), m.payload.begin(), m.payload.end());
  }

  auto stream = connect_server(d, 0);
  ASSERT_NE(stream, nullptr);
  const auto inline_before = d.server_net_stats(0).inline_requests;
  const double pooled_before = pool_submitted(d, 0);
  core::Status sent;
  std::thread writer([&] { sent = stream->send_bytes(burst); });
  int good = 0;
  for (int i = 0; i < kReads; ++i) {
    auto reply = net::recv_message(*stream);
    if (!reply.is_ok()) {
      ADD_FAILURE() << "reply " << i << ": " << reply.status().to_string();
      break;
    }
    auto r = decode_block_read_reply(reply.value());
    const std::uint64_t b = static_cast<std::uint64_t>(i) % blocks;
    if (!r.is_ok() || r.value().block != b || r.value().data != expected[b]) {
      ADD_FAILURE() << "reply " << i << " is not block " << b;
      break;
    }
    ++good;
  }
  writer.join();
  EXPECT_TRUE(sent.is_ok()) << sent.to_string();
  EXPECT_EQ(good, kReads);
  // Answered on the loop while the reader kept up, through the workers
  // whenever replies backed up; never shed.
  const auto net = d.server_net_stats(0);
  EXPECT_GT(net.inline_requests, inline_before);
  EXPECT_EQ(static_cast<double>(net.inline_requests - inline_before) +
                pool_submitted(d, 0) - pooled_before,
            kReads);
  EXPECT_EQ(net.overflow_closes, 0u);
  d.stop();
}

TEST(DpssTcp, OverwriteBetweenLoopReadsServesTheNewBytes) {
  const vol::DatasetDesc desc = vol::small_combustion_dataset(1);
  TcpDeployment d(1);
  ASSERT_TRUE(d.ingest(desc, 8192).is_ok());
  auto stream = connect_server(d, 0);
  ASSERT_NE(stream, nullptr);

  const auto inline_before = d.server_net_stats(0).inline_requests;
  auto first = exchange_read(*stream, block_read(desc.name, 2));
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();

  // An ingest overwrite allocates the next generation and re-keys the
  // memory tier under it.
  IngestWriteRequest w;
  w.dataset = desc.name;
  w.block = 2;
  w.data = first.value().data;
  for (auto& byte : w.data) byte = static_cast<std::uint8_t>(~byte);
  ASSERT_TRUE(
      net::send_message(*stream, encode_ingest_write_request(w)).is_ok());
  auto written = net::recv_message(*stream);
  ASSERT_TRUE(written.is_ok());
  auto ack = decode_ingest_write_reply(written.value());
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack.value().generation, first.value().generation + 1);

  auto second = exchange_read(*stream, block_read(desc.name, 2));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second.value().data, w.data);
  EXPECT_NE(second.value().data, first.value().data);
  EXPECT_EQ(second.value().generation, ack.value().generation);
  // Both reads were answered on the loop, each under its block's stamp, and
  // so was the overwrite: an rf=1 write reaches no peer.
  EXPECT_EQ(d.server_net_stats(0).inline_requests, inline_before + 3);
  d.stop();
}

}  // namespace
}  // namespace visapult::dpss
