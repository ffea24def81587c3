// The layer ladder: each layer's public call timed in isolation with the
// workload's request shape, one span per repetition, median reported.
//
// Read-shaped rungs use the workload's own read (4 KiB blocks on
// warm_read, 64 KiB blocks elsewhere; the EC layout with a dead server on
// ec_degraded_read).  Write-shaped rungs always use rf3_write's shape, the
// only write workload, and session rungs the session's geometry, so every
// traced run reports every rung.
#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "backend/data_source.h"
#include "cache/block_cache.h"
#include "codec/reed_solomon.h"
#include "core/thread_pool.h"
#include "dpss/deployment.h"
#include "dpss/protocol.h"
#include "ibravr/payload.h"
#include "net/message.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "render/transfer.h"
#include "sim/campaign.h"
#include "vol/decompose.h"
#include "workloads.h"

namespace perfbench {

using namespace visapult;

namespace {

// Discarded leading repetitions of every rung (first-touch, cold caches).
constexpr int kWarmReps = 5;

// Sink that keeps timed results observable so no call is optimized away.
std::atomic<std::uint64_t> g_sink{0};

struct Recorder {
  Ladder& ladder;
  std::int64_t root;

  // `once` performs one repetition and returns its (start, end) on the
  // steady clock, timing only the call under test.
  void rung(const char* name, int reps, double scale,
            const std::function<std::pair<double, double>()>& once) {
    std::vector<double> d;
    for (int i = 0; i < kWarmReps + reps; ++i) {
      const auto [a, b] = once();
      if (i < kWarmReps) continue;
      ladder.spans.add(name, static_cast<std::uint64_t>(i), root, a, b);
      d.push_back(b - a);
    }
    ladder.rungs[name] = median(d) * scale;
  }
};

void fail(const std::string& what) {
  throw std::runtime_error("ladder: " + what);
}

// The read shape the ladder uses on `workload`.
StorageShape read_shape(const std::string& workload) {
  if (const StorageShape* s = storage_shape(workload); s && !s->write) return *s;
  StorageShape s = *storage_shape("rf3_write");  // 64 KiB blocks
  if (workload == "session") s.replication = 1;  // the session's layout
  s.write = false;
  return s;
}

net::Message read_reply(std::size_t bytes) {
  dpss::BlockReadReply r;
  r.block = 7;
  r.data.assign(bytes, 0x5a);
  r.generation = 3;
  return dpss::encode_block_read_reply(r);
}

dpss::IngestWriteRequest write_request(std::size_t bytes) {
  dpss::IngestWriteRequest r;
  r.dataset = "perfbench-rf3_write";
  r.block = 7;
  r.generation = 3;
  r.data.assign(bytes, 0xa5);
  r.chain = {dpss::ServerAddress{"127.0.0.1", 40001},
             dpss::ServerAddress{"127.0.0.1", 40002}};
  return r;
}

void storage_rungs(Recorder& rec, const std::string& workload,
                   std::uint64_t seed) {
  const StorageShape rs = read_shape(workload);
  const StorageShape ws = *storage_shape("rf3_write");
  const bool op_is_write = workload == "rf3_write";

  // ---- net: Reactor::post -> run ----
  {
    net::Reactor reactor;
    rec.rung("net.post_run_us", 2000, 1e6, [&] {
      std::atomic<double> ran{-1.0};
      const double t0 = now_s();
      reactor.post([&ran] { ran.store(now_s(), std::memory_order_release); });
      while (ran.load(std::memory_order_acquire) < 0) std::this_thread::yield();
      return std::make_pair(t0, ran.load());
    });
  }

  // The op's data-carrying frame: the read reply, or the write request.
  const net::Message data_frame =
      op_is_write ? dpss::encode_ingest_write_request(write_request(ws.op_bytes))
                  : read_reply(rs.op_bytes);
  const std::size_t request_bytes =
      net::kFrameHeaderBytes +
      (op_is_write ? data_frame.payload.size()
                   : dpss::encode_block_read_request({"perfbench-" + workload, 7, {}})
                         .payload.size());
  const std::size_t reply_bytes =
      net::kFrameHeaderBytes +
      (op_is_write ? dpss::encode_ingest_write_reply({7, 3, 3, {}}).payload.size()
                   : data_frame.payload.size());

  // ---- net: one frame through an in-memory pipe ----
  {
    auto [a, b] = net::make_pipe(8u << 20);
    rec.rung("net.frame_us", 2000, 1e6, [&, a = a, b = b] {
      const double t0 = now_s();
      if (!net::send_message(*a, data_frame).is_ok()) fail("frame send");
      auto m = net::recv_message(*b);
      const double t1 = now_s();
      if (!m.is_ok() || m.value().payload.size() != data_frame.payload.size()) {
        fail("frame recv");
      }
      return std::make_pair(t0, t1);
    });
  }

  // ---- net: loopback TCP round trip of the op's request and reply sizes ----
  {
    net::TcpListener listener;
    if (!listener.listen(0).is_ok()) fail("listen");
    std::thread echo([&] {
      auto conn = listener.accept();
      if (!conn.is_ok()) return;
      std::vector<std::uint8_t> req(request_bytes), rep(reply_bytes, 1);
      while (conn.value()->recv_all(req.data(), req.size()).is_ok()) {
        if (!conn.value()->send_all(rep.data(), rep.size()).is_ok()) break;
      }
    });
    auto client = net::TcpStream::connect("127.0.0.1", listener.port());
    // Closing both ends ends the echo thread, on the failure paths too.
    struct Stop {
      net::TcpListener& listener;
      net::StreamPtr stream;
      std::thread& echo;
      ~Stop() {
        if (stream) stream->close();
        listener.close();
        echo.join();
      }
    } stop{listener, client.is_ok() ? client.value() : nullptr, echo};
    if (!client.is_ok()) fail("connect");
    std::vector<std::uint8_t> req(request_bytes, 2), rep(reply_bytes);
    rec.rung("net.tcp_rtt_us", 2000, 1e6, [&] {
      const double t0 = now_s();
      if (!client.value()->send_all(req.data(), req.size()).is_ok() ||
          !client.value()->recv_all(rep.data(), rep.size()).is_ok()) {
        fail("tcp round trip");
      }
      return std::make_pair(t0, now_s());
    });
  }

  // ---- dpss protocol: the client's half of the codec for one op ----
  {
    const dpss::BlockReadRequest req{"perfbench-" + workload, 7, {}};
    const net::Message reply = read_reply(rs.op_bytes);
    rec.rung("dpss.protocol.read_codec_us", 2000, 1e6, [&] {
      const double t0 = now_s();
      const net::Message m = dpss::encode_block_read_request(req);
      auto r = dpss::decode_block_read_reply(reply);
      const double t1 = now_s();
      if (!r.is_ok()) fail("read codec");
      g_sink += m.payload.size() + r.value().data.size();
      return std::make_pair(t0, t1);
    });
    const dpss::IngestWriteRequest wreq = write_request(ws.op_bytes);
    const net::Message wreply = dpss::encode_ingest_write_reply({7, 3, 3, {}});
    rec.rung("dpss.protocol.write_codec_us", 2000, 1e6, [&] {
      const double t0 = now_s();
      const net::Message m = dpss::encode_ingest_write_request(wreq);
      auto r = dpss::decode_ingest_write_reply(wreply);
      const double t1 = now_s();
      if (!r.is_ok()) fail("write codec");
      g_sink += m.payload.size() + r.value().acks;
      return std::make_pair(t0, t1);
    });
  }

  // ---- core: ThreadPool submit -> run (the reactor's handler hop) ----
  {
    core::ThreadPool pool(4);
    rec.rung("core.pool.submit_run_us", 2000, 1e6, [&] {
      double ran = 0.0;
      const double t0 = now_s();
      pool.submit([&ran] { ran = now_s(); }).wait();
      return std::make_pair(t0, ran);
    });
  }

  // ---- dpss server: handle_request for a warm read; put_block_at ----
  {
    dpss::BlockServer server("ladder");
    const std::string ds = "perfbench-ladder";
    const std::uint64_t blocks = 256;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      if (!server.put_block(ds, b, seeded_bytes(b, rs.block_bytes)).is_ok()) {
        fail("put_block");
      }
    }
    const std::uint64_t conn = server.allocate_conn_id();
    OpStream pick(seed, 200, blocks);
    rec.rung("dpss.server.handle_read_us", 2000, 1e6, [&] {
      net::Message msg = dpss::encode_block_read_request({ds, pick.next(), {}});
      const double t0 = now_s();
      const net::Message reply = server.handle_request(std::move(msg), conn);
      const double t1 = now_s();
      if (reply.type != dpss::kBlockReadReply) fail("handle_request");
      return std::make_pair(t0, t1);
    });

    dpss::BlockServer writer("ladder-put");
    std::vector<std::uint64_t> gen(64, 0);
    const auto payload = seeded_bytes(seed, ws.op_bytes);
    std::uint64_t next = 0;
    rec.rung("dpss.server.put_block_us", 2000, 1e6, [&] {
      const std::uint64_t b = next++ % gen.size();
      std::vector<std::uint8_t> data = payload;
      const double t0 = now_s();
      const bool ok = writer.put_block_at(ds, b, std::move(data), ++gen[b]).is_ok();
      const double t1 = now_s();
      if (!ok) fail("put_block_at");
      return std::make_pair(t0, t1);
    });
  }

  // ---- cache: a hit in a block cache configured like a server's tier ----
  {
    const dpss::ServerCacheConfig sc;
    cache::BlockCache cache(
        cache::BlockCacheConfig{sc.capacity_bytes, sc.shards, sc.policy,
                                sc.tinylfu_admission, 0});
    std::vector<cache::BlockKey> keys;
    for (std::uint64_t b = 0; b < 256; ++b) {
      keys.push_back({"perfbench-ladder", b, 1});
      cache.insert(keys.back(), std::vector<std::uint8_t>(rs.block_bytes, 1));
    }
    OpStream pick(seed, 201, keys.size());
    rec.rung("cache.lookup_us", 2000, 1e6, [&] {
      const cache::BlockKey& key = keys[pick.next()];
      const double t0 = now_s();
      auto hit = cache.lookup(key);
      const double t1 = now_s();
      if (!hit) fail("cache miss");
      return std::make_pair(t0, t1);
    });
  }

  // ---- dpss client: the same op over pipes (no reactor, no TCP) ----
  {
    const auto desc = dataset_for("ladder-read", seed, rs.dims, 4);
    const auto ref = reference_bytes(desc);
    dpss::PipeDeployment dep(rs.servers);
    if (!dep.ingest(desc, rs.block_bytes, 1, rs.replication, rs.ec).is_ok()) {
      fail("pipe ingest");
    }
    if (rs.kill_one) dep.kill_server(0);
    auto client = dep.make_client();
    auto file = client.open(desc.name);
    if (!file.is_ok()) fail("pipe open");
    const std::uint64_t blocks = desc.total_bytes() / rs.block_bytes;
    std::vector<std::uint8_t> buf(rs.op_bytes);
    for (std::uint64_t b = 0; b < blocks; ++b) {  // warm every block
      if (!file.value()->pread(buf.data(), rs.op_bytes, b * rs.block_bytes).is_ok()) {
        fail("pipe warm");
      }
    }
    OpStream pick(seed, 202, blocks);
    rec.rung("dpss.client.pipe_pread_us", 1000, 1e6, [&] {
      const std::uint64_t off = pick.next() * rs.block_bytes;
      const double t0 = now_s();
      auto n = file.value()->pread(buf.data(), rs.op_bytes, off);
      const double t1 = now_s();
      if (!n.is_ok() || n.value() != rs.op_bytes ||
          std::memcmp(buf.data(), ref.data() + off, rs.op_bytes) != 0) {
        fail("pipe pread");
      }
      return std::make_pair(t0, t1);
    });
  }
  {
    const auto desc = dataset_for("ladder-write", seed, ws.dims, 4);
    dpss::PipeDeployment dep(ws.servers);
    if (!dep.ingest(desc, ws.block_bytes, 1, ws.replication).is_ok()) {
      fail("pipe ingest rf3");
    }
    auto client = dep.make_client();
    auto file = client.open(desc.name);
    if (!file.is_ok()) fail("pipe open rf3");
    const std::uint64_t blocks = desc.total_bytes() / ws.block_bytes;
    OpStream pick(seed, 203, blocks);
    std::vector<std::uint8_t> payload = seeded_bytes(seed + 1, ws.op_bytes);
    std::uint64_t seq = 0;
    rec.rung("dpss.client.pipe_write_us", 500, 1e6, [&] {
      const std::uint64_t b = pick.next();
      ++seq;
      std::memcpy(payload.data(), &seq, sizeof seq);
      const double t0 = now_s();
      const bool ok =
          file.value()->lseek(static_cast<std::int64_t>(b * ws.block_bytes)) >= 0 &&
          file.value()->write(payload.data(), ws.op_bytes).is_ok();
      const double t1 = now_s();
      if (!ok) fail("pipe write");
      std::vector<std::uint8_t> back(ws.op_bytes);
      auto n = file.value()->pread(back.data(), ws.op_bytes, b * ws.block_bytes);
      if (!n.is_ok() || back != payload) fail("pipe write read-back");
      return std::make_pair(t0, t1);
    });
  }

  // ---- codec: rebuild one erased 64 KiB data slice of a (4,2) group ----
  {
    const codec::ReedSolomon rs42(4, 2);
    const std::size_t n = 64 * 1024;
    std::vector<std::vector<std::uint8_t>> stored;
    std::vector<const std::uint8_t*> ptrs;
    for (std::uint64_t i = 0; i < 4; ++i) {
      stored.push_back(seeded_bytes(derive_seed(seed, 0x7273, i), n));
    }
    for (const auto& d : stored) ptrs.push_back(d.data());
    std::vector<std::vector<std::uint8_t>> parity;
    rs42.encode(ptrs, n, &parity);
    for (auto& p : parity) stored.push_back(p);
    std::vector<char> present(6, 1);
    present[0] = 0;
    rec.rung("codec.rs_decode_us", 300, 1e6, [&] {
      auto shards = stored;
      shards[0].clear();
      const double t0 = now_s();
      const bool ok = rs42.reconstruct(shards, present, n, false).is_ok();
      const double t1 = now_s();
      if (!ok || shards[0] != stored[0]) fail("rs decode");
      return std::make_pair(t0, t1);
    });
  }
}

void session_rungs(Recorder& rec, std::uint64_t seed, double seconds) {
  const SessionShape shape = session_shape(seconds);
  const auto desc = dataset_for("session", seed, shape.dims, shape.timesteps);
  const render::TransferFunction tf = render::TransferFunction::fire();
  const vol::Volume v = desc.generate(0);
  const vol::Brick brick =
      vol::slab_decompose(desc.dims, kSessionPes, vol::Axis::kZ).value()[0];
  const vol::Volume local =
      v.subvolume(brick.x0, brick.y0, brick.z0, brick.dims).value();
  vol::Brick local_brick;
  local_brick.dims = brick.dims;

  rec.rung("render.brick_ms", 9, 1e3, [&] {
    const double t0 = now_s();
    auto img = render::render_brick_along_axis(local, local_brick, vol::Axis::kZ,
                                               tf, shape.render);
    const double t1 = now_s();
    if (!img.is_ok()) fail("render");
    return std::make_pair(t0, t1);
  });

  const SessionFrame frame = session_frame(desc, 0, shape);
  rec.rung("ibravr.encode_ms", 21, 1e3, [&] {
    const double t0 = now_s();
    const net::Message light = ibravr::encode_light(frame.light[0]);
    const net::Message heavy = ibravr::encode_heavy(frame.heavy[0]);
    const double t1 = now_s();
    g_sink += light.payload.size() + heavy.payload.size();
    return std::make_pair(t0, t1);
  });

  const auto scene = session_scene(frame);
  const scenegraph::Rasterizer raster(session_camera(desc, shape));
  rec.rung("viewer.raster_ms", 9, 1e3, [&] {
    const double t0 = now_s();
    const core::ImageRGBA img = raster.render(*scene);
    const double t1 = now_s();
    g_sink += img.pixel_count();
    return std::make_pair(t0, t1);
  });

  // One PE's slab of one timestep over pipes, as the back end loads it.
  vol::DatasetDesc one = desc;
  one.timesteps = 1;
  dpss::PipeDeployment dep(4);
  if (!dep.ingest(one).is_ok()) fail("session ingest");
  auto client = dep.make_client();
  auto file = client.open(one.name);
  if (!file.is_ok()) fail("session open");
  backend::DpssSource source(std::move(file).take(), one.dims, 1);
  std::vector<float> cells(brick.cell_count());
  rec.rung("dpss.client.slab_read_ms", 41, 1e3, [&] {
    const double t0 = now_s();
    const bool ok = source.load_brick(0, brick, cells.data()).is_ok();
    const double t1 = now_s();
    if (!ok || std::memcmp(cells.data(), local.data().data(),
                           brick.byte_size()) != 0) {
      fail("slab read");
    }
    return std::make_pair(t0, t1);
  });
}

}  // namespace

Ladder run_ladder(const std::string& workload, std::uint64_t seed,
                  double session_seconds) {
  Ladder ladder;
  const double t0 = now_s();
  const std::int64_t root = ladder.spans.add("ladder", 0, -1, t0, t0);
  Recorder rec{ladder, root};
  storage_rungs(rec, workload, seed);
  session_rungs(rec, seed, session_seconds);
  ladder.spans.set_end(root, now_s());
  return ladder;
}

double ladder_path_ms(const std::string& workload, const Ladder& ladder,
                      double session_seconds) {
  auto r = [&](const char* name) { return ladder.rungs.at(name); };
  if (workload == "session") {
    // Section 4.3's overlapped model over the run's timesteps: L is one
    // PE's slab load, R its render plus payload encode.
    const int n = session_shape(session_seconds).timesteps;
    const double l = r("dpss.client.slab_read_ms");
    const double rr = r("render.brick_ms") + r("ibravr.encode_ms");
    return sim::overlapped_time_model(n, l, rr) / n;
  }
  const double hop_us = r("net.tcp_rtt_us") + r("net.post_run_us") +
                        r("core.pool.submit_run_us");
  if (workload == "rf3_write") {
    // Primary plus two chain hops, each a full request/reply exchange.
    return 3.0 * (hop_us + r("dpss.protocol.write_codec_us") +
                  r("dpss.server.put_block_us")) / 1e3;
  }
  // A read that does not reconstruct (the median op on ec_degraded_read).
  return (hop_us + r("dpss.protocol.read_codec_us") +
          r("dpss.server.handle_read_us")) / 1e3;
}

}  // namespace perfbench
