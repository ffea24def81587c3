// DPSS deployments: one master + block-server farm over a transport.
//
// The paper's point is that the same DPSS cache can sit anywhere on the
// network -- co-located with the back end or across a WAN.  `Deployment`
// is that cache: it owns the master, the block servers, their addresses
// and the killed set, and defines every transport-independent operation
// once.  Two subclasses differ only in how a server is reached:
//   * PipeDeployment -- everything in-process over in-memory pipes; used by
//     unit/integration tests and the quickstart example.
//   * TcpDeployment -- master and servers listening on real loopback TCP
//     ports, every connection served by one shared pool of epoll event
//     loops (a connection costs a buffer, not a thread, so one deployment
//     absorbs the paper's massive fan-in); used by the dpss_tool example,
//     the socket integration tests and the benches.
//
// ingest() stripes a generated dataset across the block servers and
// registers it with the master -- the reproduction of "migrate the files
// from HPSS to a nearby DPSS cache".  Ingesting with
// `replication_factor > 1` places each block on that many servers via the
// placement ring and writes every replica, enabling client failover.
// Ingesting with an enabled codec::EcProfile instead erasure-codes: each
// group of k blocks lands on k+m distinct servers (data slices written in
// place, parity slices encoded server-side at ingest), enabling client
// reconstruction at ~(k+m)/k of raw capacity.
//
// Failure-scenario levers (the SimGrid-style kill / slow / rejoin
// campaigns, live): kill_server() makes a server refuse service
// mid-flight, revive_server() (pipes) brings it back, add_server() (pipes)
// joins an empty server, heartbeat_all() pumps liveness+load beats into
// the master, and rebalance_dataset() recomputes placement over the
// currently live servers and executes the Rebalancer's copy/drop plan
// against the block stores.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
#include "core/thread_pool.h"
#include "dpss/client.h"
#include "dpss/master.h"
#include "dpss/server.h"
#include "dpss/thumbnail.h"
#include "ingest/fixup.h"
#include "net/reactor.h"
#include "net/reactor_server.h"
#include "net/tcp.h"
#include "netlog/span_extract.h"
#include "placement/rebalancer.h"
#include "vol/dataset.h"

namespace visapult::dpss {

// One component's trace-export pipeline: the bounded sink its NetLogger
// writes lifeline events into, and the stateful extractor that turns sink
// drains into finished span records (holding unpaired opens across drains).
struct TraceExport {
  std::string host;
  std::shared_ptr<netlog::MemorySink> sink;
  netlog::SpanExtractor extractor;
};

// Drain `e`'s sink, extract finished spans, and ship them into `master`'s
// SpanCollector through the kSpanExport encode/decode path (exactly what a
// remote exporter's batch goes through).  Returns spans accepted.
std::uint64_t export_spans_to_master(Master& master, TraceExport& e);

// The transport-independent half of a deployment: the master, the block
// servers and their addresses, the killed set, trace exports, and every
// operation that only needs those.  Subclasses supply the transport.
class Deployment {
 public:
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  virtual ~Deployment();

  Master& master() { return master_; }
  BlockServer& server(int i);
  int server_count() const;
  // Where clients and peers reach server `i` (empty before a TCP start()).
  ServerAddress server_address(int i) const;

  // Stripe `desc`'s timesteps into the store and register "<name>" with the
  // master.  The whole time series is one logical DPSS file; timestep t
  // occupies bytes [t*step_bytes, (t+1)*step_bytes).  With
  // `replication_factor > 1` each block lands on that many ring-placed
  // servers.  A TCP deployment starts itself first if needed.
  core::Status ingest(const vol::DatasetDesc& desc,
                      std::uint32_t block_bytes = kDefaultBlockBytes,
                      std::uint32_t stripe_blocks = 1,
                      std::uint32_t replication_factor = 1,
                      const codec::EcProfile& ec = {});

  // Run the offline thumbnail service for an ingested dataset (section 5
  // future work); registers "<name>.thumbs".
  core::Status generate_thumbnails(const vol::DatasetDesc& desc,
                                   const render::TransferFunction& tf,
                                   const ThumbnailOptions& options = {});

  // ---- failure scenarios ----
  // Stop serving from server `i`: its door closes, existing connections
  // drop, new connects are refused.  The block store survives (a dead
  // machine's disks are not wiped), so a later revive or rebalance copy
  // can read it.  A no-op on a TCP deployment that is not started.
  void kill_server(int i);
  bool server_killed(int i) const;
  // Kill server `i` AND wipe its block store: a disk loss, not just a
  // process death.  Rebalance copies sourced here must reconstruct.
  void wipe_server(int i);
  // Heartbeat every live server's liveness + served-request load into the
  // master's health tracker at time `now` (seconds on the caller's clock),
  // carrying each server's per-dataset generation floors.
  void heartbeat_all(double now = 0.0);
  // Recompute `name`'s placement over the live (non-killed) servers and
  // execute the copy/drop plan.  Ring-placed datasets only.
  core::Status rebalance_dataset(const std::string& name);
  // Arm the master's background re-replication with this deployment's
  // plan executor; drive it via master().tick(now).
  void enable_auto_rebalance(double down_deadline_seconds);
  // Arm the master's ingest fixup queue with this deployment's executor
  // (apply_fixup against the live block stores); drain via
  // master().tick(now).
  void enable_fixups();

  // ---- trace aggregation ----
  // Attach a real-clock NetLogger (bounded MemorySink) to the master and
  // every block server so traced requests leave lifeline events to export.
  // Call before driving traced load.
  void enable_trace_collection(std::size_t sink_capacity = 4096);
  // Drain every component's sink and ship the finished spans into the
  // master's SpanCollector; returns spans accepted.  Client-side sinks are
  // the caller's (see export_spans_to_master).
  std::uint64_t export_spans();

 protected:
  // `server_count` block servers, all with the same disk model and memory
  // tier configuration; `throttle` enables the disk service-time model.
  Deployment(int server_count, DiskModel disk, bool throttle,
             ServerCacheConfig cache);

  // ---- transport hooks ----
  // Bring the transport up before servers are addressed (TCP: start()).
  virtual core::Status ensure_serving() { return core::Status::ok(); }
  // Whether the transport is up, i.e. there is a door to close.
  virtual bool serving() const { return true; }
  // Close killed server `i`'s door so new connects are refused; in-flight
  // connections then drop through the server's own shutdown.
  virtual void close_door(int i) = 0;

  // Drop every served connection of the master and the servers (joins
  // their service threads and pooled peer links).
  void shutdown_components();
  // The block server listening at `addr`, or null when there is none.
  BlockServer* server_for(const ServerAddress& addr);

  Master master_;
  // Guards servers_/addresses_/killed_ membership against concurrent
  // client connects and kill/revive/add (the failure-scenario tests
  // exercise exactly that).
  mutable std::mutex state_mu_;
  std::vector<std::unique_ptr<BlockServer>> servers_;
  // Index-aligned with servers_; a TCP deployment fills it at start().
  std::vector<ServerAddress> addresses_;
  std::vector<char> killed_;

 private:
  std::vector<std::unique_ptr<TraceExport>> trace_exports_;
};

class PipeDeployment : public Deployment {
 public:
  explicit PipeDeployment(int server_count, DiskModel disk = {},
                          ServerCacheConfig cache = ServerCacheConfig());
  ~PipeDeployment() override;

  // New client with pipes to master and servers.
  DpssClient make_client();

  // Rejoin: accept connections again and heartbeat the master back to up.
  void revive_server(int i);
  // Join an empty server to the farm; returns its index.  Call
  // rebalance_dataset() to give it blocks.
  int add_server();

 private:
  // The killed flag is a pipe server's door: connector() refuses it.
  void close_door(int) override {}
  // How clients and servers (follower copies, parity deltas) reach a
  // server: a fresh pipe, through the liveness gate, so a copy to a killed
  // server fails like a client connect would.
  Connector connector();

  DiskModel disk_;
  ServerCacheConfig cache_config_;
};

struct TcpDeploymentOptions {
  // 0 -> one event loop per core (capped in ReactorPool).
  int reactor_loops = 0;
  // Handler offload threads per block server.  Block reads resident in the
  // memory tier, and writes and parity deltas that reach no peer, are
  // answered on the event loops; every other block-server request may
  // block (modelled disk sleeps, a primary copying a block to its
  // followers) and runs here.  A worker waiting on a peer waits on the
  // peer's event loop, never on a worker, so any size >= 1 is
  // deadlock-free.
  int worker_threads = 4;
  // Outbound connects (clients and server-to-server peer links) fail with
  // kDeadlineExceeded after this long instead of hanging on a dead or
  // overloaded address; failover then tries the next replica.
  double connect_timeout_seconds = 5.0;
  // Per-request read deadline on server connections: once a request's
  // first byte arrives the rest must follow within this window or the
  // connection is shed and counted.  0 disables.
  double request_read_timeout_seconds = 10.0;
  // Back-pressure cap per connection: un-drained reply bytes beyond this
  // close the connection.
  std::size_t write_queue_cap_bytes = 4u << 20;
};

class TcpDeployment : public Deployment {
 public:
  // The front doors open at start().  `throttle` enables the disk
  // service-time model on the live servers.
  TcpDeployment(int server_count, DiskModel disk = {}, bool throttle = false,
                ServerCacheConfig cache = ServerCacheConfig(),
                TcpDeploymentOptions options = {});
  ~TcpDeployment() override;

  // Open every front door.  A failed start tears down what it built, so a
  // later start() (or an implicit one from ingest/make_client) retries
  // from scratch.
  core::Status start();
  void stop();

  std::uint16_t master_port() const;

  // ---- reactor introspection (empty / zero before start()) ----
  // Per-loop event counts for the shared ReactorPool.
  std::vector<net::ReactorStats> reactor_stats() const;
  // Connection/request/timeout counters for server `i`'s front door.
  net::ReactorServerStats server_net_stats(int i) const;
  net::ReactorServerStats master_net_stats() const;

  // New client connected over loopback TCP.
  core::Result<DpssClient> make_client();

 private:
  core::Status ensure_serving() override { return start(); }
  bool serving() const override { return started_; }
  // Close server `i`'s front door (the close drains in-flight handlers).
  // The port stays reserved in the catalog so replica ranking can skip it.
  void close_door(int i) override;
  core::Status open_reactor_fronts();
  net::ConnectOptions connect_options() const {
    return net::ConnectOptions{options_.connect_timeout_seconds};
  }

  TcpDeploymentOptions options_;
  // Declaration order is teardown order in reverse: the pool and worker
  // pools must outlive the servers built on them.  One door per server
  // takes clients and peers alike: the requests peers send each other
  // never wait on a third server, so the door's loop answers them and they
  // never queue behind a worker blocked on a peer.
  std::unique_ptr<net::ReactorPool> reactors_;
  std::vector<std::unique_ptr<core::ThreadPool>> worker_pools_;
  std::unique_ptr<net::ReactorServer> master_front_;
  std::vector<std::unique_ptr<net::ReactorServer>> server_fronts_;
  bool started_ = false;
  // Collector handles registered into the master's / servers' metrics
  // registries at start() (reactor-pool and front-door stats); removed in
  // stop() before the fronts they read from are torn down.
  std::uint64_t master_collector_ = 0;
  std::vector<std::uint64_t> server_collectors_;
};

// Shared ingest logic: place the dataset blocks onto the given servers
// (striped when replication_factor == 1, ring-replicated otherwise, and
// (k, m) erasure-coded when `ec` is enabled -- parity encoded server-side
// after the data slices land) and register the layout with the master.
core::Status ingest_dataset(Master& master,
                            std::vector<BlockServer*> servers,
                            std::vector<ServerAddress> addresses,
                            const vol::DatasetDesc& desc,
                            std::uint32_t block_bytes,
                            std::uint32_t stripe_blocks,
                            std::uint32_t replication_factor = 1,
                            const codec::EcProfile& ec = {});

// Execute a Rebalancer plan against live block stores: replica copies
// first (put_block write-through admits them to the target's memory tier
// -- the "replica fill"), then drops.  `resolve` maps an address to its
// BlockServer, returning null for unknown/unreachable servers (their
// copies fail, their drops are skipped).  EC plans move slices instead of
// groups; a slice copy whose source is unreachable or missing is
// reconstructed from any k surviving slices of its group (the plan's
// old_slice_owners), which is how a rebalance after a disk loss restores
// full redundancy.
core::Status apply_rebalance_plan(
    const placement::RebalancePlan& plan,
    const std::function<BlockServer*(const ServerAddress&)>& resolve);

// Execute one ingest fixup against live block stores: re-sync the task's
// target with the generation it missed.  Replicated blocks copy (with
// their stamp) from a replica that has reached the generation; parity
// blocks ("<name>#parity") re-encode from the group's data slices at their
// current state, which folds in every missed delta at once.  The master
// supplies placement maps and dataset geometry; `resolve` maps addresses
// to reachable BlockServers.
core::Status apply_fixup(
    const ingest::FixupTask& task, Master& master,
    const std::function<BlockServer*(const ServerAddress&)>& resolve);

}  // namespace visapult::dpss
