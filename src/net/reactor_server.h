// Reactor-backed message server: the DPSS front door for massive fan-in.
//
// Accepts loopback TCP connections on a non-blocking listener, deals them
// round-robin across a ReactorPool's event loops, and speaks the framed
// Message protocol (net/message.h) per connection with an explicit state
// machine instead of a blocked thread:
//
//   * reads are readiness-driven and parsed incrementally; a connection
//     costs a buffer, not a thread stack;
//   * requests on one connection dispatch strictly serially (replies stay
//     in order, which the pipelined DpssFile fetch paths rely on), while
//     different connections proceed independently;
//   * a loop-side handler answers what it can without blocking (a block
//     read already in the memory tier, a write that reaches no peer) on the
//     connection's own loop, with no thread handoff, while the connection's
//     replies drain; everything it declines runs on a worker ThreadPool, so
//     a handler that blocks (modelled disk sleeps, copying a block to a
//     peer) never stalls an event loop;
//   * a handler that throws closes only its own connection and is counted;
//   * replies land in a BOUNDED per-connection write queue -- a peer that
//     stops reading gets its connection closed at the cap (back-pressure)
//     instead of growing an unbounded thread stack or heap;
//   * a per-request read timeout (timer wheel) closes connections that
//     stall mid-request, counted so server metrics can expose them.
//
// This is the only way a DPSS deployment serves TCP.  In-memory pipes,
// which have no file descriptor to poll, are served instead by
// BlockServer::serve(StreamPtr)/Master::serve(StreamPtr), one thread per
// pipe.  Both feed the same request body (BlockServer::handle_on_loop is
// that body restricted to what cannot block), so behaviour is identical
// by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/status.h"
#include "core/thread_pool.h"
#include "net/message.h"
#include "net/reactor.h"

namespace visapult::net {

struct ReactorServerOptions {
  int backlog = 256;
  // Bytes of un-flushed replies one connection may hold before it is
  // closed for back-pressure.  0 = unbounded (benchmarks only).
  std::size_t write_queue_cap_bytes = 4u << 20;
  // Once a request's first byte arrives, the rest must arrive within this
  // many seconds or the connection is closed (0 disables).  Idle
  // connections -- no partial request -- never time out.
  double request_read_timeout_seconds = 0.0;
  std::size_t max_payload = 1ull << 32;
};

struct ReactorServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t requests = 0;
  // Requests answered on the event loop (the loop-side handler, or every
  // request of an inline server) rather than on the worker pool.
  std::uint64_t inline_requests = 0;
  // Requests whose handler threw; each closed its connection.
  std::uint64_t handler_failures = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t overflow_closes = 0;   // write-queue cap exceeded
  std::uint64_t accept_failures = 0;   // EMFILE etc.
  std::size_t active_conns = 0;
  std::size_t queued_write_bytes = 0;  // across live connections, right now
  // High-water marks since the server started: the aggregate write-queue
  // depth and the deepest any single connection's queue has reached.
  // Together with write_queue_cap_bytes they show how close the server has
  // come to shedding a slow consumer.
  std::size_t queued_write_hwm_bytes = 0;
  std::size_t conn_write_queue_hwm_bytes = 0;
  // Wire totals across all connections, live and closed: the front door's
  // utilization axis (bytes moved) next to the saturation axes above.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class ReactorServer {
 public:
  // One request in, one reply out; invoked serially per connection.
  // `conn_id` is stable for a connection's lifetime and unique within this
  // server (feeds e.g. the block server's per-connection stride detector).
  using Handler = std::function<Message(Message&&, std::uint64_t conn_id)>;

  // Runs on the connection's event loop and must never block: returns the
  // reply, or nullopt to decline and leave `msg` untouched for `workers`.
  using LoopHandler = std::function<std::optional<Message>(
      Message& msg, std::uint64_t conn_id)>;

  // `workers` null runs `handler` itself on the event loop (only for
  // handlers that never block).  Non-null offloads every request to the
  // workers, except those a loop handler (set_loop_handler) answers on the
  // loop.  The pool and the pool of reactors must outlive this server.
  ReactorServer(ReactorPool& pool, Handler handler,
                ReactorServerOptions options = {},
                core::ThreadPool* workers = nullptr);
  ~ReactorServer();  // close()

  ReactorServer(const ReactorServer&) = delete;
  ReactorServer& operator=(const ReactorServer&) = delete;

  // Invoked (from a loop thread) whenever a connection is closed by the
  // per-request read timeout; lets owners count it in their own metrics.
  // Set before listen().
  void set_read_timeout_observer(std::function<void()> observer);

  // Answer what `handler` can on the loop before offloading to the
  // workers.  Ignored without workers: an inline server already runs
  // everything on its loops.  Set before listen().
  void set_loop_handler(LoopHandler handler);

  // Bind 127.0.0.1:`port` (0 picks an ephemeral port) and start accepting.
  core::Status listen(std::uint16_t port);
  std::uint16_t port() const { return port_; }

  // Stop accepting, close every connection, and wait until no handler is
  // running or queued -- after close() returns, objects the handler
  // captured can be destroyed safely.  Idempotent.  Must not be called
  // from a reactor loop thread.
  void close();

  ReactorServerStats stats() const;

  // Shared implementation state; public so the connection machinery in the
  // .cpp (namespace-scope, to keep this header free of socket headers) can
  // name it.  Not part of the API.
  struct State;

 private:
  std::shared_ptr<State> state_;
  std::uint16_t port_ = 0;
  bool listening_ = false;
};

}  // namespace visapult::net
