#include "net/reactor_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>

namespace visapult::net {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kFrameHeader = kFrameHeaderBytes;
// Requests one connection may have answered on its loop back to back
// before it yields to the loop's other connections (a pipelined burst
// resumes from a posted task).
constexpr int kInlineBurst = 64;
}  // namespace

struct Conn;

// Shared between the server facade, the listener, and every connection.
// Connections hold it by shared_ptr, so a completion posted to a loop after
// the facade died still lands on live state.
struct ReactorServer::State {
  ReactorPool& pool;
  Handler handler;
  // Tried first on the loop; an inline server's is `handler` itself and
  // never declines.
  LoopHandler loop_handler;
  ReactorServerOptions opts;
  core::ThreadPool* workers;
  std::function<void()> timeout_observer;

  int listen_fd = -1;
  Reactor* listen_loop = nullptr;

  std::mutex mu;
  std::condition_variable drained_cv;
  bool closing = false;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 0;
  // Worker-pool handlers running or queued; close() waits for zero so
  // handler captures (BlockServer, Master) can be torn down afterwards.
  // Loop-side handlers need no count: their connection is still open.
  int in_flight = 0;

  // Counters (guarded by mu; queued_write_bytes adjusted from loop threads).
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t inline_requests = 0;
  std::uint64_t handler_failures = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t overflow_closes = 0;
  std::uint64_t accept_failures = 0;
  std::size_t queued_write_bytes = 0;
  std::size_t queued_write_hwm_bytes = 0;       // high-water of the sum
  std::size_t conn_write_queue_hwm_bytes = 0;   // high-water of any one conn
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  State(ReactorPool& p, Handler h, ReactorServerOptions o,
        core::ThreadPool* w)
      : pool(p), handler(std::move(h)), opts(o), workers(w) {
    if (workers == nullptr) {
      loop_handler = [this](Message& msg, std::uint64_t conn_id) {
        return std::optional<Message>(handler(std::move(msg), conn_id));
      };
    }
  }
};

// One accepted connection.  Every field is owned by `loop`'s thread; the
// only cross-thread entry points are posted tasks.
struct Conn : std::enable_shared_from_this<Conn> {
  std::shared_ptr<ReactorServer::State> state;
  Reactor* loop;
  int fd;
  std::uint64_t id;

  std::vector<std::uint8_t> rbuf;  // received, not yet consumed
  std::size_t rpos = 0;            // parse cursor into rbuf
  std::deque<std::vector<std::uint8_t>> wq;
  std::size_t wq_head_off = 0;  // bytes of wq.front() already sent
  std::size_t wq_bytes = 0;
  // Reading and parsing are paused: a request is on the workers, its reply
  // not yet queued, or a pipelined burst yielded the loop.
  bool busy = false;
  bool closed = false;
  std::uint32_t armed = 0;  // current epoll interest
  TimerWheel::TimerId read_timer = 0;

  Conn(std::shared_ptr<ReactorServer::State> s, Reactor* l, int f,
       std::uint64_t i)
      : state(std::move(s)), loop(l), fd(f), id(i) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  void start() {
    armed = Reactor::kReadable;
    auto self = shared_from_this();
    if (!loop->add_fd(fd, armed, [self](std::uint32_t ev) {
          self->on_event(ev);
        }).is_ok()) {
      close_conn();
    }
  }

  void update_interest() {
    if (closed) return;
    const std::uint32_t want = (busy ? 0u : Reactor::kReadable) |
                               (wq.empty() ? 0u : Reactor::kWritable);
    if (want == armed) return;
    armed = want;
    loop->mod_fd(fd, want);
  }

  void on_event(std::uint32_t ev) {
    if (closed) return;
    if (ev & Reactor::kWritable) flush_writes();
    if (closed) return;
    if (ev & Reactor::kReadable) read_ready();
  }

  void read_ready() {
    // Pull everything the kernel has, then parse.  While a request is in
    // flight EPOLLIN is disarmed, so rbuf is bounded by what arrived
    // before the pause plus one socket buffer.
    std::uint64_t got = 0;
    for (;;) {
      std::uint8_t chunk[kReadChunk];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        got += static_cast<std::uint64_t>(n);
        rbuf.insert(rbuf.end(), chunk, chunk + n);
        if (static_cast<std::size_t>(n) < sizeof chunk) break;
        continue;
      }
      if (n == 0) {  // orderly peer close
        note_read_bytes(got);
        close_conn();
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      note_read_bytes(got);
      close_conn();
      return;
    }
    note_read_bytes(got);
    parse_and_dispatch();
  }

  void note_read_bytes(std::uint64_t n) {
    if (n == 0) return;
    std::lock_guard lk(state->mu);
    state->bytes_read += n;
  }

  // Serve the complete requests buffered in rbuf, strictly in order, and
  // manage the partial-request read timer.  Replies answered on the loop
  // queue and the walk goes on; a request handed to the workers pauses
  // the connection until complete() resumes the walk.  Iterative, so a
  // pipelined burst never recurses.
  void parse_and_dispatch() {
    for (int served = 0; !closed && !busy; ++served) {
      if (served == kInlineBurst) {
        busy = true;
        update_interest();
        auto self = shared_from_this();
        loop->post([self] {
          self->busy = false;
          self->parse_and_dispatch();
        });
        return;
      }
      std::optional<Message> msg = take_frame();
      if (!msg) break;
      cancel_read_timer();
      dispatch(std::move(*msg));
    }
    if (closed || busy) return;
    // Incomplete request: bound how long the tail may dawdle.
    if (rbuf.size() - rpos > 0) {
      arm_read_timer();
    } else {
      cancel_read_timer();
    }
    update_interest();
  }

  // The next complete request off rbuf, or nullopt (a partial frame, or a
  // bad header, which closes the connection).
  std::optional<Message> take_frame() {
    compact();
    const std::size_t avail = rbuf.size() - rpos;
    if (avail < kFrameHeader) return std::nullopt;
    std::uint32_t magic, type;
    std::uint64_t len;
    std::memcpy(&magic, rbuf.data() + rpos, 4);
    std::memcpy(&type, rbuf.data() + rpos + 4, 4);
    std::memcpy(&len, rbuf.data() + rpos + 8, 8);
    if (magic != kMessageMagic || len > state->opts.max_payload) {
      close_conn();  // desynchronised or hostile peer
      return std::nullopt;
    }
    if (avail < kFrameHeader + len) return std::nullopt;
    Message msg;
    msg.type = type;
    std::memcpy(&msg.trace_id, rbuf.data() + rpos + 16, 8);
    std::memcpy(&msg.span_id, rbuf.data() + rpos + 24, 8);
    const auto* p = rbuf.data() + rpos + kFrameHeader;
    msg.payload.assign(p, p + len);
    rpos += kFrameHeader + static_cast<std::size_t>(len);
    return msg;
  }

  void arm_read_timer() {
    const double t = state->opts.request_read_timeout_seconds;
    if (t <= 0 || read_timer != 0) return;
    auto self = shared_from_this();
    read_timer = loop->schedule_after(t, [self] {
      self->read_timer = 0;
      if (self->closed || self->busy) return;
      if (self->rbuf.size() - self->rpos == 0) return;  // became idle
      {
        std::lock_guard lk(self->state->mu);
        ++self->state->read_timeouts;
      }
      if (self->state->timeout_observer) self->state->timeout_observer();
      self->close_conn();
    });
  }

  void cancel_read_timer() {
    if (read_timer == 0) return;
    loop->cancel_timer(read_timer);
    read_timer = 0;
  }

  void compact() {
    if (rpos == rbuf.size()) {
      rbuf.clear();
      rpos = 0;
    } else if (rpos > (1u << 20)) {
      rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(rpos));
      rpos = 0;
    }
  }

  // Answer on the loop when the loop handler can; otherwise pause reading
  // and run the handler on the workers.
  void dispatch(Message&& msg) {
    const std::uint64_t req_trace = msg.trace_id;
    const std::uint64_t req_span = msg.span_id;
    // With workers, the loop answers only while replies drain.  Once the
    // socket backs up, replies made at memory speed would only pile into
    // the write queue until its cap sheds a peer that is still reading;
    // the worker hop paces the connection instead, as it always has.
    const bool backed_up = state->workers != nullptr && !wq.empty();
    if (state->loop_handler && !backed_up) {
      std::optional<Message> reply;
      try {
        reply = state->loop_handler(msg, id);
      } catch (...) {
        note_request(/*on_loop=*/false, /*failed=*/true);
        close_conn();
        return;
      }
      if (reply) {
        note_request(/*on_loop=*/true, /*failed=*/false);
        queue_reply(echo_trace(std::move(*reply), req_trace, req_span));
        return;
      }
    }
    busy = true;
    update_interest();  // pause reading until the reply is queued
    {
      std::lock_guard lk(state->mu);
      ++state->requests;
      ++state->in_flight;
    }
    auto self = shared_from_this();
    state->workers->submit([self, msg = std::move(msg), req_trace,
                            req_span]() mutable {
      std::optional<Message> reply;
      try {
        reply = echo_trace(self->state->handler(std::move(msg), self->id),
                           req_trace, req_span);
      } catch (...) {
        // reply stays empty: the connection closes on its loop below.
      }
      {
        std::lock_guard lk(self->state->mu);
        if (!reply) ++self->state->handler_failures;
        if (--self->state->in_flight == 0) {
          self->state->drained_cv.notify_all();
        }
      }
      self->loop->post([self, reply = std::move(reply)]() mutable {
        if (reply) {
          self->complete(std::move(*reply));
        } else {
          self->close_conn();
        }
      });
    });
  }

  // Replies travel under the request's trace unless the handler stamped
  // its own context.
  static Message echo_trace(Message&& reply, std::uint64_t trace,
                            std::uint64_t span) {
    if (reply.trace_id == 0) {
      reply.trace_id = trace;
      reply.span_id = span;
    }
    return std::move(reply);
  }

  void note_request(bool on_loop, bool failed) {
    std::lock_guard lk(state->mu);
    ++state->requests;
    if (on_loop) ++state->inline_requests;
    if (failed) ++state->handler_failures;
  }

  // A worker's reply arrived: queue it and resume the request walk (which
  // re-arms EPOLLIN once nothing is buffered).
  void complete(Message&& reply) {
    if (closed) return;
    busy = false;
    queue_reply(std::move(reply));
    parse_and_dispatch();
  }

  // Frame a reply into the bounded write queue and push what the socket
  // takes now.
  void queue_reply(Message&& reply) {
    std::vector<std::uint8_t> frame(kFrameHeader + reply.payload.size());
    const std::uint32_t magic = kMessageMagic;
    const std::uint64_t len = reply.payload.size();
    std::memcpy(frame.data(), &magic, 4);
    std::memcpy(frame.data() + 4, &reply.type, 4);
    std::memcpy(frame.data() + 8, &len, 8);
    std::memcpy(frame.data() + 16, &reply.trace_id, 8);
    std::memcpy(frame.data() + 24, &reply.span_id, 8);
    // An empty payload's data() may be null, and memcpy from null is
    // undefined even for zero bytes.
    if (!reply.payload.empty()) {
      std::memcpy(frame.data() + kFrameHeader, reply.payload.data(),
                  reply.payload.size());
    }
    add_queued(frame.size());
    wq_bytes += frame.size();
    wq.push_back(std::move(frame));
    {
      std::lock_guard lk(state->mu);
      if (wq_bytes > state->conn_write_queue_hwm_bytes) {
        state->conn_write_queue_hwm_bytes = wq_bytes;
      }
    }
    const std::size_t cap = state->opts.write_queue_cap_bytes;
    if (cap > 0 && wq_bytes > cap) {
      // Back-pressure: the peer is not draining replies; shedding the
      // connection bounds memory where thread-per-connection grew stacks.
      {
        std::lock_guard lk(state->mu);
        ++state->overflow_closes;
      }
      close_conn();
      return;
    }
    flush_writes();
  }

  void flush_writes() {
    std::uint64_t sent = 0;
    while (!wq.empty()) {
      const auto& head = wq.front();
      const ssize_t n = ::send(fd, head.data() + wq_head_off,
                               head.size() - wq_head_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        note_written_bytes(sent);
        close_conn();
        return;
      }
      sent += static_cast<std::uint64_t>(n);
      wq_head_off += static_cast<std::size_t>(n);
      wq_bytes -= static_cast<std::size_t>(n);
      add_queued(-static_cast<std::ptrdiff_t>(n));
      if (wq_head_off == head.size()) {
        wq.pop_front();
        wq_head_off = 0;
      }
    }
    note_written_bytes(sent);
    update_interest();
  }

  void note_written_bytes(std::uint64_t n) {
    if (n == 0) return;
    std::lock_guard lk(state->mu);
    state->bytes_written += n;
  }

  void add_queued(std::ptrdiff_t delta) {
    std::lock_guard lk(state->mu);
    if (delta < 0 &&
        state->queued_write_bytes < static_cast<std::size_t>(-delta)) {
      state->queued_write_bytes = 0;
    } else {
      state->queued_write_bytes += delta;
    }
    if (state->queued_write_bytes > state->queued_write_hwm_bytes) {
      state->queued_write_hwm_bytes = state->queued_write_bytes;
    }
  }

  void close_conn() {
    if (closed) return;
    closed = true;
    // Pin ourselves: del_fd drops the handler's ref and conns.erase drops
    // the registry's -- without this, *this dies before the method ends.
    auto self = shared_from_this();
    cancel_read_timer();
    loop->del_fd(fd);
    ::close(fd);
    fd = -1;
    add_queued(-static_cast<std::ptrdiff_t>(wq_bytes));
    wq.clear();
    wq_bytes = 0;
    std::lock_guard lk(state->mu);
    ++state->closed;
    state->conns.erase(id);
    if (state->conns.empty()) state->drained_cv.notify_all();
  }
};

ReactorServer::ReactorServer(ReactorPool& pool, Handler handler,
                             ReactorServerOptions options,
                             core::ThreadPool* workers)
    : state_(std::make_shared<State>(pool, std::move(handler), options,
                                     workers)) {}

ReactorServer::~ReactorServer() { close(); }

void ReactorServer::set_read_timeout_observer(std::function<void()> observer) {
  state_->timeout_observer = std::move(observer);
}

void ReactorServer::set_loop_handler(LoopHandler handler) {
  if (state_->workers != nullptr) state_->loop_handler = std::move(handler);
}

core::Status ReactorServer::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    return core::unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const auto st =
        core::unavailable(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, state_->opts.backlog) != 0) {
    const auto st =
        core::unavailable(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const auto st =
        core::unavailable(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  port_ = ntohs(addr.sin_port);

  state_->listen_fd = fd;
  state_->listen_loop = &state_->pool.at(0);
  auto state = state_;
  // Registration must happen on the listener's loop thread.
  std::promise<core::Status> registered;
  state->listen_loop->post([state, &registered] {
    registered.set_value(state->listen_loop->add_fd(
        state->listen_fd, Reactor::kReadable, [state](std::uint32_t) {
          // Drain the accept queue; LT epoll re-signals anything left.
          for (;;) {
            const int cfd = ::accept4(state->listen_fd, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (cfd < 0) {
              if (errno == EINTR) continue;
              if (errno != EAGAIN && errno != EWOULDBLOCK) {
                std::lock_guard lk(state->mu);
                ++state->accept_failures;
              }
              return;
            }
            const int nodelay = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         sizeof nodelay);
            Reactor& loop = state->pool.next();
            std::shared_ptr<Conn> conn;
            {
              std::lock_guard lk(state->mu);
              if (state->closing) {
                ::close(cfd);
                return;
              }
              const std::uint64_t id = ++state->next_conn_id;
              conn = std::make_shared<Conn>(state, &loop, cfd, id);
              state->conns[id] = conn;
              ++state->accepted;
            }
            loop.post([conn] { conn->start(); });
          }
        }));
  });
  if (auto st = registered.get_future().get(); !st.is_ok()) {
    ::close(fd);
    state_->listen_fd = -1;
    return st;
  }
  listening_ = true;
  return core::Status::ok();
}

void ReactorServer::close() {
  auto state = state_;
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lk(state->mu);
    if (state->closing) return;
    state->closing = true;
    conns.reserve(state->conns.size());
    for (auto& [id, c] : state->conns) conns.push_back(c);
  }
  if (listening_) {
    // Tear the listener down on its loop so no accept callback races the
    // close; the promise makes it synchronous.
    std::promise<void> done;
    state->listen_loop->post([state, &done] {
      state->listen_loop->del_fd(state->listen_fd);
      ::close(state->listen_fd);
      state->listen_fd = -1;
      done.set_value();
    });
    done.get_future().wait();
    listening_ = false;
  }
  for (auto& conn : conns) {
    conn->loop->post([conn] { conn->close_conn(); });
  }
  // Until no handler is running or queued AND every connection has shut,
  // objects the handler references must stay alive; block here so callers
  // can sequence teardown after us.
  std::unique_lock lk(state->mu);
  state->drained_cv.wait(lk, [&] {
    return state->in_flight == 0 && state->conns.empty();
  });
}

ReactorServerStats ReactorServer::stats() const {
  std::lock_guard lk(state_->mu);
  ReactorServerStats out;
  out.accepted = state_->accepted;
  out.closed = state_->closed;
  out.requests = state_->requests;
  out.inline_requests = state_->inline_requests;
  out.handler_failures = state_->handler_failures;
  out.read_timeouts = state_->read_timeouts;
  out.overflow_closes = state_->overflow_closes;
  out.accept_failures = state_->accept_failures;
  out.active_conns = state_->conns.size();
  out.queued_write_bytes = state_->queued_write_bytes;
  out.queued_write_hwm_bytes = state_->queued_write_hwm_bytes;
  out.conn_write_queue_hwm_bytes = state_->conn_write_queue_hwm_bytes;
  out.bytes_read = state_->bytes_read;
  out.bytes_written = state_->bytes_written;
  return out;
}

}  // namespace visapult::net
