#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

namespace oem {

namespace {

void set_nonblocking(int fd) {
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

timespec until(std::chrono::steady_clock::time_point deadline,
               std::chrono::steady_clock::time_point now) {
  timespec ts{0, 0};
  if (deadline > now) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - now).count();
    ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  }
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Setup / teardown.

RemoteServer::RemoteServer(RemoteServerOptions opts) : opts_(std::move(opts)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    init_status_ = Status::Io(std::string("remote server socket: ") + std::strerror(errno));
    return;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    init_status_ = Status::InvalidArgument("remote server host '" + opts_.host +
                                           "' is not an IPv4 address");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    init_status_ = Status::Io("remote server bind/listen on " + opts_.host + ":" +
                              std::to_string(opts_.port) + ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  std::size_t n = opts_.worker_threads;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (n > 64) n = 64;
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    int p[2];
    if (::pipe2(p, O_NONBLOCK | O_CLOEXEC) != 0) {
      init_status_ = Status::Io(std::string("remote server wake pipe: ") +
                                std::strerror(errno));
      for (auto& prev : workers_) {
        ::close(prev->wake_rd);
        ::close(prev->wake_wr);
      }
      workers_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return;
    }
    w->wake_rd = p[0];
    w->wake_wr = p[1];
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_)
    w->th = std::thread([this, raw = w.get()] { worker_loop(*raw); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

RemoteServer::~RemoteServer() { shutdown(); }

Status RemoteServer::shutdown() {
  if (shut_.exchange(true, std::memory_order_acq_rel))
    return Status::Ok();  // already shut down (idempotent)
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) wake(*w);
  for (auto& w : workers_) {
    if (w->th.joinable()) w->th.join();
    ::close(w->wake_rd);
    ::close(w->wake_wr);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return flush_stores();
}

Status RemoteServer::flush_stores() {
  Status first;
  std::lock_guard<std::mutex> lk(stores_mu_);
  for (auto& [id, store] : stores_) {
    std::lock_guard<std::mutex> slk(store->mu);
    first.Update(store->backend->flush());
  }
  return first;
}

// ---------------------------------------------------------------------------
// Accept thread.

void RemoteServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_relaxed)) return;  // shut down
      // Transient accept failures (an aborted handshake, a brief fd or
      // buffer shortage during a reconnect storm) must not retire the
      // listener for good -- back off briefly and keep serving.
      const bool transient = errno == EINTR || errno == ECONNABORTED ||
                             errno == EMFILE || errno == ENFILE ||
                             errno == ENOBUFS || errno == ENOMEM ||
                             errno == EAGAIN || errno == EWOULDBLOCK;
      if (transient) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      return;  // listening socket is genuinely gone
    }
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(fd);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Worker& w = *workers_[next_worker_++ % workers_.size()];
    {
      std::lock_guard<std::mutex> lk(w.mu);
      w.incoming.push_back(fd);
    }
    wake(w);
  }
}

void RemoteServer::wake(Worker& w) {
  const char b = 1;
  // A full pipe means a wake-up is already pending; EAGAIN is success here.
  [[maybe_unused]] const ssize_t r = ::write(w.wake_wr, &b, 1);
}

void RemoteServer::drop_connections() {
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    // Only shutdown() here, never close(): the owning worker closes under
    // this same mutex when it retires the connection, so an fd number the
    // kernel recycled can never be hit.  Not-yet-adopted fds are dropped
    // the same way.
    for (auto& c : w->conns) ::shutdown(c->fd, SHUT_RDWR);
    for (int fd : w->incoming) ::shutdown(fd, SHUT_RDWR);
    wake(*w);
  }
}

// ---------------------------------------------------------------------------
// Stores.

Status RemoteServer::peek_store(std::uint64_t store_id, std::uint64_t block,
                                std::vector<Word>* out) {
  Store* store = nullptr;
  {
    std::lock_guard<std::mutex> lk(stores_mu_);
    auto it = stores_.find(store_id);
    if (it == stores_.end())
      return Status::InvalidArgument("peek_store: unknown store " +
                                     std::to_string(store_id));
    store = it->second.get();
  }
  std::lock_guard<std::mutex> lk(store->mu);
  out->assign(store->backend->block_words(), 0);
  return store->backend->read(block, *out);
}

Status RemoteServer::poke_store(std::uint64_t store_id, std::uint64_t block,
                                std::span<const Word> in) {
  Store* store = nullptr;
  {
    std::lock_guard<std::mutex> lk(stores_mu_);
    auto it = stores_.find(store_id);
    if (it == stores_.end())
      return Status::InvalidArgument("poke_store: unknown store " +
                                     std::to_string(store_id));
    store = it->second.get();
  }
  std::lock_guard<std::mutex> lk(store->mu);
  if (in.size() != store->backend->block_words())
    return Status::InvalidArgument("poke_store: wrong block size");
  return store->backend->write(block, in);
}

Result<RemoteServer::Store*> RemoteServer::bind_store(std::uint64_t store_id,
                                                      std::uint64_t block_words) {
  // A block must fit many times over into one frame, or no batched op could
  // ever be served; the bound also keeps a hostile HELLO from sizing
  // staging/stores by 2^60-word blocks.
  if (block_words < 1 || block_words > wire::kMaxFrameBytes / sizeof(Word) / 64)
    return Status::InvalidArgument("HELLO: block_words " +
                                   std::to_string(block_words) + " out of range");
  std::lock_guard<std::mutex> lk(stores_mu_);
  auto it = stores_.find(store_id);
  if (it != stores_.end()) {
    if (it->second->backend->block_words() != block_words)
      return Status::InvalidArgument(
          "HELLO: store " + std::to_string(store_id) + " already serves block_words=" +
          std::to_string(it->second->backend->block_words()) + ", client asked for " +
          std::to_string(block_words));
    return it->second.get();
  }
  auto store = std::make_unique<Store>();
  const auto bw = static_cast<std::size_t>(block_words);
  store->backend = opts_.store_factory_by_id ? opts_.store_factory_by_id(store_id, bw)
                   : opts_.store_factory     ? opts_.store_factory(bw)
                                             : std::make_unique<MemBackend>(bw);
  Status health = store->backend->health();
  if (!health.ok()) return health;
  Store* raw = store.get();
  stores_.emplace(store_id, std::move(store));
  return raw;
}

// ---------------------------------------------------------------------------
// Worker loop.

void RemoteServer::worker_loop(Worker& w) {
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    // Adopt newly accepted connections.
    {
      std::lock_guard<std::mutex> lk(w.mu);
      for (int fd : w.incoming) {
        auto c = std::make_unique<Conn>();
        c->fd = fd;
        c->last_activity = Clock::now();
        w.conns.push_back(std::move(c));
      }
      w.incoming.clear();
    }

    if (!draining && stop_.load(std::memory_order_acquire)) {
      // Graceful drain: every fully-received frame was already dispatched
      // (dispatch happens as frames arrive), so all that remains is pushing
      // queued responses out; a bounded deadline keeps a wedged peer from
      // holding the process open.
      draining = true;
      drain_deadline = Clock::now() + std::chrono::seconds(2);
    }

    auto now = Clock::now();

    // Push queued responses; a send error retires the connection.
    for (auto& c : w.conns)
      if (!c->dead && !flush_out(*c)) c->dead = true;

    // Idle eviction (PINGs and any other frame reset last_activity).
    if (opts_.idle_timeout_ms > 0 && !draining) {
      const auto idle = std::chrono::milliseconds(opts_.idle_timeout_ms);
      for (auto& c : w.conns)
        if (!c->dead && now - c->last_activity > idle) {
          c->dead = true;
          evicted_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    // Retire dead connections.  close() under the worker mutex: once close
    // returns the kernel may recycle the fd number, and drop_connections
    // (which walks this list under the same mutex) must never shutdown() a
    // descriptor this server no longer owns.
    {
      std::lock_guard<std::mutex> lk(w.mu);
      std::erase_if(w.conns, [](const std::unique_ptr<Conn>& c) {
        if (!c->dead) return false;
        ::close(c->fd);
        return true;
      });
    }

    if (draining) {
      bool flushed = true;
      for (auto& c : w.conns)
        if (!c->out.empty()) {
          flushed = false;
          break;
        }
      if (flushed || Clock::now() > drain_deadline) {
        std::lock_guard<std::mutex> lk(w.mu);
        for (auto& c : w.conns) ::close(c->fd);
        w.conns.clear();
        for (int fd : w.incoming) ::close(fd);
        w.incoming.clear();
        return;
      }
    }

    // Build the poll set: the wake pipe, every live socket for input (unless
    // draining), and for output while a response is still queued.  The
    // timeout lands on the nearest deadline: an idle eviction or a coarse
    // housekeeping tick.
    now = Clock::now();
    auto wake_at = now + (draining ? std::chrono::milliseconds(2)
                                   : std::chrono::milliseconds(100));
    pfds.clear();
    polled.clear();
    pfds.push_back({w.wake_rd, POLLIN, 0});
    polled.push_back(nullptr);
    for (auto& c : w.conns) {
      short ev = draining ? 0 : POLLIN;
      if (!c->out.empty()) ev |= POLLOUT;
      if (opts_.idle_timeout_ms > 0 && !draining) {
        const auto deadline =
            c->last_activity + std::chrono::milliseconds(opts_.idle_timeout_ms);
        if (deadline < wake_at) wake_at = deadline;
      }
      pfds.push_back({c->fd, ev, 0});
      polled.push_back(c.get());
    }
    const timespec ts = until(wake_at, now);
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);

    if (pfds[0].revents & POLLIN) {
      char sink[64];
      while (::read(w.wake_rd, sink, sizeof(sink)) > 0) {
      }
    }
    for (std::size_t i = 1; i < pfds.size(); ++i) {
      Conn* c = polled[i];
      if (c->dead) continue;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // Let a final pump observe whatever the peer left behind; EOF or a
        // hard error then retires the connection.
        if (draining || !pump_in(*c)) c->dead = true;
        continue;
      }
      if (!draining && (pfds[i].revents & POLLIN) && !pump_in(*c)) c->dead = true;
    }
  }
}

namespace {

/// Bytes one receive call may fill: also the receive buffer's initial size.
constexpr std::size_t kRecvChunk = 64 * 1024;
/// An idle connection gives back a receive buffer grown past this (a huge
/// frame passed through); smaller ones stay for the next frame.
constexpr std::size_t kKeepRecvBytes = 1u << 20;
/// Queued responses gathered into one sendmsg.
constexpr std::size_t kMaxIov = 64;

std::uint8_t* bytes_of(Word* w) { return reinterpret_cast<std::uint8_t*>(w); }

}  // namespace

std::size_t RemoteServer::reserve_in(Conn& c) {
  const std::size_t have = c.in_end - c.in_begin;
  if (have == 0 && c.in_cap > kKeepRecvBytes) {
    c.in.reset();
    c.in_cap = 0;
  }
  if (have == 0) c.in_begin = c.in_end = 0;
  // Room for a whole receive chunk, or for more of a big partial frame whose
  // length already arrived.  The room for the latter doubles with the bytes
  // already here, so a big frame costs a few moves, while a bare hostile
  // length prefix cannot make the server reserve kMaxFrameBytes at once.
  std::size_t need = kRecvChunk;
  if (have >= sizeof(std::uint64_t)) {
    const std::size_t frame =
        sizeof(std::uint64_t) + static_cast<std::size_t>(c.in[c.in_begin / sizeof(Word)]);
    need = std::max(need, std::min(frame - have, have));
  }
  if (c.in_cap - c.in_end >= need) return c.in_cap - c.in_end;
  // Out of tail room: slide the partial frame to the front, growing the
  // buffer first when even that would not make room.
  if (c.in_cap - have < need) {
    const std::size_t cap =
        (std::max(have + need, 2 * c.in_cap) + sizeof(Word) - 1) / sizeof(Word) * sizeof(Word);
    auto bigger = std::make_unique_for_overwrite<Word[]>(cap / sizeof(Word));
    if (have > 0) std::memcpy(bigger.get(), bytes_of(c.in.get()) + c.in_begin, have);
    c.in = std::move(bigger);
    c.in_cap = cap;
  } else {
    std::memmove(c.in.get(), bytes_of(c.in.get()) + c.in_begin, have);
  }
  c.in_begin = 0;
  c.in_end = have;
  return c.in_cap - c.in_end;
}

bool RemoteServer::pump_in(Conn& c) {
  for (;;) {
    const std::size_t room = reserve_in(c);
    const ssize_t got =
        ::recv(c.fd, bytes_of(c.in.get()) + c.in_end, room, MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (got == 0) return false;  // peer closed
    c.last_activity = Clock::now();
    c.in_end += static_cast<std::size_t>(got);
    if (!drain_frames(c)) return false;
    // A short read usually means the socket is drained; yield to the next
    // connection and let ppoll re-arm rather than spinning on one peer.
    if (static_cast<std::size_t>(got) < room) return true;
  }
}

bool RemoteServer::drain_frames(Conn& c) {
  // Frames are parsed where they landed.  Every accepted length is a
  // multiple of 8, so each frame -- and with it every field and payload --
  // starts on a Word boundary of the Word-typed buffer.
  while (c.in_end - c.in_begin >= sizeof(std::uint64_t)) {
    const Word* frame = c.in.get() + c.in_begin / sizeof(Word);
    const std::uint64_t len = frame[0];
    if (len < sizeof(std::uint64_t) || len > wire::kMaxFrameBytes ||
        len % wire::kRequestAlign != 0)
      return false;
    if (c.in_end - c.in_begin < sizeof(std::uint64_t) + len) break;  // partial
    if (!handle_frame(c, frame + 1, static_cast<std::size_t>(len) / sizeof(Word)))
      return false;
    c.in_begin += sizeof(std::uint64_t) + static_cast<std::size_t>(len);
  }
  return true;
}

RemoteServer::OutFrame RemoteServer::response_frame(StatusCode code,
                                                     std::size_t payload_bytes) {
  OutFrame f;
  f.bytes = 2 * sizeof(std::uint64_t) + payload_bytes;
  // Not zero-filled: every byte that goes out is written by the caller.
  f.words = std::make_unique_for_overwrite<Word[]>((f.bytes + sizeof(Word) - 1) /
                                                   sizeof(Word));
  f.words[0] = sizeof(std::uint64_t) + payload_bytes;
  f.words[1] = static_cast<std::uint64_t>(code);
  return f;
}

RemoteServer::OutFrame RemoteServer::status_frame(const Status& st) {
  const std::string& msg = st.message();
  const std::size_t n = st.ok() ? 0 : msg.size();
  OutFrame f = response_frame(st.code(), n);
  if (n > 0) std::memcpy(bytes_of(f.words.get() + 2), msg.data(), n);
  return f;
}

RemoteServer::OutFrame RemoteServer::ok_frame(std::initializer_list<std::uint64_t> fields) {
  OutFrame f = response_frame(StatusCode::kOk, fields.size() * sizeof(std::uint64_t));
  std::copy(fields.begin(), fields.end(), f.words.get() + 2);
  return f;
}

bool RemoteServer::flush_out(Conn& c) {
  iovec iov[kMaxIov];
  while (!c.out.empty()) {
    // Every queued frame (up to kMaxIov) leaves in one sendmsg.
    std::size_t n = 0;
    for (auto it = c.out.begin(); it != c.out.end() && n < kMaxIov; ++it, ++n)
      iov[n] = {bytes_of(it->words.get()) + it->sent, it->bytes - it->sent};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    const ssize_t put = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // resume on POLLOUT
      return false;
    }
    // Retire the frames that went out whole; a partial one resumes later.
    for (std::size_t left = static_cast<std::size_t>(put); left > 0;) {
      OutFrame& f = c.out.front();
      const std::size_t take = std::min(left, f.bytes - f.sent);
      f.sent += take;
      left -= take;
      if (f.sent == f.bytes) c.out.pop_front();
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Frame dispatch (one connection's frames arrive here strictly in order).

bool RemoteServer::handle_frame(Conn& c, const Word* p, std::size_t n) {
  const std::uint64_t frame_no = frames_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Crash injection: die ABRUPTLY at the top of dispatch -- the frame is
  // never applied, nothing is flushed, no destructor runs.  _exit, not
  // abort: the harness asserts the distinct exit code, and no cleanup may
  // soften the crash into a graceful shutdown.
  if (opts_.crash_at_frames > 0 && frame_no >= opts_.crash_at_frames)
    ::_exit(kCrashExitCode);
  // p[0] is the op; `n` counts the body's words, so p[k] exists iff k < n.
  const auto op = static_cast<wire::Op>(p[0]);
  auto fields = [&](std::size_t k) { return n >= k + 1; };

  if (op == wire::Op::kHello) {
    // Version is policed before the v3 frame shape: an older client's HELLO
    // is legitimately shorter, and it deserves a version diagnosis, not a
    // dropped connection.
    if (!fields(2)) return false;  // malformed: drop the connection
    const std::uint64_t version = p[1];
    if (version != wire::kProtocolVersion) {
      c.out.push_back(status_frame(Status::InvalidArgument(
                          "HELLO: protocol version " + std::to_string(version) +
                          " unsupported, server speaks " +
                          std::to_string(wire::kProtocolVersion))));
      return true;
    }
    if (!fields(5)) return false;  // malformed: drop the connection
    const std::uint64_t store_id = p[2];
    const std::uint64_t block_words = p[3];
    const std::uint64_t token = p[4];
    const std::uint64_t tag = p[5];
    if (tag != wire::control_mac(opts_.auth_key, wire::kMacHelloReq,
                                 {version, store_id, block_words, token})) {
      c.out.push_back(status_frame(Status::Integrity(
                          "HELLO authentication failed: wrong wire auth key, or a "
                          "spoofed handshake")));
      return true;
    }
    auto bound = bind_store(store_id, block_words);
    if (!bound.ok()) {
      c.out.push_back(status_frame(bound.status()));
      return true;
    }
    c.store = *bound;
    std::uint64_t num_blocks = 0;
    {
      std::lock_guard<std::mutex> lk(c.store->mu);
      num_blocks = c.store->backend->num_blocks();
    }
    c.out.push_back(ok_frame({wire::kProtocolVersion, num_blocks,
                              wire::control_mac(opts_.auth_key, wire::kMacHelloResp,
                                                {token, wire::kProtocolVersion,
                                                 num_blocks})}));
  } else if (op == wire::Op::kPing) {
    // Connection-level keep-alive: legal before HELLO, echoes the token.
    // Authenticated both ways since v3, so an attacker can neither forge
    // keep-alives (holding an idle eviction open) nor spoof our answer.
    if (!fields(2)) return false;
    const std::uint64_t token = p[1];
    if (p[2] != wire::control_mac(opts_.auth_key, wire::kMacPingReq, {token})) {
      c.out.push_back(status_frame(Status::Integrity("PING authentication failed")));
    } else {
      pings_.fetch_add(1, std::memory_order_relaxed);
      c.out.push_back(
          ok_frame({token, wire::control_mac(opts_.auth_key, wire::kMacPingResp, {token})}));
    }
  } else if (c.store == nullptr) {
    c.out.push_back(status_frame(Status::InvalidArgument("data op before HELLO")));
  } else if (op == wire::Op::kReadMany || op == wire::Op::kWriteMany) {
    if (!fields(1)) return false;
    const std::uint64_t count = p[1];
    const std::size_t bw = c.store->backend->block_words();
    // Both the write REQUEST (op, count, ids, payload) and the read
    // RESPONSE (status, payload) must fit under the frame cap, so the
    // batch bound covers ids + payload per block: a wire-supplied count
    // can never size an allocation past kMaxFrameBytes, and a batch that
    // passes this check always yields a sendable response.
    if (count > (wire::kMaxFrameBytes - 2 * sizeof(std::uint64_t)) /
                    (sizeof(std::uint64_t) + bw * sizeof(Word)))
      return false;
    const std::size_t k = static_cast<std::size_t>(count);
    const std::size_t data_words = op == wire::Op::kWriteMany ? k * bw : 0;
    if (n != 2 + k + data_words) return false;
    // ids and the write payload are used where they sit in the receive
    // buffer; a read fills its response frame's payload in place.
    const std::span<const std::uint64_t> ids(p + 2, k);
    std::lock_guard<std::mutex> lk(c.store->mu);
    if (op == wire::Op::kReadMany) {
      OutFrame f = response_frame(StatusCode::kOk, k * bw * sizeof(Word));
      const Status st =
          c.store->backend->read_many(ids, std::span<Word>(f.words.get() + 2, k * bw));
      c.out.push_back(st.ok() ? std::move(f) : status_frame(st));
    } else {
      c.out.push_back(status_frame(c.store->backend->write_many(
                          ids, std::span<const Word>(p + 2 + k, data_words))));
    }
  } else if (op == wire::Op::kResize) {
    if (!fields(1)) return false;
    std::lock_guard<std::mutex> lk(c.store->mu);
    // A hostile nblocks must come back as an error frame, not a
    // bad_alloc/length_error escaping the worker thread (terminate).
    Status st;
    try {
      st = c.store->backend->resize(p[1]);
    } catch (const std::exception& e) {
      st = Status::Io(std::string("RESIZE failed: ") + e.what());
    }
    c.out.push_back(status_frame(st));
  } else if (op == wire::Op::kStat) {
    std::lock_guard<std::mutex> lk(c.store->mu);
    c.out.push_back(ok_frame({c.store->backend->num_blocks(),
                              c.store->backend->block_words()}));
  } else {
    c.out.push_back(status_frame(Status::InvalidArgument(
                        "unknown op " + std::to_string(p[0]))));
  }
  return true;
}

}  // namespace oem
