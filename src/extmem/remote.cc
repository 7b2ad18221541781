#include "extmem/remote.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "rng/random.h"

namespace oem {

using wire::get_u64;
using wire::put_u64;

RemoteBackend::RemoteBackend(std::size_t block_words, RemoteBackendOptions opts)
    : StorageBackend(block_words), opts_(std::move(opts)) {
  if (opts_.max_inflight < 1) opts_.max_inflight = 1;
  if (opts_.backoff_max_us < opts_.backoff_initial_us)
    opts_.backoff_max_us = opts_.backoff_initial_us;
}

RemoteBackend::~RemoteBackend() {
  if (fd_ >= 0) ::close(fd_);
}

Status RemoteBackend::health() const { return ensure_connected(); }

void RemoteBackend::kill_connection(const std::string& why) const {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  corked_ = false;
  last_error_ = std::string("remote: connection to ") + opts_.host + ":" +
                std::to_string(opts_.port) + " lost (" + why + ")";
  for (Pending& p : pending_) p.dead = true;
}

void RemoteBackend::note_connect_failure() const {
  if (opts_.backoff_initial_us == 0) return;
  // Exponential ramp, capped: 2^(k-1) * initial up to max.  The shift count
  // is bounded so a long outage cannot overflow into a zero delay.
  const unsigned k = connect_failures_ < 63 ? connect_failures_ : 63;
  std::uint64_t delay_us = opts_.backoff_max_us >> k < opts_.backoff_initial_us
                               ? opts_.backoff_max_us
                               : opts_.backoff_initial_us << k;
  // Deterministic jitter in [delay/2, delay]: derived from the store id and
  // the failure streak, so K shard connections to one dead server spread out
  // instead of re-stampeding it in lockstep -- and a test can replay it.
  const std::uint64_t half = delay_us / 2;
  if (half > 0)
    delay_us = half + rng::mix64(opts_.store_id * 0x9e3779b97f4a7c15ULL +
                                 connect_failures_) %
                          (half + 1);
  ++connect_failures_;
  next_connect_at_ =
      std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us);
}

Status RemoteBackend::try_connect() const {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(opts_.port);
  if (::getaddrinfo(opts_.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr)
    return Status::Io("remote: cannot resolve " + opts_.host);
  int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd >= 0 && ::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    return Status::Io("remote: cannot connect to " + opts_.host + ":" + port_str +
                      ": " + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // HELLO handshake: declare the protocol version, namespace and geometry;
  // the ok response carries the server's protocol version and the store's
  // current num_blocks.  Version policing is bidirectional -- the server
  // rejects a version it does not speak, and we reject a server whose
  // declared version differs from ours (kInvalidArgument: a deployment bug,
  // not a transient transport failure, so retries don't mask it).  Since v3
  // the handshake is authenticated: both directions carry a control_mac tag
  // bound to a fresh token, so an active attacker can neither spoof version
  // negotiation nor replay a stale handshake (kIntegrity, fail closed).
  const std::uint64_t token =
      rng::mix64(opts_.store_id ^ rng::mix64(++hello_token_));
  std::vector<std::uint8_t> frame;
  put_u64(frame, static_cast<std::uint64_t>(wire::Op::kHello));
  put_u64(frame, wire::kProtocolVersion);
  put_u64(frame, opts_.store_id);
  put_u64(frame, block_words());
  put_u64(frame, token);
  put_u64(frame, wire::control_mac(opts_.auth_key, wire::kMacHelloReq,
                                   {wire::kProtocolVersion, opts_.store_id,
                                    block_words(), token}));
  std::vector<std::uint8_t> body;
  const wire::IoVerdict sent = wire::write_frame_deadline(fd, frame, opts_.io_deadline_ms);
  const wire::IoVerdict got =
      sent == wire::IoVerdict::kOk
          ? wire::read_frame_deadline(fd, &body, opts_.io_deadline_ms)
          : sent;
  if (got != wire::IoVerdict::kOk) {
    ::close(fd);
    const std::string what =
        "remote: HELLO round trip to " + opts_.host + ":" + port_str +
        (got == wire::IoVerdict::kTimeout ? " timed out" : " failed");
    return got == wire::IoVerdict::kTimeout ? Status::Timeout(what) : Status::Io(what);
  }
  Status st = wire::parse_status(body);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  // Version is policed before the v3 frame shape: an older server's
  // ok-response is legitimately shorter, and the actionable diagnosis is
  // the version mismatch, not a generic short frame.
  if (body.size() < 2 * sizeof(std::uint64_t)) {
    ::close(fd);
    return Status::Io("remote: short HELLO response from " + opts_.host + ":" +
                      port_str);
  }
  const std::uint64_t server_version = get_u64(body.data() + 8);
  if (server_version != wire::kProtocolVersion) {
    ::close(fd);
    return Status::InvalidArgument(
        "remote: server " + opts_.host + ":" + port_str + " speaks protocol version " +
        std::to_string(server_version) + ", this client speaks " +
        std::to_string(wire::kProtocolVersion));
  }
  if (body.size() < 4 * sizeof(std::uint64_t)) {
    ::close(fd);
    return Status::Io("remote: short HELLO response from " + opts_.host + ":" +
                      port_str);
  }
  const std::uint64_t server_blocks = get_u64(body.data() + 16);
  const std::uint64_t server_tag = get_u64(body.data() + 24);
  if (server_tag != wire::control_mac(opts_.auth_key, wire::kMacHelloResp,
                                      {token, server_version, server_blocks})) {
    ::close(fd);
    return Status::Integrity("remote: HELLO response from " + opts_.host + ":" +
                             port_str +
                             " failed authentication (wrong wire auth key, or an "
                             "active attacker on the connection)");
  }
  if (was_connected_) reconnects_.fetch_add(1, std::memory_order_relaxed);
  was_connected_ = true;
  fd_ = fd;
  return Status::Ok();
}

Status RemoteBackend::ensure_connected() const {
  if (fd_ >= 0) return Status::Ok();
  if (!pending_.empty())
    return Status::Io(last_error_ + "; responses still owed on the dead connection");
  // Wait out the backoff owed by earlier failed attempts.  The sleep happens
  // here -- inside the attempt -- so a RetryPolicy loop above us spends its
  // bounded attempts at the backoff cadence instead of spinning them away
  // against a down server in microseconds.
  if (connect_failures_ > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now < next_connect_at_) {
      backoff_waits_.fetch_add(1, std::memory_order_relaxed);
      backoff_waited_us_.fetch_add(
          std::chrono::duration_cast<std::chrono::microseconds>(next_connect_at_ - now)
              .count(),
          std::memory_order_relaxed);
      std::this_thread::sleep_until(next_connect_at_);
    }
  }
  Status st = try_connect();
  if (st.ok()) {
    connect_failures_ = 0;
  } else {
    note_connect_failure();
  }
  return st;
}

Status RemoteBackend::transport_error(wire::IoVerdict v, const char* what) const {
  if (v == wire::IoVerdict::kTimeout) {
    kill_connection(std::string(what) + " deadline expired");
    return Status::Timeout(last_error_);
  }
  kill_connection(std::string(what) + " failed");
  return Status::Io(last_error_);
}

Status RemoteBackend::send_frame(wire::Op op, std::span<const std::uint64_t> fields,
                                 std::span<const std::uint64_t> ids,
                                 std::span<const Word> payload, bool cork) const {
  // An oversized batch is a caller error, not a transport failure: refuse it
  // here (connection intact) instead of letting the server drop the
  // connection on an over-cap length prefix and burning the retry budget.
  const std::uint64_t bytes = (1 + fields.size() + ids.size()) * sizeof(std::uint64_t) +
                              payload.size() * sizeof(Word);
  if (bytes > wire::kMaxFrameBytes)
    return Status::InvalidArgument(
        "remote: batch of " + std::to_string(bytes) +
        " bytes exceeds the frame cap; lower io_batch_blocks");
  // [len][op][fields...][ids...] goes into the reused head buffer; the
  // payload leaves straight from the caller's span in the same gather call.
  head_.clear();
  head_.push_back(bytes);
  head_.push_back(static_cast<std::uint64_t>(op));
  head_.insert(head_.end(), fields.begin(), fields.end());
  head_.insert(head_.end(), ids.begin(), ids.end());
  iovec iov[2] = {{head_.data(), head_.size() * sizeof(std::uint64_t)},
                  {const_cast<Word*>(payload.data()), payload.size() * sizeof(Word)}};
  const wire::IoVerdict v = wire::send_all(
      fd_, iov, wire::frame_deadline(opts_.io_deadline_ms), cork ? MSG_MORE : 0);
  if (v != wire::IoVerdict::kOk) return transport_error(v, "send");
  corked_ = cork;
  if (cork) corked_frames_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status RemoteBackend::recv_response(std::span<Word> payload_dest) const {
  // The [len][status] prefix first: every response body starts with its
  // status word, so these 16 bytes never reach into the next frame.  An ok
  // payload then lands straight in the destination; an error body (text)
  // goes to a string, and the destination stays untouched.
  const auto deadline = wire::frame_deadline(opts_.io_deadline_ms);
  std::uint64_t prefix[2] = {0, 0};
  wire::IoVerdict v = wire::recv_all(fd_, prefix, sizeof(prefix), deadline);
  if (v != wire::IoVerdict::kOk) return transport_error(v, "response");
  const std::uint64_t len = prefix[0];
  if (len < sizeof(std::uint64_t) || len > wire::kMaxFrameBytes) {
    kill_connection("malformed response length");
    return Status::Io(last_error_);
  }
  const std::size_t have = static_cast<std::size_t>(len) - sizeof(std::uint64_t);
  const auto code = static_cast<StatusCode>(prefix[1]);
  if (code != StatusCode::kOk) {
    std::string msg(have, '\0');
    v = wire::recv_all(fd_, msg.data(), have, deadline);
    if (v != wire::IoVerdict::kOk) return transport_error(v, "response");
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    return Status(code, "remote: " + msg);
  }
  if (have != payload_dest.size() * sizeof(Word)) {
    kill_connection("payload size mismatch");
    return Status::Io(last_error_);
  }
  v = wire::recv_all(fd_, payload_dest.data(), have, deadline);
  if (v != wire::IoVerdict::kOk) return transport_error(v, "response");
  round_trips_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void RemoteBackend::drain_dead() {
  // Pipelined users fail dead ops out one by one via complete_oldest; a
  // synchronous op arriving with leftovers (only possible when a caller
  // abandoned the split API mid-flight) forfeits them here so the
  // connection can be rebuilt.
  if (fd_ < 0) pending_.clear();
}

Status RemoteBackend::rpc(wire::Op op, std::span<const std::uint64_t> head,
                          std::span<const Word> payload, std::span<Word> response) {
  drain_dead();
  OEM_RETURN_IF_ERROR(ensure_connected());
  OEM_RETURN_IF_ERROR(send_frame(op, head, {}, payload));
  return recv_response(response);
}

Status RemoteBackend::do_resize(std::uint64_t nblocks) {
  const std::uint64_t head[1] = {nblocks};
  return rpc(wire::Op::kResize, head, {}, {});
}

Status RemoteBackend::stat(std::uint64_t* num_blocks, std::uint64_t* block_words_out) {
  Word out[2] = {0, 0};
  OEM_RETURN_IF_ERROR(rpc(wire::Op::kStat, {}, {}, out));
  if (num_blocks) *num_blocks = out[0];
  if (block_words_out) *block_words_out = out[1];
  return Status::Ok();
}

Status RemoteBackend::ping() {
  const std::uint64_t token = ++ping_token_;
  const std::uint64_t head[2] = {
      token, wire::control_mac(opts_.auth_key, wire::kMacPingReq, {token})};
  Word echo[2] = {0, 0};
  OEM_RETURN_IF_ERROR(rpc(wire::Op::kPing, head, {}, echo));
  if (echo[0] != token) {
    kill_connection("PING echo mismatch");
    return Status::Io(last_error_);
  }
  if (echo[1] != wire::control_mac(opts_.auth_key, wire::kMacPingResp, {token})) {
    kill_connection("PING response failed authentication");
    return Status::Integrity(last_error_);
  }
  return Status::Ok();
}

Status RemoteBackend::do_read(std::uint64_t block, std::span<Word> out) {
  const std::uint64_t ids[1] = {block};
  return do_read_many(std::span<const std::uint64_t>(ids, 1), out);
}

Status RemoteBackend::do_write(std::uint64_t block, std::span<const Word> in) {
  const std::uint64_t ids[1] = {block};
  return do_write_many(std::span<const std::uint64_t>(ids, 1), in);
}

Status RemoteBackend::do_read_many(std::span<const std::uint64_t> blocks,
                                   std::span<Word> out) {
  drain_dead();
  OEM_RETURN_IF_ERROR(do_begin_read_many(blocks, out));
  return do_complete_oldest();
}

Status RemoteBackend::do_write_many(std::span<const std::uint64_t> blocks,
                                    std::span<const Word> in) {
  drain_dead();
  OEM_RETURN_IF_ERROR(do_begin_write_many(blocks, in));
  return do_complete_oldest();
}

Status RemoteBackend::do_begin_read_many(std::span<const std::uint64_t> blocks,
                                         std::span<Word> out) {
  OEM_RETURN_IF_ERROR(ensure_connected());
  const std::uint64_t count[1] = {blocks.size()};
  OEM_RETURN_IF_ERROR(
      send_frame(wire::Op::kReadMany, count, blocks, {}, /*cork=*/!pending_.empty()));
  pending_.push_back({/*is_write=*/false, /*dead=*/false, out.data(), out.size()});
  return Status::Ok();
}

Status RemoteBackend::do_begin_write_many(std::span<const std::uint64_t> blocks,
                                          std::span<const Word> in) {
  OEM_RETURN_IF_ERROR(ensure_connected());
  const std::uint64_t count[1] = {blocks.size()};
  OEM_RETURN_IF_ERROR(
      send_frame(wire::Op::kWriteMany, count, blocks, in, /*cork=*/!pending_.empty()));
  pending_.push_back({/*is_write=*/true, /*dead=*/false, nullptr, 0});
  return Status::Ok();
}

Status RemoteBackend::do_complete_oldest() {
  if (pending_.empty()) return Status::Ok();
  if (corked_) {
    // Push before blocking: the response awaited here may already have
    // arrived, and then no ACK is left to release the corked frames.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    corked_ = false;
  }
  Pending p = pending_.front();
  pending_.pop_front();
  if (p.dead) return Status::Io(last_error_);
  return recv_response(std::span<Word>(p.dest, p.dest_words));
}

// ---------------------------------------------------------------------------
// Factory.

BackendFactory remote_backend(RemoteBackendOptions opts) {
  return [opts](std::size_t block_words) {
    return std::make_unique<RemoteBackend>(block_words, opts);
  };
}

}  // namespace oem
