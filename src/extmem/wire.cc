#include "extmem/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "rng/random.h"

namespace oem::wire {

std::uint64_t control_mac(std::uint64_t key, std::uint64_t domain,
                          std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = rng::mix64(key ^ domain);
  for (std::uint64_t f : fields) h = rng::mix64(h ^ f);
  return h;
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Clock::time_point frame_deadline(std::uint64_t deadline_ms) {
  return deadline_ms == 0 ? kNoDeadline
                          : Clock::now() + std::chrono::milliseconds(deadline_ms);
}

namespace {

/// Waits until `fd` is ready for `events` or the deadline passes.  kOk means
/// "try the transfer again" (spurious wake-ups included).
IoVerdict wait_ready(int fd, short events, Clock::time_point deadline) {
  const auto now = Clock::now();
  if (now >= deadline) return IoVerdict::kTimeout;
  pollfd pfd{fd, events, 0};
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
  const int pr = ::poll(&pfd, 1, left < 1 ? 1 : static_cast<int>(left));
  if (pr < 0 && errno != EINTR) return IoVerdict::kClosed;
  return IoVerdict::kOk;
}

/// Shared transfer loop.  Blocking mode (no deadline) lets the socket block;
/// timed mode tries a non-blocking transfer first and polls only when it
/// would block, checking the one absolute deadline before every round.
/// `step` moves bytes and returns what a send/recv call returns.
template <typename Step>
IoVerdict transfer(int fd, short events, Clock::time_point deadline,
                   std::size_t len, Step step) {
  const bool timed = deadline != kNoDeadline;
  while (len > 0) {
    if (timed && Clock::now() >= deadline) return IoVerdict::kTimeout;
    const ssize_t moved = step(timed ? MSG_DONTWAIT : 0);
    if (moved < 0) {
      if (errno == EINTR) continue;
      if (timed && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        const IoVerdict v = wait_ready(fd, events, deadline);
        if (v != IoVerdict::kOk) return v;
        continue;
      }
      return IoVerdict::kClosed;
    }
    if (moved == 0) return IoVerdict::kClosed;  // peer closed (recv) / no progress
    len -= static_cast<std::size_t>(moved);
  }
  return IoVerdict::kOk;
}

}  // namespace

IoVerdict send_all(int fd, std::span<iovec> iov, Clock::time_point deadline,
                   int flags) {
  std::size_t left = 0;
  for (const iovec& v : iov) left += v.iov_len;
  std::size_t i = 0;
  return transfer(fd, POLLOUT, deadline, left, [&](int mode) -> ssize_t {
    while (iov[i].iov_len == 0) ++i;  // left > 0, so a non-empty entry remains
    msghdr msg{};
    msg.msg_iov = &iov[i];
    msg.msg_iovlen = iov.size() - i;
    const ssize_t put = ::sendmsg(fd, &msg, mode | flags | MSG_NOSIGNAL);
    // Consume what went out: whole entries first, then a partial head.
    for (std::size_t n = put > 0 ? static_cast<std::size_t>(put) : 0; n > 0;) {
      const std::size_t take = n < iov[i].iov_len ? n : iov[i].iov_len;
      iov[i].iov_base = static_cast<std::uint8_t*>(iov[i].iov_base) + take;
      iov[i].iov_len -= take;
      n -= take;
      if (iov[i].iov_len == 0 && n > 0) ++i;
    }
    return put;
  });
}

IoVerdict recv_all(int fd, void* dst, std::size_t len, Clock::time_point deadline) {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::size_t done = 0;
  return transfer(fd, POLLIN, deadline, len, [&](int flags) -> ssize_t {
    const ssize_t got = ::recv(fd, p + done, len - done, flags);
    if (got > 0) done += static_cast<std::size_t>(got);
    return got;
  });
}

bool read_full(int fd, void* dst, std::size_t len) {
  return recv_all(fd, dst, len, kNoDeadline) == IoVerdict::kOk;
}

bool write_full(int fd, const void* src, std::size_t len) {
  iovec v{const_cast<void*>(src), len};  // sendmsg only reads through it
  return send_all(fd, std::span<iovec>(&v, 1), kNoDeadline) == IoVerdict::kOk;
}

bool read_frame(int fd, std::vector<std::uint8_t>* body) {
  return read_frame_deadline(fd, body, 0) == IoVerdict::kOk;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& body) {
  return write_frame_deadline(fd, body, 0) == IoVerdict::kOk;
}

IoVerdict read_frame_deadline(int fd, std::vector<std::uint8_t>* body,
                              std::uint64_t deadline_ms) {
  const auto deadline = frame_deadline(deadline_ms);
  std::uint64_t len = 0;
  const IoVerdict v = recv_all(fd, &len, sizeof(len), deadline);
  if (v != IoVerdict::kOk) return v;
  if (len < sizeof(std::uint64_t) || len > kMaxFrameBytes) return IoVerdict::kClosed;
  body->resize(static_cast<std::size_t>(len));
  return recv_all(fd, body->data(), body->size(), deadline);
}

IoVerdict write_frame_deadline(int fd, const std::vector<std::uint8_t>& body,
                               std::uint64_t deadline_ms) {
  std::uint64_t len = body.size();
  iovec iov[2] = {{&len, sizeof(len)},
                  {const_cast<std::uint8_t*>(body.data()), body.size()}};
  return send_all(fd, iov, frame_deadline(deadline_ms));
}

std::vector<std::uint8_t> make_response(const Status& st) {
  std::vector<std::uint8_t> r;
  put_u64(r, static_cast<std::uint64_t>(st.code()));
  if (!st.ok()) {
    const std::string& m = st.message();
    r.insert(r.end(), m.begin(), m.end());
  }
  return r;
}

Status parse_status(const std::vector<std::uint8_t>& body) {
  if (body.size() < sizeof(std::uint64_t))
    return Status::Io("remote: malformed response frame");
  const auto code = static_cast<StatusCode>(get_u64(body.data()));
  if (code == StatusCode::kOk) return Status::Ok();
  std::string msg(reinterpret_cast<const char*>(body.data()) + sizeof(std::uint64_t),
                  body.size() - sizeof(std::uint64_t));
  return Status(code, "remote: " + msg);
}

}  // namespace oem::wire
