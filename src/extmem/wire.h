// Wire-protocol primitives shared by both ends of the remote block store:
// the RemoteBackend client (extmem/remote.h) and the RemoteServer / oem-server
// service (server/server.h).  See docs/WIRE_PROTOCOL.md for the full spec.
//
// Frames are length-prefixed: a u64 byte count followed by that many body
// bytes.  Fields are u64s and Word payloads in host byte order: both ends of
// the loopback socket live on one host (the paper's Bob is an abstraction,
// not a portability boundary).  A cross-machine deployment would pin
// little-endian here.
#pragma once

#include <sys/uio.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/status.h"

namespace oem::wire {

/// Protocol version carried (and checked) in the HELLO handshake, in BOTH
/// directions: the client declares its version in the HELLO request and the
/// server declares its own in the ok response, so either side can reject a
/// peer it does not speak with a clean error instead of misparsing frames.
/// v2 added the server version to the HELLO response and the PING op.
/// v3 authenticates the control frames: HELLO and PING carry a token + a MAC
/// under the (pre-shared) wire auth key in both directions, so an active
/// attacker can no longer spoof version negotiation or keep-alives.
inline constexpr std::uint64_t kProtocolVersion = 3;

enum class Op : std::uint64_t {
  kHello = 1,      // version, store id, block words, token, mac
                   //   -> server version, num_blocks, mac
  kReadMany = 2,   // count, ids[count] -> words[count * block_words]
  kWriteMany = 3,  // count, ids[count], words[count * block_words] -> ()
  kResize = 4,     // nblocks -> ()
  kStat = 5,       // () -> num_blocks, block_words
  kPing = 6,       // token, mac -> token, mac (keep-alive; resets idle clock)
};

/// Domain-separation constants for control_mac: request and response tags of
/// the two control ops must never be confusable with each other.
inline constexpr std::uint64_t kMacHelloReq = 0x68656c6c6f2d7271ULL;   // "hello-rq"
inline constexpr std::uint64_t kMacHelloResp = 0x68656c6c6f2d7273ULL;  // "hello-rs"
inline constexpr std::uint64_t kMacPingReq = 0x70696e672d726571ULL;    // "ping-req"
inline constexpr std::uint64_t kMacPingResp = 0x70696e672d727370ULL;   // "ping-rsp"

/// Keyed tag over a control frame's fields (keyed mix64 absorption chain,
/// the Encryptor::mac idiom -- simulation-grade on purpose; the point is
/// that both ends bind the SAME fields under a key the wire never carries).
/// key = 0 is the default on both ends: the tag is still computed and
/// checked, so mismatched deployments fail closed, but a real deployment
/// wanting active-attacker resistance must share a secret key.
std::uint64_t control_mac(std::uint64_t key, std::uint64_t domain,
                          std::initializer_list<std::uint64_t> fields);

/// Hard cap on a frame's payload; a corrupt length prefix must not turn into
/// a giant allocation.  256 MiB comfortably exceeds any real batch window.
inline constexpr std::uint64_t kMaxFrameBytes = 256ull << 20;
/// Every request body is whole u64 fields and Word payloads, so a request
/// length is always a multiple of 8.  The server parses requests in place as
/// Words and drops a connection that sends any other length.  (Responses may
/// end on a partial word: an error message is free-form text.)
inline constexpr std::uint64_t kRequestAlign = sizeof(std::uint64_t);

/// Appends a u64 to a frame under construction.
void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v);
/// Reads a u64 from a frame at an arbitrary (possibly unaligned) offset.
std::uint64_t get_u64(const std::uint8_t* p);

/// Socket I/O is tri-state, so a dead peer (EOF/reset) and a merely SILENT
/// one (nothing moved before the deadline) stay distinct -- the client maps
/// them to kIo and kTimeout respectively.
enum class IoVerdict { kOk, kClosed, kTimeout };

/// One absolute deadline bounds a WHOLE frame, however many calls move it:
/// progress never extends it, so a slow-loris peer trickling a byte per poll
/// still times out.  kNoDeadline means plain blocking I/O.
using Clock = std::chrono::steady_clock;
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();
/// Now + deadline_ms, or kNoDeadline for deadline_ms == 0.
Clock::time_point frame_deadline(std::uint64_t deadline_ms);

/// Gather-send: moves every byte `iov` points at, in order, one sendmsg per
/// round (a frame that fits the socket buffer leaves in ONE call).  Consumes
/// `iov` in place as bytes go out.  Sends use MSG_NOSIGNAL, so a peer that
/// vanished yields kClosed, not SIGPIPE.  With a deadline, a round that would
/// block polls for the remaining time instead.  `flags` are OR-ed into every
/// sendmsg (MSG_MORE corks the frame: see RemoteBackend).
IoVerdict send_all(int fd, std::span<iovec> iov, Clock::time_point deadline,
                   int flags = 0);
/// Receives exactly `len` bytes into `dst` (EOF before that is kClosed).
IoVerdict recv_all(int fd, void* dst, std::size_t len, Clock::time_point deadline);

/// Blocking full-buffer helpers for raw-socket callers (tests); false on
/// EOF/error.
bool read_full(int fd, void* dst, std::size_t len);
bool write_full(int fd, const void* src, std::size_t len);

/// One whole frame, `[u64 length][body]`.  Reads reject bodies outside
/// [8, kMaxFrameBytes] (every valid body starts with a u64 op or status);
/// writes send the length and the body with one gather call.  The
/// `_deadline` forms run under frame_deadline(deadline_ms).
bool read_frame(int fd, std::vector<std::uint8_t>* body);
bool write_frame(int fd, const std::vector<std::uint8_t>& body);
IoVerdict read_frame_deadline(int fd, std::vector<std::uint8_t>* body,
                              std::uint64_t deadline_ms);
IoVerdict write_frame_deadline(int fd, const std::vector<std::uint8_t>& body,
                               std::uint64_t deadline_ms);

/// Response body: status code word, then the error message (non-ok) or the
/// op-specific payload (ok).
std::vector<std::uint8_t> make_response(const Status& st);
Status parse_status(const std::vector<std::uint8_t>& body);

}  // namespace oem::wire
