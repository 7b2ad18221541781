// RemoteServer: the paper's untrusted server (Bob) as a service.
//
// Serves any inner StorageBackend over TCP via the length-prefixed wire
// protocol in extmem/wire.h (HELLO/READ_MANY/WRITE_MANY/RESIZE/STAT/PING,
// batched ops per frame).  One server multiplexes independent *stores*
// (per-shard namespaces keyed by the HELLO store id), each created on demand
// from a factory, so a ShardedBackend of K RemoteBackends talks to one
// server over K connections without aliasing.  The same class backs both the
// in-process test/bench servers and the stand-alone `oem-server` binary
// (server_main.cc); spawning the binary from a test or bench goes through
// server/subprocess.h.
//
// Concurrency model: an accept thread hands each connection to one of N
// worker threads round-robin; every worker multiplexes its connections with
// ppoll -- non-blocking sockets, an in-place-parsed receive buffer that only
// dispatches COMPLETE frames (a partial frame stays buffered, it never
// leaks into dispatch), and a per-connection FIFO queue of outgoing
// responses.  N client sessions x K shard connections are therefore served
// in parallel (worker_threads = 1 degenerates to the old serial loop and is
// the baseline the load bench beats).  Within one connection, frames are
// still processed strictly in arrival order -- the ordering contract the
// client's split-phase pipelining builds on -- and connections sharing a
// store serialize on that store's mutex only for the duration of the
// backend call.
//
// Lifecycle: PING keep-alives reset a connection's idle clock; with
// idle_timeout_ms > 0, a connection silent for longer is evicted (the
// client's next op fails kIo and its reconnect builds a fresh session).
// shutdown() -- also run by the destructor and by oem-server on
// SIGINT/SIGTERM -- stops accepting, lets workers finish dispatching every
// fully-received frame, flushes queued responses, closes connections, then
// flushes every store.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "extmem/backend.h"
#include "extmem/wire.h"

namespace oem {

struct RemoteServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Builds the backend behind each store id on its first HELLO (null = mem).
  BackendFactory store_factory;
  /// Like store_factory but keyed by the store id too, for stores that need
  /// distinct resources (oem-server --backend=file derives per-store file
  /// paths).  Wins over store_factory when set.
  std::function<std::unique_ptr<StorageBackend>(std::uint64_t store_id,
                                                std::size_t block_words)>
      store_factory_by_id;
  /// Worker threads multiplexing connections.  0 = hardware concurrency;
  /// 1 = serial (every connection served by one loop).
  std::size_t worker_threads = 0;
  /// Evict a connection idle (no frame received) for longer than this.
  /// PINGs count as activity.  0 = never evict.
  std::uint64_t idle_timeout_ms = 0;
  /// Crash injection (the chaos harness): after this many frames have been
  /// RECEIVED server-wide, the process calls _exit(kCrashExitCode) at the
  /// top of dispatch -- before the frame is applied or flushed, like a
  /// kernel panic mid-request.  Only meaningful in the stand-alone
  /// oem-server (--crash-at=frames:N); an in-process server taking the
  /// whole test down would prove nothing.  0 = off.
  std::uint64_t crash_at_frames = 0;
  /// Pre-shared key authenticating HELLO/PING control frames (see
  /// wire::control_mac).  0 -- the default on both ends -- still computes
  /// and checks tags, so mismatched deployments fail closed as kIntegrity.
  std::uint64_t auth_key = 0;
};

/// Exit code of a --crash-at injected crash: distinct from a clean exit (0)
/// and from signal death (128+sig as SpawnedServer reports it), so the
/// recovery harness can assert WHICH way the server died.
inline constexpr int kCrashExitCode = 42;

class RemoteServer {
 public:
  explicit RemoteServer(RemoteServerOptions opts = {});
  ~RemoteServer();
  RemoteServer(const RemoteServer&) = delete;
  RemoteServer& operator=(const RemoteServer&) = delete;

  /// Non-ok when the listening socket or worker pool could not be set up.
  Status health() const { return init_status_; }
  const std::string& host() const { return opts_.host; }
  /// The bound port (the ephemeral one when opts.port was 0).
  std::uint16_t port() const { return port_; }
  std::size_t worker_threads() const { return workers_.size(); }

  std::uint64_t frames_served() const {
    return frames_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }
  std::uint64_t pings_served() const {
    return pings_.load(std::memory_order_relaxed);
  }

  /// Graceful stop (idempotent; the destructor runs it too): stop accepting,
  /// dispatch every fully-received frame, flush queued responses, close
  /// connections, join all threads, flush every store.  Returns the first
  /// store-flush error, so a service exits non-zero when durable state could
  /// not be written back.
  Status shutdown();

  /// Test hook: hard-close every live connection (a network partition).
  /// Stores survive; clients see kIo and reconnect on their next attempt.
  /// In-flight state fails cleanly: queued responses are discarded with the
  /// connection, and a partially-received frame dies in its connection's
  /// receive buffer -- it never reaches dispatch.
  void drop_connections();

  /// Test hook: Bob's raw view of one stored block (what the server holds).
  Status peek_store(std::uint64_t store_id, std::uint64_t block,
                    std::vector<Word>* out);
  /// Test hook: overwrite one stored block -- the MALICIOUS server swapping
  /// in a stale or fabricated ciphertext behind the client's back (e.g. to
  /// stage a rollback while the client is down).  The client's block MACs,
  /// not the server, are what must catch it.
  Status poke_store(std::uint64_t store_id, std::uint64_t block,
                    std::span<const Word> in);

 private:
  using Clock = std::chrono::steady_clock;

  struct Store {
    std::unique_ptr<StorageBackend> backend;
    std::mutex mu;  // serializes ops from this store's connections
  };

  /// One response waiting to go out: the whole wire frame
  /// `[len][status][payload]`, Word-typed so READ_MANY fills its payload in
  /// place, and how much of it already left (a full socket buffer leaves a
  /// partial send to resume).
  struct OutFrame {
    std::unique_ptr<Word[]> words;
    std::size_t bytes = 0;  // on the wire; an error text may end mid-word
    std::size_t sent = 0;
  };

  /// One live connection, owned by exactly one worker.
  struct Conn {
    int fd = -1;
    Store* store = nullptr;  // bound by HELLO
    /// Receive buffer, Word-typed so requests are parsed in place.  Bytes
    /// [in_begin, in_end) arrived but are not yet dispatched; in_begin is
    /// always a frame boundary, hence a Word boundary.
    std::unique_ptr<Word[]> in;
    std::size_t in_cap = 0;  // bytes
    std::size_t in_begin = 0;
    std::size_t in_end = 0;
    std::deque<OutFrame> out;  // responses, FIFO = dispatch order
    Clock::time_point last_activity{};
    bool dead = false;  // marked by the worker; retired (closed) under mu
  };

  /// One worker: its thread, a self-pipe the accept thread (and shutdown)
  /// wakes it with, and the connections it owns.  `mu` guards `incoming`
  /// and every fd close/shutdown on this worker's connections, so
  /// drop_connections never touches a recycled descriptor.
  struct Worker {
    std::thread th;
    int wake_rd = -1;
    int wake_wr = -1;
    std::mutex mu;
    std::vector<int> incoming;               // accepted fds awaiting adoption
    std::vector<std::unique_ptr<Conn>> conns;  // mutated only by the worker
  };

  void accept_loop();
  void worker_loop(Worker& w);
  static void wake(Worker& w);
  /// Receives straight into c.in and dispatches every complete frame.
  /// False: peer gone or protocol violation -- the connection must die.
  bool pump_in(Conn& c);
  /// Makes room at the tail of c.in; returns the free bytes there.
  static std::size_t reserve_in(Conn& c);
  bool drain_frames(Conn& c);
  /// Dispatches one request body of `n` words (p[0] is the op).
  bool handle_frame(Conn& c, const Word* p, std::size_t n);
  /// A response frame with its length and status set and `payload_bytes`
  /// of payload left for the caller to fill.
  static OutFrame response_frame(StatusCode code, std::size_t payload_bytes);
  /// Status only (ok), or status + message (error).
  static OutFrame status_frame(const Status& st);
  static OutFrame ok_frame(std::initializer_list<std::uint64_t> fields);
  /// Sends queued responses until the socket would block, gathering them
  /// into one sendmsg per round; false = error.
  static bool flush_out(Conn& c);
  Result<Store*> bind_store(std::uint64_t store_id, std::uint64_t block_words);
  Status flush_stores();

  RemoteServerOptions opts_;
  Status init_status_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> shut_{false};  // shutdown() already ran (or is running)
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> pings_{0};

  std::mutex stores_mu_;
  std::map<std::uint64_t, std::unique_ptr<Store>> stores_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::size_t next_worker_ = 0;  // accept thread only
  std::thread accept_thread_;
};

}  // namespace oem
