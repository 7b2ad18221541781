// Server subsystem suite: the worker-pool RemoteServer (parallel dispatch,
// PING keep-alives, idle eviction, graceful shutdown with store flushing,
// bidirectional HELLO version policing), the client's reconnect backoff, and
// the real out-of-process oem-server binary via server/subprocess.h.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "extmem/remote.h"
#include "extmem/wire.h"
#include "server/server.h"
#include "server/subprocess.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 5;

std::vector<Word> pattern(std::uint64_t block, Word salt = 0) {
  std::vector<Word> w(kBw);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = block * 1000 + i + salt;
  return w;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Worker pool: connections are served at once.

/// Connects `clients` RemoteBackends (distinct stores) to a server of
/// `worker_threads` workers whose stores hold every read at a shut gate, and
/// issues one read per client from its own thread.  The gate opens once as
/// many reads as there are workers are inside the store; returns the most
/// reads that were ever inside at once.
std::size_t reads_inside_at_once(std::size_t worker_threads, std::size_t clients) {
  auto gate = std::make_shared<test::Gate>();
  RemoteServerOptions so;
  so.worker_threads = worker_threads;
  so.store_factory = test::gated_mem(gate);
  RemoteServer server(so);
  EXPECT_TRUE(server.health().ok()) << server.health();
  EXPECT_EQ(server.worker_threads(), worker_threads);

  // Connect + size every store up front (RESIZE is not held), so the gate
  // sees exactly one read per client.
  std::vector<std::unique_ptr<RemoteBackend>> backends;
  for (std::size_t c = 0; c < clients; ++c) {
    RemoteBackendOptions opts;
    opts.port = server.port();
    opts.store_id = c;
    backends.push_back(std::make_unique<RemoteBackend>(kBw, opts));
    EXPECT_TRUE(backends.back()->resize(4).ok());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      std::vector<Word> out(kBw);
      if (!backends[c]->read(1, out).ok()) failures.fetch_add(1);
    });
  EXPECT_TRUE(gate->await_arrivals(std::min(worker_threads, clients)))
      << "only " << gate->max_inside() << " reads reached the store";
  gate->open();
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  return gate->max_inside();
}

TEST(ServerWorkerPool, ParallelWorkersOverlapServiceTime) {
  // One worker per connection: all four reads sit in the store at once.  A
  // single worker serves one connection's frame at a time, so the other
  // reads wait on the wire behind the held one.
  EXPECT_EQ(reads_inside_at_once(/*worker_threads=*/4, 4), 4u)
      << "the worker pool did not serve its connections at once";
  EXPECT_EQ(reads_inside_at_once(/*worker_threads=*/1, 4), 1u)
      << "a serial server had two reads in the store at once";
}

// ---------------------------------------------------------------------------
// Keep-alive and eviction.

TEST(ServerKeepAlive, PingPreventsIdleEviction) {
  RemoteServerOptions so;
  so.worker_threads = 2;
  so.idle_timeout_ms = 300;
  RemoteServer server(so);
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(2, pattern(2)).ok());

  // Stay silent far longer than the idle timeout, but heartbeat under it.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(backend.ping().ok()) << "heartbeat " << i;
  }
  std::vector<Word> out(kBw);
  EXPECT_TRUE(backend.read(2, out).ok());
  EXPECT_EQ(out, pattern(2));
  EXPECT_EQ(backend.reconnects(), 0u) << "a PINGing client must never be evicted";
  EXPECT_EQ(server.connections_evicted(), 0u);
  EXPECT_GE(server.pings_served(), 6u);
}

TEST(ServerKeepAlive, SilentClientIsEvictedThenReconnectsCleanly) {
  RemoteServerOptions so;
  so.worker_threads = 2;
  so.idle_timeout_ms = 150;
  RemoteServer server(so);
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(1, pattern(1)).ok());

  // Stop PINGing: the server must evict us (idle >> timeout).
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  std::vector<Word> out(kBw);
  EXPECT_EQ(backend.read(1, out).code(), StatusCode::kIo)
      << "the first op after eviction must surface the dead connection";
  EXPECT_GE(server.connections_evicted(), 1u);

  // The next attempt reconnects; the store (and its data) survived.
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, pattern(1));
  EXPECT_EQ(backend.reconnects(), 1u);
}

// ---------------------------------------------------------------------------
// HELLO version policing, both directions.

TEST(ServerHello, RejectsClientWithOldProtocolVersion) {
  RemoteServer server;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A v1 client's HELLO: same layout, older version field.
  std::vector<std::uint8_t> hello;
  wire::put_u64(hello, static_cast<std::uint64_t>(wire::Op::kHello));
  wire::put_u64(hello, 1);  // protocol version the server no longer speaks
  wire::put_u64(hello, 7);
  wire::put_u64(hello, kBw);
  ASSERT_TRUE(wire::write_frame(fd, hello));
  std::vector<std::uint8_t> resp;
  ASSERT_TRUE(wire::read_frame(fd, &resp));
  const Status st = wire::parse_status(resp);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("protocol version"), std::string::npos) << st;
  ::close(fd);
}

TEST(ServerHello, ClientRejectsServerWithWrongProtocolVersion) {
  // A fake "future server" that HELLO-acks with a version this client does
  // not speak; the client must refuse the session with kInvalidArgument (a
  // deployment bug, not a retryable transport error).
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  std::thread fake([lfd] {
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) return;
    std::vector<std::uint8_t> hello;
    if (wire::read_frame(cfd, &hello)) {
      auto resp = wire::make_response(Status::Ok());
      wire::put_u64(resp, 99);  // a protocol version from the future
      wire::put_u64(resp, 0);   // num_blocks
      wire::write_frame(cfd, resp);
    }
    ::close(cfd);
  });

  RemoteBackendOptions opts;
  opts.port = ntohs(addr.sin_port);
  RemoteBackend backend(kBw, opts);
  const Status st = backend.health();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("protocol version 99"), std::string::npos) << st;
  fake.join();
  ::close(lfd);
}

// ---------------------------------------------------------------------------
// The in-place receive path: frames cut anywhere, bursts, hostile shapes.

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // A server that wrongly waits for more bytes fails the test, never hangs it.
  const timeval limit{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  return fd;
}

/// One request frame, length prefix included, built field by field with
/// put_u64: the v3 encoding every faster path must reproduce byte for byte.
std::vector<std::uint8_t> request(wire::Op op, std::vector<std::uint64_t> fields,
                                  const std::vector<Word>& payload = {}) {
  std::vector<std::uint8_t> body;
  wire::put_u64(body, static_cast<std::uint64_t>(op));
  for (std::uint64_t f : fields) wire::put_u64(body, f);
  for (Word w : payload) wire::put_u64(body, w);
  std::vector<std::uint8_t> frame;
  wire::put_u64(frame, body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

std::vector<std::uint8_t> hello_request(std::uint64_t store_id, std::uint64_t token) {
  return request(wire::Op::kHello,
                 {wire::kProtocolVersion, store_id, kBw, token,
                  wire::control_mac(0, wire::kMacHelloReq,
                                    {wire::kProtocolVersion, store_id, kBw, token})});
}

/// A session's worth of pipelined requests: HELLO, RESIZE, then interleaved
/// WRITE_MANY/READ_MANY over overlapping ids, then STAT.
std::vector<std::vector<std::uint8_t>> session_requests(std::uint64_t store_id) {
  std::vector<Word> w1, w2;
  for (std::uint64_t b : {1, 3, 5})
    for (Word x : pattern(b, 10)) w1.push_back(x);
  for (Word x : pattern(3, 20)) w2.push_back(x);
  return {hello_request(store_id, 77),
          request(wire::Op::kResize, {8}),
          request(wire::Op::kWriteMany, {3, 1, 3, 5}, w1),
          request(wire::Op::kReadMany, {2, 5, 1}),
          request(wire::Op::kWriteMany, {1, 3}, w2),
          request(wire::Op::kReadMany, {4, 3, 1, 3, 5}),
          request(wire::Op::kStat, {})};
}

/// Raw bytes of `frames` whole response frames (length prefixes included).
std::vector<std::uint8_t> read_responses(int fd, std::size_t frames) {
  std::vector<std::uint8_t> raw;
  for (std::size_t i = 0; i < frames; ++i) {
    std::vector<std::uint8_t> body;
    if (!wire::read_frame(fd, &body)) break;
    wire::put_u64(raw, body.size());
    raw.insert(raw.end(), body.begin(), body.end());
  }
  return raw;
}

TEST(ServerWire, TrickledAndBurstFramesMatchWholeFrames) {
  // The same pipelined requests arrive (a) one whole frame per send, (b) one
  // byte per send, and (c) as one burst of every frame but the last plus
  // half of the last, then the rest.  The in-place parser must give
  // identical responses and store contents every time.
  RemoteServerOptions so;
  so.worker_threads = 1;
  RemoteServer server(so);
  ASSERT_TRUE(server.health().ok()) << server.health();
  std::vector<std::vector<std::uint8_t>> responses;
  for (std::uint64_t mode = 0; mode < 3; ++mode) {
    const auto reqs = session_requests(/*store_id=*/mode);
    std::vector<std::uint8_t> all;
    for (const auto& r : reqs) all.insert(all.end(), r.begin(), r.end());
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    if (mode == 0) {
      for (const auto& r : reqs) ASSERT_TRUE(wire::write_full(fd, r.data(), r.size()));
    } else if (mode == 1) {
      for (std::uint8_t b : all) ASSERT_TRUE(wire::write_full(fd, &b, 1));
    } else {
      const std::size_t cut = all.size() - reqs.back().size() / 2;
      ASSERT_TRUE(wire::write_full(fd, all.data(), cut));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_TRUE(wire::write_full(fd, all.data() + cut, all.size() - cut));
    }
    responses.push_back(read_responses(fd, reqs.size()));
    ::close(fd);
  }
  EXPECT_FALSE(responses[0].empty());
  EXPECT_EQ(responses[1], responses[0]) << "byte-trickled frames answered differently";
  EXPECT_EQ(responses[2], responses[0]) << "burst + partial frame answered differently";
  for (std::uint64_t b = 0; b < 8; ++b) {
    std::vector<Word> want, got;
    ASSERT_TRUE(server.peek_store(0, b, &want).ok());
    for (std::uint64_t store = 1; store < 3; ++store) {
      ASSERT_TRUE(server.peek_store(store, b, &got).ok());
      EXPECT_EQ(got, want) << "store " << store << " block " << b;
    }
  }
}

TEST(ServerWire, ResponsesAreByteIdenticalToTheV3Encoding) {
  // The server assembles responses in place and gathers them into one
  // sendmsg; the bytes must still be [len][status][payload] exactly as
  // make_response + put_u64 build them.
  RemoteServer server;
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  const auto reqs = session_requests(/*store_id=*/4);
  for (const auto& r : reqs) ASSERT_TRUE(wire::write_full(fd, r.data(), r.size()));
  const auto got = read_responses(fd, reqs.size());
  ::close(fd);

  auto frame = [](std::vector<std::uint8_t> body) {
    std::vector<std::uint8_t> f;
    wire::put_u64(f, body.size());
    f.insert(f.end(), body.begin(), body.end());
    return f;
  };
  auto ok_with = [&](std::vector<Word> words) {
    auto body = wire::make_response(Status::Ok());
    for (Word w : words) wire::put_u64(body, w);
    return frame(body);
  };
  std::vector<std::uint8_t> want;
  auto add = [&](std::vector<std::uint8_t> f) { want.insert(want.end(), f.begin(), f.end()); };
  add(ok_with({wire::kProtocolVersion, 0,
               wire::control_mac(0, wire::kMacHelloResp, {77, wire::kProtocolVersion, 0})}));
  add(ok_with({}));  // RESIZE
  add(ok_with({}));  // WRITE_MANY
  auto blocks = [](std::vector<std::vector<Word>> parts) {
    std::vector<Word> flat;
    for (const auto& p : parts) flat.insert(flat.end(), p.begin(), p.end());
    return flat;
  };
  const std::vector<Word> r1 = blocks({pattern(5, 10), pattern(1, 10)});
  const std::vector<Word> r2 =
      blocks({pattern(3, 20), pattern(1, 10), pattern(3, 20), pattern(5, 10)});
  add(ok_with(r1));  // READ_MANY {5, 1}
  add(ok_with({}));  // WRITE_MANY
  add(ok_with(r2));  // READ_MANY {3, 1, 3, 5}
  add(ok_with({8, kBw}));  // STAT
  EXPECT_EQ(got, want);
}

TEST(ServerWire, MalformedRequestsDropTheConnectionOnly) {
  RemoteServer server;
  // Each of these must cost the sender its connection -- and nothing else.
  std::vector<std::vector<std::uint8_t>> hostile;
  {
    auto ping = request(wire::Op::kPing, {1, 2});
    ping[0] += 1;  // length 25: not a multiple of 8
    ping.push_back(0xee);
    hostile.push_back(ping);
  }
  {
    std::vector<std::uint8_t> bare;
    wire::put_u64(bare, 13);  // a misaligned length alone, body never sent
    hostile.push_back(bare);
  }
  // WRITE_MANY whose count disagrees with its length (2 ids, 1 payload).
  hostile.push_back(request(wire::Op::kWriteMany, {2, 0, 1}, pattern(0)));
  // READ_MANY claiming 3 ids but carrying 2.
  hostile.push_back(request(wire::Op::kReadMany, {3, 0, 1}));
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    const int fd = connect_raw(server.port());
    ASSERT_GE(fd, 0);
    auto hello = hello_request(/*store_id=*/9, 5);
    auto resize = request(wire::Op::kResize, {4});
    ASSERT_TRUE(wire::write_full(fd, hello.data(), hello.size()));
    ASSERT_TRUE(wire::write_full(fd, resize.data(), resize.size()));
    ASSERT_FALSE(read_responses(fd, 2).empty());
    ASSERT_TRUE(wire::write_full(fd, hostile[i].data(), hostile[i].size()));
    // EOF (0), not an answer (> 0) and not a server still waiting (-1 after
    // the receive timeout).
    std::uint8_t b = 0;
    EXPECT_EQ(::recv(fd, &b, 1, 0), 0) << "hostile frame " << i << " did not drop";
    ::close(fd);
  }
  // The server itself survived: a well-formed client is served.
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.store_id = 9;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(2, pattern(2)).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend.read(2, out).ok());
  EXPECT_EQ(out, pattern(2));
}

// ---------------------------------------------------------------------------
// Graceful shutdown.

/// GatedMem that records whether flush() reached it.
class FlushProbe : public test::GatedMem {
 public:
  FlushProbe(std::size_t bw, std::shared_ptr<test::Gate> gate, std::atomic<int>* flushes)
      : GatedMem(bw, std::move(gate)), flushes_(flushes) {}
  Status flush() override {
    flushes_->fetch_add(1);
    return GatedMem::flush();
  }

 private:
  std::atomic<int>* flushes_;
};

/// True when a connect to the loopback `port` is refused: shutdown() has
/// closed the listener.
bool connect_refused(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool refused =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno == ECONNREFUSED;
  ::close(fd);
  return refused;
}

TEST(ServerShutdown, FlushesStoresAndPendingResponsesWithoutHanging) {
  auto gate = std::make_shared<test::Gate>();
  std::atomic<int> flushes{0};
  RemoteServerOptions so;
  so.worker_threads = 2;
  so.store_factory = [gate, &flushes](std::size_t bw) -> std::unique_ptr<StorageBackend> {
    return std::make_unique<FlushProbe>(bw, gate, &flushes);
  };
  auto server = std::make_unique<RemoteServer>(so);
  const std::uint16_t port = server->port();
  RemoteBackendOptions opts;
  opts.port = port;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());

  // Two split-phase reads: the first is held inside the store and the
  // second queued behind it when shutdown() starts.
  std::vector<Word> a(kBw), b(kBw);
  const std::uint64_t ids[1] = {1};
  ASSERT_TRUE(backend.begin_read_many(std::span<const std::uint64_t>(ids, 1), a).ok());
  ASSERT_TRUE(backend.begin_read_many(std::span<const std::uint64_t>(ids, 1), b).ok());
  ASSERT_TRUE(gate->await_arrivals(1)) << "the first read never reached the store";

  const auto t0 = Clock::now();
  Status shut;
  std::thread stopper([&] { shut = server->shutdown(); });
  // shutdown() closes the listener first; the held read goes on only then.
  while (!connect_refused(port) && Clock::now() < gate->deadline())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate->open();
  stopper.join();
  EXPECT_TRUE(shut.ok()) << shut;
  // The held read was dispatched before the shutdown, so its response is
  // flushed; the queued one completes or fails kIo.  Neither wedges.
  const Status s1 = backend.complete_oldest();
  const Status s2 = backend.complete_oldest();
  EXPECT_TRUE(s1.ok()) << s1;
  EXPECT_TRUE(s2.ok() || s2.code() == StatusCode::kIo) << s2;
  EXPECT_LT(ms_since(t0), 3000.0) << "shutdown must be bounded";
  EXPECT_GE(flushes.load(), 1) << "shutdown must flush every store";

  // Idempotent, and the destructor after an explicit shutdown is a no-op.
  EXPECT_TRUE(server->shutdown().ok());
  server.reset();

  // The service is really gone: a fresh connect attempt fails.
  RemoteBackendOptions again = opts;
  again.backoff_initial_us = 0;
  RemoteBackend later(kBw, again);
  EXPECT_EQ(later.health().code(), StatusCode::kIo);
}

// ---------------------------------------------------------------------------
// Reconnect backoff.

TEST(ClientBackoff, RampsWhileServerIsDownAndResetsOnSuccess) {
  // Reserve a port by binding an ephemeral listener, then close it so
  // nothing is listening there.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(lfd);

  RemoteBackendOptions opts;
  opts.port = port;
  opts.backoff_initial_us = 1000;
  opts.backoff_max_us = 4000;
  RemoteBackend backend(kBw, opts);

  // First attempt never waits; each further attempt waits out the ramp.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(backend.health().code(), StatusCode::kIo);
  EXPECT_EQ(backend.backoff_waits(), 3u);
  // Jittered delays are in [d/2, d] for d = 1ms, 2ms, 4ms(capped): at least
  // ~3.5ms total, and the cap keeps any single wait under 4ms.
  EXPECT_GE(backend.backoff_waited_us(), 3000u);
  EXPECT_LE(backend.backoff_waited_us(), 12'000u);

  // A server appears on that port: the next attempt succeeds and resets the
  // streak, so later ops pay no backoff.
  RemoteServerOptions so;
  so.port = port;
  RemoteServer server(so);
  ASSERT_TRUE(server.health().ok()) << server.health();
  ASSERT_TRUE(backend.health().ok());
  const std::uint64_t waits_before = backend.backoff_waits();
  ASSERT_TRUE(backend.resize(2).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(backend.backoff_waits(), waits_before)
      << "a healthy connection must not accrue backoff";
}

// ---------------------------------------------------------------------------
// The real out-of-process binary.

TEST(OemServerBinary, ServesASessionAndExitsCleanlyOnSigterm) {
  server::SpawnedServer srv(server::default_server_binary(),
                            {"--backend=mem", "--threads=2"});
  ASSERT_TRUE(srv.health().ok()) << srv.health();

  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(7)
                   .remote(srv.host(), srv.port())
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  const auto input = test::random_records(24 * 4, 13);
  auto data = session.outsource(input);
  ASSERT_TRUE(data.ok()) << data.status();
  auto rep = session.sort(*data);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto sorted = session.retrieve(*data);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(test::padded_sorted(*sorted));
  EXPECT_TRUE(test::same_multiset(*sorted, input));

  EXPECT_EQ(srv.terminate(), 0) << "SIGTERM must produce a clean exit";
}

TEST(OemServerBinary, FileBackendPersistsAcrossConnections) {
  server::SpawnedServer srv(server::default_server_binary(),
                            {"--backend=file", "--shards=2", "--threads=1"});
  ASSERT_TRUE(srv.health().ok()) << srv.health();
  RemoteBackendOptions opts;
  opts.host = srv.host();
  opts.port = srv.port();
  opts.store_id = 42;
  {
    RemoteBackend writer(kBw, opts);
    ASSERT_TRUE(writer.resize(8).ok());
    for (std::uint64_t b = 0; b < 8; ++b)
      ASSERT_TRUE(writer.write(b, pattern(b, 7)).ok());
  }  // connection closes; the store (sharded files) lives server-side
  RemoteBackend reader(kBw, opts);
  // A fresh client learns the store's size from STAT and adopts it with a
  // same-size (data-preserving) resize before reading.
  std::uint64_t blocks = 0, bw = 0;
  ASSERT_TRUE(reader.stat(&blocks, &bw).ok());
  EXPECT_EQ(blocks, 8u);
  EXPECT_EQ(bw, kBw);
  ASSERT_TRUE(reader.resize(blocks).ok());
  std::vector<Word> out(kBw);
  for (std::uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(reader.read(b, out).ok());
    EXPECT_EQ(out, pattern(b, 7)) << "block " << b;
  }
  EXPECT_EQ(srv.terminate(), 0);
}

}  // namespace
}  // namespace oem
