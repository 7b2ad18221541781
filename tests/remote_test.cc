// Remote block store suite: the wire protocol round-trips, per-store
// namespacing, connection-drop recovery (kIo + reconnect under the device's
// RetryPolicy), split-phase wire pipelining, and the Client seal's
// guarantee that the server only ever holds fresh ciphertext.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 5;

std::vector<Word> pattern(std::uint64_t block, Word salt = 0) {
  std::vector<Word> w(kBw);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = block * 1000 + i + salt;
  return w;
}

// ---------------------------------------------------------------------------
// Protocol basics.

TEST(RemoteBackend, ConformsLikeAnyBackend) {
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.health().ok()) << backend.health();

  ASSERT_TRUE(backend.resize(8).ok());
  EXPECT_EQ(backend.num_blocks(), 8u);
  std::vector<Word> out(kBw, 123);
  ASSERT_TRUE(backend.read(7, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u) << "fresh blocks must read as zero";

  for (std::uint64_t b = 0; b < 8; ++b)
    ASSERT_TRUE(backend.write(b, pattern(b)).ok());
  // Batched, scattered, partly duplicate ids: sequential semantics.
  const std::vector<std::uint64_t> ids = {7, 2, 3, 2, 0};
  std::vector<Word> flat(ids.size() * kBw);
  ASSERT_TRUE(backend.read_many(ids, flat).ok());
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t j = 0; j < kBw; ++j)
      EXPECT_EQ(flat[i * kBw + j], pattern(ids[i])[j]) << "batch slot " << i;

  // Shrink then regrow zeroes the shrunk-away region (server-side resize).
  ASSERT_TRUE(backend.resize(2).ok());
  ASSERT_TRUE(backend.resize(8).ok());
  ASSERT_TRUE(backend.read(5, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u);
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, pattern(1));

  // Out-of-range is a client-side kInvalidArgument (same as every backend).
  EXPECT_EQ(backend.read(8, out).code(), StatusCode::kInvalidArgument);

  // STAT sees the server's geometry.
  std::uint64_t nblocks = 0, bw = 0;
  ASSERT_TRUE(backend.stat(&nblocks, &bw).ok());
  EXPECT_EQ(nblocks, 8u);
  EXPECT_EQ(bw, kBw);
}

TEST(RemoteBackend, StoreIdsAreIndependentNamespaces) {
  RemoteServer server;
  RemoteBackendOptions a_opts, b_opts;
  a_opts.port = b_opts.port = server.port();
  a_opts.store_id = 0;
  b_opts.store_id = 1;
  RemoteBackend a(kBw, a_opts), b(kBw, b_opts);
  ASSERT_TRUE(a.resize(4).ok());
  ASSERT_TRUE(b.resize(4).ok());
  ASSERT_TRUE(a.write(2, pattern(2, 100)).ok());
  ASSERT_TRUE(b.write(2, pattern(2, 200)).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(a.read(2, out).ok());
  EXPECT_EQ(out, pattern(2, 100)) << "store 1's write leaked into store 0";
  ASSERT_TRUE(b.read(2, out).ok());
  EXPECT_EQ(out, pattern(2, 200));
}

TEST(RemoteBackend, HelloRejectsBlockWordsMismatch) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend first(kBw, opts);
  ASSERT_TRUE(first.health().ok());
  RemoteBackend second(kBw + 2, opts);  // same store id, different geometry
  Status st = second.health();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

TEST(RemoteBackend, ConnectFailureIsIoNotCrash) {
  RemoteBackendOptions opts;
  opts.port = 1;  // nothing listens on port 1
  RemoteBackend backend(kBw, opts);
  EXPECT_EQ(backend.health().code(), StatusCode::kIo);
  std::vector<Word> out(kBw);
  EXPECT_EQ(backend.resize(2).code(), StatusCode::kIo);
}

// ---------------------------------------------------------------------------
// Connection drops: kIo now, transparent reconnect on the next attempt.

TEST(RemoteBackend, ReconnectsAfterDroppedConnection) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(1, pattern(1)).ok());

  server.drop_connections();
  // The drop surfaces as kIo exactly once...
  std::vector<Word> out(kBw);
  Status st = backend.read(1, out);
  EXPECT_EQ(st.code(), StatusCode::kIo) << st;
  // ...and the next attempt reconnects; the store survived server-side.
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, pattern(1));
  EXPECT_GE(backend.reconnects(), 1u);
}

TEST(RemoteBackend, DeviceRetryPolicyAbsorbsTheDrop) {
  RemoteServer server;
  ClientParams p = test::params(4, 64);
  RemoteBackendOptions opts;
  opts.port = server.port();
  p.backend = remote_backend(opts);
  p.io_retry_attempts = 3;  // drop -> kIo -> retry reconnects
  Client client(p);
  ExtArray a = client.alloc_blocks(8, Client::Init::kEmpty);
  client.poke(a, test::iota_records(8 * 4));

  server.drop_connections();
  // The very next counted read succeeds through the retry loop: the failure
  // and the reconnect are both invisible to the caller AND to the trace.
  BlockBuf buf;
  client.read_block(a, 3, buf);
  EXPECT_EQ(buf[0].key, 12u);
  auto* remote = dynamic_cast<RemoteBackend*>(&client.device().backend());
  ASSERT_NE(remote, nullptr);
  EXPECT_GE(remote->reconnects(), 1u);
  EXPECT_GE(client.device().retries(), 1u);
}

// ---------------------------------------------------------------------------
// Split-phase wire pipelining.

TEST(RemoteBackend, PipelinesMultipleFramesInFlight) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(16).ok());
  EXPECT_EQ(backend.max_inflight(), 8u);

  // Begin 4 writes + 4 reads without completing any; FIFO completion must
  // observe the writes (single connection = server applies in frame order).
  std::vector<std::uint64_t> ids(4);
  std::vector<Word> win(4 * kBw);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ids[i] = i;
    const auto w = pattern(i, 7);
    std::copy(w.begin(), w.end(), win.begin() + i * kBw);
  }
  ASSERT_TRUE(backend.begin_write_many(ids, win).ok());
  std::vector<Word> r1(4 * kBw), r2(4 * kBw);
  ASSERT_TRUE(backend.begin_read_many(ids, r1).ok());
  // Overwrite, then read again -- all four frames on the wire at once.
  std::vector<Word> win2 = win;
  for (Word& w : win2) w += 1000;
  ASSERT_TRUE(backend.begin_write_many(ids, win2).ok());
  ASSERT_TRUE(backend.begin_read_many(ids, r2).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(backend.complete_oldest().ok()) << i;
  EXPECT_EQ(r1, win) << "first read must see the first write";
  EXPECT_EQ(r2, win2) << "second read must see the overwrite";
  EXPECT_TRUE(backend.complete_oldest().ok()) << "no outstanding op is a no-op";
}

TEST(RemoteBackend, TransportDeathFailsAllOutstandingThenRecovers) {
  // The store holds the first read (the second queues behind it), so the
  // drop is guaranteed to beat both responses: BOTH outstanding ops must
  // fail out, in order.
  auto gate = std::make_shared<test::Gate>();
  RemoteServerOptions sopts;
  sopts.store_factory = test::gated_mem(gate);
  RemoteServer server(sopts);
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(8).ok());

  std::vector<Word> r1(kBw), r2(kBw), r3(kBw);
  const std::vector<std::uint64_t> one = {1};
  ASSERT_TRUE(backend.begin_read_many(one, r1).ok());
  ASSERT_TRUE(backend.begin_read_many(one, r2).ok());
  ASSERT_TRUE(gate->await_arrivals(1)) << "the first read never reached the store";
  server.drop_connections();
  EXPECT_EQ(backend.complete_oldest().code(), StatusCode::kIo);
  EXPECT_EQ(backend.complete_oldest().code(), StatusCode::kIo);
  gate->open();
  // With everything failed out, a fresh synchronous op reconnects.
  ASSERT_TRUE(backend.read_many(one, r3).ok());
  EXPECT_GE(backend.reconnects(), 1u);
}

TEST(AsyncRemote, SubmittedOpsPipelineAndReplayAfterDrop) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  auto owner = async_backend(remote_backend(opts))(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(owner.get());
  ASSERT_NE(async, nullptr);
  async->set_retry_attempts(3);
  ASSERT_TRUE(owner->resize(64).ok());

  // A long FIFO chain of dependent writes/reads with a mid-stream drop: the
  // replay path must preserve order, so every read sees its predecessor.
  std::vector<std::vector<Word>> reads(16, std::vector<Word>(kBw));
  AsyncBackend::Ticket last = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    std::vector<Word> w(kBw, 100 + i);
    async->submit_write_many({i % 4}, std::move(w));
    last = async->submit_read_many(std::vector<std::uint64_t>{i % 4}, reads[i]);
    if (i == 7) server.drop_connections();
  }
  ASSERT_TRUE(async->wait(last).ok()) << "bounded retries must absorb the drop";
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_EQ(reads[i][0], 100 + i) << "read " << i << " saw a stale write";
  EXPECT_GE(async->retries(), 1u);
}

// ---------------------------------------------------------------------------
// Depth: AsyncBackend over sharded(S) of RemoteBackend(max_inflight = d)
// keeps d frames on every shard's connection at once.

/// Frames begun on each shard and not yet completed, with their high-water
/// marks.  The I/O thread counts; the test waits on the counts.  Every begin
/// first passes `plug`, which holds the I/O thread until the test has queued
/// all its reads: an I/O thread that found its queue empty mid-window would
/// wait out the oldest frame instead of beginning the next.
struct BegunFrames {
  explicit BegunFrames(std::size_t shards) : now(shards), high(shards) {}
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> now, high;
  test::Gate plug;
};

/// Forwards every call to one shard's backend and counts its begun frames.
class BegunProbe : public StorageBackend {
 public:
  BegunProbe(std::unique_ptr<StorageBackend> inner, std::shared_ptr<BegunFrames> frames,
             std::size_t shard)
      : StorageBackend(inner->block_words()), inner_(std::move(inner)),
        frames_(std::move(frames)), shard_(shard) {}
  const char* name() const override { return "begun_probe"; }
  Status health() const override { return inner_->health(); }

 protected:
  using Ids = std::span<const std::uint64_t>;
  Status do_resize(std::uint64_t n) override { return inner_->resize(n); }
  Status do_read(std::uint64_t b, std::span<Word> out) override {
    return inner_->read(b, out);
  }
  Status do_write(std::uint64_t b, std::span<const Word> in) override {
    return inner_->write(b, in);
  }
  Status do_read_many(Ids ids, std::span<Word> out) override {
    return inner_->read_many(ids, out);
  }
  Status do_write_many(Ids ids, std::span<const Word> in) override {
    return inner_->write_many(ids, in);
  }
  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  Status do_begin_read_many(Ids ids, std::span<Word> out) override {
    frames_->plug.pass();
    return begun(inner_->begin_read_many(ids, out));
  }
  Status do_begin_write_many(Ids ids, std::span<const Word> in) override {
    frames_->plug.pass();
    return begun(inner_->begin_write_many(ids, in));
  }
  Status do_complete_oldest() override {
    Status st = inner_->complete_oldest();  // the frame leaves the wire here
    std::lock_guard<std::mutex> lock(frames_->mu);
    if (frames_->now[shard_] > 0) --frames_->now[shard_];
    return st;
  }

 private:
  Status begun(Status st) {
    if (st.ok()) {
      std::lock_guard<std::mutex> lock(frames_->mu);
      const std::size_t now = ++frames_->now[shard_];
      frames_->high[shard_] = std::max(frames_->high[shard_], now);
      frames_->cv.notify_all();
    }
    return st;
  }

  std::unique_ptr<StorageBackend> inner_;
  std::shared_ptr<BegunFrames> frames_;
  std::size_t shard_;
};

TEST(RemoteDepth, ShardedAsyncKeepsDepthFramesOnEveryShard) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kDepth = 4;
  constexpr std::uint64_t kReads = 2 * kDepth;  // more than one window
  constexpr std::uint64_t kBlocks = kReads * kShards;
  auto gate = std::make_shared<test::Gate>();
  gate->open();  // the seeding write passes
  RemoteServerOptions so;
  so.store_factory = test::gated_mem(gate);
  RemoteServer server(so);
  auto frames = std::make_shared<BegunFrames>(kShards);
  frames->plug.open();
  ShardFactory per_shard = [&server, frames](std::size_t bw, std::size_t shard)
      -> std::unique_ptr<StorageBackend> {
    RemoteBackendOptions o;
    o.port = server.port();
    o.store_id = shard;
    o.max_inflight = kDepth;
    return std::make_unique<BegunProbe>(remote_backend(o)(bw), frames, shard);
  };
  auto owner = async_backend(sharded_backend(std::move(per_shard), kShards))(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(owner.get());
  ASSERT_NE(async, nullptr);
  ASSERT_TRUE(owner->resize(kBlocks).ok());
  std::vector<std::uint64_t> all(kBlocks);
  std::vector<Word> image(kBlocks * kBw);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    all[b] = b;
    const auto w = pattern(b, 3);
    std::copy(w.begin(), w.end(), image.begin() + b * kBw);
  }
  ASSERT_TRUE(owner->write_many(all, image).ok());
  gate->close();
  frames->plug.close();

  // Read r covers blocks [r*S, (r+1)*S): one block on every shard.
  std::vector<std::vector<Word>> reads(kReads, std::vector<Word>(kShards * kBw));
  AsyncBackend::Ticket last = 0;
  for (std::uint64_t r = 0; r < kReads; ++r) {
    const auto ids = std::span<const std::uint64_t>(all).subspan(r * kShards, kShards);
    last = async->submit_read_many(ids, reads[r]);
  }
  frames->plug.open();
  {
    // The store answers no read while the gate is shut, so every frame
    // counted here was begun before the server answered any.
    std::unique_lock<std::mutex> lock(frames->mu);
    const bool full = frames->cv.wait_until(lock, gate->deadline(), [&] {
      return std::all_of(frames->now.begin(), frames->now.end(),
                         [](std::size_t n) { return n >= kDepth; });
    });
    EXPECT_TRUE(full) << "a shard never had " << kDepth << " frames on the wire at once";
    for (std::size_t s = 0; s < kShards; ++s)
      EXPECT_EQ(frames->high[s], kDepth) << "shard " << s;
  }
  gate->open();
  ASSERT_TRUE(async->wait(last).ok());
  for (std::uint64_t r = 0; r < kReads; ++r)
    for (std::uint64_t s = 0; s < kShards; ++s) {
      const auto got = reads[r].begin() + s * kBw;
      EXPECT_EQ(std::vector<Word>(got, got + kBw), pattern(r * kShards + s, 3))
          << "read " << r << " block " << s;
    }
}

TEST(RemoteBackend, ErrorResponseLeavesDestinationUntouched) {
  // A second client shrinks the store behind the first one's back, so the
  // first client's READ_MANY passes its own range check but fails on the
  // server.  The error must not scribble on the destination, and the frames
  // pipelined behind it on the same connection must still decode.
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 4;
  RemoteBackend reader(kBw, opts), shrinker(kBw, opts);
  ASSERT_TRUE(reader.resize(8).ok());
  ASSERT_TRUE(reader.write(1, pattern(1)).ok());
  ASSERT_TRUE(shrinker.resize(8).ok());
  ASSERT_TRUE(shrinker.resize(4).ok());

  const std::vector<Word> sentinel(2 * kBw, 0xdead);
  std::vector<Word> failed = sentinel, after(kBw, 0);
  const std::vector<std::uint64_t> gone = {1, 6}, one = {1};
  ASSERT_TRUE(reader.begin_read_many(gone, failed).ok());
  ASSERT_TRUE(reader.begin_read_many(one, after).ok());
  const Status st = reader.complete_oldest();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.code(), StatusCode::kIo) << "a per-op error must not kill the connection";
  EXPECT_EQ(failed, sentinel) << "an error response wrote into the destination";
  ASSERT_TRUE(reader.complete_oldest().ok()) << "the next frame failed to decode";
  EXPECT_EQ(after, pattern(1));
  EXPECT_EQ(reader.reconnects(), 0u);
}

/// A one-connection stand-in for oem-server.  It answers the HELLO, then
/// records the raw bytes of every later frame and answers each in turn until
/// the client hangs up: READ_MANY with the words 0, 1, 2, ... (count x kBw of
/// them), every other op with a bare ok.
class FakeServer {
 public:
  FakeServer() {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t alen = sizeof(addr);
    if (lfd_ < 0 || ::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(lfd_, 1) != 0 ||
        ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &alen) != 0)
      return;
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    if (lfd_ >= 0) ::shutdown(lfd_, SHUT_RDWR);  // wakes an accept nobody reached
    if (thread_.joinable()) thread_.join();
    if (lfd_ >= 0) ::close(lfd_);
  }
  /// 0 when the listening socket could not be set up.
  std::uint16_t port() const { return port_; }
  /// Waits until `n` frames after the HELLO have been answered; false when
  /// 10 s pass first.
  bool await_answered(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] { return answered_ >= n; });
  }
  /// Every frame after the HELLO, as received.  Call once the client is gone.
  std::vector<std::uint8_t> raw() {
    if (thread_.joinable()) thread_.join();
    return raw_;
  }

 private:
  void serve() {
    const int cfd = ::accept(lfd_, nullptr, nullptr);
    if (cfd < 0) return;
    std::vector<std::uint8_t> hello;
    if (wire::read_frame(cfd, &hello) && hello.size() >= 48) {
      const std::uint64_t token = wire::get_u64(hello.data() + 32);
      auto ok = wire::make_response(Status::Ok());
      wire::put_u64(ok, wire::kProtocolVersion);
      wire::put_u64(ok, 0);
      wire::put_u64(ok, wire::control_mac(0, wire::kMacHelloResp,
                                          {token, wire::kProtocolVersion, 0}));
      wire::write_frame(cfd, ok);
      for (;;) {
        std::uint64_t len = 0;
        if (!wire::read_full(cfd, &len, sizeof(len)) || len < 16) break;
        std::vector<std::uint8_t> body(len);
        if (!wire::read_full(cfd, body.data(), len)) break;
        wire::put_u64(raw_, len);
        raw_.insert(raw_.end(), body.begin(), body.end());
        auto resp = wire::make_response(Status::Ok());
        if (wire::get_u64(body.data()) == static_cast<std::uint64_t>(wire::Op::kReadMany))
          for (std::size_t w = 0; w < wire::get_u64(body.data() + 8) * kBw; ++w)
            wire::put_u64(resp, w);
        if (!wire::write_frame(cfd, resp)) break;
        std::lock_guard<std::mutex> lock(mu_);
        ++answered_;
        cv_.notify_all();
      }
    }
    ::close(cfd);
  }

  int lfd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::vector<std::uint8_t> raw_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t answered_ = 0;
};

TEST(RemoteBackend, DataFramesAreByteIdenticalToTheV3Encoding) {
  // The fake server records the raw bytes of the client's data frames.  The
  // vectored send (head buffer + the caller's payload span) must produce
  // exactly the frames put_u64 + payload build, byte for byte -- also when a
  // pipelined burst goes out corked.
  FakeServer fake;
  ASSERT_NE(fake.port(), 0);
  std::vector<Word> payload = pattern(4, 1);
  for (Word w : pattern(1, 2)) payload.push_back(w);
  const std::vector<std::uint64_t> ids = {4, 1}, read_ids = {7, 0};
  {
    RemoteBackendOptions opts;
    opts.port = fake.port();
    RemoteBackend backend(kBw, opts);
    ASSERT_TRUE(backend.resize(8).ok());
    ASSERT_TRUE(backend.write_many(ids, payload).ok());
    std::vector<Word> got(2 * kBw), burst(2 * kBw);
    ASSERT_TRUE(backend.read_many(read_ids, got).ok());
    for (std::size_t w = 0; w < got.size(); ++w) EXPECT_EQ(got[w], w);
    ASSERT_TRUE(backend.begin_write_many(ids, payload).ok());
    ASSERT_TRUE(backend.begin_read_many(read_ids, burst).ok());
    EXPECT_EQ(backend.corked_frames(), 1u);
    ASSERT_TRUE(backend.complete_oldest().ok());
    ASSERT_TRUE(backend.complete_oldest().ok());
    EXPECT_EQ(burst, got);
  }

  std::vector<std::uint8_t> want;
  auto frame = [&](std::vector<std::uint64_t> words) {
    wire::put_u64(want, words.size() * sizeof(std::uint64_t));
    for (std::uint64_t w : words) wire::put_u64(want, w);
  };
  frame({static_cast<std::uint64_t>(wire::Op::kResize), 8});
  std::vector<std::uint64_t> write = {static_cast<std::uint64_t>(wire::Op::kWriteMany), 2,
                                      4, 1};
  write.insert(write.end(), payload.begin(), payload.end());
  const std::vector<std::uint64_t> read = {
      static_cast<std::uint64_t>(wire::Op::kReadMany), 2, 7, 0};
  for (int pass = 0; pass < 2; ++pass) {  // synchronous, then the corked burst
    frame(write);
    frame(read);
  }
  EXPECT_EQ(fake.raw(), want);
}

// ---------------------------------------------------------------------------
// Corking: a data frame begun behind one in flight goes out with MSG_MORE,
// and the connection is pushed before any blocking receive.

TEST(RemoteCork, SynchronousOpsLeaveAtOnce) {
  // Every synchronous op finds its connection idle, so none may cork: a
  // corked frame on an idle connection has no ACK coming to release it.
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(8).ok());
  ASSERT_TRUE(backend.write(3, pattern(3)).ok());
  std::vector<Word> out(kBw), two(2 * kBw);
  ASSERT_TRUE(backend.read(3, out).ok());
  EXPECT_EQ(out, pattern(3));
  ASSERT_TRUE(backend.read_many(std::vector<std::uint64_t>{3, 3}, two).ok());
  ASSERT_TRUE(backend.ping().ok());
  EXPECT_EQ(backend.corked_frames(), 0u);
}

TEST(RemoteCork, BurstCorksEveryFrameBehindTheFirst) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.max_inflight = 8;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(16).ok());
  for (std::uint64_t b = 0; b < 4; ++b) ASSERT_TRUE(backend.write(b, pattern(b)).ok());
  const std::uint64_t served = server.frames_served();

  // Eight frames, four writes and four reads, begun before any completes.
  // Frames 2-3 write block 9 and read it back; frames 4-6 overwrite block 0
  // behind frame 1's read of it.
  auto cat = [](std::vector<Word> a, const std::vector<Word>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  using Ids = std::vector<std::uint64_t>;
  const std::vector<Word> w9 = pattern(9, 5), w0_10 = cat(pattern(0, 7), pattern(10, 7)),
                          w2 = pattern(2, 9);
  std::vector<Word> r01(2 * kBw), r9(kBw), r10(kBw), r0(kBw), r23(2 * kBw);
  ASSERT_TRUE(backend.begin_read_many(Ids{0, 1}, r01).ok());
  ASSERT_TRUE(backend.begin_write_many(Ids{9}, w9).ok());
  ASSERT_TRUE(backend.begin_read_many(Ids{9}, r9).ok());
  ASSERT_TRUE(backend.begin_write_many(Ids{0, 10}, w0_10).ok());
  ASSERT_TRUE(backend.begin_read_many(Ids{10}, r10).ok());
  ASSERT_TRUE(backend.begin_read_many(Ids{0}, r0).ok());
  ASSERT_TRUE(backend.begin_write_many(Ids{2}, w2).ok());
  ASSERT_TRUE(backend.begin_read_many(Ids{2, 3}, r23).ok());
  EXPECT_EQ(backend.corked_frames(), 7u) << "the first frame leaves at once, the rest cork";
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(backend.complete_oldest().ok()) << i;
  EXPECT_EQ(server.frames_served() - served, 8u) << "corking must not merge or drop frames";

  EXPECT_EQ(r01, cat(pattern(0), pattern(1)));
  EXPECT_EQ(r9, w9) << "a read corked behind a write of its block must see the write";
  EXPECT_EQ(r10, pattern(10, 7));
  EXPECT_EQ(r0, pattern(0, 7));
  EXPECT_EQ(r23, cat(w2, pattern(3)));
}

TEST(RemoteCork, PushesCorkedFramesBeforeBlocking) {
  // A is answered before B is begun, so B is corked behind a frame whose
  // response (and ACK) already arrived: no ACK is left to release B.  Left
  // corked, B would wait for the kernel's zero-window probe, which fires
  // no sooner than TCP's 200 ms minimum RTO; the deadline sits below that,
  // so only the client's push before it blocks on B's response gets B an
  // answer in time.
  FakeServer fake;
  ASSERT_NE(fake.port(), 0);
  RemoteBackendOptions opts;
  opts.port = fake.port();
  opts.max_inflight = 4;
  opts.io_deadline_ms = 150;
  RemoteBackend backend(kBw, opts);
  ASSERT_TRUE(backend.resize(8).ok());
  std::vector<Word> a(2 * kBw);
  ASSERT_TRUE(backend.begin_read_many(std::vector<std::uint64_t>{7, 0}, a).ok());
  ASSERT_TRUE(fake.await_answered(2)) << "the fake server never answered A";
  const std::vector<Word> b = pattern(3, 1);
  ASSERT_TRUE(backend.begin_write_many(std::vector<std::uint64_t>{3}, b).ok());
  EXPECT_EQ(backend.corked_frames(), 1u);
  ASSERT_TRUE(backend.complete_oldest().ok());
  const Status st = backend.complete_oldest();
  EXPECT_TRUE(st.ok()) << st;
  for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], w);
}

// ---------------------------------------------------------------------------
// The Client's [nonce][mac] seal: the server only ever holds fresh ciphertext.

TEST(ClientSeal, ServerHoldsOnlyFreshCiphertext) {
  RemoteServer server;
  RemoteBackendOptions opts;
  opts.port = server.port();
  opts.store_id = 9;
  ClientParams p = test::params(/*B=*/4, /*M=*/64, /*seed=*/5);
  p.backend = remote_backend(opts);
  Client client(p);
  ASSERT_TRUE(client.device().backend().health().ok());
  const ExtArray a = client.alloc_blocks(4, Client::Init::kUninit);
  const std::uint64_t blk = a.device_block(2);

  const std::vector<Record> recs = test::random_records(4, 42);
  const BlockBuf plain(recs.begin(), recs.end());
  client.write_block(a, 2, plain);
  std::vector<Word> held1;
  ASSERT_TRUE(server.peek_store(9, blk, &held1).ok());
  client.write_block(a, 2, plain);  // same records again
  std::vector<Word> held2;
  ASSERT_TRUE(server.peek_store(9, blk, &held2).ok());

  EXPECT_EQ(held1.size(), client.device().block_words())
      << "stored block = [nonce][mac] header + payload";
  EXPECT_NE(held1, held2) << "re-sealing the same records must be fresh";
  for (std::size_t w = kBlockHeaderWords; w < held1.size(); ++w)
    EXPECT_NE(held1[w], held2[w]) << "ciphertext word " << w << " repeated on rewrite";
  for (const std::vector<Word>* held : {&held1, &held2})
    for (std::size_t w = 0; w < held->size(); ++w)
      for (const Record& r : plain) {
        EXPECT_NE((*held)[w], r.key) << "server held a plaintext key at word " << w;
        EXPECT_NE((*held)[w], r.value) << "server held a plaintext value at word " << w;
      }
  BlockBuf out;
  client.read_block(a, 2, out);
  EXPECT_EQ(out, plain) << "opening must invert the seal";
  client.read_block(a, 3, out);
  EXPECT_EQ(out, BlockBuf(4, Record{0, 0})) << "never-written reads as zero";
}

// ---------------------------------------------------------------------------
// End to end through the Session facade.

TEST(RemoteSession, SortsIdenticallyToMemAtDepth8) {
  RemoteServer server;
  const auto input = test::random_records(40 * 4, 3);
  std::vector<std::vector<Record>> results;
  std::vector<std::vector<TraceEvent>> traces;
  for (int remote = 0; remote < 2; ++remote) {
    auto builder = Session::Builder()
                       .block_records(4)
                       .cache_records(64)
                       .seed(5)
                       .pipeline_depth(8)
                       .async_prefetch(remote == 1);
    if (remote) builder.remote(server.host(), server.port());
    auto built = builder.build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session session = std::move(built).value();
    auto data = session.outsource(input);
    ASSERT_TRUE(data.ok());
    session.trace().set_record_events(true);
    session.trace().reset();
    auto rep = session.sort(*data, /*seed=*/11);
    ASSERT_TRUE(rep.ok()) << rep.status();
    auto sorted = session.retrieve(*data);
    ASSERT_TRUE(sorted.ok());
    EXPECT_TRUE(test::padded_sorted(*sorted));
    results.push_back(std::move(*sorted));
    traces.push_back(session.trace().events());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_TRUE(traces[0] == traces[1])
      << "remote+prefetch at depth 8 diverged from the in-memory trace";
}

TEST(RemoteSession, ConcurrentSessionsNeverAliasServerStores) {
  // Two sessions with identical geometry against ONE server: each build()
  // draws its own store-id namespace, so their blocks must stay disjoint.
  RemoteServer server;
  auto make = [&] {
    auto built = Session::Builder()
                     .block_records(4)
                     .cache_records(64)
                     .remote(server.host(), server.port())
                     .build();
    EXPECT_TRUE(built.ok()) << built.status();
    return std::move(built).value();
  };
  Session a = make(), b = make();
  auto da = a.outsource(test::iota_records(8 * 4));
  auto db = b.outsource(test::random_records(8 * 4, 99));
  ASSERT_TRUE(da.ok() && db.ok());
  auto ra = a.retrieve(*da);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(*ra, test::iota_records(8 * 4))
      << "session b's writes leaked into session a's store";
}

TEST(RemoteSession, ShardedRemoteUsesOneConnectionPerShard) {
  RemoteServer server;
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .sharded(4)
                   .remote(server.host(), server.port())
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(24 * 4, 9));
  ASSERT_TRUE(data.ok());
  auto rep = session.sort(*data);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto sorted = session.retrieve(*data);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(test::padded_sorted(*sorted));
  EXPECT_GE(server.connections_accepted(), 4u)
      << "each shard must hold its own connection";
}

}  // namespace
}  // namespace oem
