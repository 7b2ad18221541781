// Crash-safety and freshness-durability suite (the chaos harness).
//
// Three contracts under test:
//
//   1. Durable freshness (extmem/freshness.h + Session::Builder::state_path):
//      the anti-rollback version table survives a process restart atomically
//      and tamper-evidently.  A missing state file bootstraps; an existing-
//      but-corrupt one fails closed as kIntegrity; a validly-sealed-but-stale
//      state file (the rollback OF the rollback defense) is caught at read
//      time by the block MACs it mis-keys.
//
//   2. Wire deadlines (RemoteBackendOptions::io_deadline_ms): a dead, hung,
//      or byzantine-slow server surfaces as retryable kTimeout in bounded
//      time -- never a hang.
//
//   3. SIGKILL recovery matrix: against a server that dies abruptly at a
//      seeded frame (oem-server --crash-at=frames:N), every algorithm on
//      every decorator stack either completes with output identical to the
//      in-memory reference or fails cleanly with a retryable/integrity code
//      -- and a rerun against a fresh server always completes identically.
//      Never silent corruption, never a hang.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "extmem/freshness.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "server/subprocess.h"
#include "test_util.h"
#include "util/status.h"

namespace oem {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "oem_recovery_" + name + "." +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// Freshness state file: round trip, Merkle root, fail-closed on any damage.

TEST(Freshness, MerkleRootSummarizesTheTable) {
  EXPECT_EQ(freshness_merkle_root({}), 0u) << "empty table is the zero root";
  std::vector<std::uint64_t> v = {1, 2, 3, 4, 5};
  const std::uint64_t root = freshness_merkle_root(v);
  EXPECT_EQ(freshness_merkle_root(v), root) << "pure function of the table";
  for (std::size_t i = 0; i < v.size(); ++i) {
    auto w = v;
    ++w[i];
    EXPECT_NE(freshness_merkle_root(w), root)
        << "bumping version " << i << " must change the root";
  }
  v.push_back(0);
  EXPECT_NE(freshness_merkle_root(v), root) << "the root binds the length";
}

TEST(Freshness, SaveLoadRoundTripsEveryField) {
  const std::string path = temp_path("roundtrip");
  const std::uint64_t key = freshness_state_key(0x5eed);
  FreshnessState s;
  s.generation = 3;
  s.nonce_counter = 7777;
  s.store_namespace = 0x1234u << 10;
  s.versions = {1, 4, 0, 9, 2, 2, 8};
  ASSERT_TRUE(save_freshness(path, s, key).ok());
  auto loaded = load_freshness(path, key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation, s.generation);
  EXPECT_EQ(loaded->nonce_counter, s.nonce_counter);
  EXPECT_EQ(loaded->store_namespace, s.store_namespace);
  EXPECT_EQ(loaded->versions, s.versions);
  // A save replaces atomically: no stale temp sibling left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(path);
}

TEST(Freshness, MissingFileIsIoNotIntegrity) {
  // First boot must be distinguishable from tampering: bootstrap, not panic.
  auto r = load_freshness(temp_path("never_written"), 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIo);
}

TEST(Freshness, AnyDamageFailsClosedAsIntegrity) {
  const std::string path = temp_path("damage");
  const std::uint64_t key = freshness_state_key(42);
  FreshnessState s;
  s.generation = 9;
  s.nonce_counter = 11;
  s.versions = {5, 6, 7, 8};
  ASSERT_TRUE(save_freshness(path, s, key).ok());
  const auto size = fs::file_size(path);
  const auto flip_byte_at = [&](std::uintmax_t off) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(off));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&b, 1);
  };
  // One flipped byte anywhere -- magic, generation, a version, the Merkle
  // root, the MAC itself -- must be caught.
  for (const std::uintmax_t off : {std::uintmax_t{0}, std::uintmax_t{8},
                                   size / 2, size - 9, size - 1}) {
    flip_byte_at(off);
    auto r = load_freshness(path, key);
    ASSERT_FALSE(r.ok()) << "flip at byte " << off << " went unnoticed";
    EXPECT_EQ(r.status().code(), StatusCode::kIntegrity) << "byte " << off;
    flip_byte_at(off);  // restore for the next round
  }
  ASSERT_TRUE(load_freshness(path, key).ok()) << "restored file must verify";

  // Wrong key: a state file sealed by someone else is not evidence.
  EXPECT_EQ(load_freshness(path, key ^ 1).status().code(),
            StatusCode::kIntegrity);
  // Truncation (torn tail) and trailing garbage.
  fs::resize_file(path, size - 8);
  EXPECT_EQ(load_freshness(path, key).status().code(), StatusCode::kIntegrity);
  ASSERT_TRUE(save_freshness(path, s, key).ok());
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    const std::uint64_t junk = 0xdeadbeef;
    f.write(reinterpret_cast<const char*>(&junk), sizeof junk);
  }
  EXPECT_EQ(load_freshness(path, key).status().code(), StatusCode::kIntegrity);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Session restart with a state file: versions and nonces survive, a staged
// rollback of the state file itself is caught at read time.

TEST(DurableFreshness, RestartedFileSessionStillReadsAndDetectsStateRollback) {
  const std::string store = temp_path("store");
  const std::string state = temp_path("state");
  const std::string state_v1 = state + ".gen1";
  FileBackendOptions fo;
  fo.path = store;
  fo.keep_file = true;
  const auto builder = [&] {
    Session::Builder b;
    b.block_records(4).cache_records(64).seed(0x5eed).file_backed(fo)
        .state_path(state);
    return b;
  };
  const auto v1 = test::random_records(40, 3);
  const auto v2 = test::random_records(40, 4);
  {
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << built.status() << " (missing state file must "
                            << "bootstrap, not fail)";
    Session s1 = std::move(built).value();
    auto a = s1.outsource(v1);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(s1.persist_freshness().ok());
    fs::copy_file(state, state_v1);  // the adversary snapshots generation 1
    s1.client().poke(*a, v2);        // every block re-sealed at version 2
    ASSERT_TRUE(s1.persist_freshness().ok());
  }  // destructor persists again, best-effort

  {  // honest restart: restored versions verify the version-2 blocks
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session s2 = std::move(built).value();
    ExtArray a = s2.client().alloc(40, Client::Init::kUninit);
    auto got = s2.retrieve(a);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, v2);
  }

  // Roll the STATE FILE back to its validly-sealed generation-1 snapshot.
  // load_freshness cannot catch this (the seal is genuine); the stale
  // versions it carries must make every version-2 block fail its MAC.
  fs::copy_file(state_v1, state, fs::copy_options::overwrite_existing);
  {
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << "a validly-sealed old state file loads; "
                            << "detection happens at read time";
    Session s3 = std::move(built).value();
    ExtArray a = s3.client().alloc(40, Client::Init::kUninit);
    auto got = s3.retrieve(a);
    ASSERT_FALSE(got.ok()) << "stale version table accepted version-2 blocks";
    EXPECT_EQ(got.status().code(), StatusCode::kIntegrity);
  }

  // An existing-but-corrupt state file fails the BUILD closed: bootstrapping
  // over evidence of tampering would erase the evidence.
  {
    std::fstream f(state, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    char b = 0x7f;
    f.write(&b, 1);
  }
  auto built = builder().build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kIntegrity);
  fs::remove(store);
  fs::remove(state);
  fs::remove(state_v1);
}

TEST(DurableFreshness, RestartedRemoteSessionDetectsRollbackStagedWhileDown) {
  // The marquee attack: the malicious server waits for the client process to
  // DIE, swaps a stale ciphertext into the store, and serves it to the
  // reborn client.  Without durable state the reborn client has no memory to
  // contradict the replay; with state_path it does.
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  const std::string state = temp_path("remote_state");
  const std::uint64_t seed = 0xfee1;
  const auto builder = [&] {
    Session::Builder b;
    b.block_records(4).cache_records(64).seed(seed)
        .remote(server.host(), server.port()).state_path(state);
    return b;
  };
  const auto v1 = test::random_records(32, 5);
  const auto v2 = test::random_records(32, 6);
  std::vector<Word> stale;  // Bob's snapshot of block 0 at version 1
  {
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session s1 = std::move(built).value();
    auto a = s1.outsource(v1);
    ASSERT_TRUE(a.ok()) << a.status();
    // The persisted namespace is how both the restarted client and this test
    // find the same server store (shard 0 => store id = namespace | 0).
    ASSERT_TRUE(s1.persist_freshness().ok());
    auto st = load_freshness(state, freshness_state_key(seed));
    ASSERT_TRUE(st.ok()) << st.status();
    ASSERT_NE(st->store_namespace, 0u);
    ASSERT_TRUE(server.peek_store(st->store_namespace, 0, &stale).ok());
    s1.client().poke(*a, v2);
    ASSERT_TRUE(s1.persist_freshness().ok());
  }  // client process "dies"

  auto st = load_freshness(state, freshness_state_key(seed));
  ASSERT_TRUE(st.ok()) << st.status();

  {  // control arm: no attack, the reborn client reads its own writes
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session s2 = std::move(built).value();
    ExtArray a = s2.client().alloc(32, Client::Init::kUninit);
    auto got = s2.retrieve(a);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, v2) << "restart must reach the SAME server store";
  }

  // Attack arm: stage the rollback while no client is alive.
  ASSERT_TRUE(server.poke_store(st->store_namespace, 0, stale).ok());
  {
    auto built = builder().build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session s3 = std::move(built).value();
    ExtArray a = s3.client().alloc(32, Client::Init::kUninit);
    auto got = s3.retrieve(a);
    ASSERT_FALSE(got.ok())
        << "SILENT ROLLBACK: reborn client accepted a stale block";
    EXPECT_EQ(got.status().code(), StatusCode::kIntegrity);
  }
  fs::remove(state);
}

// ---------------------------------------------------------------------------
// Authenticated control frames: a key mismatch on HELLO fails closed at
// build time; matching (nonzero) keys handshake and ping normally.

TEST(WireAuth, HelloKeyMismatchFailsClosedAsIntegrity) {
  RemoteServerOptions so;
  so.auth_key = 7;
  RemoteServer server(so);
  ASSERT_TRUE(server.health().ok()) << server.health();

  auto wrong = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .remote(server.host(), server.port())
                   .wire_auth(8)
                   .build();
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kIntegrity);

  auto unkeyed = Session::Builder()
                     .block_records(4)
                     .cache_records(64)
                     .remote(server.host(), server.port())
                     .build();
  ASSERT_FALSE(unkeyed.ok()) << "default key 0 vs keyed server must not pass";
  EXPECT_EQ(unkeyed.status().code(), StatusCode::kIntegrity);

  auto right = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .remote(server.host(), server.port())
                   .wire_auth(7)
                   .build();
  ASSERT_TRUE(right.ok()) << right.status();
}

TEST(WireAuth, MatchingKeysPingAndServe) {
  RemoteServerOptions so;
  so.auth_key = 9;
  RemoteServer server(so);
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions o;
  o.host = server.host();
  o.port = server.port();
  o.store_id = 1 << 10;
  o.auth_key = 9;
  RemoteBackend backend(10, o);
  ASSERT_TRUE(backend.health().ok()) << backend.health();
  ASSERT_TRUE(backend.ping().ok());
  ASSERT_TRUE(backend.resize(2).ok());
  std::vector<Word> in(10, 3), out(10);
  ASSERT_TRUE(backend.write(1, in).ok());
  ASSERT_TRUE(backend.read(1, out).ok());
  EXPECT_EQ(out, in);
}

// ---------------------------------------------------------------------------
// Wire deadlines: a slow or frozen server surfaces as kTimeout in bounded
// time instead of hanging the session.

TEST(WireDeadline, SlowServerTimesOutTheHandshakeBounded) {
  // The store factory waits at a shut gate, so the HELLO goes unanswered.
  auto gate = std::make_shared<test::Gate>();
  RemoteServerOptions so;
  so.store_factory = test::gated_mem(gate, /*hold_construction=*/true);
  RemoteServer server(so);
  ASSERT_TRUE(server.health().ok()) << server.health();
  const auto t0 = Clock::now();
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .remote(server.host(), server.port())
                   .io_deadline_ms(100)
                   .build();
  const double elapsed = ms_since(t0);
  gate->open();
  ASSERT_FALSE(built.ok()) << "an unanswered HELLO beat a 100 ms deadline";
  EXPECT_EQ(built.status().code(), StatusCode::kTimeout) << built.status();
  EXPECT_LT(elapsed, 2000.0) << "the deadline must bound the wait";
}

TEST(WireDeadline, FrozenServerTimesOutAnEstablishedConnection) {
  server::SpawnedServer srv(server::default_server_binary(), {"--threads=1"});
  ASSERT_TRUE(srv.health().ok()) << srv.health();
  RemoteBackendOptions o;
  o.host = srv.host();
  o.port = srv.port();
  o.store_id = 2 << 10;
  o.io_deadline_ms = 200;
  RemoteBackend backend(10, o);
  ASSERT_TRUE(backend.resize(4).ok());
  ASSERT_TRUE(backend.write(0, std::vector<Word>(10, 5)).ok());

  // SIGSTOP models a wedged (not dead) server: the TCP connection stays
  // perfectly healthy, only nobody is home.  Without a deadline this read
  // blocks forever.  kill() only queues the stop -- a loaded scheduler can
  // let the server answer one more frame before it freezes -- so wait for
  // /proc to report state 'T' before issuing the read that must time out.
  ASSERT_EQ(::kill(srv.pid(), SIGSTOP), 0);
  const std::string stat_path = "/proc/" + std::to_string(srv.pid()) + "/stat";
  for (int spin = 0; spin < 2000; ++spin) {
    std::ifstream in(stat_path);
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto paren = stat.rfind(')');
    if (paren != std::string::npos && stat.size() > paren + 2 &&
        stat[paren + 2] == 'T')
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t0 = Clock::now();
  std::vector<Word> out(10);
  const Status st = backend.read(0, out);
  const double elapsed = ms_since(t0);
  EXPECT_EQ(st.code(), StatusCode::kTimeout) << st;
  EXPECT_GE(elapsed, 150.0) << "timed out before the deadline";
  EXPECT_LT(elapsed, 5000.0);
  ASSERT_EQ(::kill(srv.pid(), SIGCONT), 0);
  EXPECT_EQ(srv.terminate(), 0) << "a thawed server must still exit cleanly";
}

// ---------------------------------------------------------------------------
// SpawnedServer exit taxonomy: the harness must tell a clean exit from
// SIGKILL from an injected crash, or the matrix below proves nothing.

TEST(CrashInjection, ExitKindsAreDistinguishable) {
  {
    server::SpawnedServer srv(server::default_server_binary(), {});
    ASSERT_TRUE(srv.health().ok()) << srv.health();
    EXPECT_EQ(srv.terminate(), 0);
  }
  {
    server::SpawnedServer srv(server::default_server_binary(), {});
    ASSERT_TRUE(srv.health().ok()) << srv.health();
    const server::ExitResult r = srv.kill_now();
    EXPECT_TRUE(r.signaled);
    EXPECT_EQ(r.signal, SIGKILL);
  }
  {
    server::SpawnedServer srv(server::default_server_binary(),
                              {"--crash-at=frames:1"});
    ASSERT_TRUE(srv.health().ok()) << srv.health();
    RemoteBackendOptions o;
    o.host = srv.host();
    o.port = srv.port();
    o.io_deadline_ms = 2000;
    RemoteBackend backend(10, o);
    // The very first frame (HELLO) trips the armed crash: the client sees a
    // clean retryable error, and the child reports the crash exit code.
    const Status st = backend.health();
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(IsRetryable(st.code())) << st;
    const server::ExitResult r = srv.wait_exit();
    EXPECT_FALSE(r.signaled);
    EXPECT_EQ(r.code, kCrashExitCode);
  }
}

// ---------------------------------------------------------------------------
// The SIGKILL recovery matrix: every algorithm x every stack, server crashed
// at a seeded frame.  Allowed outcomes per trial: identical output, or a
// clean retryable/integrity error -- and the rerun against a fresh server
// must complete identically.  Silent corruption and hangs are the bugs.

struct RecoveryStack {
  const char* name;
  std::size_t shards;
  std::size_t cache_blocks;
};

constexpr RecoveryStack kRecoveryStacks[] = {
    {"plain", 1, 0},
    {"sharded4", 4, 0},
    {"cached", 1, 16},
};

Result<Session> build_remote(const RecoveryStack& cfg, const std::string& host,
                             std::uint16_t port) {
  Session::Builder b;
  b.block_records(4)
      .cache_records(64)
      .seed(11)
      .remote(host, port)
      .io_deadline_ms(5000)  // a crashed server must never become a hang
      .io_retries(2);
  if (cfg.shards > 1) b.sharded(cfg.shards);
  if (cfg.cache_blocks > 0) b.cache(cfg.cache_blocks);
  return b.build();
}

using Algo = std::function<Status(Session&, std::vector<Record>*)>;

Status run_sort(Session& s, std::vector<Record>* out) {
  auto data = s.outsource(test::random_records(32 * 4, 7));
  if (!data.ok()) return data.status();
  auto rep = s.sort(*data, /*seed=*/5);
  if (!rep.ok()) return rep.status();
  auto result = s.retrieve(*data);
  if (!result.ok()) return result.status();
  *out = std::move(*result);
  return Status::Ok();
}

Status run_compact(Session& s, std::vector<Record>* out) {
  std::vector<Record> v(24 * 4);
  for (std::uint64_t i = 0; i < v.size(); i += 3) v[i] = {i, i};
  auto data = s.outsource(v);
  if (!data.ok()) return data.status();
  auto rep = s.compact(*data);
  if (!rep.ok()) return rep.status();
  auto result = s.retrieve(rep->out);
  if (!result.ok()) return result.status();
  *out = std::move(*result);
  return Status::Ok();
}

Status run_oram(Session& s, std::vector<Record>* out) {
  auto oram = s.open_oram(64, oram::ShuffleKind::kDeterministic, /*seed=*/17);
  if (!oram.ok()) return oram.status();
  for (std::uint64_t i = 0; i <= oram->epoch_length(); ++i) {
    auto v = oram->access((i * 5) % 64);
    if (!v.ok()) return v.status();
    EXPECT_EQ(*v, oram->expected_value((i * 5) % 64))
        << "SILENT CORRUPTION in ORAM access " << i;
    out->push_back({i, *v});
  }
  return Status::Ok();
}

const struct { const char* name; Algo run; } kAlgos[] = {
    {"sort", run_sort},
    {"compact", run_compact},
    {"oram", run_oram},
};

TEST(CrashRecoveryMatrix, EveryAlgorithmOnEveryStackFailsCleanOrCompletes) {
  // In-memory references: the paper's algorithms are deterministic in their
  // OUTPUT given the input and the per-call seed, independent of storage.
  std::vector<std::vector<Record>> expected;
  for (const auto& algo : kAlgos) {
    auto ref = Session::Builder().block_records(4).cache_records(64).seed(11)
                   .build();
    ASSERT_TRUE(ref.ok()) << ref.status();
    std::vector<Record> out;
    ASSERT_TRUE(algo.run(*ref, &out).ok()) << algo.name;
    expected.push_back(std::move(out));
  }

  int trial = 0, crashed_trials = 0, completed_trials = 0;
  for (std::size_t ai = 0; ai < std::size(kAlgos); ++ai) {
    for (const RecoveryStack& cfg : kRecoveryStacks) {
      for (int round = 0; round < 2; ++round, ++trial) {
        // Seeded crash point: round 0 lands early (handshake/upload), round
        // 1 lands late enough that the smaller workloads can outrun it and
        // exercise the completed-identical arm.  Deterministic per trial,
        // so a failure replays exactly.
        const std::uint64_t crash_frame =
            round == 0 ? 2 + (trial * 17) % 48
                       : 500 + (trial * 1237) % 4000;
        server::SpawnedServer srv(
            server::default_server_binary(),
            {"--threads=2",
             "--crash-at=frames:" + std::to_string(crash_frame)});
        ASSERT_TRUE(srv.health().ok()) << srv.health();
        const std::string label = std::string(kAlgos[ai].name) + "/" +
                                  cfg.name + " crash@" +
                                  std::to_string(crash_frame);

        bool need_rerun = true;
        auto built = build_remote(cfg, srv.host(), srv.port());
        if (built.ok()) {
          std::vector<Record> got;
          const Status st = kAlgos[ai].run(*built, &got);
          if (st.ok()) {
            ++completed_trials;
            need_rerun = false;
            EXPECT_EQ(got, expected[ai])
                << label << ": SILENT CORRUPTION -- crashed-server run "
                << "completed with wrong output";
          } else {
            EXPECT_TRUE(st.code() == StatusCode::kIo ||
                        st.code() == StatusCode::kTimeout ||
                        st.code() == StatusCode::kIntegrity)
                << label << ": crash must surface clean, got " << st;
          }
        } else {
          EXPECT_TRUE(IsRetryable(built.status().code()))
              << label << ": crash during build must be retryable, got "
              << built.status();
        }
        // How did the server actually die?  Either the armed crash tripped
        // (exit 42) or the run finished under the frame budget and the
        // still-alive server is reaped here (SIGKILL fallback in reap).
        const server::ExitResult ex = srv.wait_exit(/*timeout_ms=*/1);
        if (ex.code == kCrashExitCode) ++crashed_trials;

        if (need_rerun) {
          // The recovery story: a FRESH server + fresh session must complete
          // identically -- the failure left no poisoned durable state.
          server::SpawnedServer fresh(server::default_server_binary(),
                                      {"--threads=2"});
          ASSERT_TRUE(fresh.health().ok()) << fresh.health();
          auto again = build_remote(cfg, fresh.host(), fresh.port());
          ASSERT_TRUE(again.ok()) << label << " rerun: " << again.status();
          std::vector<Record> got;
          const Status st = kAlgos[ai].run(*again, &got);
          ASSERT_TRUE(st.ok()) << label << " rerun failed: " << st;
          EXPECT_EQ(got, expected[ai]) << label << " rerun diverged";
          EXPECT_EQ(fresh.terminate(), 0);
        }
      }
    }
  }
  // The schedule must exercise BOTH arms, or the matrix is vacuous.
  EXPECT_GT(crashed_trials, 0) << "no trial ever tripped its armed crash";
  EXPECT_GT(trial, completed_trials) << "every trial outran its crash frame";
}

}  // namespace
}  // namespace oem
