// Fault-injection conformance suite.
//
// The contract under injected storage faults: every algorithm either
// completes with output identical to a fault-free run (bounded retries
// absorbed the failures below the trace recorder) or surfaces
// StatusCode::kIo cleanly through Result<T> -- never a crash, never a
// partially applied batch in the backend, never a leaked arena (storage
// stays reclaimable via compact_arena()).  Faults are deterministic and
// seed-reproducible, so every trial here replays exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "api/session.h"
#include "extmem/io_engine.h"
#include "test_util.h"

namespace oem {
namespace {

FaultProfile profile(std::uint64_t seed, double rate, unsigned fail_times = 1) {
  FaultProfile p;
  p.seed = seed;
  p.fail_rate = rate;
  p.fail_times = fail_times;
  return p;
}

// ---------------------------------------------------------------------------
// FaultyBackend unit semantics.

TEST(FaultyBackend, DeterministicAcrossRuns) {
  constexpr std::size_t kBw = 4;
  std::vector<std::vector<StatusCode>> outcome_runs;
  for (int run = 0; run < 2; ++run) {
    auto backend = faulty_backend(mem_backend(), profile(42, 0.3))(kBw);
    auto* faulty = dynamic_cast<FaultyBackend*>(backend.get());
    ASSERT_NE(faulty, nullptr);
    ASSERT_TRUE(backend->resize(16).ok());
    std::vector<Word> buf(kBw, 7);
    std::vector<StatusCode> outcomes;
    for (std::uint64_t i = 0; i < 64; ++i)
      outcomes.push_back(backend->write(i % 16, buf).code());
    EXPECT_GT(faulty->injected_faults(), 0u) << "rate 0.3 over 64 ops fired nothing";
    outcome_runs.push_back(std::move(outcomes));
  }
  // Same seed, same call sequence => the same ops fail, in the same places.
  EXPECT_EQ(outcome_runs[0], outcome_runs[1]);

  // A different seed produces a different failure pattern.
  auto other = faulty_backend(mem_backend(), profile(43, 0.3))(kBw);
  ASSERT_TRUE(other->resize(16).ok());
  std::vector<Word> buf(kBw, 7);
  std::vector<StatusCode> outcomes;
  for (std::uint64_t i = 0; i < 64; ++i)
    outcomes.push_back(other->write(i % 16, buf).code());
  EXPECT_NE(outcomes, outcome_runs[0]);
}

TEST(FaultyBackend, FailOnceRecoversOnImmediateRetry) {
  constexpr std::size_t kBw = 2;
  // rate = 1: every fresh op fires a fail-once fault; the retry must succeed.
  auto backend = faulty_backend(mem_backend(), profile(1, 1.0, /*fail_times=*/1))(kBw);
  ASSERT_TRUE(backend->resize(4).ok());
  std::vector<Word> in(kBw, 9);
  Status first = backend->write(0, in);
  EXPECT_EQ(first.code(), StatusCode::kIo);
  EXPECT_TRUE(backend->write(0, in).ok()) << "fail-once retry must recover";
  std::vector<Word> out(kBw);
  EXPECT_EQ(backend->read(0, out).code(), StatusCode::kIo);  // next fresh op fails
  EXPECT_TRUE(backend->read(0, out).ok());
  EXPECT_EQ(out, in);
}

TEST(FaultyBackend, FailNExhaustsSmallerRetryBudgets) {
  constexpr std::size_t kBw = 2;
  auto backend = faulty_backend(mem_backend(), profile(1, 1.0, /*fail_times=*/3))(kBw);
  ASSERT_TRUE(backend->resize(4).ok());
  std::vector<Word> in(kBw, 5);
  for (int attempt = 0; attempt < 3; ++attempt)
    EXPECT_EQ(backend->write(0, in).code(), StatusCode::kIo) << attempt;
  EXPECT_TRUE(backend->write(0, in).ok()) << "attempt N+1 must recover";
}

TEST(FaultyBackend, FailedBatchLeavesNoPartialWrites) {
  constexpr std::size_t kBw = 2;
  auto backend = faulty_backend(mem_backend(), profile(1, 1.0, /*fail_times=*/1))(kBw);
  auto* faulty = dynamic_cast<FaultyBackend*>(backend.get());
  ASSERT_TRUE(backend->resize(8).ok());
  // Seed known contents through the inner store directly (no fault gate).
  std::vector<Word> original(kBw, 111);
  for (std::uint64_t b = 0; b < 8; ++b)
    ASSERT_TRUE(faulty->inner().write(b, original).ok());

  const std::vector<std::uint64_t> ids = {1, 3, 5};
  std::vector<Word> batch(ids.size() * kBw, 222);
  ASSERT_EQ(backend->write_many(ids, batch).code(), StatusCode::kIo);
  // The fault fired before the transfer: every block still holds the old
  // bytes -- a failed batch is atomic-by-rejection.
  for (std::uint64_t b = 0; b < 8; ++b) {
    std::vector<Word> out(kBw);
    ASSERT_TRUE(faulty->inner().read(b, out).ok());
    EXPECT_EQ(out, original) << "partial write visible in block " << b;
  }
}

TEST(FaultyBackend, ReadWriteSelectivityAndResizeImmunity) {
  constexpr std::size_t kBw = 2;
  FaultProfile p = profile(3, 1.0, 1);
  p.fail_reads = false;  // writes only
  auto backend = faulty_backend(mem_backend(), p)(kBw);
  ASSERT_TRUE(backend->resize(4).ok());  // resize is never faulted
  std::vector<Word> buf(kBw);
  EXPECT_TRUE(backend->read(0, buf).ok());
  EXPECT_EQ(backend->write(0, buf).code(), StatusCode::kIo);
  EXPECT_TRUE(backend->resize(8).ok());
}

// ---------------------------------------------------------------------------
// BlockDevice retry policy.

TEST(RetryPolicy, DeviceRetriesSyncOpsBelowTraceAndCounters) {
  ClientParams params = test::params(4, 64);
  params.backend = faulty_backend(mem_backend(), profile(5, 1.0, /*fail_times=*/1));
  params.io_retry_attempts = 2;  // exactly enough for fail-once
  Client client(params);
  client.device().trace().set_record_events(true);
  ExtArray a = client.alloc_blocks(4, Client::Init::kEmpty);
  auto data = test::random_records(16, 1);
  client.write_blocks(a, 0, 4, data);
  std::vector<Record> out(16);
  client.read_blocks(a, 0, 4, out);
  EXPECT_EQ(out, data);
  EXPECT_GT(client.device().retries(), 0u);
  // Counters and trace saw each logical op exactly once: retries are
  // invisible to Bob and to the paper's I/O accounting.
  EXPECT_EQ(client.stats().writes, 4u + 4u);  // init + write_blocks
  EXPECT_EQ(client.stats().reads, 4u);
  EXPECT_EQ(client.device().trace().size(), 12u);
}

TEST(RetryPolicy, ExhaustionSurfacesAsIoThroughResult) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(3)
                   .fault_injection(profile(9, 1.0, /*fail_times=*/8))
                   .io_retries(3)  // < fail_times + 1: cannot recover
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(64, 2));
  // Either the upload already failed or the sort does; both must be clean
  // kIo Results, never a crash.
  if (!data.ok()) {
    EXPECT_EQ(data.status().code(), StatusCode::kIo);
    return;
  }
  auto rep = session.sort(*data);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kIo);
}

TEST(RetryPolicy, LostAsyncWriteSurfacesOnNextSyncOpUnretried) {
  // Regression: a submitted write that exhausts the I/O-thread retries parks
  // its error; the next synchronous device op used to drain that error INTO
  // its own retryable status, retry against the now-clean backend, and
  // return Ok -- silently losing the write.  The parked error must fail the
  // next op unretried, exactly once, and the device must recover after.
  FaultProfile p = profile(6, 1.0, /*fail_times=*/8);
  p.fail_reads = false;  // only the submitted write faults
  BlockDevice dev(4, async_backend(faulty_backend(mem_backend(), p)),
                  RetryPolicy{2});  // 2 < 8 + 1: the write cannot land
  dev.allocate(4);
  const std::vector<std::uint64_t> ids = {0};
  dev.submit_write_many(ids, std::vector<Word>(4, 9));
  // No wait(): the failure is still parked when the sync read arrives.
  std::vector<Word> out(4, 1);
  EXPECT_THROW(dev.read(0, out), std::runtime_error);
  // Reported once; the device recovers, and the lost write left no bytes.
  EXPECT_NO_THROW(dev.read(0, out));
  EXPECT_EQ(out, std::vector<Word>(4, 0));
}

TEST(RetryPolicy, AsyncIoThreadRetriesSubmittedOps) {
  constexpr std::size_t kBw = 2;
  auto owner =
      async_backend(faulty_backend(mem_backend(), profile(4, 1.0, 1)))(kBw);
  auto* async = dynamic_cast<AsyncBackend*>(owner.get());
  ASSERT_NE(async, nullptr);
  async->set_retry_attempts(2);
  ASSERT_TRUE(owner->resize(4).ok());
  async->submit_write_many({0, 1}, std::vector<Word>(2 * kBw, 7));
  std::vector<Word> out(2 * kBw);
  auto t = async->submit_read_many(std::vector<std::uint64_t>{0, 1}, out);
  EXPECT_TRUE(async->wait(t).ok()) << "I/O-thread retries must absorb fail-once";
  EXPECT_EQ(out, std::vector<Word>(2 * kBw, 7));
  EXPECT_GT(async->retries(), 0u);
}

// ---------------------------------------------------------------------------
// Algorithm-level conformance: 100 seeded trials per algorithm.  Fail-once
// faults with a retry budget of 4 must be fully absorbed: identical output,
// identical trace as the fault-free session.

struct TrialConfig {
  const char* name;
  std::size_t shards;
  bool prefetch;
};

constexpr TrialConfig kTrialConfigs[] = {
    {"plain", 1, false},
    {"sharded4", 4, false},
    {"sharded4_prefetch", 4, true},
};

Result<Session> build_session(const TrialConfig& cfg, std::uint64_t fault_seed,
                              double rate) {
  return Session::Builder()
      .block_records(4)
      .cache_records(64)
      .seed(11)
      .sharded(cfg.shards)
      .async_prefetch(cfg.prefetch)
      .fault_injection(fault_seed, rate)
      .build();
}

/// The conformance contract, per trial: the algorithm either completes with
/// output and trace identical to the fault-free reference, or every step
/// that failed did so as a clean kIo Result and the session stays usable.
/// On a single shard, fail-once faults + the retry budget make completion
/// deterministic-guaranteed; on a striped store a retried batch re-rolls the
/// other shards' fault decisions, so exhaustion is possible (and must be
/// clean) -- exactly the two allowed outcomes.
template <typename AlgoFn>
void run_seeded_trials(const char* what, AlgoFn&& algo) {
  for (const TrialConfig& cfg : kTrialConfigs) {
    // Reference run: same session parameters, no faults.
    auto clean = build_session(cfg, 0, 0.0);
    ASSERT_TRUE(clean.ok()) << clean.status();
    std::vector<Record> expected;
    Status ref = algo(*clean, &expected);
    ASSERT_TRUE(ref.ok()) << what << "/" << cfg.name << " fault-free run failed: "
                          << ref;
    const std::uint64_t expected_trace = clean->trace().hash();

    const int trials = cfg.shards == 1 ? 100 : 20;  // full matrix on the cheap config
    for (int trial = 0; trial < trials; ++trial) {
      auto faulty = build_session(cfg, 1000 + trial, 0.05);
      ASSERT_TRUE(faulty.ok()) << faulty.status();
      std::vector<Record> got;
      Status st = algo(*faulty, &got);
      if (st.ok()) {
        EXPECT_EQ(got, expected) << what << "/" << cfg.name << " trial " << trial;
        EXPECT_EQ(faulty->trace().hash(), expected_trace)
            << what << "/" << cfg.name << " trial " << trial
            << ": fault recovery leaked into the trace";
      } else {
        EXPECT_EQ(st.code(), StatusCode::kIo)
            << what << "/" << cfg.name << " trial " << trial
            << ": failure must surface as clean kIo, got " << st;
        EXPECT_EQ(cfg.shards > 1, true)
            << what << ": single-shard fail-once faults must always recover";
        // The session survives the failure: storage reclaims and fresh work
        // goes through (the injected fault train has moved on).
        faulty->compact_arena();
        auto probe = faulty->outsource(test::random_records(8, 1));
        EXPECT_TRUE(probe.ok() || probe.status().code() == StatusCode::kIo);
      }
    }
  }
}

TEST(FaultConformance, SortCompletesIdenticallyUnderFaults) {
  run_seeded_trials("sort", [](Session& s, std::vector<Record>* out) -> Status {
    auto data = s.outsource(test::random_records(32 * 4, 7));
    if (!data.ok()) return data.status();
    auto rep = s.sort(*data, /*seed=*/5);
    if (!rep.ok()) return rep.status();
    auto result = s.retrieve(*data);
    if (!result.ok()) return result.status();
    *out = std::move(*result);
    return Status::Ok();
  });
}

TEST(FaultConformance, CompactCompletesIdenticallyUnderFaults) {
  run_seeded_trials("compact", [](Session& s, std::vector<Record>* out) -> Status {
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
  });
}

TEST(FaultConformance, OramAccessSequenceIdenticalUnderFaults) {
  run_seeded_trials("oram", [](Session& s, std::vector<Record>* out) -> Status {
    auto oram = s.open_oram(64, oram::ShuffleKind::kDeterministic, /*seed=*/17);
    if (!oram.ok()) return oram.status();
    for (std::uint64_t i = 0; i <= oram->epoch_length(); ++i) {
      auto v = oram->access((i * 5) % 64);
      if (!v.ok()) return v.status();
      EXPECT_EQ(*v, oram->expected_value((i * 5) % 64));
      out->push_back({i, *v});
    }
    return Status::Ok();
  });
}

// ---------------------------------------------------------------------------
// Arena hygiene after failures: an aborted algorithm call must not leak
// backend storage -- its scratch is recorded as discarded during unwind and
// compact_arena() reclaims it.

TEST(FaultConformance, NoLeakedArenaBlocksAfterFailure) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    FaultProfile p = profile(700 + seed, 0.03, /*fail_times=*/8);
    p.fail_writes = false;  // let the upload through; fault the sort's reads
    auto built = Session::Builder()
                     .block_records(4)
                     .cache_records(64)
                     .seed(21)
                     .fault_injection(p)
                     .io_retries(3)  // < fail_times + 1: first fault is fatal
                     .build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session session = std::move(built).value();
    auto data = session.outsource(test::random_records(32 * 4, 3));
    ASSERT_TRUE(data.ok()) << data.status();
    const std::uint64_t baseline = session.arena_blocks();

    auto rep = session.sort(*data, /*seed=*/5);
    if (!rep.ok()) {
      EXPECT_EQ(rep.status().code(), StatusCode::kIo);
    }
    session.compact_arena();
    EXPECT_EQ(session.arena_blocks(), baseline)
        << "seed " << seed << (rep.ok() ? " (completed)" : " (failed)")
        << ": scratch leaked past compact_arena";
  }
}

}  // namespace
}  // namespace oem
