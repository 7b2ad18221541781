#include <gtest/gtest.h>

#include "oram/sqrt_oram.h"
#include "test_util.h"

namespace oem::oram {
namespace {

TEST(SqrtOram, ReturnsCorrectValues) {
  Client client(test::params(4, 2048));
  SqrtOram oram(client, 256, ShuffleKind::kDeterministic, 7);
  rng::Xoshiro g(3);
  for (int i = 0; i < 600; ++i) {  // spans several epochs
    const std::uint64_t idx = g.below(256);
    EXPECT_EQ(oram.access(idx), oram.expected_value(idx)) << "access " << i;
  }
  EXPECT_TRUE(oram.status().ok());
  EXPECT_GE(oram.stats().reshuffles, 600 / oram.epoch_length());
}

TEST(SqrtOram, RepeatedAccessSameIndex) {
  // Repeats within an epoch must hit the stash + a dummy, still correct.
  Client client(test::params(4, 2048));
  SqrtOram oram(client, 64, ShuffleKind::kDeterministic, 9);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(oram.access(17), oram.expected_value(17));
}

TEST(SqrtOram, RandomizedShuffleAlsoCorrect) {
  Client client(test::params(4, 4 * 64));
  SqrtOram oram(client, 256, ShuffleKind::kRandomized, 11);
  rng::Xoshiro g(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t idx = g.below(256);
    if (oram.status().ok()) {
      EXPECT_EQ(oram.access(idx), oram.expected_value(idx));
    }
  }
}

TEST(SqrtOram, AccessPositionsAreFreshPerEpoch) {
  // Within one epoch, all probed main positions must be distinct (each
  // position is touched at most once -- the classic sqrt-ORAM privacy
  // argument).
  Client client(test::params(4, 2048));
  client.device().trace().set_record_events(true);
  SqrtOram oram(client, 225, ShuffleKind::kDeterministic, 13);
  client.device().trace().reset();
  // All accesses to the same index: worst case for freshness.  Stop one
  // short of the epoch so the reshuffle's sort (which legitimately
  // re-touches blocks) stays out of the trace.
  const std::uint64_t epoch = oram.epoch_length();
  for (std::uint64_t i = 0; i + 1 < epoch; ++i) oram.access(3);
  // Count how many times each *main-array* block was probed outside scans.
  // Full-array scans (stash/reshuffle) touch blocks uniformly; the probe
  // pattern adds at most one extra touch per block if positions are fresh.
  std::map<std::uint64_t, int> touches;
  for (const auto& ev : client.device().trace().events())
    if (ev.op == IoOp::kRead) touches[ev.block]++;
  int max_touch = 0;
  for (auto& [blk, cnt] : touches) max_touch = std::max(max_touch, cnt);
  // Stash blocks are re-scanned every access (epoch-1 touches) plus the
  // read half of the append's read-modify-write (up to B per block); main
  // blocks are touched only by fresh probes.
  EXPECT_LE(max_touch, static_cast<int>(epoch) + 4 + 2);
}

TEST(SqrtOram, DeterministicShuffleCheaperPerAccessThanNaiveScan) {
  // Amortized I/O per access should be far below N/B (the trivial oblivious
  // baseline of scanning everything per access).
  Client client(test::params(4, 2048));
  const std::uint64_t N = 1024;
  SqrtOram oram(client, N, ShuffleKind::kDeterministic, 3);
  rng::Xoshiro g(7);
  const std::uint64_t accesses = 4 * oram.epoch_length();
  for (std::uint64_t i = 0; i < accesses; ++i) oram.access(g.below(N));
  const double per_access =
      static_cast<double>(oram.stats().access_ios + oram.stats().reshuffle_ios) /
      static_cast<double>(accesses);
  EXPECT_LT(per_access, static_cast<double>(N / 4));  // N/B = 256
}

TEST(SqrtOram, ShuffleKindChangesReshuffleCostOnly) {
  auto run = [](ShuffleKind kind) {
    Client client(test::params(4, 4 * 64));
    SqrtOram oram(client, 1024, kind, 3);
    rng::Xoshiro g(7);
    for (std::uint64_t i = 0; i < 2 * oram.epoch_length(); ++i)
      oram.access(g.below(1024));
    return oram.stats();
  };
  const SqrtOramStats det = run(ShuffleKind::kDeterministic);
  const SqrtOramStats rnd = run(ShuffleKind::kRandomized);
  EXPECT_EQ(det.access_ios, rnd.access_ios) << "access protocol should be identical";
  EXPECT_NE(det.reshuffle_ios, rnd.reshuffle_ios);
}

TEST(SqrtOram, ReshuffleScratchIsReclaimedBetweenEpochs) {
  // The reshuffle's sort scratch is dead once the new epoch starts.  With
  // trim() (Session::compact_arena) between epochs the store must stay flat
  // instead of growing by that scratch on every reshuffle.
  for (ShuffleKind kind : {ShuffleKind::kDeterministic, ShuffleKind::kRandomized}) {
    Client client(test::params(4, 4 * 64));
    SqrtOram oram(client, 1024, kind, 3);
    client.device().trim();
    const std::uint64_t flat = client.device().num_blocks();
    rng::Xoshiro g(7);
    for (int epoch = 0; epoch < 8; ++epoch) {
      for (std::uint64_t i = 0; i < oram.epoch_length(); ++i) {
        const std::uint64_t idx = g.below(1024);
        const std::uint64_t got = oram.access(idx);
        if (oram.status().ok()) {
          EXPECT_EQ(got, oram.expected_value(idx));
        }
      }
      client.device().trim();
      EXPECT_EQ(client.device().num_blocks(), flat)
          << "epoch " << epoch << " leaked reshuffle scratch";
    }
  }
}

}  // namespace
}  // namespace oem::oram
