// Memory-hierarchy v2 suite: scan-resistant admission (a one-pass sweep must
// not evict the re-referenced hot set), the shared CacheCore (N sessions, one
// slab, per-view stats and write-back routing), the pooled staging arena's
// zero-allocation steady state, and DirectFileBackend's io_uring/O_DIRECT
// specifics (slot layout, SQE coalescing, graceful fallback).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "extmem/arena.h"
#include "extmem/backend.h"
#include "extmem/cache_meter.h"
#include "extmem/io_engine.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 4;

/// cache(capacity, policy) over the op counter over mem: the counter's ops()
/// is exactly "inner ops the cache did not absorb".
struct PolicyRig {
  PolicyRig(std::size_t capacity, CachePolicy policy) {
    backend = caching_backend(test::counted_mem(), capacity, policy)(kBw);
    cache = dynamic_cast<CachingBackend*>(backend.get());
    counter = dynamic_cast<FaultyBackend*>(&cache->inner());
  }

  std::unique_ptr<StorageBackend> backend;
  CachingBackend* cache = nullptr;
  FaultyBackend* counter = nullptr;
};

/// The workload of the scan-resistance claim: a hot set touched twice (an
/// ORAM position map being re-referenced), then a long one-pass sweep (a
/// reshuffle/sort stream), then the hot set again.  Returns the inner ops
/// the FINAL hot-set pass cost -- 0 iff the sweep failed to evict it.
std::uint64_t hot_set_reread_cost(PolicyRig& rig) {
  const std::uint64_t kHot = 4, kSweep = 64;
  EXPECT_TRUE(rig.backend->resize(kHot + kSweep).ok());
  std::vector<Word> out(kBw);
  for (int pass = 0; pass < 2; ++pass)  // second touch promotes to protected
    for (std::uint64_t b = 0; b < kHot; ++b)
      EXPECT_TRUE(rig.backend->read(b, out).ok());
  for (std::uint64_t b = kHot; b < kHot + kSweep; ++b)  // one-pass scan
    EXPECT_TRUE(rig.backend->read(b, out).ok());
  const std::uint64_t before = rig.counter->ops();
  for (std::uint64_t b = 0; b < kHot; ++b)
    EXPECT_TRUE(rig.backend->read(b, out).ok());
  return rig.counter->ops() - before;
}

TEST(ScanResistance, SequentialSweepDoesNotEvictReReferencedHotSet) {
  PolicyRig slru(8, CachePolicy::kScanResistant);
  EXPECT_EQ(hot_set_reread_cost(slru), 0u)
      << "the sweep evicted the protected hot set";
  // The sweep's one-touch blocks died in probation, never protected.
  EXPECT_GT(slru.cache->stats().admission_rejects, 0u);

  // The v1 single-list baseline DOES thrash: 64 one-touch blocks through an
  // 8-block LRU push the hot set out, so the re-read pays inner ops again.
  PolicyRig lru(8, CachePolicy::kLru);
  EXPECT_GT(hot_set_reread_cost(lru), 0u)
      << "plain LRU unexpectedly survived the sweep (test workload too weak)";
}

TEST(ScanResistance, ProtectedOverflowDemotesInsteadOfPinningForever) {
  // Promote more blocks than the protected segment holds (prot_cap = 6 of
  // 8): the overflow demotes back to probation, and capacity still works --
  // every block remains readable with correct data.
  PolicyRig rig(8, CachePolicy::kScanResistant);
  ASSERT_TRUE(rig.backend->resize(32).ok());
  std::vector<Word> out(kBw);
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t b = 0; b < 12; ++b)
      ASSERT_TRUE(rig.backend->read(b, out).ok());
  for (std::uint64_t b = 0; b < 12; ++b) {
    ASSERT_TRUE(rig.backend->write(b, std::vector<Word>(kBw, 100 + b)).ok());
    ASSERT_TRUE(rig.backend->read(b, out).ok());
    EXPECT_EQ(out, std::vector<Word>(kBw, 100 + b));
  }
}

// ---------------------------------------------------------------------------
// Shared CacheCore.

TEST(SharedCache, TwoViewsShareResidencyButKeepNamespacesAndStats) {
  SharedCacheHandle core = make_shared_cache(8);
  auto a = std::make_unique<CachingBackend>(test::counted_mem()(kBw), core);
  auto b = std::make_unique<CachingBackend>(test::counted_mem()(kBw), core);
  ASSERT_TRUE(a->health().ok()) << a->health();
  ASSERT_TRUE(b->health().ok()) << b->health();
  EXPECT_NE(a->view_id(), b->view_id());
  ASSERT_TRUE(a->resize(16).ok());
  ASSERT_TRUE(b->resize(16).ok());

  // Same block id, different sessions: the namespaced keys keep them apart.
  ASSERT_TRUE(a->write(3, std::vector<Word>(kBw, 0xA)).ok());
  ASSERT_TRUE(b->write(3, std::vector<Word>(kBw, 0xB)).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(a->read(3, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0xA));
  ASSERT_TRUE(b->read(3, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0xB));
  EXPECT_EQ(core->cached_blocks(), 2u) << "both views resident in one slab";

  // Stats are per view: only A saw A's traffic.
  EXPECT_EQ(a->stats().absorbed_writes, 1u);
  EXPECT_EQ(a->stats().hits, 1u);
  EXPECT_EQ(b->stats().absorbed_writes, 1u);
  EXPECT_EQ(b->stats().hits, 1u);

  // B floods the shared slab with RE-REFERENCED blocks (a one-touch sweep
  // would die in probation -- scan resistance): the promotions overflow the
  // protected segment, demote and finally evict A's dirty block, which must
  // be written back through A's OWN inner store.
  for (std::uint64_t blk = 4; blk < 16 && a->stats().writebacks == 0; ++blk)
    for (int touch = 0; touch < 2; ++touch)  // second touch promotes
      ASSERT_TRUE(b->read(blk, out).ok());
  ASSERT_GT(a->stats().writebacks, 0u)
      << "B's protected-segment pressure never evicted A's dirty block";
  auto* a_counter = dynamic_cast<FaultyBackend*>(&a->inner());
  ASSERT_TRUE(a_counter->inner().read(3, out).ok());  // probe below the counter
  EXPECT_EQ(out, std::vector<Word>(kBw, 0xA))
      << "cross-view eviction must write back through the owning view";
  ASSERT_TRUE(a->read(3, out).ok());  // ...and A still reads its own data
  EXPECT_EQ(out, std::vector<Word>(kBw, 0xA));
}

TEST(SharedCache, GeometryIsAdoptedByFirstViewAndEnforcedAfter) {
  SharedCacheHandle core = make_shared_cache(4);
  CachingBackend first(mem_backend()(8), core);
  ASSERT_TRUE(first.health().ok());
  CachingBackend mismatched(mem_backend()(16), core);
  EXPECT_FALSE(mismatched.health().ok())
      << "a view with different block geometry must fail health";
  CachingBackend matched(mem_backend()(8), core);
  EXPECT_TRUE(matched.health().ok());
}

TEST(SharedCache, SessionsExposePerSessionStatsAndDescribe) {
  SharedCacheHandle core = make_shared_cache(32);
  auto mk = [&core](std::uint64_t seed) {
    return Session::Builder()
        .block_records(4)
        .cache_records(64)
        .seed(seed)
        .shared_cache(core)
        .build();
  };
  auto sa = mk(5);
  auto sb = mk(6);
  ASSERT_TRUE(sa.ok()) << sa.status();
  ASSERT_TRUE(sb.ok()) << sb.status();
  Session a = std::move(sa).value();
  Session b = std::move(sb).value();
  auto da = a.outsource(test::random_records(64, 3));
  ASSERT_TRUE(da.ok());
  auto sorted = a.sort(*da);
  ASSERT_TRUE(sorted.ok());
  const CacheStats astats = a.cache_stats();
  const CacheStats bstats = b.cache_stats();
  EXPECT_GT(astats.hits + astats.misses + astats.absorbed_writes, 0u);
  EXPECT_EQ(bstats.hits + bstats.misses + bstats.absorbed_writes, 0u)
      << "an idle session must not inherit its neighbor's counters";
  // The human-readable form used by engine_stats_note and service logs.
  const std::string line = describe_cache_stats(astats);
  EXPECT_NE(line.find("cache: hits="), std::string::npos) << line;
  EXPECT_NE(line.find("admission_rejects="), std::string::npos) << line;
  EXPECT_TRUE(a.storage_health().ok()) << a.storage_health();
}

TEST(SharedCache, BuilderRejectsMixingPrivateAndSharedCache) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .cache(8)
                   .shared_cache(make_shared_cache(8))
                   .build();
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Staging arena.

TEST(BufferArena, RecyclesBuffersAndCountsReuse) {
  BufferArena arena;
  const ArenaStats s0 = arena.stats();
  {
    ArenaBuffer b(&arena);
    b.resize(1024);
    for (std::size_t i = 0; i < 1024; ++i) b[i] = i;
    EXPECT_EQ(arena.stats().outstanding, s0.outstanding + 1);
  }
  EXPECT_EQ(arena.stats().pooled, s0.pooled + 1);
  {
    ArenaBuffer b(&arena);
    b.resize(512);  // smaller fits the pooled buffer: reuse, not allocation
    ArenaBuffer c(&arena);
    c.resize(1024);
  }
  const ArenaStats s1 = arena.stats();
  EXPECT_EQ(s1.allocations, s0.allocations + 2) << "1st buffer + c's fresh one";
  EXPECT_GE(s1.reuses, 1u);
  arena.trim();
  EXPECT_EQ(arena.stats().pooled, 0u);
}

TEST(BufferArena, ResizeKeepsBufferWithinCapacity) {
  BufferArena arena;
  ArenaBuffer b(&arena);
  b.resize(256);
  Word* p = b.data();
  b.resize(64);   // shrink: same backing memory
  EXPECT_EQ(b.data(), p);
  b.resize(256);  // regrow within capacity: same backing memory
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(arena.stats().allocations, 1u);
}

// The tentpole's zero-allocation pin: once a pipelined workload has warmed
// the pool, running the SAME workload again must not allocate -- every
// window wire, async staging buffer, and sharded sub-frame comes from the
// recycled pool.
TEST(BufferArena, SteadyStatePipelineWindowsAllocateNothing) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(5)
                   .sharded(4)
                   .async_prefetch(true)
                   .pipeline_depth(4)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  const auto input = test::random_records(96 * 4, 17);
  auto data = session.outsource(std::vector<Record>(input.begin(), input.end()));
  ASSERT_TRUE(data.ok());
  auto warm = session.sort(*data);  // warms the pool
  ASSERT_TRUE(warm.ok());
  const std::uint64_t allocs = global_staging_arena().stats().allocations;
  const std::uint64_t reuses = global_staging_arena().stats().reuses;
  for (int i = 0; i < 3; ++i) {
    auto again = session.sort(*data);
    ASSERT_TRUE(again.ok());
  }
  const ArenaStats after = global_staging_arena().stats();
  EXPECT_EQ(after.allocations, allocs)
      << "steady-state pipeline windows must perform zero heap allocations";
  EXPECT_GT(after.reuses, reuses) << "the steady state must run on the pool";
}

// ---------------------------------------------------------------------------
// DirectFileBackend.

TEST(DirectFileBackend, SlotLayoutRespectsDirectIoAlignment) {
  DirectFileBackend dfb(66);  // 528 payload bytes: forces slot padding
  ASSERT_TRUE(dfb.health().ok()) << dfb.health();
  if (std::string(dfb.engine()) != "uring")
    GTEST_SKIP() << "no io_uring here; slot layout is a ring-path property";
  EXPECT_GE(dfb.slot_bytes(), 66 * sizeof(Word));
  EXPECT_EQ(dfb.slot_bytes() % 512, 0u) << "slots must hold offset alignment";
  ASSERT_TRUE(dfb.resize(8).ok());
  std::vector<Word> in(66, 7), out(66);
  ASSERT_TRUE(dfb.write(5, in).ok());
  ASSERT_TRUE(dfb.read(5, out).ok());
  EXPECT_EQ(out, in);
  struct stat st{};
  ASSERT_EQ(::stat(dfb.path().c_str(), &st), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(st.st_size), 8 * dfb.slot_bytes());
}

TEST(DirectFileBackend, CoalescesContiguousRunsIntoSingleSqes) {
  DirectFileBackend dfb(kBw);
  ASSERT_TRUE(dfb.health().ok()) << dfb.health();
  if (std::string(dfb.engine()) != "uring")
    GTEST_SKIP() << "no io_uring here; SQE accounting needs the ring";
  ASSERT_TRUE(dfb.resize(64).ok());
  const std::uint64_t before = dfb.sqes_submitted();
  std::vector<std::uint64_t> run(32);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = i + 8;
  std::vector<Word> buf(run.size() * kBw, 42);
  ASSERT_TRUE(dfb.write_many(run, buf).ok());
  EXPECT_EQ(dfb.sqes_submitted() - before, 1u) << "one run, one SQE";
  const std::vector<std::uint64_t> scattered = {0, 1, 2, 40, 41, 50};
  std::vector<Word> buf2(scattered.size() * kBw);
  ASSERT_TRUE(dfb.read_many(scattered, buf2).ok());
  EXPECT_EQ(dfb.sqes_submitted() - before, 4u) << "3 runs -> 3 more SQEs";
}

TEST(DirectFileBackend, TempFileIsRemovedOnDestruction) {
  std::string path;
  {
    DirectFileBackend dfb(kBw);
    ASSERT_TRUE(dfb.health().ok()) << dfb.health();
    path = dfb.path();
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << "backing file must exist";
  }
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0) << "temp file must be cleaned up";
}

TEST(DirectFileBackend, UnopenablePathReportsIoStatus) {
  DirectFileOptions opts;
  opts.path = "/nonexistent-dir-oem/blocks.bin";
  DirectFileBackend dfb(kBw, opts);
  EXPECT_EQ(dfb.health().code(), StatusCode::kIo);
}

TEST(DirectFileBackend, SplitPhaseFifoWithSyncOpsInterleaved) {
  DirectFileBackend dfb(kBw);
  ASSERT_TRUE(dfb.health().ok()) << dfb.health();
  ASSERT_TRUE(dfb.resize(32).ok());
  ASSERT_GE(dfb.max_inflight(), 2u);
  std::vector<Word> w(2 * kBw);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = 1000 + i;
  const std::vector<std::uint64_t> ids = {3, 9};
  ASSERT_TRUE(dfb.begin_write_many(ids, w).ok());
  std::vector<Word> r(2 * kBw, 0);
  // A sync op with a frame in flight retires it early (FIFO preserved).
  std::vector<Word> other(kBw, 5);
  ASSERT_TRUE(dfb.write(20, other).ok());
  ASSERT_TRUE(dfb.begin_read_many(ids, r).ok());
  ASSERT_TRUE(dfb.complete_oldest().ok());  // the write frame
  ASSERT_TRUE(dfb.complete_oldest().ok());  // the read frame
  EXPECT_EQ(r, w);
}

TEST(DirectFileBackend, OverlappingSplitPhaseFramesApplyInBeginOrder) {
  // Read-after-write and write-after-read stress at full pipeline depth:
  // alternating write and read frames over a small hot range, every frame
  // scattered (one SQE per block) so the kernel has room to reorder.  Each
  // read must see exactly the writes begun before it -- the split-phase
  // contract -- which a sequential model of the store pins down.
  DirectFileBackend dfb(kBw);
  ASSERT_TRUE(dfb.health().ok()) << dfb.health();
  if (std::string(dfb.engine()) != "uring")
    GTEST_SKIP() << "no io_uring here; the threads engine applies ops in order";
  constexpr std::uint64_t kSlots = 24;
  constexpr std::size_t kPerFrame = 8;
  ASSERT_TRUE(dfb.resize(kSlots).ok());
  const std::size_t depth = dfb.max_inflight();
  ASSERT_GE(depth, 2u);

  struct Op {
    bool read = false;
    std::vector<std::uint64_t> ids;
    std::vector<Word> buf;     // write payload, or read destination
    std::vector<Word> expect;  // reads: the model's contents at begin time
  };
  std::vector<Word> model(kSlots * kBw, 0);
  std::deque<Op> inflight;
  std::size_t stale_reads = 0;
  auto retire = [&] {
    ASSERT_TRUE(dfb.complete_oldest().ok());
    if (inflight.front().read && inflight.front().buf != inflight.front().expect)
      ++stale_reads;
    inflight.pop_front();
  };
  for (std::uint64_t round = 0; round < 4000; ++round) {
    Op op;
    op.read = round % 2 == 1;
    const std::uint64_t base = (round / 2) * 5;
    for (std::size_t k = 0; k < kPerFrame; ++k)
      op.ids.push_back((base + 2 * k) % kSlots);  // stride 2: no SQE coalescing
    op.buf.assign(kPerFrame * kBw, 0);
    for (std::size_t k = 0; k < kPerFrame; ++k)
      for (std::size_t j = 0; j < kBw; ++j) {
        Word& cell = model[op.ids[k] * kBw + j];
        if (op.read) {
          op.expect.push_back(cell);
        } else {
          cell = (round << 16) | (k << 4) | j;
          op.buf[k * kBw + j] = cell;
        }
      }
    if (inflight.size() == depth) retire();
    // The destination's heap buffer survives the move into the deque.
    ASSERT_TRUE((op.read ? dfb.begin_read_many(op.ids, op.buf)
                         : dfb.begin_write_many(op.ids, op.buf))
                    .ok());
    inflight.push_back(std::move(op));
  }
  while (!inflight.empty()) retire();
  EXPECT_EQ(stale_reads, 0u) << "a read overtook (or was overtaken by) a write";
}

TEST(SessionBuilder, DirectIoRequiresFileBackedStorage) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .direct_io()
                   .build();
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilder, DirectIoSessionSortsCorrectly) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(5)
                   .file_backed()
                   .direct_io()
                   .sharded(2)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  const auto input = test::random_records(48 * 4, 23);
  auto data = session.outsource(std::vector<Record>(input.begin(), input.end()));
  ASSERT_TRUE(data.ok());
  auto sorted = session.sort(*data);
  ASSERT_TRUE(sorted.ok()) << sorted.status();
  auto out = session.retrieve(*data);
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 1; i < out->size(); ++i)
    EXPECT_LE((*out)[i - 1].key, (*out)[i].key);
}

}  // namespace
}  // namespace oem
