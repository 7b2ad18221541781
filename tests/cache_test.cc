// CachingBackend suite: write-back semantics (hits absorb inner ops,
// writes reach the store below only on eviction or flush, dirty neighbors
// coalesce into one batched write-back), split-phase forwarding over a
// remote store, begun writes taking free slots, and the
// Session::Builder::cache validation satellites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "extmem/backend.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "rng/random.h"
#include "server/server.h"
#include "test_util.h"

namespace oem {
namespace {

constexpr std::size_t kBw = 4;

/// cache(capacity) over the op counter over mem: the counter's ops() is
/// exactly "inner ops the cache did not absorb".
struct CacheRig {
  explicit CacheRig(std::size_t capacity) {
    backend = caching_backend(test::counted_mem(), capacity)(kBw);
    cache = dynamic_cast<CachingBackend*>(backend.get());
    counter = dynamic_cast<FaultyBackend*>(&cache->inner());
  }
  std::vector<Word> block(Word salt) const { return std::vector<Word>(kBw, salt); }

  std::unique_ptr<StorageBackend> backend;
  CachingBackend* cache = nullptr;
  FaultyBackend* counter = nullptr;
};

TEST(CachingBackend, ReadsHitAfterFirstTouchAndAbsorbInnerOps) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  const std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  std::vector<Word> buf(ids.size() * kBw);
  ASSERT_TRUE(rig.backend->read_many(ids, buf).ok());
  const std::uint64_t cold_ops = rig.counter->ops();
  EXPECT_EQ(rig.cache->stats().misses, 4u);

  // Same blocks again: served from the cache, the inner store sees nothing.
  ASSERT_TRUE(rig.backend->read_many(ids, buf).ok());
  EXPECT_EQ(rig.counter->ops(), cold_ops) << "a re-touched read reached the inner store";
  EXPECT_EQ(rig.cache->stats().hits, 4u);
  EXPECT_DOUBLE_EQ(rig.cache->stats().hit_rate(), 0.5);
}

TEST(CachingBackend, WritesAbsorbedUntilEvictionThenWrittenBack) {
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  for (std::uint64_t b = 0; b < 4; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(100 + b)).ok());
  EXPECT_EQ(rig.counter->ops(), 0u) << "absorbed writes must not reach the inner store";
  EXPECT_EQ(rig.cache->stats().absorbed_writes, 4u);

  // The inner store still reads zero for an absorbed block (probed through
  // the mem BELOW the op counter, so the probe itself is not counted).
  std::vector<Word> raw(kBw, 99);
  ASSERT_TRUE(rig.counter->inner().read(0, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0));

  // A fifth distinct block evicts the LRU victim (block 0) -- and because
  // blocks 1..3 are consecutive dirty neighbors, the whole run {0,1,2,3}
  // goes back in ONE coalesced inner write.
  ASSERT_TRUE(rig.backend->write(8, rig.block(200)).ok());
  EXPECT_EQ(rig.cache->stats().evictions, 1u);
  EXPECT_EQ(rig.cache->stats().writebacks, 4u);
  EXPECT_EQ(rig.cache->stats().writeback_ops, 1u);
  EXPECT_EQ(rig.counter->ops(), 1u);

  // The written-back victim re-reads correctly (a fresh miss from inner).
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  EXPECT_EQ(out, rig.block(100));

  // Blocks 2..3 stayed cached and CLEAN after the coalesced write-back (the
  // read of 0 evicted clean block 1 already): cycling them out with two more
  // cold reads must not write anything again.
  for (std::uint64_t b = 9; b < 11; ++b)
    ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.cache->stats().writeback_ops, 1u)
      << "clean survivors of a coalesced write-back were written again";
}

TEST(CachingBackend, FlushWritesBackAllDirtyOnceAndIsIdempotent) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  ASSERT_TRUE(rig.backend->write(2, rig.block(7)).ok());
  ASSERT_TRUE(rig.backend->write(5, rig.block(8)).ok());
  ASSERT_TRUE(rig.cache->flush().ok());
  EXPECT_EQ(rig.cache->stats().writebacks, 2u);
  EXPECT_EQ(rig.counter->ops(), 1u) << "flush must batch all dirty blocks";

  std::vector<Word> raw(kBw);
  ASSERT_TRUE(rig.counter->inner().read(5, raw).ok());  // uncounted probe
  EXPECT_EQ(raw, rig.block(8));

  // Nothing dirty left: a second flush is free, and the blocks stay cached.
  ASSERT_TRUE(rig.cache->flush().ok());
  EXPECT_EQ(rig.counter->ops(), 1u);
  const std::uint64_t hits = rig.cache->stats().hits;
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(2, out).ok());
  EXPECT_EQ(out, rig.block(7));
  EXPECT_EQ(rig.cache->stats().hits, hits + 1);
}

TEST(CachingBackend, DestructorFlushesDirtyBlocksToTheStoreBelow) {
  // The server outlives the cache, so it can witness the farewell flush.
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 9;
  {
    auto cache = caching_backend(remote_backend(ropts), 4)(kBw);
    ASSERT_TRUE(cache->resize(4).ok());
    ASSERT_TRUE(cache->write(3, std::vector<Word>(kBw, 77)).ok());
    std::vector<Word> server_view;
    ASSERT_TRUE(server.peek_store(9, 3, &server_view).ok());
    EXPECT_EQ(server_view, std::vector<Word>(kBw, 0)) << "write was not absorbed";
  }
  std::vector<Word> server_view;
  ASSERT_TRUE(server.peek_store(9, 3, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 77))
      << "the destructor did not flush the dirty block";
}

TEST(CachingBackend, ShrinkDropsCachedBlocksSoRegrowReadsZero) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(8).ok());
  ASSERT_TRUE(rig.backend->write(6, rig.block(5)).ok());  // dirty, cached
  ASSERT_TRUE(rig.backend->resize(4).ok());               // 6 is shrunk away
  ASSERT_TRUE(rig.backend->resize(8).ok());
  std::vector<Word> out(kBw, 1);
  ASSERT_TRUE(rig.backend->read(6, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0))
      << "a shrunk-away dirty block resurfaced from the cache";
}

TEST(CachingBackend, SharedCoreShrinkDropsOnlyTheShrunkViewsBlocks) {
  // Two views with many residents on one core.  A's first shrink drops its
  // ids past the new end by key (the range below its high-water mark is
  // narrower than the resident set); its second, after a write far out,
  // walks the residents.  Either way A's dropped blocks read zero after a
  // regrow, its kept blocks keep their bytes, and B's blocks -- the same
  // ids in another namespace -- stay resident and dirty.
  auto core = make_shared_cache(256);
  CachingBackend a(mem_backend()(kBw), core);
  CachingBackend b(test::counted_mem()(kBw), core);
  auto* b_ops = dynamic_cast<FaultyBackend*>(&b.inner());
  ASSERT_TRUE(a.resize(4096).ok());
  ASSERT_TRUE(b.resize(64).ok());
  for (std::uint64_t blk = 0; blk < 48; ++blk)
    ASSERT_TRUE(a.write(blk, std::vector<Word>(kBw, 100 + blk)).ok());
  for (std::uint64_t blk = 0; blk < 64; ++blk)
    ASSERT_TRUE(b.write(blk, std::vector<Word>(kBw, 500 + blk)).ok());
  auto expect_a = [&a](std::uint64_t kept, std::uint64_t end) {
    std::vector<Word> out(kBw);
    for (std::uint64_t blk = 0; blk < end; ++blk) {
      ASSERT_TRUE(a.read(blk, out).ok());
      EXPECT_EQ(out, std::vector<Word>(kBw, blk < kept ? 100 + blk : 0)) << "block " << blk;
    }
  };

  ASSERT_TRUE(a.resize(30).ok());  // by key: [30, 48)
  EXPECT_EQ(core->cached_blocks(), 30u + 64u);
  ASSERT_TRUE(a.resize(4096).ok());
  expect_a(30, 48);

  ASSERT_TRUE(a.write(4000, std::vector<Word>(kBw, 9)).ok());
  ASSERT_TRUE(a.resize(10).ok());  // by walk: [10, 4001) is wider than the residents
  EXPECT_EQ(core->cached_blocks(), 10u + 64u);
  ASSERT_TRUE(a.resize(4096).ok());
  expect_a(10, 48);
  std::vector<Word> out(kBw, 1);
  ASSERT_TRUE(a.read(4000, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 0));

  for (std::uint64_t blk = 0; blk < 64; ++blk) {
    ASSERT_TRUE(b.read(blk, out).ok());
    EXPECT_EQ(out, std::vector<Word>(kBw, 500 + blk)) << "B's block " << blk;
  }
  EXPECT_EQ(b.stats().hits, 64u);
  EXPECT_EQ(b_ops->ops(), 0u) << "B's blocks left the cache";
}

TEST(CachingBackend, CapacityZeroIsRejectedAtHealth) {
  auto backend = caching_backend(mem_backend(), 0)(kBw);
  EXPECT_EQ(backend->health().code(), StatusCode::kInvalidArgument);
  std::vector<Word> out(kBw);
  EXPECT_FALSE(backend->resize(4).ok()) << "an unhealthy backend must fail every op";
}

TEST(CachingBackend, SplitPhaseForwardsMissesAndAbsorbsHitsOverRemote) {
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 1;
  // Six slots: the warm-up and the cold reads below fill the cache, so the
  // begun write of uncached blocks finds no free slot and goes around.
  auto cache_owner = caching_backend(remote_backend(ropts), 6)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(cache_owner.get());
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->max_inflight(), 1u)
      << "the cache must forward the inner store's split-phase window";
  ASSERT_TRUE(cache_owner->resize(8).ok());

  // Warm blocks 0..3, leave 4..7 cold.
  std::vector<std::uint64_t> warm = {0, 1, 2, 3};
  std::vector<Word> data(warm.size() * kBw, 11);
  ASSERT_TRUE(cache_owner->write_many(warm, data).ok());

  // Begin two batches back to back (both frames on the wire before either
  // completes): one all-hit (no inner frame), one miss (one inner frame).
  std::vector<Word> hit_out(warm.size() * kBw, 0);
  ASSERT_TRUE(cache_owner->begin_read_many(warm, hit_out).ok());
  const std::vector<std::uint64_t> cold = {4, 6};
  std::vector<Word> cold_out(cold.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(cold, cold_out).ok());
  // Hits were served at begin time already.
  EXPECT_EQ(hit_out, data);
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cold_out, std::vector<Word>(cold.size() * kBw, 0));  // fresh = zero
  ASSERT_EQ(cache->cached_blocks(), 6u) << "the cold misses fill the cache";

  // Split-phase writes: cached blocks absorbed, uncached written around.
  const std::uint64_t frames_before = server.frames_served();
  std::vector<Word> wdata(2 * kBw, 33);
  const std::vector<std::uint64_t> cached_ids = {0, 1};
  ASSERT_TRUE(cache_owner->begin_write_many(cached_ids, wdata).ok());  // all cached
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(server.frames_served(), frames_before)
      << "an all-hit begun write must not produce a wire frame";
  const std::vector<std::uint64_t> uncached_ids = {5, 7};
  ASSERT_TRUE(cache_owner->begin_write_many(uncached_ids, wdata).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(server.frames_served(), frames_before + 1);

  // The absorbed writes (both the warm-up 11s and the begun 33s) are visible
  // through the cache but never reached the server, which still reads zero.
  std::vector<Word> out(kBw);
  ASSERT_TRUE(cache_owner->read(0, out).ok());
  EXPECT_EQ(out, std::vector<Word>(kBw, 33));
  std::vector<Word> server_view;
  ASSERT_TRUE(server.peek_store(1, 0, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 0))
      << "an absorbed write leaked to the wire";
  // The write-around IS on the server.
  ASSERT_TRUE(server.peek_store(1, 5, &server_view).ok());
  EXPECT_EQ(server_view, std::vector<Word>(kBw, 33));
}

TEST(CachingBackend, CachedSessionSpendsFewerWireOpsOnReTouchingWork) {
  // End-to-end absorption proof at the Session level: one ORAM epoch's
  // access phase against a remote server, cached vs uncached -- identical
  // results, >= 30% fewer wire frames (the E13 bench claim, in miniature).
  std::uint64_t frames[2] = {0, 0};
  std::vector<std::uint64_t> values[2];
  for (int cached = 0; cached < 2; ++cached) {
    RemoteServer server;
    ASSERT_TRUE(server.health().ok());
    auto builder = Session::Builder()
                       .block_records(4)
                       .cache_records(64)
                       .seed(5)
                       .sharded(4)
                       .async_prefetch(true)
                       .pipeline_depth(4)
                       .remote(server.host(), server.port());
    if (cached) builder.cache(64);
    auto built = builder.build();
    ASSERT_TRUE(built.ok()) << built.status();
    Session session = std::move(built).value();
    auto oram = session.open_oram(64, oram::ShuffleKind::kRandomized, /*seed=*/23);
    ASSERT_TRUE(oram.ok()) << oram.status();
    const std::uint64_t before = server.frames_served();
    for (std::uint64_t i = 0; i + 1 < oram->epoch_length(); ++i) {
      auto v = oram->access((i * 5) % 64);
      ASSERT_TRUE(v.ok()) << v.status();
      values[cached].push_back(*v);
    }
    // Charge the cached run its deferred write-backs before counting, so
    // the comparison is end-to-end fair (same as bench_remote E13).
    session.client().device().drain();
    if (CachingBackend* cb = session.client().device().cache_backend()) {
      ASSERT_TRUE(cb->flush().ok());
    }
    frames[cached] = server.frames_served() - before;
  }
  EXPECT_EQ(values[0], values[1]) << "the cache changed ORAM results";
  EXPECT_LE(frames[1] * 10, frames[0] * 7)
      << "cached epoch spent " << frames[1] << " wire frames vs " << frames[0]
      << " uncached -- less than 30% saved";
}

TEST(CachingBackend, SplitPhaseMissesGainResidencyAtCompletion) {
  // Satellite regression: begun read misses used to scatter into the
  // caller's buffer and vanish -- a split-phase re-touch stream hit 0% while
  // the synchronous path hit 100%.  Misses must be inserted when their
  // completion lands, so the second begun pass over the same blocks is
  // all-hit (no inner frame).
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 2;
  auto cache_owner = caching_backend(remote_backend(ropts), 8)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(cache_owner.get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache_owner->resize(8).ok());

  const std::vector<std::uint64_t> ids = {0, 1, 2, 3};
  std::vector<Word> out(ids.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(ids, out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->stats().misses, 4u);
  EXPECT_EQ(cache->cached_blocks(), 4u)
      << "completed split-phase misses must gain cache residency";

  // The same blocks again, still through the split-phase face: all hits,
  // served at begin, no wire frame.
  const std::uint64_t frames_before = server.frames_served();
  ASSERT_TRUE(cache_owner->begin_read_many(ids, out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->stats().hits, 4u);
  EXPECT_EQ(server.frames_served(), frames_before)
      << "a re-touched begun read reached the wire";
  EXPECT_DOUBLE_EQ(cache->stats().hit_rate(), 0.5)
      << "split-phase re-touch must hit like the synchronous path";

  // Strided misses (positions interleaved with hits) insert too.
  const std::vector<std::uint64_t> mixed = {1, 5, 2, 7};  // 5 and 7 cold
  std::vector<Word> mixed_out(mixed.size() * kBw, 9);
  ASSERT_TRUE(cache_owner->begin_read_many(mixed, mixed_out).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());
  EXPECT_EQ(cache->cached_blocks(), 6u);

  // A begun write of uncached 4, then a begun read of it: the write takes
  // one of the two free slots, so the read hits it at begin.  (With no free
  // slot the write goes around, and a read completion behind it must NOT
  // grant residency -- WriteAroundInFlightDeniesResidency.)
  const std::vector<std::uint64_t> four = {4};
  std::vector<Word> wdata(kBw, 55);
  ASSERT_TRUE(cache_owner->begin_write_many(four, wdata).ok());
  std::vector<Word> readback(kBw, 0);
  ASSERT_TRUE(cache_owner->begin_read_many(four, readback).ok());
  ASSERT_TRUE(cache_owner->complete_oldest().ok());  // the write
  ASSERT_TRUE(cache_owner->complete_oldest().ok());  // the read
  EXPECT_EQ(readback, wdata) << "FIFO: the read began after the write";
  std::vector<Word> again(kBw, 0);
  ASSERT_TRUE(cache_owner->read(4, again).ok());
  EXPECT_EQ(again, wdata);
}

TEST(CachingBackend, WriteAroundInFlightDeniesResidency) {
  // A read miss of b is begun, then a write-around of b: the read's bytes
  // predate the write, so its completion must not cache them -- the copy
  // would be stale the moment the write lands below.  Four clean residents
  // fill the cache first, so the write finds no free slot and goes around.
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  const std::vector<std::uint64_t> fill = {8, 9, 10, 11};
  std::vector<Word> fill_out(fill.size() * kBw);
  ASSERT_TRUE(rig.backend->read_many(fill, fill_out).ok());
  ASSERT_TRUE(rig.counter->inner().write(3, rig.block(11)).ok());
  const std::vector<std::uint64_t> ids = {3};
  std::vector<Word> out(kBw, 0);
  ASSERT_TRUE(rig.backend->begin_read_many(ids, out).ok());
  const std::vector<Word> fresh = rig.block(22);
  const std::uint64_t ops = rig.counter->ops();
  ASSERT_TRUE(rig.backend->begin_write_many(ids, fresh).ok());  // 3 is uncached
  ASSERT_EQ(rig.counter->ops(), ops + 1) << "the write did not go around";

  ASSERT_TRUE(rig.backend->complete_oldest().ok());  // the read
  EXPECT_EQ(out, rig.block(11)) << "the read began before the write";
  EXPECT_EQ(rig.cache->stats().evictions, 0u)
      << "a block with a write-around in flight gained residency";
  EXPECT_EQ(rig.cache->cached_blocks(), 4u);

  ASSERT_TRUE(rig.backend->complete_oldest().ok());  // the write-around
  std::vector<Word> again(kBw, 0);
  ASSERT_TRUE(rig.backend->read(3, again).ok());
  EXPECT_EQ(again, fresh);
}

// ---------------------------------------------------------------------------
// Write-allocate: a begun write's uncached blocks take free slots (private
// core only) and are written around only once none is left.

/// `ids.size()` blocks of distinct contents, salted by position.
std::vector<Word> salted(const std::vector<std::uint64_t>& ids, Word salt) {
  std::vector<Word> in;
  for (std::size_t i = 0; i < ids.size(); ++i) in.insert(in.end(), kBw, salt + i);
  return in;
}

TEST(CachingBackend, BegunWriteTakesFreeSlotsWithoutInnerIo) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  const std::vector<std::uint64_t> ids = {3, 4, 9};
  const std::vector<Word> in = salted(ids, 50);
  ASSERT_TRUE(rig.backend->begin_write_many(ids, in).ok());
  ASSERT_TRUE(rig.backend->complete_oldest().ok());
  EXPECT_EQ(rig.counter->ops(), 0u) << "a write into free slots reached the inner store";
  EXPECT_EQ(rig.cache->cached_blocks(), 3u);
  EXPECT_EQ(rig.cache->stats().absorbed_writes, 3u);

  // Read back through the cache: all hits, still no inner op.
  std::vector<Word> out(in.size(), 0);
  ASSERT_TRUE(rig.backend->read_many(ids, out).ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(rig.cache->stats().hits, 3u);
  EXPECT_EQ(rig.counter->ops(), 0u);

  // The blocks are dirty: the store below reads zero until flush() writes
  // all three back in one frame.
  std::vector<Word> raw(kBw, 1);
  ASSERT_TRUE(rig.counter->inner().read(9, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0));
  ASSERT_TRUE(rig.cache->flush().ok());
  EXPECT_EQ(rig.counter->ops(), 1u);
  EXPECT_EQ(rig.cache->stats().writebacks, 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(rig.counter->inner().read(ids[i], raw).ok());
    EXPECT_EQ(raw, std::vector<Word>(kBw, 50 + i)) << "block " << ids[i];
  }
}

TEST(CachingBackend, BegunWriteWithAFullCacheGoesAroundWithoutEvicting) {
  // Four dirty residents fill the cache: evicting one would cost a
  // write-back.  The begun write absorbs its one cached block and sends the
  // two uncached ones around in one frame -- no eviction, no write-back.
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  for (std::uint64_t b = 0; b < 4; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(b)).ok());
  const CacheStats before = rig.cache->stats();
  const std::vector<std::uint64_t> ids = {2, 8, 12};
  const std::vector<Word> in = salted(ids, 60);
  ASSERT_TRUE(rig.backend->begin_write_many(ids, in).ok());
  ASSERT_TRUE(rig.backend->complete_oldest().ok());
  EXPECT_EQ(rig.counter->ops(), 1u) << "one write-around frame";
  EXPECT_EQ(rig.cache->stats().absorbed_writes, before.absorbed_writes + 1);
  EXPECT_EQ(rig.cache->stats().evictions, before.evictions);
  EXPECT_EQ(rig.cache->stats().writebacks, before.writebacks);
  EXPECT_EQ(rig.cache->cached_blocks(), 4u);
  std::vector<Word> raw(kBw);
  ASSERT_TRUE(rig.counter->inner().read(12, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 62));
  ASSERT_TRUE(rig.counter->inner().read(2, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0)) << "the cached block was written around";
}

TEST(CachingBackend, BegunWriteWithARepeatedIdKeepsTheLastWrite) {
  // Block 5 twice in one batch, with a free slot for every id (8) and with
  // one slot only (1): the first uncached id takes it, and a repeat follows
  // its first occurrence -- into the cache or around -- so the batch's last
  // bytes for each id win both in the cache and below it, and no id is
  // lost between the two.
  for (std::size_t cap : {8, 1}) {
    for (const std::vector<std::uint64_t>& ids :
         {std::vector<std::uint64_t>{5, 7, 5}, std::vector<std::uint64_t>{7, 5, 5},
          std::vector<std::uint64_t>{5, 5, 7}}) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + ", ids " + std::to_string(ids[0]) +
                   std::to_string(ids[1]) + std::to_string(ids[2]));
      CacheRig rig(cap);
      ASSERT_TRUE(rig.backend->resize(16).ok());
      const std::vector<Word> in = salted(ids, 70);
      ASSERT_TRUE(rig.backend->begin_write_many(ids, in).ok());
      ASSERT_TRUE(rig.backend->complete_oldest().ok());
      auto last = [&ids](std::uint64_t b) {
        Word salt = 0;
        for (std::size_t i = 0; i < ids.size(); ++i)
          if (ids[i] == b) salt = 70 + i;
        return std::vector<Word>(kBw, salt);
      };
      std::vector<Word> out(kBw);
      for (std::uint64_t b : {5, 7}) {
        ASSERT_TRUE(rig.backend->read(b, out).ok());
        EXPECT_EQ(out, last(b)) << "block " << b << " through the cache";
      }
      ASSERT_TRUE(rig.cache->flush().ok());
      for (std::uint64_t b : {5, 7}) {
        ASSERT_TRUE(rig.counter->inner().read(b, out).ok());
        EXPECT_EQ(out, last(b)) << "block " << b << " below the cache";
      }
    }
  }
}

TEST(CachingBackend, SharedCoreBegunWriteStillGoesAround) {
  // A shared core never write-allocates: another view's in-flight frames
  // make its dirty blocks ineligible victims, so free slots filled with
  // begun writes could leave a session with nothing to evict.
  auto core = make_shared_cache(8);
  CachingBackend a(test::counted_mem()(kBw), core);
  auto* a_ops = dynamic_cast<FaultyBackend*>(&a.inner());
  ASSERT_TRUE(a.resize(8).ok());
  const std::vector<std::uint64_t> ids = {1, 2};
  const std::vector<Word> in = salted(ids, 80);
  ASSERT_TRUE(a.begin_write_many(ids, in).ok());
  ASSERT_TRUE(a.complete_oldest().ok());
  EXPECT_EQ(a_ops->ops(), 1u) << "one write-around frame";
  EXPECT_EQ(core->cached_blocks(), 0u);
  std::vector<Word> raw(kBw);
  ASSERT_TRUE(a_ops->inner().read(2, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 81));
}

/// Begins and completes one read of uncached `block` through the split-phase
/// face, returning the inner ops it cost.
std::uint64_t split_phase_miss(CacheRig& rig, std::uint64_t block) {
  const std::uint64_t before = rig.counter->ops();
  const std::uint64_t ids[1] = {block};
  std::vector<Word> out(kBw);
  EXPECT_TRUE(rig.backend->begin_read_many(ids, out).ok());
  EXPECT_TRUE(rig.backend->complete_oldest().ok());
  return rig.counter->ops() - before;
}

TEST(CachingBackend, SplitPhaseCompletionEvictsTheColdestCleanResident) {
  // Probation, hot to cold: 3 (clean), 2 (dirty), 1 (clean), 0 (dirty).  The
  // coldest resident is dirty; the completion must pass over it to clean 1
  // and write nothing back.
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->write(0, rig.block(100)).ok());
  ASSERT_TRUE(rig.backend->read(1, out).ok());
  ASSERT_TRUE(rig.backend->write(2, rig.block(102)).ok());
  ASSERT_TRUE(rig.backend->read(3, out).ok());
  const CacheStats before = rig.cache->stats();

  EXPECT_EQ(split_phase_miss(rig, 8), 1u) << "only the miss's own frame";
  EXPECT_EQ(rig.cache->stats().evictions, before.evictions + 1);
  EXPECT_EQ(rig.cache->stats().writebacks, before.writebacks);
  EXPECT_EQ(rig.cache->stats().admission_rejects, before.admission_rejects);
  EXPECT_EQ(rig.cache->cached_blocks(), 4u);

  // 0, 2, 3 and 8 are resident (hits, no inner op); 1 was the victim.
  const std::uint64_t ops = rig.counter->ops();
  for (std::uint64_t b : {0, 2, 3, 8}) ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.counter->ops(), ops);
  EXPECT_EQ(rig.cache->stats().hits, before.hits + 4);
  ASSERT_TRUE(rig.backend->read(1, out).ok());
  EXPECT_EQ(rig.cache->stats().misses, before.misses + 2);
}

TEST(CachingBackend, SplitPhaseCompletionFallsBackToTheProtectedCleanTail) {
  // Every probation resident is dirty; the one clean block sits in the
  // protected segment and is the victim.
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  ASSERT_TRUE(rig.backend->read(0, out).ok());  // promoted, clean
  for (std::uint64_t b = 1; b < 4; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(b)).ok());
  const CacheStats before = rig.cache->stats();

  EXPECT_EQ(split_phase_miss(rig, 9), 1u);
  EXPECT_EQ(rig.cache->stats().evictions, before.evictions + 1);
  EXPECT_EQ(rig.cache->stats().writebacks, before.writebacks);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  EXPECT_EQ(rig.cache->stats().misses, before.misses + 2) << "0 was not the victim";
}

TEST(CachingBackend, SplitPhaseCompletionDeclinesWhenEveryResidentIsDirty) {
  CacheRig rig(4);
  ASSERT_TRUE(rig.backend->resize(16).ok());
  for (std::uint64_t b = 0; b < 4; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(b)).ok());
  const CacheStats before = rig.cache->stats();

  EXPECT_EQ(split_phase_miss(rig, 8), 1u) << "a declined grant must do no inner I/O";
  EXPECT_EQ(rig.cache->stats().admission_rejects, before.admission_rejects + 1);
  EXPECT_EQ(rig.cache->stats().evictions, before.evictions);
  EXPECT_EQ(rig.cache->stats().writebacks, before.writebacks);
  EXPECT_EQ(rig.cache->cached_blocks(), 4u);
}

TEST(CachingBackend, SharedCoreCompletionNeverEvictsAnotherViewsDirtyBlock) {
  auto core = make_shared_cache(2);
  auto a_owner = caching_backend(mem_backend(), core)(kBw);
  auto b_owner = caching_backend(mem_backend(), core)(kBw);
  auto* a = dynamic_cast<CachingBackend*>(a_owner.get());
  auto* b = dynamic_cast<CachingBackend*>(b_owner.get());
  ASSERT_TRUE(a_owner->resize(8).ok());
  ASSERT_TRUE(b_owner->resize(8).ok());
  std::vector<Word> out(kBw);
  const std::vector<Word> a_data(kBw, 7);

  // A's dirty block is the coldest resident; B's clean block is the victim.
  ASSERT_TRUE(a_owner->write(0, a_data).ok());
  ASSERT_TRUE(b_owner->read(5, out).ok());
  const std::uint64_t six[1] = {6};
  ASSERT_TRUE(b_owner->begin_read_many(six, out).ok());
  ASSERT_TRUE(b_owner->complete_oldest().ok());
  EXPECT_EQ(b->stats().evictions, 1u);
  EXPECT_EQ(a->stats().evictions, 0u);
  EXPECT_EQ(a->stats().writebacks, 0u);

  // B dirties its 6 through the split-phase face; with only dirty blocks
  // left, B's next grant is declined instead of writing A's block back.
  ASSERT_TRUE(b_owner->begin_write_many(six, std::vector<Word>(kBw, 8)).ok());
  const std::uint64_t seven[1] = {7};
  ASSERT_TRUE(b_owner->begin_read_many(seven, out).ok());
  ASSERT_TRUE(b_owner->complete_oldest().ok());
  ASSERT_TRUE(b_owner->complete_oldest().ok());
  EXPECT_EQ(b->stats().admission_rejects, 1u);
  EXPECT_EQ(a->stats().evictions, 0u);
  EXPECT_EQ(a->stats().writebacks, 0u);
  EXPECT_EQ(core->cached_blocks(), 2u);
  std::vector<Word> raw(kBw, 1);
  ASSERT_TRUE(a->inner().read(0, raw).ok());
  EXPECT_EQ(raw, std::vector<Word>(kBw, 0)) << "A's dirty block was written back";
  ASSERT_TRUE(a_owner->read(0, out).ok());
  EXPECT_EQ(out, a_data);
  EXPECT_EQ(a->stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Sequential readahead.

/// Gives blocks [0, n) of the store below the op counter distinct contents
/// (uncounted), so every read can be checked against the store's bytes.
void fill_below(CacheRig& rig, std::uint64_t n) {
  for (std::uint64_t b = 0; b < n; ++b)
    ASSERT_TRUE(rig.counter->inner().write(b, rig.block(1000 + b)).ok());
}

TEST(CachingBackend, AscendingSingleBlockReadsFetchAWindowPerInnerOp) {
  CacheRig rig(64);
  ASSERT_TRUE(rig.backend->resize(64).ok());
  fill_below(rig, 64);
  std::vector<Word> out(kBw);
  for (std::uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(rig.backend->read(b, out).ok());
    EXPECT_EQ(out, rig.block(1000 + b)) << "block " << b;
  }
  // Block 0 starts the stream; each later miss fetches a 16-block window.
  EXPECT_LE(rig.counter->ops(), 64u / 16 + 2);
  const CacheStats st = rig.cache->stats();
  EXPECT_EQ(st.misses, rig.counter->ops()) << "misses count demanded blocks only";
  EXPECT_EQ(st.hits + st.misses, 64u);
  EXPECT_GT(st.readahead_blocks, 0u);
  EXPECT_EQ(st.readahead_hits, st.readahead_blocks) << "a scan uses every block it read ahead";
}

TEST(CachingBackend, AscendingScanOverARemoteStoreSpendsOneFramePerWindow) {
  RemoteServer server;
  ASSERT_TRUE(server.health().ok()) << server.health();
  RemoteBackendOptions ropts;
  ropts.host = server.host();
  ropts.port = server.port();
  ropts.store_id = 3;
  auto cache_owner = caching_backend(remote_backend(ropts), 64)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(cache_owner.get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache_owner->resize(64).ok());
  std::vector<std::uint64_t> ids(64);
  std::vector<Word> data(64 * kBw);
  for (std::uint64_t b = 0; b < 64; ++b) {
    ids[b] = b;
    std::fill_n(data.begin() + b * kBw, kBw, 500 + b);
  }
  ASSERT_TRUE(cache->inner().write_many(ids, data).ok());  // below the cache

  const std::uint64_t frames_before = server.frames_served();
  std::vector<Word> out(kBw);
  for (std::uint64_t b = 0; b < 64; ++b) {
    ASSERT_TRUE(cache_owner->read(b, out).ok());
    EXPECT_EQ(out, std::vector<Word>(kBw, 500 + b)) << "block " << b;
  }
  EXPECT_LE(server.frames_served() - frames_before, 64u / 16 + 2);
}

TEST(CachingBackend, ScatteredSingleBlockReadsNeverReadAhead) {
  CacheRig rig(8);
  ASSERT_TRUE(rig.backend->resize(256).ok());
  fill_below(rig, 256);
  rng::Xoshiro rng(3);
  std::deque<std::uint64_t> recent;  // the last four blocks read
  std::vector<Word> out(kBw);
  for (int i = 0; i < 300; ++i) {
    std::uint64_t b = 0;
    do {
      b = rng.below(256);
    } while (b > 0 && std::count(recent.begin(), recent.end(), b - 1) > 0);
    ASSERT_TRUE(rig.backend->read(b, out).ok());
    EXPECT_EQ(out, rig.block(1000 + b));
    recent.push_front(b);
    if (recent.size() > 4) recent.pop_back();
  }
  EXPECT_EQ(rig.cache->stats().readahead_blocks, 0u);
  EXPECT_EQ(rig.counter->ops(), rig.cache->stats().misses);
}

TEST(CachingBackend, ReadaheadStopsAtTheViewSize) {
  // The inner store is exactly as large as the view, so a fetch past the
  // end would fail the read; the exact counts pin the truncated windows.
  CacheRig rig(64);
  ASSERT_TRUE(rig.backend->resize(20).ok());
  fill_below(rig, 20);
  std::vector<Word> out(kBw);
  for (std::uint64_t b = 0; b < 20; ++b) {
    ASSERT_TRUE(rig.backend->read(b, out).ok()) << "block " << b;
    EXPECT_EQ(out, rig.block(1000 + b));
  }
  // Demanded: 0 (starts the stream), 1 (fetches 1..16), 17 (fetches 17..19).
  EXPECT_EQ(rig.cache->stats().misses, 3u);
  EXPECT_EQ(rig.cache->stats().readahead_blocks, 17u);

  // After a shrink: a stream read ahead to 56 at size 64, the view shrinks
  // to 30, and a new stream runs into the new end.
  ASSERT_TRUE(rig.backend->resize(64).ok());
  ASSERT_TRUE(rig.backend->read(40, out).ok());
  ASSERT_TRUE(rig.backend->read(41, out).ok());  // fetches 41..56
  EXPECT_EQ(rig.cache->stats().readahead_blocks, 17u + 15);
  ASSERT_TRUE(rig.backend->resize(30).ok());
  fill_below(rig, 30);
  const CacheStats before = rig.cache->stats();
  for (std::uint64_t b = 20; b < 30; ++b) {
    ASSERT_TRUE(rig.backend->read(b, out).ok()) << "block " << b;
    EXPECT_EQ(out, rig.block(1000 + b));
  }
  // 20 starts the stream, 21 fetches 21..29.
  EXPECT_EQ(rig.cache->stats().misses - before.misses, 2u);
  EXPECT_EQ(rig.cache->stats().readahead_blocks - before.readahead_blocks, 8u);
}

TEST(CachingBackend, PromotedHotSetSurvivesAReadAheadScan) {
  CacheRig rig(16);
  ASSERT_TRUE(rig.backend->resize(256).ok());
  fill_below(rig, 256);
  std::vector<Word> out(kBw);
  const std::uint64_t hot[] = {200, 202, 204, 206};  // no two form a stream
  for (int pass = 0; pass < 2; ++pass)  // the re-reference promotes
    for (std::uint64_t b : hot) ASSERT_TRUE(rig.backend->read(b, out).ok());

  for (std::uint64_t b = 0; b < 64; ++b) {  // 4x capacity, one pass
    ASSERT_TRUE(rig.backend->read(b, out).ok());
    EXPECT_EQ(out, rig.block(1000 + b));
  }
  EXPECT_GT(rig.cache->stats().readahead_blocks, 0u);
  std::uint64_t ops = rig.counter->ops();
  for (std::uint64_t b : hot) ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.counter->ops(), ops) << "the scan evicted the protected hot set";

  // No scan block reached protected: a second, disjoint scan flushes
  // probation, and then every block of the first scan's tail misses (read
  // descending, so no stream forms).
  for (std::uint64_t b = 100; b < 132; ++b) ASSERT_TRUE(rig.backend->read(b, out).ok());
  const std::uint64_t misses = rig.cache->stats().misses;
  for (std::uint64_t b = 63; b >= 48; --b) ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.cache->stats().misses - misses, 16u) << "a scan block was protected";
  ops = rig.counter->ops();
  for (std::uint64_t b : hot) ASSERT_TRUE(rig.backend->read(b, out).ok());
  EXPECT_EQ(rig.counter->ops(), ops);
}

TEST(CachingBackend, ReadAheadBlockOverwrittenBeforeItsReadReturnsTheNewBytes) {
  CacheRig rig(16);
  ASSERT_TRUE(rig.backend->resize(64).ok());
  fill_below(rig, 64);
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  ASSERT_TRUE(rig.backend->read(1, out).ok());  // reads 2..4 ahead
  ASSERT_EQ(rig.cache->stats().readahead_blocks, 3u);

  const std::vector<Word> sync_bytes = rig.block(33), begun_bytes = rig.block(44);
  ASSERT_TRUE(rig.backend->write(3, sync_bytes).ok());
  const std::uint64_t four[1] = {4};
  ASSERT_TRUE(rig.backend->begin_write_many(four, begun_bytes).ok());
  ASSERT_TRUE(rig.backend->complete_oldest().ok());
  EXPECT_EQ(rig.cache->stats().absorbed_writes, 2u) << "both writes hit read-ahead blocks";

  ASSERT_TRUE(rig.backend->read(2, out).ok());
  EXPECT_EQ(out, rig.block(1002));
  ASSERT_TRUE(rig.backend->read(3, out).ok());
  EXPECT_EQ(out, sync_bytes);
  ASSERT_TRUE(rig.backend->read(4, out).ok());
  EXPECT_EQ(out, begun_bytes);
  EXPECT_EQ(rig.cache->stats().readahead_hits, 3u);
  ASSERT_TRUE(rig.cache->flush().ok());
  std::vector<Word> raw(kBw);
  ASSERT_TRUE(rig.counter->inner().read(3, raw).ok());
  EXPECT_EQ(raw, sync_bytes);
  ASSERT_TRUE(rig.counter->inner().read(4, raw).ok());
  EXPECT_EQ(raw, begun_bytes);
}

TEST(CachingBackend, ReadaheadSpendsOnlyFreeAndCleanProbationSlots) {
  // 60 dirty residents (the coldest), 4 free slots, then a stream: the
  // readahead may take the 3 free slots left after block 1 plus clean block
  // 0, never a dirty victim.
  CacheRig rig(64);
  ASSERT_TRUE(rig.backend->resize(512).ok());
  fill_below(rig, 64);
  for (std::uint64_t b = 200; b < 260; ++b)
    ASSERT_TRUE(rig.backend->write(b, rig.block(b)).ok());
  std::vector<Word> out(kBw);
  ASSERT_TRUE(rig.backend->read(0, out).ok());
  ASSERT_TRUE(rig.backend->read(1, out).ok());
  EXPECT_EQ(out, rig.block(1001));
  EXPECT_EQ(rig.cache->stats().readahead_blocks, 3u);
  EXPECT_EQ(rig.cache->stats().evictions, 1u) << "clean block 0 is the one victim";
  EXPECT_EQ(rig.cache->stats().writeback_ops, 0u) << "a readahead wrote a dirty victim back";
  EXPECT_EQ(rig.counter->ops(), 2u);
  for (std::uint64_t b = 2; b < 5; ++b) {
    ASSERT_TRUE(rig.backend->read(b, out).ok());
    EXPECT_EQ(out, rig.block(1000 + b));
  }
  EXPECT_EQ(rig.counter->ops(), 2u);
}

TEST(CachingBackend, SharedCoreReadaheadNeverTouchesAnotherViewsDirtyBlocks) {
  // Core of 32 (probation share 8).  B's 20 dirty blocks are the coldest
  // residents; A's stream reads ahead past them, evicting only its own
  // clean blocks, and nothing reaches B's inner store.
  auto core = make_shared_cache(32);
  CachingBackend a(test::counted_mem()(kBw), core);
  CachingBackend b(test::counted_mem()(kBw), core);
  auto* a_ops = dynamic_cast<FaultyBackend*>(&a.inner());
  auto* b_ops = dynamic_cast<FaultyBackend*>(&b.inner());
  ASSERT_TRUE(a.resize(64).ok());
  ASSERT_TRUE(b.resize(32).ok());
  for (std::uint64_t blk = 0; blk < 20; ++blk)
    ASSERT_TRUE(b.write(blk, std::vector<Word>(kBw, 70 + blk)).ok());
  for (std::uint64_t blk = 0; blk < 64; ++blk)
    ASSERT_TRUE(a_ops->inner().write(blk, std::vector<Word>(kBw, 900 + blk)).ok());

  std::vector<Word> out(kBw);
  for (std::uint64_t blk = 0; blk <= 16; ++blk) {
    ASSERT_TRUE(a.read(blk, out).ok());
    EXPECT_EQ(out, std::vector<Word>(kBw, 900 + blk));
  }
  // Demanded 0, then 1 (fetches 1..8 into free slots), then 9 (fetches
  // 9..16: 3 free slots, then A's clean 0..4).
  EXPECT_EQ(a_ops->ops(), 3u);
  EXPECT_EQ(a.stats().readahead_blocks, 14u);
  EXPECT_EQ(a.stats().evictions, 5u);
  EXPECT_EQ(b.stats().evictions, 0u);
  EXPECT_EQ(b.stats().writebacks, 0u);
  EXPECT_EQ(b_ops->ops(), 0u) << "A's readahead issued I/O through B's store";
  for (std::uint64_t blk = 0; blk < 20; ++blk) {
    ASSERT_TRUE(b.read(blk, out).ok());
    EXPECT_EQ(out, std::vector<Word>(kBw, 70 + blk));
  }
  EXPECT_EQ(b_ops->ops(), 0u) << "one of B's dirty blocks was evicted";
}

// ---------------------------------------------------------------------------
// Differential test against a reference model.

using Blk = std::vector<Word>;

/// The cache's decisions, spelled out the slow way: segments are lists of
/// keys, and every victim search walks them from the cold end.  Inner stores
/// are mem (begun frames apply at begin, in order), one per view.  The
/// readahead and write-allocate rules are restated from the CachingBackend
/// class comment.
class RefCache {
 public:
  struct Op {
    std::vector<std::uint64_t> around;  // a write's write-around ids
    std::vector<std::uint64_t> miss;    // a read's misses
    std::vector<Blk> fetched;           // the misses' bytes, read at begin
    std::vector<Blk> out;               // a read's expected bytes
    CacheStats credit;                  // credited at completion
  };
  struct View {
    std::vector<Blk> store;
    std::deque<Op> pending;
    std::deque<std::vector<Blk>> done;  // completed ops' expected bytes, FIFO
    CacheStats st;
    std::vector<std::uint64_t> streams;  // last block per stream, most recent first
  };
  /// `private_core`: the views write-allocate begun writes (cache(blocks));
  /// views of a shared core write around.
  RefCache(std::size_t cap, CachePolicy policy, int views, std::size_t nblocks,
           bool private_core)
      : cap_(cap), prot_cap_(std::max<std::size_t>(1, cap * 3 / 4)),
        lru_(policy == CachePolicy::kLru), write_allocate_(private_core), v_(views) {
    for (View& w : v_) w.store.assign(nblocks, Blk(kBw, 0));
  }
  View& view(int v) { return v_[v]; }
  std::size_t residents() const { return ents_.size(); }

  void begin_read(int v, const std::vector<std::uint64_t>& ids) {
    View& w = v_[v];
    Op op;
    for (std::uint64_t b : ids) {
      if (Ent* e = find(v, b)) {
        op.out.push_back(e->data);
        touch(key(v, b));
        ++op.credit.hits;
      } else {
        op.miss.push_back(b);
        op.fetched.push_back(w.store[b]);
        op.out.push_back(w.store[b]);
        ++op.credit.misses;
      }
    }
    w.pending.push_back(std::move(op));
  }
  void begin_write(int v, const std::vector<std::uint64_t>& ids, const std::vector<Blk>& in) {
    View& w = v_[v];
    Op op;
    // Write-allocate: the first distinct uncached ids take the free slots;
    // every occurrence of an allocated id is absorbed, the rest go around.
    std::set<std::uint64_t> alloc;
    const std::size_t free = write_allocate_ ? cap_ - ents_.size() : 0;
    for (std::uint64_t b : ids)
      if (find(v, b) == nullptr && alloc.size() < free) alloc.insert(b);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (Ent* e = find(v, ids[i])) {
        e->data = in[i];
        e->dirty = true;
        touch(key(v, ids[i]));
        ++op.credit.absorbed_writes;
      } else if (alloc.count(ids[i]) != 0) {
        Ent& fresh = insert(v, ids[i], in[i]);  // probation front, no touch
        fresh.dirty = true;
        ++op.credit.absorbed_writes;
      } else {
        op.around.push_back(ids[i]);
        w.store[ids[i]] = in[i];
      }
    }
    w.pending.push_back(std::move(op));
  }
  void complete(int v) {
    View& w = v_[v];
    if (w.pending.empty()) return;
    const Op op = std::move(w.pending.front());
    w.pending.pop_front();
    w.done.push_back(op.out);
    w.st.hits += op.credit.hits;
    w.st.misses += op.credit.misses;
    w.st.absorbed_writes += op.credit.absorbed_writes;
    for (std::size_t j = 0; j < op.miss.size(); ++j) {
      if (find(v, op.miss[j]) != nullptr) continue;
      bool around = false;
      for (const Op& p : w.pending)
        around = around || std::count(p.around.begin(), p.around.end(), op.miss[j]) > 0;
      if (around) continue;
      if (ents_.size() == cap_ && !evict(/*clean_only=*/true, {})) {
        ++w.st.admission_rejects;
        continue;
      }
      insert(v, op.miss[j], op.fetched[j]);
    }
  }
  bool read(int v, const std::vector<std::uint64_t>& ids, std::vector<Blk>* out) {
    drain(v);
    View& w = v_[v];
    if (ids.size() == 1 && advance_stream(w, ids[0]) && find(v, ids[0]) == nullptr)
      return read_ahead(v, ids[0], out);
    std::vector<std::uint64_t> miss;
    out->clear();
    std::uint64_t hits = 0;
    for (std::uint64_t b : ids) {
      out->push_back(w.store[b]);
      if (Ent* e = find(v, b)) {
        out->back() = e->data;
        touch(key(v, b));
        ++hits;
      } else {
        miss.push_back(b);
      }
    }
    for (std::uint64_t b : miss) {
      if (find(v, b) != nullptr) continue;
      const Blk fetched = w.store[b];
      if (ents_.size() == cap_ && !evict(false, {})) return false;
      insert(v, b, fetched);
    }
    w.st.hits += hits;
    w.st.misses += miss.size();
    return true;
  }
  bool write(int v, const std::vector<std::uint64_t>& ids, const std::vector<Blk>& in) {
    drain(v);
    View& w = v_[v];
    std::set<std::uint64_t> unique, pinned;
    std::size_t fresh = 0;
    for (std::uint64_t b : ids)
      if (unique.insert(b).second && find(v, b) == nullptr) ++fresh;
    const bool fits = unique.size() <= cap_;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (fits && find(v, ids[i]) != nullptr) {
        if (!find(v, ids[i])->ahead) touch(key(v, ids[i]));
        pinned.insert(key(v, ids[i]));
      } else if (!fits && find(v, ids[i]) == nullptr) {
        w.store[ids[i]] = in[i];  // written through
      }
    }
    while (fits && cap_ - ents_.size() < fresh)
      if (!evict(false, pinned)) return false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Ent* e = find(v, ids[i]);
      if (e == nullptr && !fits) continue;
      if (e == nullptr) {
        e = &insert(v, ids[i], {});
      } else {
        touch(key(v, ids[i]));
      }
      e->data = in[i];
      e->dirty = true;
      ++w.st.absorbed_writes;
    }
    return true;
  }
  void flush(int v) {
    drain(v);
    std::uint64_t n = 0;
    for (auto& [k, e] : ents_)
      if (e.owner == v && e.dirty) {
        v_[v].store[block_of(k)] = e.data;
        e.dirty = false;
        ++n;
      }
    if (n > 0) v_[v].st.writebacks += n, ++v_[v].st.writeback_ops;
  }
  void resize(int v, std::size_t n) {
    drain(v);
    std::vector<std::uint64_t> doomed;
    for (const auto& [k, e] : ents_)
      if (e.owner == v && block_of(k) >= n) doomed.push_back(k);
    for (std::uint64_t k : doomed) erase(k);
    v_[v].store.resize(n, Blk(kBw, 0));
    v_[v].streams.clear();
  }

 private:
  struct Ent {
    int owner = 0;
    Blk data;
    bool dirty = false, prot = false, ahead = false;
  };
  static std::uint64_t key(int v, std::uint64_t b) {
    return (static_cast<std::uint64_t>(v) << 48) | b;
  }
  static std::uint64_t block_of(std::uint64_t k) { return k & ((std::uint64_t{1} << 48) - 1); }
  void drain(int v) {
    while (!v_[v].pending.empty()) complete(v);
  }
  Ent* find(int v, std::uint64_t b) {
    auto it = ents_.find(key(v, b));
    return it == ents_.end() ? nullptr : &it->second;
  }
  std::list<std::uint64_t>& seg(const Ent& e) { return e.prot ? prot_ : prob_; }
  void touch(std::uint64_t k) {
    Ent& e = ents_.at(k);
    seg(e).remove(k);
    if (e.ahead) {  // first reference: probation front, no promotion
      e.ahead = false;
      ++v_[e.owner].st.readahead_hits;
      prob_.push_front(k);
      return;
    }
    if (!lru_) e.prot = true;
    seg(e).push_front(k);
    if (prot_.size() > prot_cap_) {
      const std::uint64_t d = prot_.back();
      prot_.pop_back();
      ents_.at(d).prot = false;
      prob_.push_front(d);
    }
  }
  Ent& insert(int v, std::uint64_t b, Blk data) {
    prob_.push_front(key(v, b));
    return ents_[key(v, b)] = Ent{v, std::move(data)};
  }
  void erase(std::uint64_t k) {
    seg(ents_.at(k)).remove(k);
    ents_.erase(k);
  }
  /// A single-block read of `b` advances the stream ending at b-1, else
  /// replaces the least recently advanced of 4; true for the former.
  bool advance_stream(View& w, std::uint64_t b) {
    auto it = std::find(w.streams.begin(), w.streams.end(), b - 1);
    const bool continues = b > 0 && it != w.streams.end();
    if (continues) {
      w.streams.erase(it);
    } else if (w.streams.size() == 4) {
      w.streams.pop_back();
    }
    w.streams.insert(w.streams.begin(), b);
    return continues;
  }
  /// One inner read of b and the non-resident blocks of (b, b+16) below the
  /// view's size, as many as the free slots plus clean probation residents
  /// (and the probation share) allow with b taking one; b is admitted like
  /// any miss, the rest each take a free slot or the coldest clean
  /// probation resident.
  bool read_ahead(int v, std::uint64_t b, std::vector<Blk>* out) {
    View& w = v_[v];
    std::size_t budget = cap_ - ents_.size();
    for (std::uint64_t k : prob_) budget += ents_.at(k).dirty ? 0 : 1;
    budget = std::min(budget, cap_ - prot_cap_);
    std::vector<std::uint64_t> ids = {b};
    for (std::uint64_t x = b + 1; x < b + 16 && x < w.store.size() && ids.size() < budget; ++x)
      if (find(v, x) == nullptr) ids.push_back(x);
    *out = {w.store[b]};
    if (ents_.size() == cap_ && !evict(false, {})) return false;
    insert(v, b, w.store[b]);
    ++w.st.misses;
    for (std::size_t j = 1; j < ids.size(); ++j) {
      if (ents_.size() == cap_ && !evict(true, {}, /*probation_only=*/true)) break;
      insert(v, ids[j], w.store[ids[j]]).ahead = true;
      ++w.st.readahead_blocks;
    }
    return true;
  }
  /// The original victim walk: probation then protected, cold end first.
  bool evict(bool clean_only, const std::set<std::uint64_t>& pinned,
             bool probation_only = false) {
    for (std::list<std::uint64_t>* s : {&prob_, &prot_})
      for (auto it = s->rbegin(); it != s->rend() && !(probation_only && s == &prot_); ++it) {
        const std::uint64_t k = *it;
        Ent& e = ents_.at(k);
        if (pinned.count(k) != 0 || (e.dirty && clean_only)) continue;
        if (e.dirty && !v_[e.owner].pending.empty()) continue;
        if (e.dirty) write_back(k);
        if (s == &prob_ && !lru_ && !clean_only) ++v_[e.owner].st.admission_rejects;
        ++v_[e.owner].st.evictions;
        erase(k);
        return true;
      }
    return false;
  }
  void write_back(std::uint64_t k) {
    auto dirty = [this](std::uint64_t x) {
      auto it = ents_.find(x);
      return it != ents_.end() && it->second.dirty;
    };
    std::uint64_t lo = k, hi = k;
    while (block_of(lo) > 0 && dirty(lo - 1)) --lo;
    while (dirty(hi + 1)) ++hi;
    View& owner = v_[ents_.at(k).owner];
    for (std::uint64_t x = lo; x <= hi; ++x) {
      owner.store[block_of(x)] = ents_.at(x).data;
      ents_.at(x).dirty = false;
    }
    owner.st.writebacks += hi - lo + 1;
    ++owner.st.writeback_ops;
  }

  const std::size_t cap_, prot_cap_;
  const bool lru_;
  const bool write_allocate_;
  std::vector<View> v_;
  std::map<std::uint64_t, Ent> ents_;
  std::list<std::uint64_t> prob_, prot_;  // front = hot
};

void expect_same_stats(const CacheStats& got, const CacheStats& want, const std::string& at) {
  EXPECT_EQ(got.hits, want.hits) << at;
  EXPECT_EQ(got.misses, want.misses) << at;
  EXPECT_EQ(got.absorbed_writes, want.absorbed_writes) << at;
  EXPECT_EQ(got.evictions, want.evictions) << at;
  EXPECT_EQ(got.admission_rejects, want.admission_rejects) << at;
  EXPECT_EQ(got.writebacks, want.writebacks) << at;
  EXPECT_EQ(got.writeback_ops, want.writeback_ops) << at;
  EXPECT_EQ(got.readahead_blocks, want.readahead_blocks) << at;
  EXPECT_EQ(got.readahead_hits, want.readahead_hits) << at;
}

/// Drives `views` cache views (one private core, or views of one shared
/// core) and the reference with the same seeded op sequence, comparing
/// stats, residency and bytes after every step and the inner stores at the
/// end.  The mix includes runs of ascending single-block sync reads, so the
/// readahead rule fires in every seed.
void run_differential(std::uint64_t seed, int views, CachePolicy policy,
                      std::size_t kCap = 6, std::size_t kBlocks = 24) {
  constexpr std::size_t kSteps = 3000;
  SCOPED_TRACE("seed " + std::to_string(seed) + ", views " + std::to_string(views) +
               ", capacity " + std::to_string(kCap));
  rng::Xoshiro rng(seed);
  RefCache ref(kCap, policy, views, kBlocks, /*private_core=*/views == 1);
  SharedCacheHandle core = make_shared_cache(kCap, policy);
  std::vector<std::unique_ptr<StorageBackend>> be;
  for (int v = 0; v < views; ++v) {
    be.push_back(views == 1 ? caching_backend(mem_backend(), kCap, policy)(kBw)
                            : caching_backend(mem_backend(), core)(kBw));
    ASSERT_TRUE(be.back()->resize(kBlocks).ok());
  }
  std::vector<std::uint64_t> size(views, kBlocks);
  std::vector<std::deque<std::vector<Word>>> outs(views);  // begun reads' buffers
  auto cache = [&](int v) { return dynamic_cast<CachingBackend*>(be[v].get()); };
  auto flat = [](const std::vector<Blk>& blks) {
    std::vector<Word> f;
    for (const Blk& b : blks) f.insert(f.end(), b.begin(), b.end());
    return f;
  };
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::string at = "step " + std::to_string(step);
    const int v = static_cast<int>(rng.below(views));
    StorageBackend& b = *be[v];
    // A batch: a run of consecutive ids or scattered ones (duplicates allowed).
    std::vector<std::uint64_t> ids(1 + rng.below(rng.below(4) == 0 ? 8 : 3));
    const std::uint64_t start = rng.below(size[v]);
    const bool run = rng.below(2) == 0;
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = run ? (start + i) % size[v] : rng.below(size[v]);
    std::vector<Blk> data(ids.size());
    for (Blk& d : data) d.assign(kBw, rng.next());
    const std::uint64_t pick = ref.view(v).pending.size() >= 4 ? 8 : rng.below(22);
    if (pick < 4) {
      outs[v].emplace_back(ids.size() * kBw, 0);
      ASSERT_TRUE(b.begin_read_many(ids, outs[v].back()).ok()) << at;
      ref.begin_read(v, ids);
    } else if (pick < 8) {
      outs[v].emplace_back();
      ASSERT_TRUE(b.begin_write_many(ids, flat(data)).ok()) << at;
      ref.begin_write(v, ids, data);
    } else if (pick < 12) {
      ASSERT_TRUE(b.complete_oldest().ok()) << at;
      ref.complete(v);
    } else if (pick < 15) {
      std::vector<Word> got(ids.size() * kBw);
      std::vector<Blk> want;
      const bool ok = ref.read(v, ids, &want);
      ASSERT_EQ(b.read_many(ids, got).ok(), ok) << at;
      if (ok) {
        EXPECT_EQ(got, flat(want)) << at;
      }
    } else if (pick < 18) {
      const bool ok = ref.write(v, ids, data);
      ASSERT_EQ(b.write_many(ids, flat(data)).ok(), ok) << at;
    } else if (pick < 19) {
      ASSERT_TRUE(cache(v)->flush().ok()) << at;
      ref.flush(v);
    } else if (pick < 21) {
      // A sequential scan: ascending single-block sync reads.
      const std::uint64_t len = 2 + rng.below(std::max<std::size_t>(8, kCap / 2));
      for (std::uint64_t blk = start; blk < std::min<std::uint64_t>(start + len, size[v]);
           ++blk) {
        std::vector<Word> got(kBw);
        std::vector<Blk> want;
        const bool ok = ref.read(v, {blk}, &want);
        ASSERT_EQ(b.read(blk, got).ok(), ok) << at << ", block " << blk;
        if (ok) {
          EXPECT_EQ(got, want[0]) << at << ", block " << blk;
        }
      }
    } else {
      size[v] = kBlocks / 2 + rng.below(kBlocks / 2 + 1);
      ASSERT_TRUE(b.resize(size[v]).ok()) << at;
      ref.resize(v, size[v]);
    }
    for (int u = 0; u < views; ++u) {
      // Completed reads' buffers hold the bytes the reference predicted.
      for (; !ref.view(u).done.empty(); ref.view(u).done.pop_front()) {
        ASSERT_FALSE(outs[u].empty()) << at;
        EXPECT_EQ(outs[u].front(), flat(ref.view(u).done.front())) << at;
        outs[u].pop_front();
      }
      expect_same_stats(cache(u)->stats(), ref.view(u).st, at);
    }
    ASSERT_EQ(cache(0)->cached_blocks(), ref.residents()) << at;
    if (::testing::Test::HasFailure()) return;
  }
  std::uint64_t ahead = 0;
  for (int v = 0; v < views; ++v) ahead += cache(v)->stats().readahead_blocks;
  EXPECT_GT(ahead, 0u) << "the step mix never triggered a readahead";
  for (int v = 0; v < views; ++v) {
    ASSERT_TRUE(cache(v)->flush().ok());
    ref.flush(v);
    for (std::uint64_t blk = 0; blk < size[v]; ++blk) {
      std::vector<Word> raw(kBw);
      ASSERT_TRUE(cache(v)->inner().read(blk, raw).ok());
      EXPECT_EQ(raw, ref.view(v).store[blk]) << "view " << v << " block " << blk;
    }
  }
}

TEST(CachingBackendModel, PrivateCacheMatchesTheReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    run_differential(seed, 1, CachePolicy::kScanResistant);
}

TEST(CachingBackendModel, PrivateLruCacheMatchesTheReference) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) run_differential(seed, 1, CachePolicy::kLru);
}

TEST(CachingBackendModel, SharedCoreViewsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    run_differential(seed, 2, CachePolicy::kScanResistant);
}

TEST(CachingBackendModel, WideCacheReadsAheadAFullWindow) {
  // 64 blocks: the probation share no longer binds, so a readahead fetches
  // up to the whole 16-block window.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    run_differential(seed, 1, CachePolicy::kScanResistant, 64, 160);
    run_differential(seed, 2, CachePolicy::kScanResistant, 64, 160);
    run_differential(seed, 1, CachePolicy::kLru, 64, 160);
  }
}

TEST(CachingBackend, FlushFailureIsCountedAndLatchedInHealth) {
  // Satellite regression: the destructor's best-effort flush used to drop
  // write-back errors on the floor -- dirty data silently never reached the
  // store.  A failed flush must bump CacheStats::flush_failures and latch
  // the error in health().
  FaultProfile fp;
  fp.seed = 3;
  fp.fail_rate = 1.0;        // every op fails...
  fp.fail_times = 1000000;   // ...and keeps failing past any retry budget
  fp.fail_reads = false;     // only write-backs are interesting here
  auto backend = caching_backend(faulty_backend(mem_backend(), fp), 4)(kBw);
  auto* cache = dynamic_cast<CachingBackend*>(backend.get());
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(backend->resize(4).ok());
  ASSERT_TRUE(backend->write(1, std::vector<Word>(kBw, 7)).ok());  // absorbed
  ASSERT_TRUE(cache->health().ok());

  Status st = cache->flush();
  EXPECT_EQ(st.code(), StatusCode::kIo);
  EXPECT_EQ(cache->stats().flush_failures, 1u);
  EXPECT_EQ(cache->health().code(), StatusCode::kIo)
      << "a failed flush must latch into health()";

  // The latch keeps the FIRST error and the count keeps climbing.
  EXPECT_EQ(cache->flush().code(), StatusCode::kIo);
  EXPECT_EQ(cache->stats().flush_failures, 2u);
}

TEST(SessionBuilderCache, FlushStorageSurfacesWriteBackFailures) {
  // The Session-level face of the same satellite: flush_storage() returns
  // the write-back failure and storage_health() stays non-ok after it.
  FaultProfile fp;
  fp.seed = 3;
  fp.fail_rate = 1.0;
  fp.fail_times = 1000000;
  fp.fail_reads = false;
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .backend(faulty_backend(nullptr, fp))
                   .cache(16)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  ASSERT_TRUE(session.storage_health().ok());
  auto data = session.outsource(test::random_records(16, 3));
  ASSERT_TRUE(data.ok());
  // outsource pokes through the cache; the dirty blocks are still absorbed.
  EXPECT_EQ(session.flush_storage().code(), StatusCode::kIo);
  EXPECT_EQ(session.storage_health().code(), StatusCode::kIo);
}

TEST(SessionBuilderCache, RejectsCacheZero) {
  auto built = Session::Builder().block_records(4).cache_records(64).cache(0).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilderCache, ComposesAndBuilds) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .cache(16)
                   .sharded(2)
                   .async_prefetch(true)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(64, 3));
  ASSERT_TRUE(data.ok());
  auto rep = session.sort(*data, 7);
  ASSERT_TRUE(rep.ok()) << rep.status();
  auto out = session.retrieve(*data);
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 1; i < out->size(); ++i)
    EXPECT_LE((*out)[i - 1].key, (*out)[i].key);
}

}  // namespace
}  // namespace oem
