// ComputePool: barrier semantics, exception propagation, inline fallback,
// oversubscription, and the load-bearing invariant of the whole compute
// plane -- chunked results (and the device trace) are byte-identical at any
// lane count.
#include "extmem/compute_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/session.h"
#include "test_util.h"

namespace oem {
namespace {

TEST(ComputePool, WaitIsABarrier) {
  ComputePool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(done.load(), 64);
  // The pool is reusable after a barrier.
  for (int i = 0; i < 16; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(done.load(), 80);
}

TEST(ComputePool, WorkerExceptionPropagatesAndPoolSurvives) {
  ComputePool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran, i] {
      if (i == 7) throw std::runtime_error("lane boom");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // All tasks still retired (the barrier drained the queue), and the pool
  // keeps working afterwards.
  EXPECT_EQ(ran.load(), 31);
  std::atomic<int> after{0};
  pool.submit([&after] { ++after; });
  pool.wait();
  EXPECT_EQ(after.load(), 1);
}

TEST(ComputePool, ZeroAndOneRunInline) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    ComputePool pool(n);
    EXPECT_EQ(pool.threads(), 1u);
    int x = 0;
    pool.submit([&x] { x = 42; });
    EXPECT_EQ(x, 42);  // inline: the side effect is visible before wait()
    // Inline exceptions still surface at the barrier, like pooled ones.
    pool.submit([] { throw std::runtime_error("inline boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait();  // error consumed; next barrier is clean
  }
}

TEST(ComputePool, ParallelForPartitionsExactly) {
  // Oversubscribed: far more lanes than this machine has cores, and far more
  // chunks than lanes.  Every index must be visited exactly once.
  ComputePool pool(32);
  const std::size_t count = 10000;
  std::vector<std::atomic<int>> hits(count);
  pool.parallel_for(count, 7, [&](std::size_t first, std::size_t last) {
    ASSERT_LT(first, last);
    ASSERT_LE(last, count);
    for (std::size_t i = first; i < last; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < count; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ComputePool, ParallelForGrainZeroSplitsAcrossLanes) {
  ComputePool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(1000, 0, [&](std::size_t first, std::size_t last) {
    total.fetch_add(last - first, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 1000u);
  pool.parallel_for(0, 0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ComputePool, ParallelForRunsItsChunksConcurrently) {
  // One chunk per lane, and every chunk waits until all of them have
  // entered: only a pool that really runs its chunks at once gets every
  // chunk past the latch.  The wait is bounded by one shared deadline, so a
  // pool that ran the chunks one after another fails here instead of
  // hanging.
  constexpr std::size_t kLanes = 4;
  ComputePool pool(kLanes);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t entered = 0;
  std::size_t released = 0;  // chunks that saw every lane inside at once
  std::set<std::thread::id> lanes;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  pool.parallel_for(kLanes, 1, [&](std::size_t, std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    lanes.insert(std::this_thread::get_id());
    if (++entered == kLanes) cv.notify_all();
    if (cv.wait_until(lock, deadline, [&] { return entered == kLanes; })) ++released;
  });
  EXPECT_EQ(released, kLanes) << "parallel_for ran its chunks serially";
  EXPECT_GE(lanes.size(), 2u) << "every chunk ran on the same thread";
}

TEST(ComputePool, ParallelForExceptionPropagates) {
  for (std::size_t n : {std::size_t{1}, std::size_t{4}}) {
    ComputePool pool(n);
    EXPECT_THROW(pool.parallel_for(100, 10,
                                   [&](std::size_t first, std::size_t) {
                                     if (first >= 50) throw std::runtime_error("chunk boom");
                                   }),
                 std::runtime_error);
  }
}

// The invariant the compute plane hangs on: an end-to-end Session workload
// produces byte-identical results, a byte-identical device trace AND a
// byte-identical ciphertext image in Bob's store at any compute_threads
// value.  (io_engine_test pins the trace matrix across backends; this pins
// the thread axis on a sort.)  B=8 keeps every crypto window inline on the
// master; B=32 with m=128 gives the sort's merge windows (128 blocks, 8,448
// wire words) enough words to fan the crypto out across the lanes.
void expect_lane_count_invariant(std::size_t B, std::uint64_t M, std::uint64_t N) {
  const std::vector<Record> input = test::random_records(N, 99);
  std::vector<TraceEvent> ref_events;
  std::vector<Record> ref_out;
  std::vector<Word> ref_image;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    SCOPED_TRACE("B=" + std::to_string(B) + " threads=" + std::to_string(threads));
    auto built = Session::Builder()
                     .block_records(B)
                     .cache_records(M)
                     .seed(7)
                     .compute_threads(threads)
                     .build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Session s = std::move(built).value();
    auto a = s.outsource(input);
    ASSERT_TRUE(a.ok());
    s.trace().set_record_events(true);
    s.trace().reset();
    auto rep = s.sort(*a);
    ASSERT_TRUE(rep.ok()) << rep.status().ToString();
    auto out = s.retrieve(*a);
    ASSERT_TRUE(out.ok());
    // Every stored word, scratch included, as Bob holds it.
    BlockDevice& dev = s.client().device();
    std::vector<Word> image(dev.num_blocks() * dev.block_words());
    dev.read_raw_range(0, dev.num_blocks(), image);
    if (threads == 1) {
      ref_events = s.trace().events();
      ref_out = *out;
      ref_image = std::move(image);
      ASSERT_TRUE(std::is_sorted(ref_out.begin(), ref_out.end(), RecordLess{}));
    } else {
      EXPECT_TRUE(s.trace().events() == ref_events) << "trace diverged";
      EXPECT_EQ(*out, ref_out) << "output diverged";
      EXPECT_TRUE(image == ref_image) << "stored ciphertext diverged";
    }
  }
}

TEST(ComputePool, SessionResultsAndTraceIdenticalAtAnyLaneCount) {
  expect_lane_count_invariant(/*B=*/8, /*M=*/256, /*N=*/4096);
  expect_lane_count_invariant(/*B=*/32, /*M=*/4096, /*N=*/16384);
}

TEST(ComputePool, BuilderRejectsAbsurdLaneCount) {
  auto built = Session::Builder().compute_threads(257).build();
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace oem
