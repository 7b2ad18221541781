// Backend-conformance suite: every StorageBackend must behave identically
// from the client's point of view, and obliviousness must be
// backend-independent (the trace Bob sees is a function of the algorithm and
// its public parameters, never of where the blocks physically live).
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/oblivious_sort.h"
#include "extmem/backend.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "test_util.h"

namespace oem {
namespace {

/// One loopback server shared by every remote conformance construction; each
/// construction claims a fresh store id so tests never alias server state.
std::shared_ptr<RemoteServer> conformance_server() {
  static std::shared_ptr<RemoteServer> server = std::make_shared<RemoteServer>();
  return server;
}

BackendFactory remote_conformance_backend() {
  return [server = conformance_server()](
             std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    static std::atomic<std::uint64_t> next_store{1u << 20};
    RemoteBackendOptions opts;
    opts.host = server->host();
    opts.port = server->port();
    opts.store_id = next_store.fetch_add(1);
    return remote_backend(opts)(block_words);
  };
}

/// A CachingBackend view that drags a sibling view of the SAME CacheCore
/// along for its whole lifetime: conformance must hold while another
/// "session" owns residency in the shared slab (cross-view eviction
/// pressure, namespaced keys, per-view write-back routing).
struct SharedCacheViewWithSibling : CachingBackend {
  SharedCacheViewWithSibling(std::size_t bw, SharedCacheHandle core,
                             std::unique_ptr<StorageBackend> sib)
      : CachingBackend(mem_backend()(bw), std::move(core)),
        sibling(std::move(sib)) {}
  std::unique_ptr<StorageBackend> sibling;
};

BackendFactory shared_cache_two_sessions_backend() {
  return [](std::size_t bw) -> std::unique_ptr<StorageBackend> {
    SharedCacheHandle core = make_shared_cache(4);
    auto sib = std::make_unique<CachingBackend>(mem_backend()(bw), core);
    // Park dirty sibling blocks in the shared slab so the view under test
    // starts out competing with another session's residency.
    (void)sib->resize(8);
    const std::vector<Word> w(bw, 0xAB);
    for (std::uint64_t b = 0; b < 4; ++b) (void)sib->write(b, w);
    return std::make_unique<SharedCacheViewWithSibling>(bw, std::move(core),
                                                        std::move(sib));
  };
}

struct BackendCase {
  std::string name;
  BackendFactory factory;
};

std::vector<BackendCase> conformance_cases() {
  return {
      {"mem", mem_backend()},
      {"file", file_backend()},
      {"sharded4_mem", sharded_backend(mem_backend(), 4)},
      {"sharded3_file", sharded_backend(file_backend(), 3)},
      {"async_mem", async_backend(mem_backend())},
      {"async_sharded4", async_backend(sharded_backend(mem_backend(), 4))},
      {"cache_mem", caching_backend(mem_backend(), 8)},
      // A 2-block cache evicts on nearly every batch: the write-back and
      // shrink/regrow paths run constantly under the conformance contract.
      {"cache_tiny", caching_backend(mem_backend(), 2)},
      {"cache_sharded4", caching_backend(sharded_backend(mem_backend(), 4), 6)},
      {"async_cache_sharded4",
       async_backend(caching_backend(sharded_backend(mem_backend(), 4), 8))},
      // A write-back cache over the wire: split-phase misses and eviction
      // write-backs become pipelined remote frames.
      {"cache_remote", caching_backend(remote_conformance_backend(), 6)},
      // io_uring + O_DIRECT path (falls back to the threaded engine on
      // kernels/filesystems that refuse; conformance must hold either way).
      {"direct_file", direct_file_backend()},
      {"direct_file_sharded4", sharded_backend(direct_file_backend(), 4)},
      {"shared_cache_2sessions", shared_cache_two_sessions_backend()},
  };
}

class BackendConformance : public ::testing::TestWithParam<int> {
 protected:
  BackendConformance() {
    auto cases = conformance_cases();
    name_ = cases[GetParam()].name;
    backend_ = cases[GetParam()].factory(kWordsPerBlock);
  }
  static constexpr std::size_t kWordsPerBlock = 5;

  std::vector<Word> pattern(std::uint64_t block, Word salt = 0) const {
    std::vector<Word> w(kWordsPerBlock);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = block * 1000 + i + salt;
    return w;
  }

  std::string name_;
  std::unique_ptr<StorageBackend> backend_;
};

TEST_P(BackendConformance, RoundTripAndZeroInit) {
  ASSERT_TRUE(backend_->health().ok()) << backend_->health();
  ASSERT_TRUE(backend_->resize(4).ok());
  EXPECT_EQ(backend_->num_blocks(), 4u);

  std::vector<Word> out(kWordsPerBlock, 123);
  ASSERT_TRUE(backend_->read(3, out).ok()) << name_;
  for (Word w : out) EXPECT_EQ(w, 0u) << "fresh blocks must read as zero";

  const std::vector<Word> in = pattern(2);
  ASSERT_TRUE(backend_->write(2, in).ok());
  ASSERT_TRUE(backend_->read(2, out).ok());
  EXPECT_EQ(out, in);
}

TEST_P(BackendConformance, ResizePreservesPrefix) {
  ASSERT_TRUE(backend_->resize(8).ok());
  for (std::uint64_t b = 0; b < 8; ++b)
    ASSERT_TRUE(backend_->write(b, pattern(b)).ok());
  // Grow: old blocks survive, new blocks are zero.
  ASSERT_TRUE(backend_->resize(16).ok());
  std::vector<Word> out(kWordsPerBlock);
  for (std::uint64_t b = 0; b < 8; ++b) {
    ASSERT_TRUE(backend_->read(b, out).ok());
    EXPECT_EQ(out, pattern(b)) << name_ << " block " << b;
  }
  ASSERT_TRUE(backend_->read(12, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u);
  // Shrink then regrow: the shrunk-away region must be zero again.
  ASSERT_TRUE(backend_->resize(4).ok());
  EXPECT_FALSE(backend_->read(4, out).ok()) << "beyond capacity must fail";
  ASSERT_TRUE(backend_->resize(8).ok());
  ASSERT_TRUE(backend_->read(6, out).ok());
  for (Word w : out) EXPECT_EQ(w, 0u) << "shrunk-away blocks must not resurface";
  ASSERT_TRUE(backend_->read(2, out).ok());
  EXPECT_EQ(out, pattern(2));
}

TEST_P(BackendConformance, BatchedMatchesSingles) {
  ASSERT_TRUE(backend_->resize(10).ok());
  // Scattered, partly contiguous ids: exercises run coalescing.
  const std::vector<std::uint64_t> ids = {7, 2, 3, 4, 9, 0};
  std::vector<Word> flat(ids.size() * kWordsPerBlock);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto w = pattern(ids[i], /*salt=*/77);
    std::copy(w.begin(), w.end(), flat.begin() + i * kWordsPerBlock);
  }
  ASSERT_TRUE(backend_->write_many(ids, flat).ok());

  // Every block lands where the matching single-block read expects it.
  std::vector<Word> out(kWordsPerBlock);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(backend_->read(ids[i], out).ok());
    EXPECT_EQ(out, pattern(ids[i], 77)) << name_ << " block " << ids[i];
  }

  // And read_many returns the same flat buffer.
  std::vector<Word> flat2(flat.size(), 0);
  ASSERT_TRUE(backend_->read_many(ids, flat2).ok());
  EXPECT_EQ(flat2, flat);

  // Empty batches are no-ops.
  EXPECT_TRUE(backend_->read_many({}, {}).ok());
  EXPECT_TRUE(backend_->write_many({}, {}).ok());
}

TEST_P(BackendConformance, RejectsBadArguments) {
  ASSERT_TRUE(backend_->resize(4).ok());
  std::vector<Word> out(kWordsPerBlock);
  EXPECT_EQ(backend_->read(4, out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend_->write(17, out).code(), StatusCode::kInvalidArgument);
  std::vector<Word> wrong(kWordsPerBlock - 1);
  EXPECT_EQ(backend_->read(0, wrong).code(), StatusCode::kInvalidArgument);
  const std::vector<std::uint64_t> ids = {0, 1};
  std::vector<Word> short_buf(kWordsPerBlock);  // needs 2 blocks' worth
  EXPECT_EQ(backend_->read_many(ids, short_buf).code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Range(0, static_cast<int>(conformance_cases().size())),
                         [](const auto& info) {
                           return conformance_cases()[info.param].name;
                         });

// ---------------------------------------------------------------------------
// Backend-specific behavior.

TEST(FileBackend, CoalescesContiguousRunsIntoSingleSyscalls) {
  FileBackend fb(4);
  ASSERT_TRUE(fb.health().ok()) << fb.health();
  ASSERT_TRUE(fb.resize(64).ok());
  const std::uint64_t before = fb.syscalls();
  std::vector<std::uint64_t> ids(32);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 8;  // one run
  std::vector<Word> buf(ids.size() * 4, 42);
  ASSERT_TRUE(fb.write_many(ids, buf).ok());
  EXPECT_EQ(fb.syscalls() - before, 1u) << "32 contiguous blocks, one pwrite";
  ASSERT_TRUE(fb.read_many(ids, buf).ok());
  EXPECT_EQ(fb.syscalls() - before, 2u) << "...and one pread";
  // A scattered batch costs one syscall per run, not per block.
  const std::vector<std::uint64_t> scattered = {0, 1, 2, 40, 41, 50};
  std::vector<Word> buf2(scattered.size() * 4);
  ASSERT_TRUE(fb.read_many(scattered, buf2).ok());
  EXPECT_EQ(fb.syscalls() - before, 5u) << "3 runs -> 3 more syscalls";
}

TEST(FileBackend, TempFileIsRemovedOnDestruction) {
  std::string path;
  {
    FileBackend fb(2);
    ASSERT_TRUE(fb.health().ok());
    path = fb.path();
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << "backing file must exist";
  }
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0) << "temp file must be cleaned up";
}

TEST(FileBackend, UnopenablePathReportsIoStatus) {
  FileBackendOptions opts;
  opts.path = "/nonexistent-dir-oem/blocks.bin";
  FileBackend fb(2, opts);
  EXPECT_EQ(fb.health().code(), StatusCode::kIo);
  std::vector<Word> out(2);
  EXPECT_EQ(fb.read(0, out).code(), StatusCode::kIo);
}

// ---------------------------------------------------------------------------
// The tentpole guarantee: obliviousness is backend-independent.  The same
// algorithm with the same public parameters and seed produces the
// byte-identical access trace on every conformance backend, and the same
// result.

TEST(BackendTraceEquivalence, ObliviousSortIdenticalTraceOnAllBackends) {
  const std::size_t B = 4;
  const std::uint64_t M = 16 * B;
  const std::uint64_t N = 96 * B;
  const auto input = test::random_records(N, 7);

  struct RunResult {
    std::string name;
    std::uint64_t trace_hash = 0;
    std::uint64_t trace_len = 0;
    std::uint64_t reads = 0, writes = 0;
    std::vector<Record> sorted;
  };
  std::vector<RunResult> runs;

  for (const auto& c : conformance_cases()) {
    ClientParams params = test::params(B, M, /*seed=*/3);
    params.backend = c.factory;
    Client client(params);
    ExtArray a = client.alloc(N, Client::Init::kUninit);
    client.poke(a, input);
    client.reset_stats();
    client.device().trace().reset();
    auto res = core::oblivious_sort(client, a, /*seed=*/11);
    ASSERT_TRUE(res.status.ok()) << c.name << ": " << res.status;
    RunResult r;
    r.name = c.name;
    r.trace_hash = client.device().trace().hash();
    r.trace_len = client.device().trace().size();
    r.reads = client.stats().reads;
    r.writes = client.stats().writes;
    r.sorted = client.peek(a);
    runs.push_back(std::move(r));
  }

  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].trace_hash, runs[0].trace_hash)
        << runs[i].name << " vs " << runs[0].name
        << ": obliviousness must be backend-independent";
    EXPECT_EQ(runs[i].trace_len, runs[0].trace_len) << runs[i].name;
    EXPECT_EQ(runs[i].reads, runs[0].reads) << runs[i].name;
    EXPECT_EQ(runs[i].writes, runs[0].writes) << runs[i].name;
    EXPECT_EQ(runs[i].sorted, runs[0].sorted) << runs[i].name;
  }
  // And the sort actually sorted.
  for (std::size_t i = 1; i < runs[0].sorted.size(); ++i)
    EXPECT_LE(runs[0].sorted[i - 1].key, runs[0].sorted[i].key);
}

// Client-level batched helpers must leave the identical trace as the
// per-block path they replaced (same events, same order).
TEST(BackendTraceEquivalence, BatchedRecordIoTraceMatchesPerBlock) {
  const std::size_t B = 4;
  const auto input = test::random_records(37, 5);
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{8}}) {
    ClientParams params = test::params(B, 64, 3);
    params.io_batch_blocks = batch;
    Client client(params);
    ExtArray a = client.alloc(64, Client::Init::kEmpty);
    client.device().trace().reset();
    std::vector<Record> buf(input);
    client.write_records(a, 3, buf);              // partial head/tail
    std::vector<Record> out(41);
    client.read_records(a, 1, out);               // partial head
    client.read_records(a, 4, std::span<Record>(out).subspan(0, 24));  // aligned
    hashes.push_back(client.device().trace().hash());
  }
  EXPECT_EQ(hashes[0], hashes[1])
      << "batch window must not change the adversary's view";
}

}  // namespace
}  // namespace oem
