// oem::Session facade tests: builder validation, Result<T> plumbing, and the
// typed algorithm entry points on all three backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "api/session.h"
#include "test_util.h"

namespace oem {
namespace {

Session make_session(std::size_t B = 4, std::uint64_t M = 64) {
  auto built = Session::Builder().block_records(B).cache_records(M).seed(3).build();
  EXPECT_TRUE(built.ok()) << built.status();
  return std::move(built).value();
}

TEST(SessionBuilder, RejectsInvalidParameters) {
  auto no_b = Session::Builder().block_records(0).cache_records(64).build();
  ASSERT_FALSE(no_b.ok());
  EXPECT_EQ(no_b.status().code(), StatusCode::kInvalidArgument);

  auto small_m = Session::Builder().block_records(16).cache_records(16).build();
  ASSERT_FALSE(small_m.ok());
  EXPECT_EQ(small_m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(small_m.status().message().find("M >= 2B"), std::string::npos);
}

TEST(SessionBuilder, RejectsIncompatibleCombos) {
  auto base = [] {
    return Session::Builder().block_records(4).cache_records(64);
  };

  // sharded(0): striping over zero stores is meaningless.
  auto zero_shards = base().sharded(0).build();
  ASSERT_FALSE(zero_shards.ok());
  EXPECT_EQ(zero_shards.status().code(), StatusCode::kInvalidArgument);

  // pipeline_depth(0): the window ring needs at least one slot.
  auto zero_depth = base().pipeline_depth(0).build();
  ASSERT_FALSE(zero_depth.ok());
  EXPECT_EQ(zero_depth.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero_depth.status().message().find("pipeline_depth"), std::string::npos);

  // remote() + file_backed(path): the client must not dictate the server's
  // storage -- regardless of call order.
  FileBackendOptions file_opts;
  file_opts.path = "/tmp/oem_conflict.bin";
  auto remote_then_file =
      base().remote("127.0.0.1", 4242).file_backed(file_opts).build();
  ASSERT_FALSE(remote_then_file.ok());
  EXPECT_EQ(remote_then_file.status().code(), StatusCode::kInvalidArgument);
  auto file_then_remote =
      base().file_backed(file_opts).remote("127.0.0.1", 4242).build();
  ASSERT_FALSE(file_then_remote.ok());
  EXPECT_EQ(file_then_remote.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file_then_remote.status().message().find("remote()"), std::string::npos);

  // remote() + backend(...): same reasoning.
  auto remote_custom =
      base().backend(mem_backend()).remote("127.0.0.1", 4242).build();
  ASSERT_FALSE(remote_custom.ok());
  EXPECT_EQ(remote_custom.status().code(), StatusCode::kInvalidArgument);

  // Any explicit local storage selection conflicts, path or not: a silent
  // fallback to a temp file/RAM would discard the named endpoint.
  auto remote_tempfile = base().remote("127.0.0.1", 4242).file_backed().build();
  ASSERT_FALSE(remote_tempfile.ok());
  EXPECT_EQ(remote_tempfile.status().code(), StatusCode::kInvalidArgument);
  auto remote_mem = base().in_memory().remote("127.0.0.1", 4242).build();
  ASSERT_FALSE(remote_mem.ok());
  EXPECT_EQ(remote_mem.status().code(), StatusCode::kInvalidArgument);

  // remote() needs a real endpoint.
  auto no_host = base().remote("", 4242).build();
  ASSERT_FALSE(no_host.ok());
  EXPECT_EQ(no_host.status().code(), StatusCode::kInvalidArgument);
  auto no_port = base().remote("127.0.0.1", 0).build();
  ASSERT_FALSE(no_port.ok());
  EXPECT_EQ(no_port.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionBuilder, RemoteConnectFailureSurfacesAsIo) {
  // Port 1 refuses connections: build() must probe and report kIo, exactly
  // like an unopenable file path.
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .remote("127.0.0.1", 1)
                   .build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kIo);
}

TEST(SessionBuilder, SurfacesBackendOpenFailureAsIo) {
  FileBackendOptions opts;
  opts.path = "/nonexistent-dir-oem/blocks.bin";
  auto built =
      Session::Builder().block_records(4).cache_records(32).file_backed(opts).build();
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kIo);
}

TEST(SessionBuilder, BuildsOnAllBackends) {
  for (int kind = 0; kind < 2; ++kind) {
    Session::Builder b;
    b.block_records(4).cache_records(64);
    if (kind == 1) b.file_backed();
    auto built = b.build();
    ASSERT_TRUE(built.ok()) << built.status();
    EXPECT_STREQ(built->backend_name(), kind == 1 ? "file" : "mem");
  }
}

TEST(Session, OutsourceSortRetrieveRoundTrip) {
  Session session = make_session();
  const auto input = test::random_records(256, 9);
  auto data = session.outsource(input);
  ASSERT_TRUE(data.ok()) << data.status();

  session.reset_stats();
  auto report = session.sort(*data, /*seed=*/11);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->ios, 0u);
  EXPECT_EQ(report->ios, session.stats().total());

  auto sorted = session.retrieve(*data);
  ASSERT_TRUE(sorted.ok());
  std::vector<Record> expect = input;
  std::sort(expect.begin(), expect.end(), RecordLess{});
  // Theorem 21 sorts by key (ties in arbitrary value order).
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ((*sorted)[i].key, expect[i].key);
}

TEST(Session, SelectAndQuantilesAgreeWithSortedTruth) {
  Session session = make_session(4, 256);
  const std::uint64_t N = 512;
  const auto input = test::random_records(N, 21);
  auto data = session.outsource(input);
  ASSERT_TRUE(data.ok());

  std::vector<Record> truth = input;
  std::sort(truth.begin(), truth.end(), RecordLess{});

  auto med = session.select(*data, N / 2, /*seed=*/5, core::practical_select_options());
  ASSERT_TRUE(med.ok()) << med.status();
  EXPECT_EQ(med->key, truth[N / 2 - 1].key);

  core::QuantilesOptions qopts;
  qopts.paper_intervals = false;
  auto quarts = session.quantiles(*data, 3, /*seed=*/7, qopts);
  ASSERT_TRUE(quarts.ok()) << quarts.status();
  const auto ranks = core::quantile_ranks(N, 3);
  ASSERT_EQ(quarts->size(), 3u);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ((*quarts)[j].key, truth[ranks[j] - 1].key);

  EXPECT_EQ(session.select(*data, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.select(*data, N + 1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.quantiles(*data, 0).status().code(), StatusCode::kInvalidArgument);
  // q = 2^64-1 must not overflow the q+1 <= N precondition check.
  EXPECT_EQ(session.quantiles(*data, ~std::uint64_t{0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, CompactKeepsNonEmptyRecordsInOrder) {
  Session session = make_session();
  std::vector<Record> input(256);
  std::vector<Record> expect;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (i % 3 == 0) {
      input[i] = {i, i * 10};
      expect.push_back(input[i]);
    }  // else: empty record
  }
  auto data = session.outsource(input);
  ASSERT_TRUE(data.ok());
  const std::uint64_t arena_before = session.client().device().num_blocks();
  auto report = session.compact(*data);
  ASSERT_TRUE(report.ok()) << report.status();
  // compact must reclaim its scratch: only the result array (n+1 blocks)
  // may remain in the arena, call after call.
  EXPECT_EQ(session.client().device().num_blocks(),
            arena_before + data->num_blocks() + 1);
  EXPECT_EQ(report->kept, expect.size());
  EXPECT_EQ(report->out.num_records(), expect.size());
  auto dense = session.retrieve(report->out);
  ASSERT_TRUE(dense.ok());
  ASSERT_EQ(dense->size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ((*dense)[i], expect[i]) << "order must be preserved at " << i;
  // The result handle spans its whole allocation, so discard reclaims it.
  EXPECT_TRUE(session.discard(report->out).ok());
  EXPECT_EQ(session.client().device().num_blocks(), arena_before);
}

TEST(Session, OramAccessesVerifyOnFileBackend) {
  auto built = Session::Builder()
                   .block_records(8)
                   .cache_records(8 * 64)
                   .file_backed()
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  auto oram = session.open_oram(256, oram::ShuffleKind::kDeterministic, 5);
  ASSERT_TRUE(oram.ok()) << oram.status();
  rng::Xoshiro g(13);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t idx = g.below(256);
    auto got = oram->access(idx);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, oram->expected_value(idx));
  }
  EXPECT_GE(oram->stats().reshuffles, 64u / oram->epoch_length());
}

TEST(Session, SortIdenticalAcrossBackendsViaFacade) {
  const auto input = test::random_records(192, 4);
  std::vector<std::uint64_t> hashes;
  std::vector<std::vector<Record>> outputs;
  for (int kind = 0; kind < 2; ++kind) {
    Session::Builder b;
    b.block_records(4).cache_records(64).seed(3);
    if (kind == 1) b.file_backed();
    auto built = b.build();
    ASSERT_TRUE(built.ok());
    Session session = std::move(built).value();
    auto data = session.outsource(input);
    ASSERT_TRUE(data.ok());
    session.trace().reset();
    auto report = session.sort(*data, /*seed=*/11);
    ASSERT_TRUE(report.ok()) << report.status();
    hashes.push_back(session.trace().hash());
    outputs.push_back(std::move(session.retrieve(*data)).value());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(Session, CompactArenaBoundsStorageAcrossSortLoop) {
  // The sort allocates scratch append-only; once the call returns that
  // scratch is discarded, and compact_arena() hands it back to the backend.
  // A service sorting in a loop therefore keeps a bounded footprint instead
  // of growing per call.
  auto built = Session::Builder().block_records(4).cache_records(64).seed(9).build();
  ASSERT_TRUE(built.ok());
  Session session = std::move(built).value();
  auto data = session.outsource(test::random_records(160, 6));
  ASSERT_TRUE(data.ok());
  const std::uint64_t baseline = session.arena_blocks();

  std::uint64_t after_first_compact = 0;
  for (int iter = 0; iter < 4; ++iter) {
    auto report = session.sort(*data);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(session.arena_blocks(), baseline)
        << "sort scratch should show up before compaction";
    const std::uint64_t freed = session.compact_arena();
    EXPECT_GT(freed, 0u);
    if (iter == 0) {
      after_first_compact = session.arena_blocks();
    } else {
      EXPECT_EQ(session.arena_blocks(), after_first_compact)
          << "iteration " << iter << ": the sort loop must not grow storage";
    }
  }
  EXPECT_EQ(session.arena_blocks(), baseline)
      << "all sort scratch is trailing and must be reclaimed";

  // The data is still intact and sorted after compaction.
  auto out = session.retrieve(*data);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(test::padded_sorted(*out));
}

TEST(Session, ShardedPrefetchSessionSortsCorrectly) {
  auto built = Session::Builder()
                   .block_records(4)
                   .cache_records(64)
                   .seed(3)
                   .sharded(4)
                   .async_prefetch(true)
                   .build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session session = std::move(built).value();
  EXPECT_STREQ(session.backend_name(), "async");
  auto input = test::random_records(192, 8);
  auto data = session.outsource(input);
  ASSERT_TRUE(data.ok());
  auto report = session.sort(*data);
  ASSERT_TRUE(report.ok()) << report.status();
  auto out = session.retrieve(*data);
  ASSERT_TRUE(out.ok());
  std::sort(input.begin(), input.end(), RecordLess{});
  input.resize(out->size(), Record{});
  std::sort(input.begin(), input.end(), RecordLess{});
  EXPECT_EQ(*out, input);
}

TEST(ResultType, CarriesValueOrStatus) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_EQ(ok_result.value_or(0), 42);

  Result<int> err_result(Status::Io("disk on fire"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kIo);
  EXPECT_EQ(err_result.value_or(-1), -1);
}

TEST(StatusType, IoCodeAndPrinting) {
  const Status st = Status::Io("pread failed");
  EXPECT_EQ(st.code(), StatusCode::kIo);
  EXPECT_EQ(st.ToString(), "IO: pread failed");
  std::ostringstream os;
  os << st;
  EXPECT_EQ(os.str(), "IO: pread failed");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  std::ostringstream os2;
  os2 << Status::WhpFailure("unlucky");
  EXPECT_EQ(os2.str(), "WHP_FAILURE: unlucky");
}

}  // namespace
}  // namespace oem
