// E15: multicore compute -- the worker pool inside run_block_pipeline plus
// parallel block crypto, measured end to end.
//
// Two workloads run over a fast sharded(4)+prefetch mem store at pipeline
// depth 4, at 1/2/4/8 compute lanes each, on real compute:
//
//   sort   ext_oblivious_sort (run formation + merge-split network); the
//          merge levels are chunk-parallel, so lanes split every window
//   oram   SqrtOram construction + one full epoch of accesses (the epoch
//          reshuffle: retag/sort/rewrite scans, all chunk-parallel)
//
// EXIT-CODE-ENFORCED claim: block I/O counts {reads, writes, read_ops,
// write_ops} and the device trace hash are identical across ALL lane counts
// for both workloads -- the compute plane never touches Bob's view.  These
// are counts, so the check holds under any sanitizer and on any core count.
// Wall times and speedups are informational (real compute scales only with
// real cores); ComputePool.ParallelForRunsItsChunksConcurrently checks that
// the lanes really overlap.
//
//   bench_compute_parallel [--records=16384] [--block=16] [--cache=2048]
//                          [--oram-items=4096] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "oram/sqrt_oram.h"
#include "sortnet/external_sort.h"
#include "util/flags.h"
#include "util/table.h"

namespace oem {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunResult {
  double wall_ms = 0;
  double compute_ms = 0;
  double crypto_ms = 0;
  IoStats stats;
  std::uint64_t trace_hash = 0;
};

bool same_io(const IoStats& a, const IoStats& b) {
  return a.reads == b.reads && a.writes == b.writes && a.read_ops == b.read_ops &&
         a.write_ops == b.write_ops;
}

/// The fast I/O-plane stack every row runs on: async(sharded(mem x 4)),
/// depth 4 -- deep enough that the compute phase, not the store, is the
/// bottleneck.
ClientParams grid_params(std::size_t B, std::uint64_t M, std::size_t threads) {
  ClientParams p;
  p.block_records = B;
  p.cache_records = M;
  p.seed = 42;
  p.backend = async_backend(sharded_backend(mem_backend(), 4));
  p.pipeline_depth = 4;
  p.compute_threads = threads;
  return p;
}

RunResult run_sort(std::size_t B, std::uint64_t M, std::uint64_t records,
                   std::size_t threads) {
  Client client(grid_params(B, M, threads));
  ExtArray a = client.alloc(records, Client::Init::kUninit);
  client.poke(a, bench::random_records(records, 7));
  client.device().trace().reset();
  client.reset_stats();
  const auto t0 = Clock::now();
  sortnet::ext_oblivious_sort(client, a);
  RunResult r;
  r.wall_ms = ms_between(t0, Clock::now());
  r.stats = client.stats();
  r.compute_ms = r.stats.compute_ns / 1e6;
  r.crypto_ms = r.stats.crypto_ns / 1e6;
  r.trace_hash = client.device().trace().hash();
  const auto out = client.peek(a);
  if (!std::is_sorted(out.begin(), out.end(), RecordLess{})) {
    std::fprintf(stderr, "sort grid: output NOT sorted at threads=%zu\n", threads);
    std::exit(2);
  }
  return r;
}

RunResult run_oram(std::size_t B, std::uint64_t M, std::uint64_t items,
                   std::size_t threads) {
  Client client(grid_params(B, M, threads));
  client.device().trace().reset();
  const auto t0 = Clock::now();
  oram::SqrtOram o(client, items, oram::ShuffleKind::kDeterministic, /*seed=*/5);
  // One full epoch: the last access triggers the epoch reshuffle.
  for (std::uint64_t i = 0; i < o.epoch_length(); ++i) {
    const std::uint64_t idx = (i * 13) % items;
    if (o.access(idx) != o.expected_value(idx)) {
      std::fprintf(stderr, "oram grid: wrong value at threads=%zu\n", threads);
      std::exit(2);
    }
  }
  RunResult r;
  r.wall_ms = ms_between(t0, Clock::now());
  r.stats = client.stats();
  r.compute_ms = r.stats.compute_ns / 1e6;
  r.crypto_ms = r.stats.crypto_ns / 1e6;
  r.trace_hash = client.device().trace().hash();
  return r;
}

}  // namespace
}  // namespace oem

int main(int argc, char** argv) {
  using namespace oem;
  Flags flags(argc, argv);
  const std::uint64_t records = flags.get_u64("records", 16384);
  const std::size_t B = static_cast<std::size_t>(flags.get_u64("block", 16));
  const std::uint64_t M = flags.get_u64("cache", 2048);
  const std::uint64_t oram_items = flags.get_u64("oram-items", 4096);
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();

  bench::banner("E15", "multicore compute: worker pool + parallel crypto");
  bench::note("stack: async(sharded(mem x 4)), depth 4, real compute; wall "
              "times and speedups are informational");

  const std::vector<std::size_t> lanes = {1, 2, 4, 8};
  bool claim_met = true;
  std::string json_rows;
  Table t({"workload", "threads", "wall ms", "compute ms", "crypto ms",
           "speedup", "blk reads", "blk writes"});
  // One workload at every lane count: a table row and a JSON row each, and
  // the exit-coded check that Bob's view is the 1-lane one.
  auto grid = [&](const std::string& workload, auto run) {
    std::vector<RunResult> runs;
    for (std::size_t n : lanes) {
      runs.push_back(run(n));
      const RunResult& r = runs.back();
      t.add_row({workload, std::to_string(n), Table::fmt(r.wall_ms, 1),
                 Table::fmt(r.compute_ms, 1), Table::fmt(r.crypto_ms, 1),
                 Table::fmt(runs.front().wall_ms / r.wall_ms, 2),
                 std::to_string(r.stats.reads), std::to_string(r.stats.writes)});
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"workload\":\"" + workload +
                   "\",\"threads\":" + std::to_string(n) +
                   ",\"wall_ms\":" + std::to_string(r.wall_ms) +
                   ",\"compute_ms\":" + std::to_string(r.compute_ms) +
                   ",\"crypto_ms\":" + std::to_string(r.crypto_ms) +
                   ",\"reads\":" + std::to_string(r.stats.reads) +
                   ",\"writes\":" + std::to_string(r.stats.writes) +
                   ",\"trace_hash\":" + std::to_string(r.trace_hash) + "}";
      if (!same_io(r.stats, runs.front().stats) ||
          r.trace_hash != runs.front().trace_hash) {
        bench::note("CLAIM VIOLATED: " + workload + " block I/O or trace " +
                    "diverged at " + std::to_string(n) + " lanes -- the " +
                    "compute plane leaked into Bob's view");
        claim_met = false;
      }
    }
  };
  grid("sort", [&](std::size_t n) { return run_sort(B, M, records, n); });
  grid("oram", [&](std::size_t n) { return run_oram(B, M, oram_items, n); });

  t.print(std::cout);
  bench::note(std::string("block I/O and trace hash identical across 1/2/4/8 ") +
              "lanes for both workloads: " + (claim_met ? "yes" : "NO"));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"compute_parallel\",\"claim_met\":"
        << (claim_met ? "true" : "false") << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }
  return claim_met ? 0 : 1;
}
