// E11 -- the pipeline migration, measured.  The four per-block hot loops
// migrated onto run_block_pipeline (the recursive oblivious sort's copy/level
// scans, loose compaction, log* compaction, the sqrt-ORAM reshuffle) run over
// an in-memory store in three engine configurations: per-block I/O
// (io_batch_blocks = 1, the pre-migration shape), pipelined windows (the
// default), and pipelined + async prefetch.  EXIT-CODE-ENFORCED: block I/O
// counts must be IDENTICAL across configurations -- the migration batches
// backend ops and overlaps compute, it never changes what Bob sees or how
// many blocks move.  Backend ops and wall times are informational.
// --json=PATH writes the grid as a CI artifact
// (BENCH_pipeline_migration.json).
#include <chrono>
#include <fstream>
#include <functional>

#include "bench_common.h"
#include "core/logstar_compact.h"
#include "core/loose_compact.h"
#include "core/oblivious_sort.h"
#include "oram/sqrt_oram.h"

using namespace oem;

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
      .count();
}

struct LoopCase {
  std::string name;
  std::size_t B;
  std::uint64_t M;
  /// Sets up its input (uncounted), resets stats, runs the loop, and returns
  /// the algorithm-only wall time (setup I/O is excluded so the per-block
  /// config is not additionally penalized for its slower upload).
  std::function<double(Client&)> run;
};

/// Every 7th block distinguished; the rest explicitly empty.
std::vector<Record> sparse_input(std::uint64_t n_blocks, std::size_t B) {
  std::vector<Record> v(n_blocks * B);
  for (std::uint64_t b = 0; b < n_blocks; b += 7)
    for (std::size_t r = 0; r < B; ++r) v[b * B + r] = {b * 1000 + r, b};
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();

  bench::banner("E11", "pipeline migration: per-block vs pipelined I/O (mem store)");
  bench::note("same loops, same block I/Os by construction; the pipeline coalesces "
              "blocks into windowed backend ops and (with prefetch) overlaps "
              "the next window's transfer with the current window's compute");

  std::vector<LoopCase> loops;
  loops.push_back({"oblivious_sort", 4, 4 * 64, [](Client& c) {
                     const std::uint64_t n_blocks = 256;
                     ExtArray a = c.alloc_blocks(n_blocks, Client::Init::kUninit);
                     c.poke(a, bench::random_records(n_blocks * c.B(), 2));
                     c.reset_stats();
                     core::ObliviousSortOptions opts;
                     opts.min_recursive_blocks = 64;  // engage recursion: the
                     opts.paper_dense_rule = false;   // migrated copy/level scans run
                     const auto t0 = std::chrono::steady_clock::now();
                     core::oblivious_sort(c, a, 7, opts);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});
  loops.push_back({"loose_compact", 4, 4 * 64, [](Client& c) {
                     const std::uint64_t n_blocks = 512;
                     ExtArray a = c.alloc_blocks(n_blocks, Client::Init::kUninit);
                     c.poke(a, sparse_input(n_blocks, c.B()));
                     c.reset_stats();
                     const auto t0 = std::chrono::steady_clock::now();
                     core::loose_compact_blocks(c, a, n_blocks / 5,
                                                core::block_nonempty_pred(), 3);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});
  loops.push_back({"logstar_compact", 4, 4 * 64, [](Client& c) {
                     const std::uint64_t n_blocks = 512;
                     ExtArray a = c.alloc_blocks(n_blocks, Client::Init::kUninit);
                     c.poke(a, sparse_input(n_blocks, c.B()));
                     c.reset_stats();
                     const auto t0 = std::chrono::steady_clock::now();
                     core::logstar_compact_blocks(c, a, n_blocks / 5,
                                                  core::block_nonempty_pred(), 3);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});
  loops.push_back({"oram_reshuffle", 4, 4 * 64, [](Client& c) {
                     oram::SqrtOram o(c, 1024, oram::ShuffleKind::kDeterministic, 3);
                     c.reset_stats();
                     // One full epoch + its reshuffle (retag, sort, rewrite,
                     // stash clear -- the migrated scans).
                     const auto t0 = std::chrono::steady_clock::now();
                     for (std::uint64_t i = 0; i < o.epoch_length(); ++i)
                       o.access(i % 1024);
                     return ms_between(t0, std::chrono::steady_clock::now());
                   }});

  struct Cfg {
    const char* name;
    std::uint64_t io_batch;
    bool prefetch;
  };
  const Cfg cfgs[] = {{"per_block", 1, false},
                      {"pipelined", 0, false},
                      {"pipelined_prefetch", 0, true}};

  Table t({"loop", "config", "block I/Os", "backend ops", "wall ms", "speedup"});
  std::string json_rows;
  bool claim_met = true;
  for (const LoopCase& loop : loops) {
    double base_ms = 0;
    std::uint64_t base_ios = 0;
    for (const Cfg& cfg : cfgs) {
      ClientParams p;
      p.block_records = loop.B;
      p.cache_records = loop.M;
      p.seed = 1;
      p.io_batch_blocks = cfg.io_batch;
      BackendFactory f = mem_backend();
      if (cfg.prefetch) f = async_backend(std::move(f));
      p.backend = std::move(f);
      Client c(p);
      const double ms = loop.run(c);
      const std::uint64_t ios = c.stats().total();
      const std::uint64_t ops = c.stats().total_ops();
      if (cfg.io_batch == 1) {
        base_ms = ms;
        base_ios = ios;
      } else if (ios != base_ios) {
        bench::note("CLAIM VIOLATED: " + loop.name + "/" + cfg.name +
                    " changed the block I/O count (" + std::to_string(ios) +
                    " vs " + std::to_string(base_ios) + ")");
        claim_met = false;
      }
      const double speedup = base_ms / ms;
      t.add_row({loop.name, cfg.name, std::to_string(ios), std::to_string(ops),
                 Table::fmt(ms, 1), Table::fmt(speedup, 2) + "x"});
      if (!json_rows.empty()) json_rows += ",";
      json_rows += "{\"loop\":\"" + loop.name + "\",\"config\":\"" + cfg.name +
                   "\",\"block_ios\":" + std::to_string(ios) +
                   ",\"backend_ops\":" + std::to_string(ops) +
                   ",\"wall_ms\":" + Table::fmt(ms, 3) +
                   ",\"speedup\":" + Table::fmt(speedup, 3) + "}";
    }
  }
  t.print(std::cout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"pipeline_migration\",\"store\":\"mem\",\"claim_met\":"
        << (claim_met ? "true" : "false") << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }
  return claim_met ? 0 : 1;
}
