// E17 -- the memory hierarchy v2, measured at the backend seam.
//
// Part (a): the shared scan-resistant cache.  Two CachingBackend views of ONE
// CacheCore model two sessions of the oem-server: view A re-references an
// ORAM epoch's hot set (position map / stash) while view B streams a
// sequential reshuffle sweep through the same slab.  Under the v1 single-list
// LRU the sweep evicts the hot set on every pass; under the v2 segmented LRU
// the one-touch sweep dies in probation and the re-referenced hot set stays
// protected.  The exit code enforces >= 30% fewer inner-backend ops for
// scan-resistant vs lru on the identical touch sequence, at identical
// client-visible block touches and identical data.
//
// Part (b): the io_uring/O_DIRECT disk path.  The same durable
// write-then-scattered-read workload at pipeline depth 4 through (1) the
// threaded engine -- AsyncBackend's single io thread doing synchronous
// pread/pwrite on a FileBackend, page cache dropped before the read phase --
// and (2) DirectFileBackend, whose frames fan out into io_uring SQEs the
// kernel services concurrently.  Both rows pay durability (flush) and read
// cold data, so the comparison is serial-syscall-per-run vs
// kernel-queued-parallel on the same dataset (>= 4x any cache in this bench;
// no CachingBackend is stacked and the page cache is dropped).  The exit
// code enforces >= 1.5x wall-clock for uring -- informational-only when the
// kernel has no io_uring (the row then reports engine=threads).  Block I/O
// counts are identical across all rows by construction and verified.
// --json=PATH writes the grid as a CI artifact (BENCH_hierarchy.json).
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace oem;

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
      .count();
}

/// Mem behind a zero-rate FaultyBackend: it never fails, and its ops()
/// counts every data call that reaches the store below.
BackendFactory counted_mem() { return faulty_backend(mem_backend(), FaultProfile{}); }

// ---------------------------------------------------------------------------
// Part (a): scan-resistant shared cache vs plain LRU.

struct CacheRun {
  std::uint64_t inner_ops = 0;     // inner reads the cache could not absorb
  std::uint64_t client_touches = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t checksum = 0;
  double wall_ms = 0;
};

/// The mixed workload: per epoch, view A scans its hot set twice for every
/// 64-block chunk view B sweeps (an ORAM access re-scans the stash far more
/// often than the reshuffle touches any one block).
CacheRun run_cache_policy(CachePolicy policy) {
  constexpr std::size_t kBw = 16;
  constexpr std::uint64_t kHot = 44, kSweep = 256, kEpochs = 20;
  SharedCacheHandle core = make_shared_cache(64, policy);
  CachingBackend a(counted_mem()(kBw), core);
  CachingBackend b(counted_mem()(kBw), core);
  auto* a_ops = dynamic_cast<FaultyBackend*>(&a.inner());
  auto* b_ops = dynamic_cast<FaultyBackend*>(&b.inner());
  CacheRun r;
  if (!a.resize(kHot).ok() || !b.resize(kSweep).ok()) return r;
  // Give the stores recognizable contents (through the cache, then flushed)
  // so the checksum proves both policies returned the same bytes.
  std::vector<Word> w(kBw);
  for (std::uint64_t blk = 0; blk < kHot; ++blk) {
    for (std::size_t i = 0; i < kBw; ++i) w[i] = blk * 100 + i;
    if (!a.write(blk, w).ok()) return r;
  }
  for (std::uint64_t blk = 0; blk < kSweep; ++blk) {
    for (std::size_t i = 0; i < kBw; ++i) w[i] = blk * 7 + i;
    if (!b.write(blk, w).ok()) return r;
  }
  if (!a.flush().ok() || !b.flush().ok()) return r;
  const std::uint64_t ops0 = a_ops->ops() + b_ops->ops();

  std::vector<Word> out(kBw);
  auto touch = [&](CachingBackend& view, std::uint64_t blk) {
    if (view.read(blk, out).ok()) {
      ++r.client_touches;
      for (Word x : out) r.checksum ^= x + 0x9e3779b97f4a7c15ULL * blk;
    }
  };
  const auto t0 = std::chrono::steady_clock::now();
  // Warm pass: the second touch is what admits A's hot set to protected.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t blk = 0; blk < kHot; ++blk) touch(a, blk);
  for (std::uint64_t e = 0; e < kEpochs; ++e)
    for (std::uint64_t chunk = 0; chunk < kSweep / 64; ++chunk) {
      for (int scan = 0; scan < 2; ++scan)
        for (std::uint64_t blk = 0; blk < kHot; ++blk) touch(a, blk);
      for (std::uint64_t blk = chunk * 64; blk < (chunk + 1) * 64; ++blk)
        touch(b, blk);
    }
  r.wall_ms = ms_between(t0, std::chrono::steady_clock::now());
  r.inner_ops = a_ops->ops() + b_ops->ops() - ops0;
  r.admission_rejects = a.stats().admission_rejects + b.stats().admission_rejects;
  return r;
}

bool run_cache_grid(std::string* json_rows) {
  bench::banner("E17a", "shared cache: scan-resistant (v2) vs single-list LRU (v1)");
  bench::note("two sessions, one CacheCore (64 blocks): A re-references a "
              "44-block ORAM hot set, B sweeps 256 blocks sequentially; "
              "identical touch sequences, only the admission policy differs");
  bool ok = true;
  Table t({"policy", "client touches", "inner ops", "admission rejects",
           "wall ms", "vs lru"});
  CacheRun lru = run_cache_policy(CachePolicy::kLru);
  CacheRun slru = run_cache_policy(CachePolicy::kScanResistant);
  if (slru.client_touches != lru.client_touches || slru.client_touches == 0) {
    bench::note("CLAIM VIOLATED: the two policies saw different client "
                "touch counts -- driver bug");
    ok = false;
  }
  if (slru.checksum != lru.checksum) {
    bench::note("CLAIM VIOLATED: scan-resistant returned different data");
    ok = false;
  }
  const double saved =
      lru.inner_ops == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(slru.inner_ops) /
                               static_cast<double>(lru.inner_ops));
  // The headline: >= 30% fewer inner ops (integer-exact check).
  if (slru.inner_ops * 10 > lru.inner_ops * 7) {
    bench::note("CLAIM VIOLATED: scan-resistant spends " +
                std::to_string(slru.inner_ops) + " inner ops vs " +
                std::to_string(lru.inner_ops) + " for lru (< 30% saved)");
    ok = false;
  }
  for (const auto* row : {&lru, &slru}) {
    const bool is_lru = row == &lru;
    t.add_row({is_lru ? "lru" : "scan-resistant",
               std::to_string(row->client_touches),
               std::to_string(row->inner_ops),
               std::to_string(row->admission_rejects), Table::fmt(row->wall_ms, 1),
               is_lru ? "--" : Table::fmt(saved, 1) + "% fewer inner ops"});
    if (!json_rows->empty()) *json_rows += ",";
    *json_rows += std::string("{\"part\":\"cache\",\"policy\":\"") +
                  (is_lru ? "lru" : "scan_resistant") +
                  "\",\"client_touches\":" + std::to_string(row->client_touches) +
                  ",\"inner_ops\":" + std::to_string(row->inner_ops) +
                  ",\"admission_rejects\":" + std::to_string(row->admission_rejects) +
                  ",\"wall_ms\":" + Table::fmt(row->wall_ms, 3) + "}";
  }
  t.print(std::cout);
  bench::note(ok ? "E17a claim (scan-resistant >= 30% fewer inner ops): MET"
                 : "E17a claim: NOT MET");
  return ok;
}

// ---------------------------------------------------------------------------
// Part (b): io_uring/O_DIRECT vs the threaded engine at depth 4.

struct DiskRun {
  std::string engine;
  double write_ms = 0, read_ms = 0;
  std::uint64_t blocks_written = 0, blocks_read = 0;
  std::uint64_t checksum = 0;
  bool ok = true;
};

/// Durable sequential write + scattered cold read, driven through the
/// split-phase face with `depth` frames in flight.  `drop_cache_path`
/// non-empty = drop that file's page cache before the read phase (the
/// buffered engine; O_DIRECT never populates it).
DiskRun run_disk(StorageBackend& be, const char* engine, std::uint64_t n_blocks,
                 std::size_t window, std::size_t depth,
                 const std::string& drop_cache_path) {
  constexpr std::size_t kBw = 512;  // 4 KiB payload per block
  DiskRun r;
  r.engine = engine;
  depth = std::min(depth, be.max_inflight());
  if (!be.resize(n_blocks).ok()) {
    r.ok = false;
    return r;
  }

  // Write phase: sequential windows, `depth` frames on the wire, then a
  // durability flush -- both engines pay it (fsync for the buffered row).
  std::vector<std::uint64_t> ids(window);
  std::vector<Word> wbuf(window * kBw);
  std::size_t inflight = 0;
  const auto w0 = std::chrono::steady_clock::now();
  for (std::uint64_t base = 0; base < n_blocks; base += window) {
    const std::size_t k = std::min<std::uint64_t>(window, n_blocks - base);
    for (std::size_t i = 0; i < k; ++i) {
      ids[i] = base + i;
      for (std::size_t j = 0; j < kBw; ++j)
        wbuf[i * kBw + j] = (base + i) * 131 + j;
    }
    if (inflight == depth) {
      r.ok = r.ok && be.complete_oldest().ok();
      --inflight;
    }
    // Backends copy payloads into their own staging at begin time, so the
    // window buffer is immediately reusable.
    r.ok = r.ok && be.begin_write_many(std::span<const std::uint64_t>(ids.data(), k),
                                       std::span<const Word>(wbuf.data(), k * kBw))
                       .ok();
    ++inflight;
    r.blocks_written += k;
  }
  while (inflight > 0) {
    r.ok = r.ok && be.complete_oldest().ok();
    --inflight;
  }
  r.ok = r.ok && be.flush().ok();
  r.write_ms = ms_between(w0, std::chrono::steady_clock::now());

  // Cold the buffered row's page cache (untimed): O_DIRECT rows never warmed
  // it, so after this both engines read from the device.
  if (!drop_cache_path.empty()) {
    const int fd = ::open(drop_cache_path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      ::close(fd);
    }
  }

  // Read phase: a fixed pseudorandom permutation of all blocks, `window` per
  // frame -- scattered single-block runs, the pattern where one serial io
  // thread hurts most and a kernel queue shines.
  std::vector<std::vector<Word>> rbufs(depth, std::vector<Word>(window * kBw));
  std::vector<std::size_t> frame_k(depth);
  std::size_t slot = 0, oldest = 0;
  inflight = 0;
  const auto r0 = std::chrono::steady_clock::now();
  for (std::uint64_t base = 0; base < n_blocks; base += window) {
    const std::size_t k = std::min<std::uint64_t>(window, n_blocks - base);
    for (std::size_t i = 0; i < k; ++i)
      ids[i] = ((base + i) * 0x9e3779b1ULL + 0x85ebca6bULL) % n_blocks;
    if (inflight == depth) {
      r.ok = r.ok && be.complete_oldest().ok();
      for (std::size_t i = 0; i < frame_k[oldest] * kBw; ++i)
        r.checksum ^= rbufs[oldest][i] + i;
      oldest = (oldest + 1) % depth;
      --inflight;
    }
    frame_k[slot] = k;
    r.ok = r.ok &&
           be.begin_read_many(std::span<const std::uint64_t>(ids.data(), k),
                              std::span<Word>(rbufs[slot].data(), k * kBw))
               .ok();
    slot = (slot + 1) % depth;
    ++inflight;
    r.blocks_read += k;
  }
  while (inflight > 0) {
    r.ok = r.ok && be.complete_oldest().ok();
    for (std::size_t i = 0; i < frame_k[oldest] * kBw; ++i)
      r.checksum ^= rbufs[oldest][i] + i;
    oldest = (oldest + 1) % depth;
    --inflight;
  }
  r.read_ms = ms_between(r0, std::chrono::steady_clock::now());
  return r;
}

bool run_disk_grid(std::uint64_t n_blocks, std::string* json_rows,
                   bool* uring_available) {
  constexpr std::size_t kBw = 512;
  bench::banner("E17b", "disk engines at depth 4: io_uring/O_DIRECT vs threaded "
                        "pread/pwrite (" +
                            std::to_string(n_blocks * kBw * sizeof(Word) >> 20) +
                            " MiB dataset, durable writes, cold scattered reads)");
  std::vector<DiskRun> runs;
  {
    auto fb = std::make_unique<FileBackend>(kBw);
    const std::string path = fb->path();
    AsyncBackend threads(std::move(fb));
    if (!threads.health().ok()) {
      bench::note("threaded engine unavailable: " + threads.health().ToString());
      return false;
    }
    runs.push_back(run_disk(threads, "threads", n_blocks, 64, 4, path));
  }
  {
    DirectFileBackend direct(kBw);
    if (!direct.health().ok()) {
      bench::note("direct engine unavailable: " + direct.health().ToString());
      return false;
    }
    *uring_available = std::string(direct.engine()) == "uring";
    runs.push_back(
        run_disk(direct, *uring_available ? "uring" : "threads(fallback)",
                 n_blocks, 64, 4, *uring_available ? "" : direct.path()));
  }
  bool ok = true;
  for (const DiskRun& r : runs)
    if (!r.ok) {
      bench::note("CLAIM VIOLATED: engine '" + r.engine + "' reported I/O errors");
      ok = false;
    }
  if (runs[0].blocks_written != runs[1].blocks_written ||
      runs[0].blocks_read != runs[1].blocks_read) {
    bench::note("CLAIM VIOLATED: engines moved different block counts");
    ok = false;
  }
  if (runs[0].checksum != runs[1].checksum) {
    bench::note("CLAIM VIOLATED: engines read back different data");
    ok = false;
  }
  const double t_total = runs[0].write_ms + runs[0].read_ms;
  const double u_total = runs[1].write_ms + runs[1].read_ms;
  const double speedup = u_total > 0 ? t_total / u_total : 0.0;
  Table t({"engine", "blocks", "write ms", "read ms", "total ms", "vs threads"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const DiskRun& r = runs[i];
    t.add_row({r.engine, std::to_string(r.blocks_written + r.blocks_read),
               Table::fmt(r.write_ms, 1), Table::fmt(r.read_ms, 1),
               Table::fmt(r.write_ms + r.read_ms, 1),
               i == 0 ? "--" : Table::fmt(speedup, 2) + "x"});
    if (!json_rows->empty()) *json_rows += ",";
    *json_rows += "{\"part\":\"disk\",\"engine\":\"" + r.engine +
                  "\",\"blocks_written\":" + std::to_string(r.blocks_written) +
                  ",\"blocks_read\":" + std::to_string(r.blocks_read) +
                  ",\"write_ms\":" + Table::fmt(r.write_ms, 3) +
                  ",\"read_ms\":" + Table::fmt(r.read_ms, 3) + "}";
  }
  t.print(std::cout);
  if (!*uring_available) {
    bench::note("E17b claim (uring >= 1.5x threads at depth 4): SKIPPED -- no "
                "io_uring on this kernel, row ran on the threaded fallback "
                "(informational only)");
    return ok;
  }
  if (speedup < 1.5) {
    bench::note("CLAIM VIOLATED: uring is only " + Table::fmt(speedup, 2) +
                "x over the threaded engine (need >= 1.5x)");
    ok = false;
  }
  bench::note(ok ? "E17b claim (uring >= 1.5x threads at depth 4): MET"
                 : "E17b claim: NOT MET");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t n_blocks = flags.get_u64("blocks", 8192);
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();
  if (n_blocks < 256) {
    std::fprintf(stderr, "--blocks must be >= 256\n");
    return 2;
  }

  std::string json_rows;
  const bool cache_ok = run_cache_grid(&json_rows);
  bench::note("");
  bool uring_available = false;
  const bool disk_ok = run_disk_grid(n_blocks, &json_rows, &uring_available);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"hierarchy\",\"blocks\":" << n_blocks
        << ",\"uring_available\":" << (uring_available ? "true" : "false")
        << ",\"claim_cache_ge_30pct\":" << (cache_ok ? "true" : "false")
        << ",\"claim_uring_ge_1_5x\":" << (disk_ok ? "true" : "false")
        << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }
  return cache_ok && disk_ok ? 0 : 1;
}
