// Shared helpers for the experiment harness.  Every bench binary prints
// markdown tables whose rows are quoted in EXPERIMENTS.md.
//
// All benches accept --backend=mem|file (where it matters the rows
// say which one ran) and hard-fail on unknown/malformed flags via
// Flags::validate_or_die.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "extmem/backend.h"
#include "extmem/cache_meter.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "extmem/remote.h"
#include "server/server.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

namespace oem::bench {

/// Process-wide backend factory for this bench run, set from --backend by
/// set_backend_from_flags below; null means MemBackend.
inline BackendFactory& global_backend() {
  static BackendFactory factory;
  return factory;
}

/// Retry attempts paired with the backend (4 when --faults is on, else 1).
inline unsigned& global_retry_attempts() {
  static unsigned attempts = 1;
  return attempts;
}

/// Pipeline depth from --depth (2 = the double-buffer default).
inline std::size_t& global_pipeline_depth() {
  static std::size_t depth = 2;
  return depth;
}

/// Compute-plane lanes from --compute-threads (1 = serial, the default).
inline std::size_t& global_compute_threads() {
  static std::size_t threads = 1;
  return threads;
}

/// Durable freshness state file from --state-path ("" = off); params() wires
/// it into ClientParams::state_path (and hydrates a pre-existing file).
inline std::string& global_state_path() {
  static std::string path;
  return path;
}

/// Per-frame wire deadline from --io-deadline-ms (0 = off; needs --remote).
inline std::uint64_t& global_io_deadline_ms() {
  static std::uint64_t ms = 0;
  return ms;
}

/// Armed crash injection from --crash-at=frames:N (0 = off).  Only a
/// SPAWNED oem-server (bench_recovery's SpawnedServer trials) can honor it;
/// --remote's in-process server would take the bench down with it, so the
/// combination exits 2 at parse time.
inline std::uint64_t& global_crash_at_frames() {
  static std::uint64_t frames = 0;
  return frames;
}

/// The process-wide loopback RemoteServer behind --remote; started on first
/// use, lives for the whole bench run (its stores persist across Clients).
inline RemoteServer* global_remote_server(BackendFactory store_factory = nullptr) {
  static std::unique_ptr<RemoteServer> server;
  if (!server) {
    RemoteServerOptions opts;
    opts.store_factory = std::move(store_factory);
    server = std::make_unique<RemoteServer>(std::move(opts));
    if (!server->health().ok()) {
      std::fprintf(stderr, "--remote: %s\n", server->health().ToString().c_str());
      std::exit(2);
    }
  }
  return server.get();
}

/// The process-wide shared CacheCore behind --shared-cache: every Client
/// built by this bench attaches a view of ONE slab (capacity fixed by the
/// first call), modeling N sessions behind one memory budget.
inline SharedCacheHandle global_shared_cache(std::size_t capacity_blocks) {
  static SharedCacheHandle core = make_shared_cache(capacity_blocks);
  return core;
}

inline ClientParams params(std::size_t B, std::uint64_t M, std::uint64_t seed = 1) {
  ClientParams p;
  p.block_records = B;
  p.cache_records = M;
  p.seed = seed;
  p.backend = global_backend();
  p.io_retry_attempts = global_retry_attempts();
  p.pipeline_depth = global_pipeline_depth();
  p.compute_threads = global_compute_threads();
  p.state_path = global_state_path();
  if (!p.state_path.empty()) {
    // Reload a persisted freshness state (restart semantics); a corrupt
    // file is evidence of tampering and must stop the bench, not be
    // bootstrapped over.
    const Status st = hydrate_state(&p);
    if (!st.ok()) {
      std::fprintf(stderr, "--state-path: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  return p;
}

/// Strict --faults=seed:rate parsing (like --shards: malformed input is a
/// hard error).  Returns true iff faults were requested; fills `profile`.
inline bool fault_profile_from_flags(const Flags& flags, FaultProfile* profile) {
  const std::string spec = flags.get("faults", "");
  if (spec.empty()) return false;
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    std::fprintf(stderr, "--faults must be seed:rate (e.g. --faults=7:0.02)\n");
    std::exit(2);
  }
  char* end = nullptr;
  const std::string seed_str = spec.substr(0, colon);
  const std::string rate_str = spec.substr(colon + 1);
  const unsigned long long seed = std::strtoull(seed_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "--faults seed '%s' is not an integer\n", seed_str.c_str());
    std::exit(2);
  }
  const double rate = std::strtod(rate_str.c_str(), &end);
  if (end == nullptr || *end != '\0' || rate < 0.0 || rate > 1.0) {
    std::fprintf(stderr, "--faults rate '%s' must be a number in [0, 1]\n",
                 rate_str.c_str());
    std::exit(2);
  }
  profile->seed = seed;
  profile->fail_rate = rate;
  return rate > 0.0;
}

/// Backend factory selected by --backend=mem|file (default mem), composed
/// with the I/O-engine flags: --shards=K stripes blocks over K independent
/// stores and --prefetch wraps the stack in an AsyncBackend so the
/// algorithms' pipelined hot loops overlap compute with storage I/O.
/// `retry_attempts`, when non-null, receives the retry budget paired with
/// the composed stack (4 when faults are injected, else 1) -- one parse
/// decides both, so injection and recovery cannot drift apart.
inline BackendFactory backend_from_flags(const Flags& flags,
                                         unsigned* retry_attempts = nullptr) {
  const std::string which = flags.get("backend", "mem");
  const std::size_t shards = static_cast<std::size_t>(flags.get_u64("shards", 1));
  const bool prefetch = flags.get_bool("prefetch", false);
  // --cache-blocks=N wraps the stack in an N-block write-back cache
  // (CachingBackend, scan-resistant policy), composed above sharding/remote
  // and under --prefetch, exactly like Session::Builder::cache.
  const std::size_t cache_blocks =
      static_cast<std::size_t>(flags.get_u64("cache-blocks", 0));
  // --remote serves the chosen base store from an in-process loopback
  // RemoteServer (one per bench run; per-shard store namespaces) and talks
  // to it through RemoteBackend connections, so every bench can put its
  // workload behind a real TCP round trip.
  const bool remote = flags.get_bool("remote", false);
  // Robustness flags (PR 10): durable freshness state, per-frame wire
  // deadlines, armed crash injection -- with the usual strict validation.
  global_state_path() = flags.get("state-path", "");
  global_io_deadline_ms() = flags.get_u64("io-deadline-ms", 0);
  if (global_io_deadline_ms() > 0 && !remote) {
    std::fprintf(stderr,
                 "--io-deadline-ms needs --remote: only the wire has "
                 "deadlines\n");
    std::exit(2);
  }
  const std::string crash_at = flags.get("crash-at", "");
  global_crash_at_frames() = 0;
  if (!crash_at.empty()) {
    const std::string prefix = "frames:";
    char* end = nullptr;
    std::uint64_t n = 0;
    if (crash_at.compare(0, prefix.size(), prefix) == 0)
      n = std::strtoull(crash_at.c_str() + prefix.size(), &end, 10);
    if (end == nullptr || *end != '\0' || n < 1) {
      std::fprintf(stderr, "--crash-at must be frames:N with N >= 1, got '%s'\n",
                   crash_at.c_str());
      std::exit(2);
    }
    if (remote) {
      std::fprintf(stderr,
                   "--crash-at contradicts --remote: the in-process loopback "
                   "server would take the bench down with it; crash trials "
                   "spawn the oem-server binary\n");
      std::exit(2);
    }
    global_crash_at_frames() = n;
  }
  global_pipeline_depth() =
      static_cast<std::size_t>(flags.get_u64("depth", 2));
  if (global_pipeline_depth() < 1) {
    std::fprintf(stderr, "--depth must be >= 1\n");
    std::exit(2);
  }
  // --compute-threads=N splits each pipeline window's compute (and all block
  // crypto) across N lanes -- the compute-plane twin of --depth.
  global_compute_threads() =
      static_cast<std::size_t>(flags.get_u64("compute-threads", 1));
  if (global_compute_threads() > 256) {
    std::fprintf(stderr, "--compute-threads must be <= 256\n");
    std::exit(2);
  }
  FaultProfile fault_profile;
  const bool inject = fault_profile_from_flags(flags, &fault_profile);
  if (retry_attempts != nullptr) *retry_attempts = inject ? 4 : 1;
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    std::exit(2);
  }
  // --engine=threads|uring picks the file store's disk engine: "threads" is
  // the blocking pread/pwrite FileBackend (AsyncBackend supplies the overlap
  // under --prefetch), "uring" is the kernel-async O_DIRECT DirectFileBackend
  // (which itself falls back to threads, with notice via engine(), on kernels
  // without io_uring).  --direct is shorthand for --engine=uring.
  const std::string engine = flags.get("engine", "");
  const bool direct = flags.get_bool("direct", false);
  if (!engine.empty() && engine != "threads" && engine != "uring") {
    std::fprintf(stderr, "unknown --engine=%s (threads|uring)\n", engine.c_str());
    std::exit(2);
  }
  if (direct && engine == "threads") {
    std::fprintf(stderr,
                 "--direct contradicts --engine=threads (--direct means the "
                 "O_DIRECT io_uring engine)\n");
    std::exit(2);
  }
  const bool uring = direct || engine == "uring";
  if ((uring || !engine.empty()) && which != "file") {
    std::fprintf(stderr,
                 "--engine/--direct need --backend=file: only the file store "
                 "has a disk engine to choose\n");
    std::exit(2);
  }
  // --shared-cache attaches every Client in this process to ONE CacheCore of
  // --cache-blocks capacity (the multi-session shared-memory-budget shape)
  // instead of a private cache per Client.
  const bool shared_cache = flags.get_bool("shared-cache", false);
  if (shared_cache && cache_blocks == 0) {
    std::fprintf(stderr, "--shared-cache needs --cache-blocks=N (N >= 1)\n");
    std::exit(2);
  }
  // Per-shard base store, optionally wrapped in a FaultyBackend with a
  // distinct sub-seed per shard (per-shard failures, like Session::Builder).
  auto faulted = [inject, fault_profile](BackendFactory base, std::size_t shard) {
    if (!inject) return base;
    FaultProfile p = fault_profile;
    p.seed = rng::mix64(fault_profile.seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
    return faulty_backend(std::move(base), p);
  };
  BackendFactory f;
  if (which != "mem" && which != "file") {
    std::fprintf(stderr, "unknown --backend=%s (mem|file)\n", which.c_str());
    std::exit(2);
  }
  BackendFactory base;
  if (which == "file") base = uring ? direct_file_backend() : file_backend();
  if (remote) {
    // The server keeps the (mem or file) store; the client stack sees a
    // RemoteBackend per shard.  Store ids namespace by geometry too, so one
    // server survives a bench that runs several block sizes.
    RemoteServer* server = global_remote_server(std::move(base));
    const std::string host = server->host();
    const std::uint16_t port = server->port();
    base = nullptr;
    const std::uint64_t io_deadline = global_io_deadline_ms();
    ShardFactory per_shard = [host, port, faulted,
                              io_deadline](std::size_t block_words,
                                           std::size_t shard)
        -> std::unique_ptr<StorageBackend> {
      RemoteBackendOptions opts;
      opts.host = host;
      opts.port = port;
      opts.store_id = (static_cast<std::uint64_t>(block_words) << 16) | shard;
      opts.io_deadline_ms = io_deadline;
      BackendFactory fb = faulted(remote_backend(opts), shard);
      return fb(block_words);
    };
    f = sharded_backend(std::move(per_shard), shards);
  } else if (shards > 1) {
    ShardFactory per_shard = [base, faulted](std::size_t block_words,
                                             std::size_t shard)
        -> std::unique_ptr<StorageBackend> {
      BackendFactory fb = faulted(base, shard);
      return fb ? fb(block_words) : std::make_unique<MemBackend>(block_words);
    };
    f = sharded_backend(std::move(per_shard), shards);
  } else {
    f = faulted(std::move(base), 0);
  }
  if (cache_blocks > 0) {
    if (shared_cache)
      f = caching_backend(std::move(f), global_shared_cache(cache_blocks));
    else
      f = caching_backend(std::move(f), cache_blocks);
  }
  if (prefetch) f = async_backend(std::move(f));
  return f;
}

/// One-line engine accounting for a finished run: drained-at backend ops
/// (comparable across sync / --prefetch / sharded rows -- see IoStats) and,
/// when a cache is configured, its hit rate and write-back absorption.
/// Prints nothing when there is nothing noteworthy to report.  `label` names
/// the configuration/row the numbers belong to (the notes print as they are
/// gathered, which may be before the table they annotate).
inline void engine_stats_note(const Client& c, const std::string& label = "") {
  const std::string tag = label.empty() ? "" : "[" + label + "] ";
  const IoStats& s = c.stats();
  if (s.drained_total_ops() != s.total_ops())
    std::cout << "  " << tag << "(drained backend ops: " << s.drained_total_ops()
              << " of " << s.total_ops() << " submitted)\n";
  if (s.compute_ns > 0 || s.crypto_ns > 0) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %scompute plane: %.1f ms pass compute, %.1f ms crypto",
                  tag.c_str(), s.compute_ns / 1e6, s.crypto_ns / 1e6);
    std::cout << line << "\n";
  }
  if (const CachingBackend* cache = c.device().cache_backend()) {
    // Per-session counters even on a --shared-cache slab: each Client's view
    // tallies its own hits/misses/admission rejections (cache_meter.h).
    std::cout << "  " << tag << "(" << cache->capacity_blocks() << " blocks, "
              << (cache->core().policy() == CachePolicy::kLru ? "lru"
                                                              : "scan-resistant")
              << ") " << describe_cache_stats(cache->stats()) << "\n";
  }
}

/// Call once at the top of main: every bench::params() Client in the binary
/// then runs on the selected backend, with bounded retries when --faults is
/// on (so seeded fail-once faults are absorbed below the measured counters).
inline void set_backend_from_flags(const Flags& flags) {
  unsigned attempts = 1;
  global_backend() = backend_from_flags(flags, &attempts);
  global_retry_attempts() = attempts;
}

inline std::vector<Record> random_records(std::uint64_t n, std::uint64_t seed) {
  rng::Xoshiro g(seed);
  std::vector<Record> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = {g.next() >> 1, i};
  return v;
}

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n## " << id << ": " << title << "\n\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

}  // namespace oem::bench
