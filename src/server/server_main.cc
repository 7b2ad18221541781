// oem-server: the paper's untrusted server (Bob) as a stand-alone process.
//
//   oem-server [--host=127.0.0.1] [--port=0] [--backend=mem|file]
//              [--file-path=PATH] [--shards=1] [--threads=0]
//              [--engine=threads|uring] [--direct] [--shared-cache=BLOCKS]
//              [--idle-timeout-ms=0] [--crash-at=frames:N] [--auth-key=U64]
//
// Prints "oem-server listening on HOST:PORT ..." on stdout once the socket
// is bound (port 0 picks an ephemeral port; harnesses parse this line), then
// serves until SIGINT/SIGTERM, which triggers a graceful shutdown: every
// fully-received frame is dispatched, queued responses are flushed, and all
// stores are flushed (a FileBackend fsyncs).  Exits 0 on a clean shutdown,
// 1 when a store flush failed.
//
// --backend=file persists each store in its own file derived from
// --file-path (PATH.store<id>, plus .shard<s> with --shards > 1); with no
// --file-path the stores live in temp files.  --shards=K stripes every
// store over K inner stores server-side (a ShardedBackend per store).  The
// shards stripe only: a batch is begun on every shard before any completes,
// which overlaps nothing on a blocking file store (it does with
// --engine=uring).  --threads gives the parallelism: it picks the worker-pool
// size (0 = hardware concurrency, 1 = serial -- the load bench's baseline).
//
// --crash-at=frames:N arms crash injection: the process _exits abruptly
// (exit code 42, no flush, no cleanup) at the top of dispatching the N-th
// received frame -- the chaos harness's simulated kernel panic.
// --auth-key=U64 sets the pre-shared wire-auth key checked on HELLO/PING
// (both ends default to 0; a mismatch fails closed as INTEGRITY).
//
// --engine=uring (or its shorthand --direct) serves file stores through
// DirectFileBackend -- io_uring + O_DIRECT, falling back to the threaded
// FileBackend path when the kernel or filesystem refuses (the banner's
// engine= reports what was REQUESTED; per-store fallback is silent and
// safe).  --shared-cache=BLOCKS puts ONE scan-resistant cache core behind
// every store of every session in this process; stats stay per-store.
// Both require --backend=file; --direct contradicts --engine=threads.
#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "extmem/io_engine.h"
#include "server/server.h"
#include "util/flags.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 1;
  // Self-pipe: the only async-signal-safe way to hand the event to main.
  [[maybe_unused]] const ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

}  // namespace

int main(int argc, char** argv) {
  oem::Flags flags(argc, argv);
  const std::string host = flags.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.get_u64("port", 0));
  const std::string backend = flags.get("backend", "mem");
  const std::string file_path = flags.get("file-path", "");
  const std::size_t shards = flags.get_u64("shards", 1);
  const std::size_t threads = flags.get_u64("threads", 0);
  const std::string engine = flags.get("engine", "");
  const bool direct = flags.get_bool("direct", false);
  const std::size_t shared_cache_blocks = flags.get_u64("shared-cache", 0);
  const std::uint64_t idle_timeout_ms = flags.get_u64("idle-timeout-ms", 0);
  const std::string crash_at = flags.get("crash-at", "");
  const std::uint64_t auth_key = flags.get_u64("auth-key", 0);
  flags.validate_or_die();
  std::uint64_t crash_at_frames = 0;
  if (!crash_at.empty()) {
    // Strict "frames:N" with N >= 1: a typo must not silently disarm the
    // crash the harness thinks it injected.
    const std::string prefix = "frames:";
    char* end = nullptr;
    if (crash_at.compare(0, prefix.size(), prefix) == 0)
      crash_at_frames =
          std::strtoull(crash_at.c_str() + prefix.size(), &end, 10);
    if (end == nullptr || *end != '\0' || crash_at_frames < 1) {
      std::fprintf(stderr,
                   "oem-server: --crash-at must be frames:N with N >= 1, got "
                   "'%s'\n",
                   crash_at.c_str());
      return 2;
    }
  }
  if (backend != "mem" && backend != "file") {
    std::fprintf(stderr, "oem-server: --backend must be mem or file, got '%s'\n",
                 backend.c_str());
    return 2;
  }
  if (!file_path.empty() && backend != "file") {
    std::fprintf(stderr, "oem-server: --file-path requires --backend=file\n");
    return 2;
  }
  if (shards < 1) {
    std::fprintf(stderr, "oem-server: --shards must be >= 1\n");
    return 2;
  }
  if (!engine.empty() && engine != "threads" && engine != "uring") {
    std::fprintf(stderr,
                 "oem-server: --engine must be threads or uring, got '%s'\n",
                 engine.c_str());
    return 2;
  }
  if (direct && engine == "threads") {
    std::fprintf(stderr,
                 "oem-server: --direct contradicts --engine=threads\n");
    return 2;
  }
  if ((direct || !engine.empty()) && backend != "file") {
    std::fprintf(stderr,
                 "oem-server: --engine/--direct require --backend=file\n");
    return 2;
  }
  const bool uring = direct || engine == "uring";

  oem::RemoteServerOptions opts;
  opts.host = host;
  opts.port = port;
  opts.worker_threads = threads;
  opts.idle_timeout_ms = idle_timeout_ms;
  opts.crash_at_frames = crash_at_frames;
  opts.auth_key = auth_key;
  // One process-wide cache core: every store (across every session) attaches
  // a view, so the slab is shared the way one machine's page cache would be.
  // Geometry is adopted from the first store and enforced on the rest.
  oem::SharedCacheHandle shared_cache;
  if (shared_cache_blocks > 0)
    shared_cache = oem::make_shared_cache(shared_cache_blocks);
  opts.store_factory_by_id = [backend, file_path, shards, uring, shared_cache](
                                 std::uint64_t store_id, std::size_t block_words)
      -> std::unique_ptr<oem::StorageBackend> {
    auto base_for = [backend, file_path, store_id, shards,
                     uring](std::size_t bw, std::size_t shard) {
      if (backend == "file") {
        std::string path;
        if (!file_path.empty()) {
          path = file_path + ".store" + std::to_string(store_id);
          if (shards > 1) path += ".shard" + std::to_string(shard);
        }
        if (uring) {
          oem::DirectFileOptions dopts;
          dopts.path = path;
          return oem::direct_file_backend(dopts)(bw);
        }
        oem::FileBackendOptions fo;
        fo.path = path;
        return oem::file_backend(fo)(bw);
      }
      return oem::mem_backend()(bw);
    };
    std::unique_ptr<oem::StorageBackend> store;
    if (shards <= 1) {
      store = base_for(block_words, 0);
    } else {
      store =
          oem::sharded_backend(oem::ShardFactory(base_for), shards)(block_words);
    }
    if (shared_cache != nullptr) {
      store = std::make_unique<oem::CachingBackend>(std::move(store),
                                                    shared_cache);
    }
    return store;
  };

  oem::RemoteServer server(opts);
  if (!server.health().ok()) {
    std::fprintf(stderr, "oem-server: %s\n", server.health().ToString().c_str());
    return 1;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "oem-server: signal pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf(
      "oem-server listening on %s:%u (backend=%s, engine=%s, shards=%zu, "
      "threads=%zu, shared-cache=%zu)\n",
      server.host().c_str(), server.port(), backend.c_str(),
      backend == "file" ? (uring ? "uring" : "threads") : "n/a", shards,
      server.worker_threads(), shared_cache_blocks);
  std::fflush(stdout);

  char b;
  while (::read(g_signal_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }

  const oem::Status flushed = server.shutdown();
  std::printf(
      "oem-server: shut down (%llu frames over %llu connections, %llu evicted, "
      "flush %s)\n",
      static_cast<unsigned long long>(server.frames_served()),
      static_cast<unsigned long long>(server.connections_accepted()),
      static_cast<unsigned long long>(server.connections_evicted()),
      flushed.ToString().c_str());
  std::fflush(stdout);
  return flushed.ok() ? 0 : 1;
}
