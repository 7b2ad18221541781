// E18: crash-recovery conformance -- seeded SIGKILL-style server crashes +
// durable-freshness warm restart.
//
// Part 1 (gated): seeded kill trials.  Each trial spawns a real oem-server
// armed with --crash-at=frames:N (the process _exits abruptly at the N-th
// received frame, before dispatch -- a simulated kernel panic mid-request)
// and runs a full sort round-trip against it, cycling the decorator stacks
// {plain, sharded4, cached}.  Allowed outcomes per trial:
//   * the run outran the crash frame and completed with output identical to
//     the in-memory reference, or
//   * a clean retryable/integrity error (kIo / kTimeout / kIntegrity) --
// and after every failed trial, a rerun against a FRESH crash-free server
// must complete identically.  The exit code enforces: zero silent
// corruptions, zero unexpected error codes, zero rerun divergences, and at
// least one trial actually tripping its armed crash (else the harness is
// vacuous).  Per-frame wire deadlines keep a crashed server from ever
// becoming a hang.
//
// Part 2 (gated): warm restart.  A file-backed session with a state_path
// outsources once (cold), then a second process-incarnation reopens the same
// store + state file and retrieves WITHOUT re-outsourcing.  Gates: the warm
// read returns the identical records, the store file's bytes are untouched
// by the warm pass (zero re-sealed blocks -- re-init was skipped), and
// deleting the state file makes the same warm read fail closed as
// kIntegrity (proof the durable state, not luck, is what authenticates).
//
//   bench_recovery [--trials=50] [--records=512] [--json=PATH]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_common.h"
#include "rng/random.h"
#include "server/server.h"
#include "server/subprocess.h"
#include "util/flags.h"
#include "util/table.h"

namespace oem {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "bench_recovery: %s\n", why.c_str());
  std::exit(2);
}

struct StackConfig {
  const char* name;
  std::size_t shards;
  std::size_t cache_blocks;
};

constexpr StackConfig kStacks[] = {
    {"plain", 1, 0},
    {"sharded4", 4, 0},
    {"cached", 1, 16},
};

Result<Session> build_remote(const StackConfig& cfg, const std::string& host,
                             std::uint16_t port) {
  Session::Builder b;
  b.block_records(4)
      .cache_records(64)
      .seed(11)
      .remote(host, port)
      .io_deadline_ms(5000)  // a crashed server must fail, never hang
      .io_retries(2);
  if (cfg.shards > 1) b.sharded(cfg.shards);
  if (cfg.cache_blocks > 0) b.cache(cfg.cache_blocks);
  return b.build();
}

Status run_sort(Session& s, std::uint64_t records, std::vector<Record>* out) {
  auto data = s.outsource(bench::random_records(records, 7));
  if (!data.ok()) return data.status();
  auto rep = s.sort(*data, /*seed=*/5);
  if (!rep.ok()) return rep.status();
  auto result = s.retrieve(*data);
  if (!result.ok()) return result.status();
  *out = std::move(*result);
  return Status::Ok();
}

struct KillTally {
  std::uint64_t completed = 0;       // outran the crash, identical output
  std::uint64_t clean_failed = 0;    // kIo / kTimeout / kIntegrity
  std::uint64_t silent = 0;          // completed with WRONG output -- fatal
  std::uint64_t other_errors = 0;    // unexpected status code -- fatal
  std::uint64_t rerun_divergent = 0; // fresh-server rerun wrong/failed -- fatal
  std::uint64_t crashes_tripped = 0; // child exited with kCrashExitCode
};

/// SHA-free file fingerprint: mix64-fold of the bytes (collision quality is
/// irrelevant -- the claim is "UNCHANGED", compared against itself).
std::uint64_t file_fingerprint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) die("fingerprint: cannot open " + path);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  char buf[4096];
  while (f.read(buf, sizeof buf) || f.gcount() > 0) {
    for (std::streamsize i = 0; i < f.gcount(); ++i)
      h = rng::mix64(h ^ static_cast<std::uint8_t>(buf[i]));
    if (!f) break;
  }
  return h;
}

std::string temp_path(const std::string& name) {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
         "/bench_recovery_" + name + "." + std::to_string(::getpid());
}

}  // namespace
}  // namespace oem

int main(int argc, char** argv) {
  using namespace oem;
  Flags flags(argc, argv);
  const int trials = static_cast<int>(flags.get_u64("trials", 50));
  const std::uint64_t records = flags.get_u64("records", 512);
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();
  if (trials < 1) die("--trials must be >= 1");

  bench::banner("E18", "crash recovery: seeded server kills + warm restart");
  bench::note(std::to_string(trials) + " seeded kill trials (sort, " +
              std::to_string(records) + " records) cycling " +
              std::to_string(std::size(kStacks)) + " stacks; every "
              "trial must complete identically or fail clean, and every "
              "failure must rerun identically on a fresh server");

  // In-memory reference: the sort's OUTPUT is deterministic in the input and
  // per-call seed, independent of storage stack or where the crash landed.
  std::vector<Record> expected;
  {
    auto ref =
        Session::Builder().block_records(4).cache_records(64).seed(11).build();
    if (!ref.ok()) die("reference build failed: " + ref.status().ToString());
    if (!run_sort(*ref, records, &expected).ok())
      die("reference run failed");
  }

  // --- Part 1: the kill matrix ---
  KillTally tally;
  double trial_ms_total = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const StackConfig& cfg = kStacks[trial % std::size(kStacks)];
    // Seeded crash point: spread from the handshake through deep mid-sort
    // and beyond the run's total frame count (a 512-record sort takes
    // ~4.6k frames), so BOTH arms -- completed-identical and clean-failed
    // -- are exercised.  Deterministic per trial.
    const std::uint64_t crash_frame = 2 + (trial * 1103) % 6500;
    server::SpawnedServer srv(
        server::default_server_binary(),
        {"--threads=2", "--crash-at=frames:" + std::to_string(crash_frame)});
    if (!srv.health().ok()) die("spawn: " + srv.health().ToString());
    const std::string label = std::string(cfg.name) + " crash@" +
                              std::to_string(crash_frame);

    const auto t0 = Clock::now();
    bool failed = true;
    auto built = build_remote(cfg, srv.host(), srv.port());
    if (built.ok()) {
      std::vector<Record> got;
      const Status st = run_sort(*built, records, &got);
      if (st.ok()) {
        failed = false;
        if (got == expected) {
          ++tally.completed;
        } else {
          ++tally.silent;
          bench::note("SILENT CORRUPTION: " + label +
                      " completed with wrong output");
        }
      } else if (st.code() == StatusCode::kIo ||
                 st.code() == StatusCode::kTimeout ||
                 st.code() == StatusCode::kIntegrity) {
        ++tally.clean_failed;
      } else {
        ++tally.other_errors;
        bench::note("UNEXPECTED ERROR: " + label + ": " + st.ToString());
      }
    } else if (IsRetryable(built.status().code())) {
      ++tally.clean_failed;  // crash landed inside the handshake
    } else {
      ++tally.other_errors;
      bench::note("UNEXPECTED BUILD ERROR: " + label + ": " +
                  built.status().ToString());
    }
    trial_ms_total += ms_between(t0, Clock::now());
    if (srv.wait_exit(/*timeout_ms=*/1).code == kCrashExitCode)
      ++tally.crashes_tripped;

    if (failed) {
      // Recovery: a fresh crash-free server + fresh session must complete
      // identically -- the failure left nothing poisoned behind.
      server::SpawnedServer fresh(server::default_server_binary(),
                                  {"--threads=2"});
      if (!fresh.health().ok()) die("rerun spawn: " + fresh.health().ToString());
      auto again = build_remote(cfg, fresh.host(), fresh.port());
      std::vector<Record> got;
      if (!again.ok() || !run_sort(*again, records, &got).ok() ||
          got != expected) {
        ++tally.rerun_divergent;
        bench::note("RERUN DIVERGED: " + label);
      }
      (void)fresh.terminate();
    }
  }

  bool claim_met = true;
  Table t({"trials", "completed", "clean_failed", "silent", "other",
           "rerun_divergent", "crashes_tripped", "avg ms/trial"});
  t.add_row({std::to_string(trials), std::to_string(tally.completed),
             std::to_string(tally.clean_failed), std::to_string(tally.silent),
             std::to_string(tally.other_errors),
             std::to_string(tally.rerun_divergent),
             std::to_string(tally.crashes_tripped),
             Table::fmt(trial_ms_total / trials, 1)});
  t.print(std::cout);
  if (tally.silent != 0 || tally.other_errors != 0 ||
      tally.rerun_divergent != 0) {
    bench::note("CLAIM VIOLATED: crashes must fail clean and rerun "
                "identically");
    claim_met = false;
  }
  if (tally.crashes_tripped == 0) {
    bench::note("CLAIM VIOLATED: no trial tripped its armed crash -- the "
                "harness is vacuous");
    claim_met = false;
  }

  // --- Part 2: warm restart over durable freshness ---
  const std::string store_path = temp_path("store");
  const std::string state_path = temp_path("state");
  FileBackendOptions fo;
  fo.path = store_path;
  fo.keep_file = true;
  const auto builder = [&] {
    Session::Builder b;
    b.block_records(4).cache_records(64).seed(0x5eed).file_backed(fo)
        .state_path(state_path);
    return b;
  };
  const auto input = bench::random_records(records, 9);
  double cold_ms = 0, warm_ms = 0;
  {
    const auto t0 = Clock::now();
    auto cold = builder().build();
    if (!cold.ok()) die("cold build: " + cold.status().ToString());
    auto data = cold->outsource(input);
    if (!data.ok()) die("cold outsource: " + data.status().ToString());
    if (!cold->flush_storage().ok()) die("cold flush failed");
    if (!cold->persist_freshness().ok()) die("cold persist failed");
    cold_ms = ms_between(t0, Clock::now());
  }
  const std::uint64_t fp_cold = file_fingerprint(store_path);

  bool warm_identical = false, warm_skipped_reinit = false,
       stateless_fails_closed = false;
  {
    const auto t0 = Clock::now();
    auto warm = builder().build();
    if (!warm.ok()) die("warm build: " + warm.status().ToString());
    ExtArray a = warm->client().alloc(records, Client::Init::kUninit);
    auto got = warm->retrieve(a);
    warm_ms = ms_between(t0, Clock::now());
    warm_identical = got.ok() && *got == input;
    if (!warm_identical)
      bench::note("CLAIM VIOLATED: warm restart did not read its own data (" +
                  got.status().ToString() + ")");
  }
  // Zero re-sealed blocks: the warm pass must not have touched the store.
  warm_skipped_reinit = file_fingerprint(store_path) == fp_cold;
  if (!warm_skipped_reinit)
    bench::note("CLAIM VIOLATED: warm restart re-sealed blocks (store file "
                "changed) -- re-init was NOT skipped");
  // Ablation: without the state file the same read must fail closed -- the
  // durable state, not luck, is what authenticates the reopen.
  fs::remove(state_path);
  {
    auto blind = builder().build();
    if (!blind.ok()) die("stateless build: " + blind.status().ToString());
    ExtArray a = blind->client().alloc(records, Client::Init::kUninit);
    auto got = blind->retrieve(a);
    stateless_fails_closed =
        !got.ok() && got.status().code() == StatusCode::kIntegrity;
    if (!stateless_fails_closed)
      bench::note("CLAIM VIOLATED: reopen WITHOUT freshness state did not "
                  "fail closed as kIntegrity");
  }
  fs::remove(store_path);
  fs::remove(state_path);
  claim_met = claim_met && warm_identical && warm_skipped_reinit &&
              stateless_fails_closed;

  Table w({"phase", "wall ms", "identical", "skipped re-init",
           "stateless fails closed"});
  w.add_row({"cold init", Table::fmt(cold_ms, 1), "-", "-", "-"});
  w.add_row({"warm restart", Table::fmt(warm_ms, 1),
             warm_identical ? "yes" : "NO",
             warm_skipped_reinit ? "yes" : "NO",
             stateless_fails_closed ? "yes" : "NO"});
  w.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"recovery\",\"claim_met\":"
        << (claim_met ? "true" : "false") << ",\"trials\":" << trials
        << ",\"completed\":" << tally.completed
        << ",\"clean_failed\":" << tally.clean_failed
        << ",\"silent\":" << tally.silent
        << ",\"other_errors\":" << tally.other_errors
        << ",\"rerun_divergent\":" << tally.rerun_divergent
        << ",\"crashes_tripped\":" << tally.crashes_tripped
        << ",\"cold_ms\":" << cold_ms << ",\"warm_ms\":" << warm_ms
        << ",\"warm_identical\":" << (warm_identical ? "true" : "false")
        << ",\"warm_skipped_reinit\":"
        << (warm_skipped_reinit ? "true" : "false")
        << ",\"stateless_fails_closed\":"
        << (stateless_fails_closed ? "true" : "false") << "}\n";
    bench::note("wrote " + json_path);
  }
  return claim_met ? 0 : 1;
}
