// E14: multi-session oblivious-KV load against the real oem-server binary.
//
// Spawns oem-server as a SUBPROCESS (a real exec boundary -- nothing shares
// an address space with the clients), then hammers it with --clients
// concurrent Sessions, each running an ORAM-backed oblivious-KV request mix
// over its own TCP connection and private store namespace.  Two server
// configurations are measured with the identical client workload:
//
//   serial    --threads=1  (the old single-dispatch accept loop)
//   threaded  --threads=N  (the worker pool; default N = --clients)
//
// The harness reports aggregate throughput and client-observed p50/p99
// access latency, and writes the grid as a JSON artifact with --json=PATH
// (CI uploads BENCH_server_load.json).  The exit code enforces what no
// timing can move: every access of every client returns Ok with the
// expected value, and both servers exit 0 on SIGTERM.  The threaded-vs-
// serial throughput ratio is informational -- on loopback it measures the
// host's cores and scheduler.  That the worker pool really serves
// connections at once is ServerWorkerPool.ParallelWorkersOverlapServiceTime
// (server_test), against a store that holds every read.
//
//   bench_server_load [--clients=8] [--items=64] [--ops=48] [--threads=0]
//                     [--server-bin=PATH] [--json=PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bench_common.h"
#include "server/subprocess.h"
#include "util/flags.h"
#include "rng/random.h"
#include "util/table.h"

namespace oem {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct LoadResult {
  bool ok = false;
  int server_exit = -1;
  std::uint64_t total_ops = 0;
  double wall_ms = 0;         // barrier release -> last client done
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

double percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * (sorted_us.size() - 1));
  return sorted_us[idx];
}

/// One full measurement: spawn the binary with `server_threads` workers, run
/// `clients` concurrent ORAM sessions of `ops` accesses each, SIGTERM the
/// server, and fold the per-op latencies.
LoadResult run_mode(const std::string& server_bin, std::size_t server_threads,
                    std::size_t clients, std::uint64_t items, std::uint64_t ops) {
  LoadResult r;
  server::SpawnedServer srv(
      server_bin, {"--backend=mem", "--threads=" + std::to_string(server_threads)});
  if (!srv.health().ok()) {
    std::fprintf(stderr, "spawn (%zu threads): %s\n", server_threads,
                 srv.health().ToString().c_str());
    return r;
  }

  // Phase 1 (untimed): every client connects and builds its ORAM.  The
  // barrier then releases all request loops at once, so the timed region
  // is pure steady-state load -- no setup skew between fast/slow starters.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool go = false;
  Clock::time_point t0;
  std::atomic<int> failures{0};
  std::vector<std::vector<double>> lat_us(clients);
  std::vector<Clock::time_point> done(clients);

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      auto fail = [&](const Status& st, const char* what) {
        std::fprintf(stderr, "client %zu: %s: %s\n", c, what,
                     st.ToString().c_str());
        failures.fetch_add(1);
      };
      auto built = Session::Builder()
                       .block_records(4)
                       .cache_records(64)
                       .seed(100 + c)
                       .remote(srv.host(), srv.port())
                       .build();
      if (!built.ok()) {
        fail(built.status(), "build");
        {
          std::lock_guard<std::mutex> lk(mu);
          ++ready;
        }
        cv.notify_all();
        return;
      }
      Session session = std::move(built).value();
      auto oram = session.open_oram(items, oram::ShuffleKind::kRandomized,
                                    /*seed=*/23 + c);
      if (!oram.ok()) {
        fail(oram.status(), "open_oram");
        {
          std::lock_guard<std::mutex> lk(mu);
          ++ready;
        }
        cv.notify_all();
        return;
      }
      {
        std::unique_lock<std::mutex> lk(mu);
        ++ready;
        cv.notify_all();
        cv.wait(lk, [&] { return go; });
      }
      rng::Xoshiro g(500 + c);
      lat_us[c].reserve(ops);
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t idx = g.next() % items;
        const auto a = Clock::now();
        auto v = oram->access(idx);
        lat_us[c].push_back(ms_between(a, Clock::now()) * 1000.0);
        if (!v.ok()) {
          fail(v.status(), "access");
          break;
        }
        if (*v != oram->expected_value(idx)) {
          std::fprintf(stderr, "client %zu: wrong value at %llu\n", c,
                       static_cast<unsigned long long>(idx));
          failures.fetch_add(1);
          break;
        }
      }
      done[c] = Clock::now();
    });

  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return ready == clients; });
    go = true;
    t0 = Clock::now();
  }
  cv.notify_all();
  for (auto& t : threads) t.join();

  Clock::time_point last = t0;
  std::vector<double> merged;
  for (std::size_t c = 0; c < clients; ++c) {
    if (done[c] > last) last = done[c];
    merged.insert(merged.end(), lat_us[c].begin(), lat_us[c].end());
  }
  r.server_exit = srv.terminate();
  r.total_ops = merged.size();
  r.ok = failures.load() == 0 && r.server_exit == 0 && r.total_ops == clients * ops;
  r.wall_ms = ms_between(t0, last);
  r.ops_per_sec = r.wall_ms > 0 ? r.total_ops / (r.wall_ms / 1000.0) : 0;
  std::sort(merged.begin(), merged.end());
  r.p50_us = percentile(merged, 0.50);
  r.p99_us = percentile(merged, 0.99);
  r.max_us = merged.empty() ? 0 : merged.back();
  return r;
}

std::string json_row(const char* mode, std::size_t server_threads,
                     const LoadResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"mode\":\"%s\",\"server_threads\":%zu,\"ops\":%llu,"
                "\"wall_ms\":%.3f,\"ops_per_sec\":%.1f,\"p50_us\":%.1f,"
                "\"p99_us\":%.1f,\"max_us\":%.1f,\"server_exit\":%d}",
                mode, server_threads,
                static_cast<unsigned long long>(r.total_ops), r.wall_ms,
                r.ops_per_sec, r.p50_us, r.p99_us, r.max_us, r.server_exit);
  return buf;
}

}  // namespace
}  // namespace oem

int main(int argc, char** argv) {
  using namespace oem;
  Flags flags(argc, argv);
  const std::size_t clients = flags.get_u64("clients", 8);
  const std::uint64_t items = flags.get_u64("items", 64);
  const std::uint64_t ops = flags.get_u64("ops", 48);
  std::size_t threads = flags.get_u64("threads", 0);  // 0 = one per client
  const std::string server_bin =
      flags.get("server-bin", server::default_server_binary());
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();
  if (clients < 1 || items < 4 || ops < 1) {
    std::fprintf(stderr, "--clients >= 1, --items >= 4, --ops >= 1 required\n");
    return 2;
  }
  if (threads == 0) threads = clients;

  bench::banner("E14", "oem-server under multi-session oblivious-KV load");
  bench::note(std::to_string(clients) + " concurrent ORAM sessions x " +
              std::to_string(ops) + " accesses over " + std::to_string(items) +
              " items; server = " + server_bin);

  const LoadResult serial = run_mode(server_bin, 1, clients, items, ops);
  const LoadResult pooled = run_mode(server_bin, threads, clients, items, ops);

  Table t({"mode", "server threads", "ops", "wall ms", "ops/s", "p50 us",
           "p99 us", "server exit"});
  t.add_row({"serial", "1", std::to_string(serial.total_ops),
             Table::fmt(serial.wall_ms, 1), Table::fmt(serial.ops_per_sec, 1),
             Table::fmt(serial.p50_us, 1), Table::fmt(serial.p99_us, 1),
             std::to_string(serial.server_exit)});
  t.add_row({"threaded", std::to_string(threads), std::to_string(pooled.total_ops),
             Table::fmt(pooled.wall_ms, 1), Table::fmt(pooled.ops_per_sec, 1),
             Table::fmt(pooled.p50_us, 1), Table::fmt(pooled.p99_us, 1),
             std::to_string(pooled.server_exit)});
  t.print(std::cout);

  const double speedup =
      serial.ops_per_sec > 0 ? pooled.ops_per_sec / serial.ops_per_sec : 0;
  const bool met = serial.ok && pooled.ok;
  bench::note("threaded vs serial throughput (informational): " +
              Table::fmt(speedup, 2) + "x");
  bench::note(met ? "E14 claim (every access Ok at " + std::to_string(clients) +
                        " clients, clean server exits): MET"
                  : "E14 claim: NOT MET");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"server_load\",\"clients\":" << clients
        << ",\"items\":" << items << ",\"ops_per_client\":" << ops
        << ",\"speedup\":" << Table::fmt(speedup, 3)
        << ",\"claim_met\":" << (met ? "true" : "false") << ",\"rows\":["
        << json_row("serial", 1, serial) << ","
        << json_row("threaded", threads, pooled) << "]}\n";
    bench::note("wrote " + json_path);
  }
  return met ? 0 : 1;
}
