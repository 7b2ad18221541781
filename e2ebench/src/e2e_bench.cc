// e2e_bench: one end-to-end run of the real outsourced stack.
//
//   e2e_bench --workload=sort_big|select_compact_hot|oram_kv --seed=N
//             --seconds=S --trace=0|1
//
// Every workload drives the public Session/Oram API in a closed loop over
//
//   Session (core algorithms, client crypto, pipeline + 2 compute lanes)
//     -> device -> async_prefetch (depth 4) -> cache -> sharded(2)
//     -> [probe] -> RemoteBackend  ==wire==>  oem-server --backend=file
//                                             --engine=threads --threads=2
//
// with no sleep model anywhere.  The probes (probe.h) are this benchmark's
// own decorators at the per-shard Session::Builder::backend() seam.
//
// A run is a sequence of segments.  Each segment is one fresh set-up -- a new
// server with new temp files, a new session built with the run's seed, the
// input outsourced or the ORAM opened, one warm-up op -- followed by the
// workload's fixed number of measured ops.  One session exists at a time.
// --trace=0 runs segments for --seconds and reports the end-to-end metrics;
// setup_s is the median over the run's set-ups.  --trace=1 runs the same ops
// twice with the same seed -- untimed probes first, then timed probes plus
// per-op spans -- checks that both runs gave Bob the identical trace and that
// the master thread's ledger closes, and reports the per-layer metrics of the
// traced run.
//
// Every op's output is checked outside the timed region.  The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the line
// before it ("e2e-report {...}") carries the configuration, the first op's
// trace hash and the block I/O count that run.py's invariance guard compares.
#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "core/select.h"
#include "extmem/arena.h"
#include "extmem/remote.h"
#include "probe.h"
#include "rng/random.h"
#include "server/subprocess.h"
#include "util/flags.h"

namespace e2e {
namespace {

using oem::Record;
using oem::Result;
using oem::Session;
using oem::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload shapes.

constexpr std::size_t kShards = 2;
constexpr std::size_t kComputeThreads = 2;
constexpr std::size_t kPipelineDepth = 4;
constexpr const char* kServerArgs[] = {"--backend=file", "--engine=threads",
                                       "--threads=2"};

struct Shape {
  const char* name;
  std::size_t B;             // records per block
  std::uint64_t M;           // client memory, records
  std::size_t cache_blocks;  // block cache, blocks
  std::uint64_t items;       // records per input array, or ORAM items
  std::uint64_t segment_ops; // measured ops per set-up; a run is whole segments
  double tail_pct;           // percentile reported as op_tail_ms
  std::uint64_t tail_window; // ...taken per window of this many ops (0 = whole run)
  std::uint64_t chunk_ops;   // throughput and op_p50_ms are taken per chunk of this many ops
  double phase_pct;          // ...and the chunk (tail window) reported is the one at
                             // this percentile, fastest counting highest
};

// sort_big: 1024 data blocks, 8x the cache; one recursion level.
// select_compact_hot: two 512-block inputs, whose scratch peaks at 4096
// blocks, inside an 8192-block cache.  oram_kv: n = 1024 items, so one
// access in sqrt(n) = 32 (3.1%) reshuffles and the p99 sits inside the
// reshuffle mode; the main array (264 blocks) is 4.1x the cache.  A window
// of 1024 accesses leaves 10 beyond its p99.
//
// Segments are short enough that a run holds several set-ups, spread over
// the run like its ops, so setup_s meets the same host conditions the ops
// do.  On oram_kv a segment is 64 whole epochs: every segment holds 64
// reshuffles, and the store -- which grows by each reshuffle's unreclaimed
// sort scratch -- has the same size at the same op of every segment,
// whatever the length of the run.
//
// The shared host switches speed for seconds at a time, and the ORAM's
// small-frame stream feels it most: its rate is bimodal (about 750 and 1650
// accesses/s), and the share of a run spent in each mode varies from run to
// run.  So oram_kv reports its time metrics from the host's fast phase: the
// chunk or tail window at the 90th percentile, fastest counting highest.
// The others report the median chunk.
constexpr Shape kShapes[] = {
    {"sort_big", 32, 8192, 128, 32768, 4, 50.0, 0, 1, 50.0},
    {"select_compact_hot", 8, 2048, 8192, 4096, 64, 90.0, 128, 16, 50.0},
    {"oram_kv", 4, 256, 64, 1024, 2048, 99.0, 1024, 512, 90.0},
};

/// The traced run fails when the measured parts of the master thread's op
/// time over-cover its wall time by more than this share (see Ledger in
/// README.md).
constexpr double kLedgerTolerance = 0.05;

// ---------------------------------------------------------------------------
// Small helpers.

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Linear-interpolated percentile of `v` (copied, so callers keep order).
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return 0.0;
}

/// What the spawned server process has used so far: CPU over all its threads
/// (sum of /proc/<pid>/task/*/schedstat run times) and the bytes its file
/// store moved through read/write syscalls (/proc/<pid>/io rchar/wchar --
/// socket traffic goes through send/recv, which these do not count).
struct ServerUsage {
  std::uint64_t cpu_ns = 0;
  std::uint64_t rchar = 0;
  std::uint64_t wchar = 0;
};

ServerUsage server_usage(pid_t pid) {
  ServerUsage u;
  const std::string base = "/proc/" + std::to_string(pid);
  if (DIR* d = opendir((base + "/task").c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      std::ifstream s(base + "/task/" + e->d_name + "/schedstat");
      std::uint64_t run_ns = 0;
      if (s >> run_ns) u.cpu_ns += run_ns;
    }
    closedir(d);
  }
  std::ifstream io(base + "/io");
  std::string key;
  std::uint64_t v = 0;
  while (io >> key >> v) {
    if (key == "rchar:") u.rchar = v;
    if (key == "wchar:") u.wchar = v;
  }
  return u;
}

std::vector<Record> random_records(std::uint64_t n, std::uint64_t seed) {
  oem::rng::Xoshiro g(seed);
  std::vector<Record> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = {g.next() >> 1, i};
  return v;
}

/// Order-independent fingerprint of a record multiset.
std::uint64_t multiset_hash(const std::vector<Record>& v) {
  std::uint64_t h = v.size();
  for (const Record& r : v)
    h += oem::rng::mix64(r.key ^ oem::rng::mix64(r.value + 0x51ed27));
  return h;
}

/// n * max(1, log_m n): the constant-free Theorem 21 bound in block I/Os.
double sort_bound(double n, double m) {
  return n * std::max(1.0, std::log(n) / std::log(m));
}

// ---------------------------------------------------------------------------
// The stack: a spawned server plus one session over it.

struct Stack {
  std::unique_ptr<oem::server::SpawnedServer> server;
  std::vector<std::shared_ptr<ProbeCounters>> probes;  // one per shard
  std::optional<Session> session;

  ProbeTotals wire() const {
    ProbeTotals t;
    for (const auto& p : probes) t += p->totals();
    return t;
  }
  /// Appends the frame latencies recorded since the last call to `us`.
  void take_frame_us(std::vector<double>* us) {
    for (const auto& p : probes)
      for (std::uint64_t ns : p->take_frame_ns()) us->push_back(static_cast<double>(ns) / 1e3);
  }
  /// Drops the session (its cache writes back), then SIGTERMs the server.
  /// Returns the server's exit code (0 = clean shutdown).
  int close() {
    session.reset();
    return server ? server->terminate() : -1;
  }
};

Result<std::unique_ptr<Stack>> open_stack(const Shape& shape, std::uint64_t seed,
                                          bool timed_probes) {
  auto stack = std::make_unique<Stack>();
  stack->server = std::make_unique<oem::server::SpawnedServer>(
      oem::server::default_server_binary(),
      std::vector<std::string>(std::begin(kServerArgs), std::end(kServerArgs)));
  OEM_RETURN_IF_ERROR(stack->server->health());

  oem::RemoteBackendOptions remote;
  remote.host = stack->server->host();
  remote.port = stack->server->port();
  // Deterministic store namespace; the low bits carry the shard index.
  const std::uint64_t store_namespace = oem::rng::mix64(seed) & ~std::uint64_t{0x3ff};
  auto* probes = &stack->probes;
  // Session::Builder invokes a custom factory once per shard, in shard order.
  oem::BackendFactory per_shard = [remote, store_namespace, probes,
                                   timed_probes](std::size_t block_words)
      -> std::unique_ptr<oem::StorageBackend> {
    oem::RemoteBackendOptions opts = remote;
    opts.store_id = store_namespace | probes->size();
    probes->push_back(std::make_shared<ProbeCounters>());
    return std::make_unique<ProbeBackend>(
        std::make_unique<oem::RemoteBackend>(block_words, opts), probes->back(),
        timed_probes);
  };
  auto built = Session::Builder()
                   .block_records(shape.B)
                   .cache_records(shape.M)
                   .seed(seed)
                   .compute_threads(kComputeThreads)
                   .pipeline_depth(kPipelineDepth)
                   .cache(shape.cache_blocks)
                   .sharded(kShards)
                   .async_prefetch()
                   .backend(std::move(per_shard))
                   .build();
  if (!built.ok()) return built.status();
  stack->session.emplace(std::move(built).value());
  return stack;
}

// ---------------------------------------------------------------------------
// Workloads.  Op i is a pure function of (seed, i): two sessions built with
// one seed run identical op sequences, so their device traces must match.

struct OpInfo {
  double sort_levels = 0;
  double sort_nodes = 0;
};

class Workload {
 public:
  explicit Workload(const Shape& shape, std::uint64_t seed) : shape_(shape), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Set-up after the session is built: outsource the input / open the ORAM.
  virtual Status prepare(Session& s) = 0;
  /// Ops in one group: one op, or one ORAM epoch.  The store footprint and
  /// the RSS are read after the run's first measured group.
  virtual std::uint64_t group_ops() const { return 1; }
  /// Untimed: load op i's input.
  virtual Status stage(Session&, std::uint64_t) { return Status::Ok(); }
  /// Timed: the op itself.
  virtual Status run(Session& s, std::uint64_t i, OpInfo* info) = 0;
  /// Untimed: check op i's output against a plaintext reference.
  virtual Status verify(Session& s, std::uint64_t i) = 0;
  /// True for ops that carry extra periodic work (the ORAM reshuffle).
  virtual bool heavy(std::uint64_t) const { return false; }

  virtual double records_per_op() const = 0;
  virtual double input_blocks() const = 0;
  /// The paper's bound for one op, in block I/Os, constants dropped.
  virtual double ios_bound_per_op() const = 0;

 protected:
  std::uint64_t op_seed(std::uint64_t i) const {
    return oem::rng::mix64(seed_ * 0x9e3779b97f4a7c15ULL + i + 1);
  }
  double n_blocks(std::uint64_t records) const {
    return std::ceil(static_cast<double>(records) / static_cast<double>(shape_.B));
  }
  double m_blocks() const { return static_cast<double>(shape_.M / shape_.B); }

  const Shape& shape_;
  const std::uint64_t seed_;
};

/// A wrong answer from an op that itself returned Ok.
Status wrong(const std::string& what) {
  return Status::InvalidArgument("wrong output: " + what);
}

/// Load `v` into the existing array `a` and push it below the cache, so every
/// op starts from a clean cache with its input on the server.
Status reload(Session& s, const oem::ExtArray& a, const std::vector<Record>& v) {
  try {
    s.client().poke(a, v);
  } catch (const std::exception& e) {
    return Status::Io(e.what());
  }
  return s.flush_storage();
}

// Theorem 21 on fresh random records, sorted in place with a fresh seed.
class SortBig : public Workload {
 public:
  using Workload::Workload;

  Status prepare(Session& s) override {
    input_ = random_records(shape_.items, op_seed(0));
    auto a = s.outsource(input_);
    if (!a.ok()) return a.status();
    a_ = *a;
    ref_ = multiset_hash(input_);
    return s.flush_storage();
  }
  Status stage(Session& s, std::uint64_t i) override {
    if (i == 0) return Status::Ok();  // prepare() outsourced op 0's input
    input_ = random_records(shape_.items, op_seed(i));
    ref_ = multiset_hash(input_);
    return reload(s, a_, input_);
  }
  Status run(Session& s, std::uint64_t i, OpInfo* info) override {
    auto r = s.sort(a_, op_seed(i), shape_opts());
    if (!r.ok()) return r.status();
    info->sort_levels = r->stats.levels;
    info->sort_nodes = static_cast<double>(r->stats.nodes);
    if (r->stats.levels == 0)
      return wrong("sort ran without recursion (SortStats::levels == 0)");
    return Status::Ok();
  }
  Status verify(Session& s, std::uint64_t) override {
    auto out = s.retrieve(a_);
    if (!out.ok()) return out.status();
    for (std::size_t j = 1; j < out->size(); ++j)
      if ((*out)[j - 1].key > (*out)[j].key)
        return wrong("sort output not nondecreasing");
    if (multiset_hash(*out) != ref_) return wrong("sort output lost records");
    return Status::Ok();
  }
  double records_per_op() const override { return static_cast<double>(shape_.items); }
  double input_blocks() const override { return n_blocks(shape_.items); }
  double ios_bound_per_op() const override {
    return sort_bound(n_blocks(shape_.items), m_blocks());
  }

 private:
  // Recursion forced on at lab scale, as in bench/bench_sorting.cc, except
  // that recursion engages above 512 blocks instead of 2048: at 2048+ blocks
  // one sort takes seconds over this stack, too few per run for a median.
  static oem::core::ObliviousSortOptions shape_opts() {
    oem::core::ObliviousSortOptions o;
    o.paper_dense_rule = false;
    o.sparse_quantiles = true;
    o.quantiles.paper_intervals = false;
    o.min_recursive_blocks = 512;
    return o;
  }

  oem::ExtArray a_;
  std::vector<Record> input_;
  std::uint64_t ref_ = 0;
};

// Theorem 13 median selection, then Lemma 3 + Theorem 6 compaction of a
// half-empty array.
class SelectCompactHot : public Workload {
 public:
  using Workload::Workload;

  Status prepare(Session& s) override {
    make_inputs(0);
    auto a = s.outsource(full_);
    if (!a.ok()) return a.status();
    a_ = *a;
    auto c = s.outsource(sparse_);
    if (!c.ok()) return c.status();
    c_ = *c;
    return s.flush_storage();
  }
  Status stage(Session& s, std::uint64_t i) override {
    if (i == 0) return Status::Ok();
    make_inputs(i);
    OEM_RETURN_IF_ERROR(reload(s, a_, full_));
    return reload(s, c_, sparse_);
  }
  Status run(Session& s, std::uint64_t i, OpInfo*) override {
    auto sel = s.select(a_, k(), op_seed(i), oem::core::practical_select_options());
    if (!sel.ok()) return sel.status();
    selected_ = *sel;
    auto cmp = s.compact(c_);
    if (!cmp.ok()) return cmp.status();
    compacted_ = *cmp;
    return Status::Ok();
  }
  Status verify(Session& s, std::uint64_t) override {
    auto out = s.retrieve(compacted_.out);
    OEM_RETURN_IF_ERROR(s.discard(compacted_.out));
    if (!out.ok()) return out.status();
    if (!(selected_ == kth_)) return wrong("select returned the wrong record");
    if (compacted_.kept != kept_.size() || *out != kept_)
      return wrong("compact kept the wrong records");
    return Status::Ok();
  }
  double records_per_op() const override { return 2.0 * static_cast<double>(shape_.items); }
  double input_blocks() const override { return 2.0 * n_blocks(shape_.items); }
  // Theorem 13 and Theorem 6 are both linear: n + n.
  double ios_bound_per_op() const override { return 2.0 * n_blocks(shape_.items); }

 private:
  std::uint64_t k() const { return shape_.items / 2; }
  void make_inputs(std::uint64_t i) {
    full_ = random_records(shape_.items, op_seed(i));
    std::vector<Record> sorted = full_;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(k() - 1),
                     sorted.end(), oem::RecordLess{});
    kth_ = sorted[k() - 1];
    sparse_ = random_records(shape_.items, op_seed(i) ^ 0x5a5a);
    oem::rng::Xoshiro coin(op_seed(i) ^ 0xc01);
    kept_.clear();
    for (Record& r : sparse_) {
      if (coin.next() & 1) r = Record{};
      else kept_.push_back(r);
    }
  }

  oem::ExtArray a_, c_;
  std::vector<Record> full_, sparse_, kept_;
  Record kth_;
  Record selected_;
  oem::CompactReport compacted_;
};

// Square-root ORAM reads of random indices; every sqrt(n)-th access
// reshuffles with the Theorem 21 sort.
class OramKv : public Workload {
 public:
  using Workload::Workload;

  Status prepare(Session& s) override {
    auto o = s.open_oram(shape_.items, oem::oram::ShuffleKind::kRandomized, op_seed(0));
    if (!o.ok()) return o.status();
    oram_.emplace(std::move(o).value());
    epoch_ = oram_->epoch_length();
    return Status::Ok();
  }
  std::uint64_t group_ops() const override { return epoch_; }
  Status run(Session&, std::uint64_t i, OpInfo*) override {
    auto v = oram_->access(index(i));
    if (!v.ok()) return v.status();
    value_ = *v;
    return Status::Ok();
  }
  Status verify(Session&, std::uint64_t i) override {
    if (value_ != oram_->expected_value(index(i)))
      return wrong("ORAM returned the wrong value");
    return Status::Ok();
  }
  // Op i is the (i+1)-th access of a segment's ORAM: every segment opens a
  // fresh one, warms it up with op 0 and runs whole epochs.
  bool heavy(std::uint64_t i) const override { return (i + 1) % epoch_ == 0; }
  double records_per_op() const override { return 1.0; }
  double input_blocks() const override {
    return n_blocks(shape_.items + epoch_) + n_blocks(epoch_);
  }
  // One access: the stash scan plus one probe; plus its 1/sqrt(n) share of
  // the reshuffle sort over the main array.
  double ios_bound_per_op() const override {
    return n_blocks(epoch_) + 1.0 +
           sort_bound(n_blocks(shape_.items + epoch_), m_blocks()) /
               static_cast<double>(epoch_);
  }
  const oem::oram::SqrtOramStats& stats() const { return oram_->stats(); }

 private:
  std::uint64_t index(std::uint64_t i) const { return op_seed(i) % shape_.items; }

  std::optional<oem::Oram> oram_;
  std::uint64_t epoch_ = 1;
  std::uint64_t value_ = 0;
};

std::unique_ptr<Workload> make_workload(const Shape& shape, std::uint64_t seed) {
  const std::string n = shape.name;
  if (n == "sort_big") return std::make_unique<SortBig>(shape, seed);
  if (n == "select_compact_hot") return std::make_unique<SelectCompactHot>(shape, seed);
  return std::make_unique<OramKv>(shape, seed);
}

// ---------------------------------------------------------------------------
// One set-up: spawn, build, prepare, one warm-up op (op 0).

struct Setup {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Workload> work;
  double seconds = 0;
  Status status;
};

Setup set_up(const Shape& shape, std::uint64_t seed, bool timed_probes) {
  Setup s;
  const auto t0 = Clock::now();
  auto stack = open_stack(shape, seed, timed_probes);
  if (!stack.ok()) {
    s.status = stack.status();
    return s;
  }
  s.stack = std::move(stack).value();
  s.work = make_workload(shape, seed);
  Session& session = *s.stack->session;
  s.status = s.work->prepare(session);
  if (s.status.ok()) s.status = s.work->stage(session, 0);
  const double ready_ms = ms_between(t0, Clock::now());
  double warm_ms = 0;
  if (s.status.ok()) {
    OpInfo info;
    const auto w0 = Clock::now();
    s.status = s.work->run(session, 0, &info);
    warm_ms = ms_between(w0, Clock::now());
    if (s.status.ok()) s.status = s.work->verify(session, 0);
    session.compact_arena();
  }
  s.seconds = (ready_ms + warm_ms) / 1e3;
  return s;
}

/// Tears a set-up down; a server exit other than 0 is a failure.
Status tear_down(Setup& s) {
  s.work.reset();
  if (!s.stack) return s.status;
  const int code = s.stack->close();
  if (code != 0)
    return Status::Io("oem-server exited with " + std::to_string(code));
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// A measured run: whole segments, each on its own set-up.

struct Pass {
  std::vector<double> setup_s;  // one per segment
  std::vector<double> op_ms;
  std::vector<bool> heavy;
  std::vector<std::uint64_t> op_hash;  // device trace hash per op
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::uint64_t block_ios = 0;
  ProbeTotals wire;
  double first_arena_blocks = 0;  // after the run's first op group
  double first_rss_mb = 0;        // peak RSS after the run's first op group
  // The workload's constants, taken from the first set-up.
  double records_per_op = 0, input_blocks = 0, ios_bound = 0;
  // Traced passes only.
  double crypto_ms = 0, compute_ms = 0, wait_ms = 0, self_ms = 0, gap_ms = 0;
  double client_cpu_ms = 0;
  double server_cpu_ms = 0;
  double sort_levels = 0, sort_nodes = 0;
  std::uint64_t device_frames = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_inner = 0, cache_evictions = 0;
  std::uint64_t arena_allocations = 0;
  std::uint64_t server_rchar = 0, server_wchar = 0;
  std::uint64_t oram_access_ios = 0, oram_reshuffle_ios = 0;
  double growth_blocks = 0;      // arena growth within segments after their first group
  std::uint64_t growth_ops = 0;  // ...over this many ops
  std::vector<double> frame_us;

  double sum_op_ms() const {
    double s = 0;
    for (double v : op_ms) s += v;
    return s;
  }
  /// Ops per second within each consecutive chunk of `chunk` ops.
  std::vector<double> chunk_rates(std::uint64_t chunk) const {
    std::vector<double> rates;
    for (std::size_t at = 0; at + chunk <= op_ms.size(); at += chunk) {
      double ms = 0;
      for (std::size_t i = at; i < at + chunk; ++i) ms += op_ms[i];
      rates.push_back(static_cast<double>(chunk) * 1e3 / ms);
    }
    return rates;
  }
  /// The `pct` percentile of op time within each consecutive window of
  /// `window` ops (0 = one window, the whole run).
  std::vector<double> window_pcts(double pct, std::uint64_t window) const {
    if (window == 0 || op_ms.size() < window) return {percentile(op_ms, pct)};
    std::vector<double> out;
    for (std::size_t at = 0; at + window <= op_ms.size(); at += window)
      out.push_back(percentile({op_ms.begin() + static_cast<std::ptrdiff_t>(at),
                                op_ms.begin() + static_cast<std::ptrdiff_t>(at + window)},
                               pct));
    return out;
  }
};

void fail_op(Pass& p, const Status& st) {
  ++p.failed;
  if (p.first_error.empty()) p.first_error = st.ToString();
}

/// Runs `n` measured ops on set-up `s`.  Op indices run on across segments
/// (op 0 is every set-up's warm-up).  `traced` adds the per-op spans and
/// layer counters.
void run_segment(Setup& s, std::uint64_t n, bool traced, Pass& p) {
  Session& session = *s.stack->session;
  Workload& w = *s.work;
  const pid_t server_pid = s.stack->server->pid();
  const std::uint64_t group = w.group_ops();
  const std::uint64_t first = 1 + p.ops;
  const auto* oram = dynamic_cast<const OramKv*>(&w);
  const oem::oram::SqrtOramStats oram0 = oram ? oram->stats() : oem::oram::SqrtOramStats{};
  double group_arena_blocks = 0;
  for (std::uint64_t i = first; i < first + n; ++i) {
    ++p.ops;
    Status st = w.stage(session, i);
    if (!st.ok()) {
      fail_op(p, st);
      continue;
    }
    const oem::IoStats io0 = session.stats();
    const ProbeTotals wire0 = s.stack->wire();
    oem::CacheStats c0;
    oem::ArenaStats a0;
    ServerUsage u0;
    std::uint64_t cpu0 = 0, tcpu0 = 0;
    if (traced) {
      std::vector<double> staging_frames;  // the untimed stage's, dropped
      s.stack->take_frame_us(&staging_frames);
      c0 = session.cache_stats();
      a0 = oem::global_staging_arena().stats();
      u0 = server_usage(server_pid);
      cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
      tcpu0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    }
    session.trace().reset();
    OpInfo info;
    const auto t0 = Clock::now();
    st = w.run(session, i, &info);
    const auto t1 = Clock::now();
    const double op_ms = ms_between(t0, t1);
    p.op_hash.push_back(session.trace().hash());
    p.op_ms.push_back(op_ms);
    p.heavy.push_back(w.heavy(i));
    const oem::IoStats& io1 = session.stats();
    p.block_ios += io1.total() - io0.total();
    p.wire += s.stack->wire() - wire0;
    if (traced) {
      const double tcpu_ms = static_cast<double>(clock_ns(CLOCK_THREAD_CPUTIME_ID) - tcpu0) / 1e6;
      const double cpu_ms = static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e6;
      const ServerUsage u1 = server_usage(server_pid);
      const oem::CacheStats c1 = session.cache_stats();
      const oem::ArenaStats a1 = oem::global_staging_arena().stats();
      // The master thread's ledger: library-timed crypto and pipeline
      // compute, off-CPU time as the device wait, the core's own time as
      // the remainder.  Barrier waits inside crypto/compute are also
      // off-CPU; that double count is the ledger gap.
      const double crypto = static_cast<double>(io1.crypto_ns - io0.crypto_ns) / 1e6;
      const double compute = static_cast<double>(io1.compute_ns - io0.compute_ns) / 1e6;
      const double wait = std::max(0.0, op_ms - tcpu_ms);
      const double self = op_ms - crypto - compute - wait;
      p.crypto_ms += crypto;
      p.compute_ms += compute;
      p.wait_ms += wait;
      p.self_ms += std::max(0.0, self);
      p.gap_ms += std::max(0.0, -self);
      p.client_cpu_ms += cpu_ms;
      p.server_cpu_ms += static_cast<double>(u1.cpu_ns - u0.cpu_ns) / 1e6;
      p.server_rchar += u1.rchar - u0.rchar;
      p.server_wchar += u1.wchar - u0.wchar;
      p.device_frames += io1.total_ops() - io0.total_ops();
      p.cache_hits += c1.hits - c0.hits;
      p.cache_misses += c1.misses - c0.misses;
      p.cache_inner += (c1.misses - c0.misses) + (c1.writebacks - c0.writebacks);
      p.cache_evictions += c1.evictions - c0.evictions;
      p.arena_allocations += a1.allocations - a0.allocations;
      p.sort_levels += info.sort_levels;
      p.sort_nodes += info.sort_nodes;
      s.stack->take_frame_us(&p.frame_us);
    }
    // The store's footprint after the op, before compact_arena() trims it.
    const double arena = static_cast<double>(session.arena_blocks());
    if (i + 1 - first == group) {
      group_arena_blocks = arena;
      if (p.ops == group) {
        p.first_arena_blocks = arena;
        p.first_rss_mb = peak_rss_mb();
      }
    }
    if (i + 1 == first + n && n > group) {
      p.growth_blocks += arena - group_arena_blocks;
      p.growth_ops += n - group;
    }
    if (st.ok()) st = w.verify(session, i);
    session.compact_arena();
    if (!st.ok()) fail_op(p, st);
  }
  if (oram != nullptr) {
    p.oram_access_ios += oram->stats().access_ios - oram0.access_ios;
    p.oram_reshuffle_ios += oram->stats().reshuffle_ios - oram0.reshuffle_ios;
  }
}

/// Runs whole segments until `seconds` have passed or `max_ops` ops ran
/// (always at least one segment).  `traced` sets up with timed probes and
/// adds the per-op spans and layer counters.  Fails only if a set-up fails.
Status measure(const Shape& shape, std::uint64_t seed, double seconds,
               std::uint64_t max_ops, bool traced, Pass& p) {
  const auto start = Clock::now();
  while (p.ops < max_ops &&
         (p.ops == 0 || ms_between(start, Clock::now()) < seconds * 1e3)) {
    Setup s = set_up(shape, seed, traced);
    p.setup_s.push_back(s.seconds);
    if (!s.status.ok()) {
      tear_down(s);
      return s.status;
    }
    if (p.setup_s.size() == 1) {
      p.records_per_op = s.work->records_per_op();
      p.input_blocks = s.work->input_blocks();
      p.ios_bound = s.work->ios_bound_per_op();
    }
    const std::uint64_t ops0 = p.ops;
    const std::uint64_t failed0 = p.failed;
    run_segment(s, std::min(shape.segment_ops, max_ops - p.ops), traced, p);
    const Status closed = tear_down(s);
    if (!closed.ok()) {
      // Every op of the segment ran under a server that did not shut down cleanly.
      p.failed = failed0 + (p.ops - ops0);
      if (p.first_error.empty()) p.first_error = closed.ToString();
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string config_json(const Shape& shape, std::uint64_t seed, double seconds,
                        double input_blocks) {
  std::ostringstream o;
  o << "{\"workload\": \"" << shape.name << "\", \"seed\": " << seed
    << ", \"seconds\": " << num(seconds) << ", \"N\": " << shape.items
    << ", \"B\": " << shape.B << ", \"M\": " << shape.M
    << ", \"cache_blocks\": " << shape.cache_blocks
    << ", \"input_blocks\": " << num(input_blocks)
    << ", \"input_to_cache\": " << num(input_blocks / static_cast<double>(shape.cache_blocks))
    << ", \"segment_ops\": " << shape.segment_ops
    << ", \"shards\": " << kShards << ", \"connections\": " << kShards
    << ", \"compute_threads\": " << kComputeThreads
    << ", \"pipeline_depth\": " << kPipelineDepth << ", \"server\": \"";
  for (const char* a : kServerArgs) o << a << ' ';
  o << "\", \"tail_pct\": " << num(shape.tail_pct)
    << ", \"tail_window\": " << shape.tail_window << ", \"chunk_ops\": " << shape.chunk_ops
    << ", \"phase_pct\": " << num(shape.phase_pct) << "}";
  return o.str();
}

/// The e2e-report line: the configuration plus what run.py's guard compares.
/// A failure's first error goes to stderr.
void print_report(const std::string& config, const Pass& p, const char* extra) {
  std::cout << "e2e-report {\"config\": " << config << ", \"ops\": " << p.ops
            << ", \"setups\": " << p.setup_s.size()
            << ", \"trace_hash_first\": " << hex(p.op_hash.empty() ? 0 : p.op_hash[0])
            << ", \"block_ios\": " << p.block_ios << extra << "}\n";
  if (!p.first_error.empty())
    std::cerr << "e2e_bench: " << p.failed << " failed op(s), first: " << p.first_error << "\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(ms) << "}" << std::endl;
}

// ---------------------------------------------------------------------------
// The two modes.

int run_untraced(const Shape& shape, std::uint64_t seed, double seconds) {
  Pass p;
  const Status st = measure(shape, seed, seconds, UINT64_MAX, /*traced=*/false, p);
  if (!st.ok()) {
    std::cerr << "e2e_bench: set-up failed: " << st.ToString() << "\n";
    return 1;
  }
  const double ops = static_cast<double>(p.ops);
  // Per chunk (or set-up), then one of them: a burst of outside load skews a
  // few chunks, not the figure.  Rates count the fastest highest, times the
  // lowest.
  const double fast = shape.phase_pct, quick = 100.0 - shape.phase_pct;
  std::vector<Metric> ms = {
      {"setup_s", percentile(p.setup_s, quick), "s"},
      {"throughput_per_s",
       percentile(p.chunk_rates(shape.chunk_ops), fast) * p.records_per_op, "1/s"},
      {"op_p50_ms", percentile(p.window_pcts(50.0, shape.chunk_ops), quick), "ms"},
      {"op_tail_ms", percentile(p.window_pcts(shape.tail_pct, shape.tail_window), quick),
       "ms"},
      {"block_ios_per_op", static_cast<double>(p.block_ios) / ops, "count"},
      {"wire_bytes_per_op",
       static_cast<double>(p.wire.read_bytes + p.wire.write_bytes) / ops, "bytes"},
      {"store_blocks_per_input_block", p.first_arena_blocks / p.input_blocks, "ratio"},
      {"client_rss_mb", p.first_rss_mb, "MB"},
      {"ok_op_share", (ops - static_cast<double>(p.failed)) / ops, "share"},
  };
  print_report(config_json(shape, seed, seconds, p.input_blocks), p, "");
  print_result(p.failed == 0 && p.ops > 0, p.ops, p.failed, ms);
  return 0;
}

int run_traced(const Shape& shape, std::uint64_t seed, double seconds) {
  // Run A: untimed probes, time-bounded.  Run B: same seed, timed probes and
  // spans, exactly as many ops, hence the same segments.
  Pass pa, pb;
  Status st = measure(shape, seed, seconds, UINT64_MAX, /*traced=*/false, pa);
  if (st.ok()) st = measure(shape, seed, 1e12, pa.ops, /*traced=*/true, pb);
  if (!st.ok()) {
    std::cerr << "e2e_bench: set-up failed: " << st.ToString() << "\n";
    return 1;
  }
  // The invariance guard: the probes and spans must not change Bob's view.
  // (Traffic below the cache may differ: which blocks stay resident depends
  // on when split-phase frames complete.)
  const bool same_view =
      pa.ops == pb.ops && pa.op_hash == pb.op_hash && pa.block_ios == pb.block_ios;
  const std::uint64_t failed = std::max(pa.failed, pb.failed);

  const double ops = static_cast<double>(pb.ops);
  const double sum_b = pb.sum_op_ms();
  const double gap_share = pb.gap_ms / sum_b;
  std::vector<double> heavy_ms, light_ms;
  for (std::size_t i = 0; i < pb.op_ms.size(); ++i)
    (pb.heavy[i] ? heavy_ms : light_ms).push_back(pb.op_ms[i]);
  const double dev_frames = static_cast<double>(pb.device_frames);
  const double hit_den = static_cast<double>(pb.cache_hits + pb.cache_misses);
  std::vector<Metric> ms = {
      {"core.ios_over_bound", static_cast<double>(pb.block_ios) / ops / pb.ios_bound, "ratio"},
      {"core.sort_levels", pb.sort_levels / ops, "count"},
      {"core.sort_nodes", pb.sort_nodes / ops, "count"},
      {"core.self_ms_per_op", pb.self_ms / ops, "ms"},
      {"oram.reshuffle_ms",
       heavy_ms.empty() ? 0.0 : median(heavy_ms) - median(light_ms), "ms"},
      {"oram.access_ios", static_cast<double>(pb.oram_access_ios) / ops, "count"},
      {"oram.reshuffle_ios", static_cast<double>(pb.oram_reshuffle_ios) / ops, "count"},
      {"client.crypto_ms_per_op", pb.crypto_ms / ops, "ms"},
      {"client.cpu_ms_per_op", pb.client_cpu_ms / ops, "ms"},
      {"pipeline.compute_ms_per_op", pb.compute_ms / ops, "ms"},
      {"device.frames_per_op", dev_frames / ops, "count"},
      {"device.blocks_per_frame",
       dev_frames > 0 ? static_cast<double>(pb.block_ios) / dev_frames : 0.0, "count"},
      {"device.wait_ms_per_op", pb.wait_ms / ops, "ms"},
      {"device.store_growth_blocks_per_op",
       pb.growth_ops > 0 ? pb.growth_blocks / static_cast<double>(pb.growth_ops) : 0.0,
       "count"},
      {"cache.hit_share", hit_den > 0 ? static_cast<double>(pb.cache_hits) / hit_den : 0.0,
       "share"},
      {"cache.inner_blocks_per_op", static_cast<double>(pb.cache_inner) / ops, "count"},
      {"cache.evictions_per_op", static_cast<double>(pb.cache_evictions) / ops, "count"},
      {"remote.frames_per_op", static_cast<double>(pb.wire.frames) / ops, "count"},
      {"remote.frame_us_p50", median(pb.frame_us), "us"},
      {"remote.busy_ms_per_op", static_cast<double>(pb.wire.busy_ns) / 1e6 / ops, "ms"},
      {"server.cpu_ms_per_op", pb.server_cpu_ms / ops, "ms"},
      {"backend.read_bytes_per_op", static_cast<double>(pb.server_rchar) / ops, "bytes"},
      {"backend.write_bytes_per_op", static_cast<double>(pb.server_wchar) / ops, "bytes"},
      {"arena.allocations_per_op", static_cast<double>(pb.arena_allocations) / ops, "count"},
      {"trace.overhead_share", (sum_b - pa.sum_op_ms()) / pa.sum_op_ms(), "share"},
      {"trace.ledger_gap_share", gap_share, "share"},
  };
  const bool ledger_ok = gap_share <= kLedgerTolerance;
  if (!ledger_ok)
    std::cerr << "e2e_bench: ledger gap " << gap_share << " is over the tolerance "
              << kLedgerTolerance << "\n";
  if (!same_view) std::cerr << "e2e_bench: the traced run changed Bob's view\n";
  if (!pa.first_error.empty())
    std::cerr << "e2e_bench: untraced twin: " << pa.failed
              << " failed op(s), first: " << pa.first_error << "\n";
  print_report(config_json(shape, seed, seconds, pb.input_blocks), pb,
               same_view ? ", \"same_view\": true" : ", \"same_view\": false");
  print_result(same_view && ledger_ok && failed == 0 && pb.ops > 0, pb.ops, failed, ms);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  oem::Flags flags(argc, argv);
  const std::string workload = flags.get("workload", "");
  const std::uint64_t seed = flags.get_u64("seed", 1);
  const double seconds = flags.get_double("seconds", 0.0);  // required
  const std::uint64_t trace = flags.get_u64("trace", 0);
  flags.validate_or_die();
  const e2e::Shape* shape = nullptr;
  for (const e2e::Shape& s : e2e::kShapes)
    if (workload == s.name) shape = &s;
  if (shape == nullptr || trace > 1 || seconds <= 0) {
    std::cerr << "usage: e2e_bench --workload=sort_big|select_compact_hot|oram_kv "
                 "--seed=N --seconds=S --trace=0|1\n";
    return 2;
  }
  return trace == 1 ? e2e::run_traced(*shape, seed, seconds)
                    : e2e::run_untraced(*shape, seed, seconds);
}
