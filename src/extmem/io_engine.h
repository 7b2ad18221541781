// IoEngine: the parallel storage layer behind the BlockDevice.
//
// The paper's client/outsourced-storage model makes block *placement*
// orthogonal to obliviousness: Bob sees the same access sequence whether the
// blocks live on one store or are striped across many, so parallel storage is
// free leverage on wall-clock.  Two composable decorators exploit that:
//
//   * ShardedBackend -- stripes blocks round-robin over K inner backends
//     (block b lives on shard b mod K at inner index b div K) and splits
//     every batch into per-shard sub-frames, begun on ALL involved shards
//     back to back before any is completed.  That one dispatch engine serves
//     both faces: a synchronous read_many/write_many begins its batch and
//     completes it at once, so K remote shards overlap their round trips
//     without a thread per shard; when the shards support split-phase I/O
//     (max_inflight() > 1 -- K RemoteBackends, one connection each), begun
//     batches are completed FIFO per shard, so striping and pipeline depth
//     MULTIPLY -- a sharded(K) stack over remote stores keeps K x depth
//     frames on the wire instead of collapsing the pipeline to one batch
//     round trip at a time.  Per-shard sub-frames whose slice of the
//     caller's buffer is one contiguous run borrow that span end-to-end (no
//     staging memcpy); only strided slices pay a gather/scatter copy.
//
//   * CachingBackend -- a write-back block cache decorator (scan-resistant
//     by default, see CachePolicy).  Writes are
//     absorbed in the cache (dirty blocks reach the store below only on
//     eviction or flush, with dirty neighbors coalesced into one batched
//     write-back frame), re-touched reads are served without an inner op,
//     misses forward the split-phase face so a cache over a remote store
//     keeps its wire pipelining, and a synchronous single-block miss that
//     continues an ascending stream reads the next blocks ahead in the
//     same inner frame.  Sits BELOW the Client's [nonce][mac] seal (it holds
//     sealed blocks, never plaintext) and ABOVE sharding/remote (a hit
//     must cost no round trip); Session::Builder::cache composes
//     it there.  The BlockDevice records the trace at submit time ABOVE
//     this decorator, so Bob's recorded view is unchanged -- the cache only
//     changes which of those accesses still reach the wire, a function of
//     the (data-independent) block-id sequence alone.
//
//   * AsyncBackend -- a decorator exposing submit_read_many/submit_write_many
//     tickets executed by a single background I/O thread in FIFO submission
//     order.  Callers overlap compute with storage I/O; FIFO execution keeps
//     read-after-write and write-after-write hazards impossible by
//     construction.  Synchronous StorageBackend calls drain the queue first,
//     so non-pipelined code paths stay correct unchanged.  AsyncBackend must
//     be the OUTERMOST decorator: the BlockDevice detects it at the top of
//     the stack only, and an AsyncBackend buried under another decorator is
//     driven through the (correct but blocking) synchronous path, losing all
//     overlap.  Session::Builder and bench_common always compose it last.
//
//     When the inner backend supports split-phase I/O (max_inflight() > 1 --
//     a RemoteBackend, possibly under sharding or a cache), the I/O thread
//     keeps up to that many ops begun-but-incomplete at once instead of
//     waiting out each round trip: requests stream onto the wire and
//     responses are completed strictly in submission order, so the FIFO
//     semantics (and every hazard argument built on them) are untouched
//     while the round trips overlap.  This is what turns pipeline depth
//     (PipelineOptions::depth) into wall-clock on a high-RTT store: a
//     serial round trip per window costs 2*RTT/window no matter how many
//     windows are queued, a pipelined wire amortizes the RTT across all
//     in-flight windows.  A kIo completion (a dropped connection loses every
//     later in-flight response with it) drains the whole window and replays
//     each op synchronously in order under the retry budget -- replay is
//     idempotent because the server's applied state is always a prefix of
//     the sent frames.
//
// Neither decorator is visible in the adversary's view: the BlockDevice above
// records the per-block trace at submission time, in program order, and that
// order is a deterministic function of the algorithm's public parameters --
// never of where or when the bytes physically move (see the cross-backend
// trace-equivalence suite in tests/io_engine_test.cc).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "extmem/arena.h"
#include "extmem/backend.h"

namespace oem {

// ---------------------------------------------------------------------------
// ShardedBackend.

class ShardedBackend : public StorageBackend {
 public:
  /// Takes ownership of `shards` (all with the same block_words).
  ShardedBackend(std::size_t block_words,
                 std::vector<std::unique_ptr<StorageBackend>> shards);
  const char* name() const override { return "sharded"; }
  Status health() const override;

  std::size_t num_shards() const { return shards_.size(); }
  StorageBackend& shard(std::size_t s) { return *shards_[s]; }
  const StorageBackend& shard(std::size_t s) const { return *shards_[s]; }
  /// Flush every shard; first error wins.
  Status flush() override;

 protected:
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  /// Begin the batch on every involved shard, then complete it.  Not to be
  /// mixed with outstanding begun batches (the batch must be the oldest).
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  /// Split-phase forwarding: a begun batch becomes one sub-frame per
  /// involved shard, begun back to back (requests from ALL shards go on
  /// their wires before any response is awaited) and completed FIFO per
  /// shard, so K shards each carrying max_inflight frames hold K x depth
  /// batches in flight.  A batch consumes at most one frame per shard, so
  /// the whole stripe can keep min_s max_inflight(shard s) batches open.
  std::size_t do_max_inflight() const override;
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override;

 private:
  /// One shard's slice of the current batch (reused across calls).
  struct SubBatch {
    std::vector<std::uint64_t> inner_ids;  // block ids on the shard
    std::vector<std::size_t> flat;         // position in the caller's batch
  };

  /// One outstanding split-phase batch: its per-shard sub-frames, in the
  /// order their begin_* frames were issued (= completion order per shard).
  /// Parts are pooled (part_pool_): a retired frame's parts keep their id
  /// and staging capacity for the next begun batch, so the steady-state
  /// split-phase path performs zero heap allocations per frame.
  struct ShardFrame {
    struct Part {
      std::size_t shard = 0;
      std::vector<std::uint64_t> inner_ids;
      std::vector<std::size_t> flat;  // strided read: caller positions
      ArenaBuffer staging;            // strided read: landing zone
    };
    bool is_write = false;
    std::span<Word> rout;  // caller read dest; valid until complete_oldest
    std::vector<Part> parts;
  };

  void partition(std::span<const std::uint64_t> blocks);
  /// Begins one sub-frame per involved shard (reads land in `out`, writes
  /// come from `in`) and queues the batch in frames_.
  Status begin_batch(bool is_write, std::span<const std::uint64_t> blocks,
                     std::span<Word> out, std::span<const Word> in);

  std::vector<std::unique_ptr<StorageBackend>> shards_;
  std::vector<SubBatch> sub_;
  /// Completes the oldest outstanding batch: one complete per involved
  /// shard, scattering strided read parts into the caller's buffer, then
  /// recycles the frame's parts into part_pool_.
  Status complete_frame(ShardFrame f);
  /// Pops a pooled Part (or a fresh one), reset for reuse.
  ShardFrame::Part acquire_part();
  /// Fails a partially-begun batch without breaking any shard's FIFO: every
  /// OLDER batch is completed first (in order, statuses stashed for the
  /// caller's later complete_oldest calls -- their destinations are still
  /// valid, they are just retired early), which makes the partial batch's
  /// frames the head of each shard's queue, so they can be popped and
  /// discarded.
  void abort_partial_begin(ShardFrame& f);

  std::deque<ShardFrame> frames_;  // outstanding split-phase batches (FIFO)
  std::deque<Status> completed_early_;  // statuses of batches retired by an abort
  std::vector<ShardFrame::Part> part_pool_;  // retired parts, capacity retained
  ArenaBuffer wstage_;             // strided write gather scratch (consumed at begin)
};

// ---------------------------------------------------------------------------
// AsyncBackend.

class AsyncBackend : public StorageBackend {
 public:
  explicit AsyncBackend(std::unique_ptr<StorageBackend> inner);
  ~AsyncBackend() override;
  const char* name() const override { return "async"; }
  Status health() const override { return inner_->health(); }

  StorageBackend& inner() { return *inner_; }
  const StorageBackend& inner() const { return *inner_; }
  const StorageBackend* inner_backend() const override { return inner_.get(); }

  /// Tickets are 1-based submission sequence numbers; ops execute on the I/O
  /// thread strictly in ticket order.
  using Ticket = std::uint64_t;

  /// `out` must stay valid until wait(ticket) returns.
  Ticket submit_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  /// Takes ownership of the id list and ciphertext, so the caller's staging
  /// buffers are immediately reusable.
  Ticket submit_write_many(std::vector<std::uint64_t> blocks, std::vector<Word> in);
  /// Zero-copy write: the ciphertext is BORROWED -- `in` must stay valid
  /// (and unmodified) until a wait() covering the ticket returns.  The block
  /// pipeline uses this with per-window staging it only reuses after the
  /// FIFO guarantees the write executed, saving a heap allocation and a
  /// full buffer copy per window.
  Ticket submit_write_many_borrowed(std::span<const std::uint64_t> blocks,
                                    std::span<const Word> in);

  /// Blocks until every op with ticket <= t has executed.  Returns the first
  /// error any completed op hit since the last report; reporting clears it,
  /// so one failed op does not poison the backend forever -- the caller that
  /// observes the error aborts its computation, and unrelated later work
  /// (arena compaction, a fresh algorithm call) proceeds normally.
  Status wait(Ticket t);
  /// wait() for everything submitted so far.
  Status drain();

  /// Drain the queue (so every submitted write reached the inner backend),
  /// then flush the inner store; first error wins.
  Status flush() override {
    Status st = drain();
    st.Update(inner_->flush());
    return st;
  }

  std::uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }

  /// Bounded retry of kIo failures on the I/O thread, so submitted ops get
  /// the same recovery as synchronous ones.  The BlockDevice installs its
  /// retry policy here at construction; 1 means no retry.
  void set_retry_attempts(unsigned attempts) {
    retry_attempts_.store(attempts < 1 ? 1 : attempts, std::memory_order_relaxed);
  }
  /// Retries performed by the I/O thread (for tests and introspection).
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 protected:
  // Synchronous calls drain the queue first so they observe (and are ordered
  // against) every submitted op, then forward to the inner backend.
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;

 private:
  struct Op {
    bool is_write = false;
    std::vector<std::uint64_t> blocks;
    std::vector<Word> wdata;        // writes: owned ciphertext
    const Word* wsrc = nullptr;     // writes: borrowed ciphertext (zero-copy)
    std::size_t wlen = 0;
    Word* rdest = nullptr;          // reads: caller-owned destination
    std::size_t rlen = 0;
    // Split-phase execution state.
    bool noop = false;  // empty batch: completes without touching the inner
    Status begun;       // begin_* result; non-ok ops skip complete_oldest
    std::uint64_t lo = 0, hi = 0;  // smallest and largest block id
  };

  void io_loop();
  /// Pops a pooled Op (blocks/wdata capacity retained from a retired op,
  /// other fields reset) -- caller holds mu_.  Retired ops return via
  /// recycle_op() on the I/O thread, so a steady-state submit stream
  /// performs zero heap allocations per op.
  Op acquire_op_locked();
  void recycle_op(Op&& op);

  std::unique_ptr<StorageBackend> inner_;
  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable done_cv_;
  std::deque<Op> queue_;    // guarded by mu_
  std::vector<Op> op_pool_;  // retired ops for reuse (guarded by mu_)
  // Modified under mu_ (so the cv waits are race-free) but also read
  // lock-free by brief spin loops that avoid a futex round trip per op.
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::size_t> queued_{0};
  /// First unreported error (guarded by mu_); cleared when wait()/drain()
  /// hands it to a caller.
  Status sticky_;
  bool error_ = false; // guarded by mu_
  bool stop_ = false;  // guarded by mu_
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<unsigned> retry_attempts_{1};
  std::atomic<std::uint64_t> retries_{0};
  std::thread io_thread_;
};

// ---------------------------------------------------------------------------
// FaultyBackend.

/// Deterministic, seed-reproducible fault injection.  Every data-path op
/// (read/write, single or batched) rolls one pseudo-random decision from
/// (seed, decision index); the sequence of decisions -- hence which ops fail
/// -- is a pure function of the seed and the call sequence, so a faulty run
/// is exactly replayable.
struct FaultProfile {
  std::uint64_t seed = 1;
  /// Probability that an op fires a fault (evaluated once per *fresh* op;
  /// the consecutive failures of a fired fault don't roll new decisions).
  double fail_rate = 0.0;
  /// Consecutive failures per fired fault; the attempt after the N-th
  /// failure is guaranteed to succeed.  1 = fail-once (the immediate retry
  /// recovers), N = fail-N (recovers with >= N+1 attempts, exhausts
  /// smaller retry budgets).
  unsigned fail_times = 1;
  bool fail_reads = true;
  bool fail_writes = true;
};

/// Decorator injecting per-shard storage failures behind the StorageBackend
/// seam.  Wrap each shard's base store (Session::Builder::fault_injection and
/// bench --faults=seed:rate derive a distinct sub-seed per shard) so failures
/// hit individual shards, exactly like a real striped deployment.  A fired
/// fault rejects the op with StatusCode::kIo BEFORE forwarding, so a failed
/// batch leaves the inner store untouched -- no partial writes.  resize() is
/// never faulted: arena management is Alice-side bookkeeping, not a transfer.
class FaultyBackend : public StorageBackend {
 public:
  FaultyBackend(std::unique_ptr<StorageBackend> inner, FaultProfile profile);
  const char* name() const override { return "faulty"; }
  Status health() const override { return inner_->health(); }

  StorageBackend& inner() { return *inner_; }
  const StorageBackend& inner() const { return *inner_; }
  const StorageBackend* inner_backend() const override { return inner_.get(); }
  const FaultProfile& profile() const { return profile_; }
  /// Never faulted, like resize: a flush is shutdown bookkeeping, not a
  /// data-path transfer.
  Status flush() override { return inner_->flush(); }

  /// Data-path ops observed and faults injected (counting every failed
  /// attempt).  Atomic: a FaultyBackend under an AsyncBackend is driven by
  /// its I/O thread while the main thread reads the counters.
  std::uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  std::uint64_t injected_faults() const {
    return faults_.load(std::memory_order_relaxed);
  }

 protected:
  Status do_resize(std::uint64_t nblocks) override { return inner_->resize(nblocks); }
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  /// Split-phase forwarding: the fault decision is rolled at BEGIN time (a
  /// fired fault rejects the op before any frame is sent, so the inner store
  /// stays untouched -- same atomic-by-rejection contract as the sync path);
  /// a begun-ok op forwards its completion unchanged.  This keeps the wire
  /// pipelining of a remote store under per-shard fault injection.
  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override { return inner_->complete_oldest(); }

 private:
  /// Rolls the fault decision for one op; non-ok means the op must fail now.
  Status gate(bool is_write);

  std::unique_ptr<StorageBackend> inner_;
  FaultProfile profile_;
  std::mutex mu_;                 // serializes the decision stream
  std::uint64_t decisions_ = 0;   // fresh-op decisions rolled (guarded by mu_)
  unsigned pending_fails_ = 0;    // consecutive failures left (guarded by mu_)
  bool recovering_ = false;       // next attempt passes for free (guarded by mu_)
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> faults_{0};
};

// ---------------------------------------------------------------------------
// TamperingBackend.

/// Deterministic, seed-reproducible *malicious server* simulation -- the
/// adversary upgrade from FaultyBackend's fail-stop model.  Where FaultyBackend
/// rejects ops loudly with kIo (honest-but-unreliable storage), a
/// TamperingBackend lies: reads return mutated bytes with Status::Ok, and a
/// rolled-back write is acknowledged but silently dropped so later reads serve
/// the stale ciphertext (and its stale, once-valid MAC).  Every decision comes
/// from (seed, decision index), so a tampered run is exactly replayable.
struct TamperProfile {
  std::uint64_t seed = 1;
  /// Probability a block read is mutated (rolled per block of a batch) and
  /// that a write op is rolled back (rolled once per write op).
  double tamper_rate = 0.0;
  // Which attacks the simulated server mounts (mode picked per fired
  // decision among the enabled read modes; rollback applies to writes):
  bool corrupt = true;   // garble every word of the served block
  bool bit_flip = true;  // flip one random bit of the served block
  bool swap = true;      // serve another block of the same batch (both move);
                         // degrades to corrupt on single-block reads
  bool rollback = true;  // ACK a write but drop it: later reads serve the old
                         // ciphertext with its old (once-valid) MAC -- only a
                         // client-side version/freshness check can catch it
};

/// Decorator mounting the TamperProfile's attacks behind the StorageBackend
/// seam.  Compose it INNERMOST (directly over the base store, UNDER the
/// Client's [nonce][mac] seal), where the paper's malicious Bob lives: it
/// mutates ciphertext at rest / in flight, and the Client's verification
/// above must convert every mutation into a clean IntegrityError
/// (StatusCode::kIntegrity through the Session facade) -- never silent
/// corruption, and never a retry (RetryPolicy only retries kIo).  Session::Builder::tampering wraps
/// each shard's base store with a distinct sub-seed, like fault_injection.
///
/// The split-phase face is forwarded; read mutations are applied at
/// completion time (when the bytes exist), write rollbacks are decided at
/// begin time (the dropped frame is never sent, and its completion is a
/// local no-op), so the decision stream stays a pure function of the call
/// sequence.  resize()/flush() are never tampered: arena bookkeeping, not
/// data the adversary serves.
class TamperingBackend : public StorageBackend {
 public:
  TamperingBackend(std::unique_ptr<StorageBackend> inner, TamperProfile profile);
  const char* name() const override { return "tamper"; }
  Status health() const override { return inner_->health(); }

  StorageBackend& inner() { return *inner_; }
  const StorageBackend& inner() const { return *inner_; }
  const StorageBackend* inner_backend() const override { return inner_.get(); }
  const TamperProfile& profile() const { return profile_; }
  Status flush() override { return inner_->flush(); }

  /// Data-path ops observed / blocks mutated + writes dropped.  Atomic: a
  /// TamperingBackend under an AsyncBackend is driven by its I/O thread
  /// while the main thread reads the counters.
  std::uint64_t ops() const { return ops_.load(std::memory_order_relaxed); }
  std::uint64_t tampered() const { return tampered_.load(std::memory_order_relaxed); }

 protected:
  Status do_resize(std::uint64_t nblocks) override { return inner_->resize(nblocks); }
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override;

 private:
  /// Next decision word; a pure function of (seed, ++decisions_).
  std::uint64_t draw();
  /// Rolls one tamper decision (caller holds mu_).
  bool fire();
  /// True when the profile can mutate reads at all.
  bool reads_armed() const {
    return profile_.tamper_rate > 0.0 &&
           (profile_.corrupt || profile_.bit_flip || profile_.swap);
  }
  /// Mutates the served batch in place per the decision stream.
  void tamper_read(std::size_t nblocks, std::span<Word> out);
  /// Rolls the per-op rollback decision for a write.
  bool drop_write();

  /// One begun split-phase op: reads remember where the bytes will land so
  /// the mutation can be applied at completion; dropped writes remember that
  /// no inner frame exists to complete.
  struct Pending {
    bool is_read = false;
    bool dropped = false;   // rolled-back write: no inner frame
    std::size_t nblocks = 0;
    std::span<Word> out;    // read destination; valid until complete_oldest
  };

  std::unique_ptr<StorageBackend> inner_;
  TamperProfile profile_;
  std::mutex mu_;                // serializes the decision stream
  std::uint64_t decisions_ = 0;  // guarded by mu_
  std::deque<Pending> pending_;  // begun split-phase ops (FIFO)
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> tampered_{0};
};

// ---------------------------------------------------------------------------
// CachingBackend.

/// Read-hit / write-absorption counters.  Snapshot of atomics: a cache under
/// an AsyncBackend is driven from the I/O thread while the main thread reads.
/// On a shared cache (make_shared_cache) every attached view keeps its OWN
/// counters, so a multi-session server can report per-session numbers while
/// the residency itself is shared.
struct CacheStats {
  std::uint64_t hits = 0;             // read blocks served from the cache
  std::uint64_t misses = 0;           // read blocks fetched from the inner store
  std::uint64_t absorbed_writes = 0;  // write blocks absorbed (no inner op)
  std::uint64_t writebacks = 0;       // dirty blocks written back to the inner
  std::uint64_t writeback_ops = 0;    // coalesced write-back frames issued
  std::uint64_t evictions = 0;        // cached blocks dropped to make room
  std::uint64_t flush_failures = 0;   // flush() calls that could not land dirty data
  /// Scan-resistance at work: blocks dropped from the probation segment
  /// without ever being re-referenced (a one-pass scan's blocks end here
  /// instead of evicting the protected working set), plus split-phase
  /// residency grants that had to be declined.
  std::uint64_t admission_rejects = 0;
  /// Sequential readahead: blocks fetched ahead of demand, and how many of
  /// those were referenced before eviction (readahead_hits /
  /// readahead_blocks is its useful share).  A read served by a read-ahead
  /// block also counts in `hits`; `misses` counts demanded blocks only.
  std::uint64_t readahead_blocks = 0;
  std::uint64_t readahead_hits = 0;
  double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Admission/eviction policy of a CacheCore.
enum class CachePolicy {
  /// Segmented LRU (the default): a block enters the PROBATION segment on
  /// first touch and is promoted to the PROTECTED segment (~3/4 of
  /// capacity) only on re-reference; eviction drains probation first.  A
  /// one-pass reshuffle or sort sweep therefore churns through probation
  /// while the re-referenced hot set (ORAM position maps, the working
  /// window) stays protected.
  kScanResistant,
  /// The v1 single-list LRU, kept as the bench_hierarchy baseline.
  kLru,
};

class CachingBackend;

/// The shareable heart of a CachingBackend: the slab, the residency index,
/// and the segmented-LRU lists behind one mutex.  N Sessions attach N
/// CachingBackend *views* to one core (make_shared_cache +
/// Session::Builder::shared_cache); each view brings its own inner backend
/// and its own stats, while residency and eviction pressure are shared.
/// Entries are namespaced per view -- (view id << 48) | block -- so two
/// sessions' block 7 never collide, and every entry remembers its owning
/// view so a dirty victim is written back through the RIGHT inner store no
/// matter which view triggered the eviction.
///
/// Geometry is fixed lazily: make_shared_cache picks only the capacity, the
/// first attached view supplies block_words, and every later view must
/// match it (mismatch surfaces at that view's health()).
class CacheCore {
 public:
  CacheCore(std::size_t capacity_blocks, CachePolicy policy);
  std::size_t capacity_blocks() const { return cap_; }
  CachePolicy policy() const { return policy_; }
  /// Resident blocks across every attached view.
  std::size_t cached_blocks() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

 private:
  friend class CachingBackend;
  struct Entry;
  using EntryList = std::list<Entry*>;
  struct Entry {
    std::uint64_t key = 0;            // view<<48 | block (its entries_ key)
    CachingBackend* owner = nullptr;  // view that caches (and writes back) it
    std::size_t slot = 0;
    bool dirty = false;
    bool prot = false;    // resident in the protected segment
    bool pinned = false;  // mid-batch eviction shield (see do_write_many)
    bool ahead = false;   // read ahead and not yet referenced
    EntryList::iterator lru;    // position in its segment's `all` list
    EntryList::iterator clean;  // position in its segment's `clean` list
                                // (meaningful only while !dirty)
  };
  /// One recency segment.  `clean` is the sub-sequence of `all` holding the
  /// clean residents, in the same order, so the coldest victim that needs no
  /// inner I/O is `clean.back()` -- found without visiting a dirty entry.
  struct Segment {
    EntryList all;    // front = most recently admitted / re-referenced
    EntryList clean;  // the clean members of `all`, same relative order
  };

  Segment& segment_of(const Entry& e) { return e.prot ? protected_ : probation_; }
  /// Links a new entry at the hot end of `s` (and of its clean list).
  void link_front(Entry& e, Segment& s);
  /// Moves a resident to the hot end of `to` (its own segment or the other
  /// one), updating e.prot.  Splices: no allocation.
  void move_front(Entry& e, Segment& to);
  /// Unlinks a resident from its segment (both lists).
  void unlink(Entry& e);
  void mark_dirty(Entry& e);
  /// Re-inserts a dirty entry into its segment's clean list in recency
  /// order: before the next colder clean resident, found by walking toward
  /// the cold end.  Only write-backs call it (they already pay inner I/O).
  void mark_clean(Entry& e);
  /// mark_clean for every dirty entry of `owner`, in one cold-to-hot pass.
  void mark_clean_all(const CachingBackend* owner);
  /// Unlinks `e` and erases it from the index; returns its slot.
  std::size_t erase(Entry& e);

  const std::size_t cap_;
  const std::size_t prot_cap_;  // protected-segment capacity (~3/4 of cap_)
  const CachePolicy policy_;
  mutable std::mutex mu_;       // guards everything below AND every view's
                                // cache operation end to end
  std::size_t block_words_ = 0;  // fixed by the first attached view
  std::vector<Word> slab_;       // cap_ * block_words_ words
  std::vector<std::size_t> free_slots_;
  /// key = view<<48 | block.  Element references stay valid across rehash,
  /// so the segment lists hold Entry pointers.
  std::unordered_map<std::uint64_t, Entry> entries_;
  Segment probation_;  // kLru keeps its single list here
  Segment protected_;
  std::uint64_t next_view_id_ = 0;
};

/// Shared ownership of a cache core: Sessions (and the oem-server) hold one
/// handle and hand it to every Session::Builder::shared_cache call; the core
/// dies with its last view.
using SharedCacheHandle = std::shared_ptr<CacheCore>;

/// A cache core to share across Sessions.  `capacity_blocks` >= 1; the block
/// geometry is adopted from the first attached Session.
SharedCacheHandle make_shared_cache(std::size_t capacity_blocks,
                                    CachePolicy policy = CachePolicy::kScanResistant);

/// Write-back block cache view over a CacheCore (segmented-LRU by default,
/// scan-resistant; see CachePolicy).  Reads of cached blocks never reach the
/// inner store; writes are absorbed (marked dirty) and written back only on
/// eviction, flush() or destruction -- with cached dirty NEIGHBORS of the
/// victim coalesced into the same batched write-back frame, so a hot working
/// set streams back as few wide writes instead of many narrow ones.  The
/// split-phase face is forwarded (max_inflight of the inner store), keeping
/// the wire pipelining of a remote stack: begun batches serve/absorb their
/// cached blocks at begin time and forward the remainder (read misses,
/// writes to uncached blocks) as one in-flight inner frame.  Begins admit
/// written blocks into free slots only: on a private core an uncached block
/// of a begun write takes a free slot while one is left (probation front,
/// dirty, like a synchronous write's fresh block) and only the blocks left
/// over are written around; a shared core always writes around.  A begin
/// never evicts and never does inner I/O beyond its one frame, so
/// recovery-by-replay stays trivial; a read's completion grants its misses
/// residency when that needs no inner I/O (a free slot or the coldest clean
/// resident as victim) and declines it otherwise -- a constant amount of
/// work per block either way.  The write-allocate decision reads block ids
/// and the free-slot count only.
///
/// Sequential readahead (synchronous path only): every single-block sync
/// read advances one slot of a 4-slot table of recent stream positions (the
/// most recently advanced slot holding block-1, else the least recently
/// advanced one; resize resets the table).  When such a read of `b` misses
/// and b-1 was in the table, one inner read_many fetches `b` plus the
/// non-resident blocks of (b, b+16) below the view's size.  The speculative
/// blocks only take slots that cost no inner I/O -- free slots and clean
/// probation residents, never a dirty or protected one -- so their number is
/// capped by that budget, and by the probation segment's share of the cache
/// (capacity - ~3/4 capacity, `b` included; the window binds from 64 blocks
/// up); `b` itself is admitted like any miss.  Read-ahead blocks enter
/// probation flagged `ahead`; their first reference (a sync or begun read or
/// write) clears the flag and moves them to the probation front WITHOUT
/// promotion, exactly where a demand miss would have put them, so a
/// sequential scan still never reaches the protected segment.  The readahead
/// sits below the BlockDevice recorder and depends only on the block-id
/// sequence and residency, never on block contents.
///
/// Placement (Session::Builder::cache enforces this order): below the
/// Client's [nonce][mac] seal (the cache holds sealed blocks, exactly as the
/// store below would) and above sharding/remote, so a hit costs no
/// round trip.
/// `capacity_blocks` must be >= 1; 0 is rejected at health().
///
/// Failure semantics: writes are atomic-by-rejection like every other
/// backend -- anything that can fail (eviction write-backs, write-throughs,
/// a write-around frame) is issued before any of the batch's data enters
/// the cache, so a kIo'd write absorbs nothing.  The one boundary is a
/// begun write whose COMPLETION fails after the retry budget is exhausted:
/// its absorbed blocks stay cached (later begun reads already observed
/// them, per FIFO), the error surfaces loudly, and the computation aborts
/// -- same contract as a lost submitted write on the plain AsyncBackend.
/// The destructor's flush is best-effort for DELIVERY only, never for
/// visibility: a failed flush (destructor's or caller's) increments
/// CacheStats::flush_failures and latches the first error, which health()
/// reports from then on -- so dirty data that never reached the store below
/// can't vanish silently even when the only flush was the destructor's.
/// Services that must act on write-back errors call flush() (or
/// Session::flush_storage()) and check the Status before teardown.
class CachingBackend : public StorageBackend {
 public:
  /// Private core: this view owns a fresh CacheCore of `capacity_blocks`.
  CachingBackend(std::unique_ptr<StorageBackend> inner, std::size_t capacity_blocks,
                 CachePolicy policy = CachePolicy::kScanResistant);
  /// Shared core: attach a view to `core` (make_shared_cache).  Residency
  /// and capacity pressure are shared with every other attached view; this
  /// view's inner store, pending split-phase FIFO, and stats stay private.
  CachingBackend(std::unique_ptr<StorageBackend> inner, SharedCacheHandle core);
  ~CachingBackend() override;  // best-effort flush + drop of this view's blocks
  const char* name() const override { return "cache"; }
  Status health() const override {
    if (!init_status_.ok()) return init_status_;
    {
      std::lock_guard<std::mutex> lk(flush_mu_);
      if (!flush_error_.ok()) return flush_error_;
    }
    return inner_->health();
  }

  StorageBackend& inner() { return *inner_; }
  const StorageBackend& inner() const { return *inner_; }
  const StorageBackend* inner_backend() const override { return inner_.get(); }
  std::size_t capacity_blocks() const { return core_->capacity_blocks(); }
  /// Blocks resident across ALL views of the core (== this view's blocks
  /// for a private core).
  std::size_t cached_blocks() const { return core_->cached_blocks(); }
  const CacheCore& core() const { return *core_; }
  /// This view's id within the core (0 for the first/private view).
  std::uint64_t view_id() const { return view_id_; }

  /// Write back every dirty block (coalesced into runs), keeping them
  /// cached-clean, then flush the inner store.  Synchronous: callers must
  /// have completed all begun ops.  A failure is returned AND latched (see
  /// class comment): flush_failures bumps and health() turns non-ok.
  Status flush() override;

  CacheStats stats() const {
    CacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.absorbed_writes = absorbed_.load(std::memory_order_relaxed);
    s.writebacks = writebacks_.load(std::memory_order_relaxed);
    s.writeback_ops = writeback_ops_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.flush_failures = flush_failures_.load(std::memory_order_relaxed);
    s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
    s.readahead_blocks = readahead_blocks_.load(std::memory_order_relaxed);
    s.readahead_hits = readahead_hits_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  /// Shrink drops cached blocks past the new capacity (dirty included: a
  /// shrunk-away block is gone by contract); surviving entries stay valid.
  /// A grow costs nothing; a shrink costs the smaller of the id range it
  /// cuts below the view's high-water mark and the core's resident count.
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override;

 private:
  using Entry = CacheCore::Entry;
  /// Readahead geometry (see the class comment): a triggering miss fetches
  /// blocks of [b, b + kReadaheadWindow), tracked over kStreamSlots streams.
  static constexpr std::uint64_t kReadaheadWindow = 16;
  static constexpr std::size_t kStreamSlots = 4;
  struct Stream {
    std::uint64_t last = 0;  // last block read by this stream
    std::uint64_t used = 0;  // stream_clock_ at its last advance; 0 = empty
  };

  /// One begun split-phase batch.  The BEGIN half never evicts: hits are
  /// served/absorbed at begin, a private core's write admits uncached
  /// blocks into free slots, and the remainder forwards as AT MOST ONE
  /// inner frame, begun before anything enters the cache, so a failed begin
  /// leaves nothing to unwind and the AsyncBackend's drain-and-replay
  /// recovery (which re-runs the op through the synchronous path) stays
  /// idempotent.  A read's misses are granted residency at its successful
  /// COMPLETION (see do_complete_oldest): the fetched bytes are in hand, so
  /// caching them costs no inner op -- a split-phase re-touch stream hits
  /// exactly like the synchronous path's.
  struct PendingOp {
    bool is_read = false;
    bool has_frame = false;                  // one inner frame to complete
    /// Reads: miss block ids fetched from the inner store.  Writes: the
    /// write-AROUND block ids the in-flight inner frame targets (a later
    /// read completion must not grant those residency: the cached copy
    /// would go stale when the around-frame lands below).
    std::vector<std::uint64_t> miss_ids;
    std::vector<std::size_t> miss_pos;       // read misses' caller-batch positions
    ArenaBuffer staging;                     // miss landing zone ([] = borrowed out)
    Word* out = nullptr;                     // caller read dest base
    // Stats are credited only at a SUCCESSFUL completion: a kIo'd op is
    // replayed through the synchronous path, which counts it then --
    // counting at begin would tally the same blocks twice under retry.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t absorbed = 0;
  };

  // Every helper below assumes the caller holds core_->mu_ -- each public
  // data-path op takes it once, end to end, so views on other threads (a
  // shared core under N sessions) are fully serialized against it and a
  // cross-view write-back can never interleave with the owner's own I/O.

  /// This view's namespaced residency key for `block`.
  std::uint64_t key_of(std::uint64_t block) const {
    return (view_id_ << 48) | block;
  }
  static std::uint64_t block_of(std::uint64_t key) {
    return key & ((std::uint64_t{1} << 48) - 1);
  }
  Word* slot_data(std::size_t slot) {
    return core_->slab_.data() + slot * block_words();
  }
  Entry* find(std::uint64_t block);
  /// Policy-dependent re-reference: kLru fronts the single list; segmented
  /// LRU promotes a probation entry to the protected segment (demoting the
  /// protected LRU back to probation when that segment is full).  The first
  /// reference of a read-ahead entry only clears its flag and fronts it in
  /// probation (see the class comment).
  void touch(Entry& e);
  /// Frees one slot by evicting the coldest ELIGIBLE entry -- probation
  /// back-to-front first, then protected -- skipping pinned entries and
  /// dirty entries whose owner view has begun-but-incomplete split-phase
  /// ops (writing those back would corrupt that view's inner FIFO
  /// mid-flight).  A dirty victim is written back FIRST through its OWNER's
  /// inner store -- together with the maximal run of consecutive cached
  /// dirty neighbors, coalesced into one batched inner write (the neighbors
  /// stay cached, now clean) -- and the entry is only erased once that
  /// write landed, so a transient write-back failure surfaces as the op's
  /// error with no data-loss window and the device's retry re-runs it from
  /// unchanged state.
  Status evict_one(std::size_t* slot);
  /// Slot for `block` (free or evicted); inserts this view's entry (clean,
  /// probation-front: admission to the protected segment takes a re-touch).
  Result<Entry*> insert(std::uint64_t block);
  /// Indexes this view's `block` in `slot` as a clean probation-front entry
  /// (and raises hwm_ past it).
  Entry* admit(std::uint64_t block, std::size_t slot);
  /// A slot that costs no inner I/O: a free one, else the coldest clean
  /// probation resident's, else the coldest clean protected resident's.
  /// False when there is none.
  bool take_clean_slot(std::size_t* slot);
  /// Advances the stream table with a single-block sync read of `block`;
  /// true when it continues a stream (block-1 was a slot's last block).
  bool advance_stream(std::uint64_t block);
  /// The readahead miss of `block` (see the class comment): one inner frame
  /// for `block` and the budgeted non-resident blocks after it.
  Status read_ahead(std::uint64_t block, std::span<Word> out);
  /// Writes back the maximal consecutive run of cached dirty blocks around
  /// `key` (same view by construction: keys namespace the id space) in one
  /// coalesced write_many through the owning view's inner store, marking
  /// the run clean.
  Status write_back_run(std::uint64_t key);
  /// flush() minus the failure latching (caller holds core_->mu_).
  Status flush_impl();
  /// True when a still-pending begun write's around-frame targets `block`.
  bool write_around_in_flight(std::uint64_t block) const {
    return !around_in_flight_.empty() && around_in_flight_.count(block) != 0;
  }
  /// Erases `key`'s entry from its segment list + the index, freeing its
  /// slot into the core's free list.
  void erase_entry(std::uint64_t key);
  /// Detaches this view: every resident entry is dropped (dirty ones were
  /// flushed by the destructor's flush first).
  void drop_view();
  Status do_complete_oldest_locked();

  std::unique_ptr<StorageBackend> inner_;
  SharedCacheHandle core_;
  std::uint64_t view_id_ = 0;
  /// Begun writes take free slots (private core only: on a shared core a
  /// view's in-flight frames make its dirty blocks ineligible victims, so
  /// filling free slots with them could starve another session's eviction).
  bool write_allocate_ = false;
  /// One past the highest block id this view ever admitted, lowered by a
  /// shrink: do_resize drops [nblocks, hwm_) by key when that is cheaper
  /// than walking the residents.
  std::uint64_t hwm_ = 0;
  Status init_status_;
  std::deque<PendingOp> pending_;   // this view's begun ops (guarded by core mu)
  /// Counted set of the block ids targeted by pending_'s write-around
  /// frames: filled at begin, drained when the write op retires.
  std::unordered_map<std::uint64_t, std::uint32_t> around_in_flight_;
  std::vector<Word> wb_stage_;      // write-back / write-around gather scratch
  Stream streams_[kStreamSlots];    // readahead stream table (reset by resize)
  std::uint64_t stream_clock_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> absorbed_{0};
  std::atomic<std::uint64_t> writebacks_{0};
  std::atomic<std::uint64_t> writeback_ops_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> flush_failures_{0};
  std::atomic<std::uint64_t> admission_rejects_{0};
  std::atomic<std::uint64_t> readahead_blocks_{0};
  std::atomic<std::uint64_t> readahead_hits_{0};
  /// First flush error ever observed (latched; see class comment).
  mutable std::mutex flush_mu_;
  Status flush_error_;  // guarded by flush_mu_
};

// ---------------------------------------------------------------------------
// Factory helpers.

/// Per-shard construction: receives (block_words, shard index) so shards that
/// need distinct resources (e.g. file paths) can derive them.
using ShardFactory =
    std::function<std::unique_ptr<StorageBackend>(std::size_t block_words,
                                                  std::size_t shard)>;

/// Stripe over `shards` instances produced by `inner` (null = mem).  An
/// explicit-path file backend must NOT be sharded through this overload (all
/// shards would open the same file); use the ShardFactory overload or
/// Session::Builder, which derives per-shard paths.
BackendFactory sharded_backend(BackendFactory inner, std::size_t shards);
BackendFactory sharded_backend(ShardFactory inner, std::size_t shards);

/// Wrap the backend produced by `inner` (null = mem) in an AsyncBackend.
BackendFactory async_backend(BackendFactory inner);

/// Wrap the backend produced by `inner` (null = mem) in a FaultyBackend.
/// Compose UNDER sharding (wrap each shard's base) for per-shard failures;
/// Session::Builder::fault_injection does that and derives per-shard seeds.
BackendFactory faulty_backend(BackendFactory inner, FaultProfile profile);

/// Wrap the backend produced by `inner` (null = mem) in a TamperingBackend.
/// Compose INNERMOST -- directly over each shard's base store, UNDER the
/// Client seal -- so the simulated malicious server mutates ciphertext, and
/// the Client's MAC + version check is what must catch it.
/// Session::Builder::tampering does that and derives per-shard sub-seeds.
BackendFactory tampering_backend(BackendFactory inner, TamperProfile profile);

/// Wrap the backend produced by `inner` (null = mem) in a CachingBackend of
/// `capacity_blocks` blocks (private core; scan-resistant by default, pass
/// CachePolicy::kLru for the v1 single-list baseline).  Compose ABOVE
/// sharding/remote and UNDER async_backend;
/// Session::Builder::cache does exactly that.
BackendFactory caching_backend(BackendFactory inner, std::size_t capacity_blocks,
                               CachePolicy policy = CachePolicy::kScanResistant);

/// Wrap the backend produced by `inner` (null = mem) in a CachingBackend
/// VIEW attached to `core` (make_shared_cache) -- every factory invocation
/// (one per Session) becomes its own view of the one shared cache.
BackendFactory caching_backend(BackendFactory inner, SharedCacheHandle core);

}  // namespace oem
