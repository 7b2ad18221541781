// StorageBackend: the pluggable seam between the client and Bob's storage.
//
// The paper's model is a client with a small private cache operating on
// *outsourced* storage; where the blocks physically live is orthogonal to
// every obliviousness argument (Bob sees the access sequence either way).
// This interface abstracts that choice:
//
//   * MemBackend     -- blocks in a flat in-RAM array (the seed's behavior);
//   * FileBackend    -- blocks in a file, so data sets larger than RAM work
//                       and I/O really hits the OS (pread/pwrite).
//
// A remote honest-but-curious server is RemoteBackend (extmem/remote.h),
// which speaks the wire protocol to a real oem-server.
//
// Besides single-block read/write, backends implement *batched*
// read_many/write_many so that implementations can coalesce work: FileBackend
// merges runs of consecutive block ids into single syscalls, RemoteBackend
// sends one frame for a whole batch.  Batching never changes the
// adversary's view -- the BlockDevice layer above records the identical
// per-block trace events in the identical order either way.
//
// Error handling: backends return Status (kInvalidArgument for out-of-range
// accesses, kIo for storage failures) instead of asserting, so remote/file
// failures are reportable through the oem::Session facade.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "extmem/record.h"
#include "util/status.h"

namespace oem {

class StorageBackend {
 public:
  explicit StorageBackend(std::size_t block_words) : block_words_(block_words) {}
  virtual ~StorageBackend() = default;
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  /// Words of ciphertext per block (payload + nonce header).
  std::size_t block_words() const { return block_words_; }
  /// Current capacity in blocks (set by resize).
  std::uint64_t num_blocks() const { return num_blocks_; }
  virtual const char* name() const = 0;

  /// Backend construction cannot report errors; a backend that failed to set
  /// itself up (e.g. FileBackend could not open its file) says so here, and
  /// fails every operation with the same Status.
  virtual Status health() const { return Status::Ok(); }

  /// Push every buffered or dirty block down to durable state: a write-back
  /// cache writes its dirty blocks, a file store fsyncs, decorators forward.
  /// Base stores with nothing buffered return Ok.  Services call this on
  /// graceful shutdown (RemoteServer::shutdown flushes every store) so an
  /// orderly exit never loses acknowledged writes.
  virtual Status flush() { return Status::Ok(); }

  /// The backend this decorator wraps, or null for a base store.  Lets
  /// stack-order validation (and introspection generally) walk an arbitrary
  /// decorator chain without a closed list of types; every decorator MUST
  /// override this.  ShardedBackend wraps many -- walkers special-case it
  /// via its shard() accessors.
  virtual const StorageBackend* inner_backend() const { return nullptr; }

  /// Grow or shrink the storage to exactly `nblocks` blocks.  Surviving
  /// blocks keep their contents; fresh blocks read as all-zero words.
  Status resize(std::uint64_t nblocks);

  Status read(std::uint64_t block, std::span<Word> out);
  Status write(std::uint64_t block, std::span<const Word> in);

  /// Batched I/O: `blocks[i]` maps to the word range
  /// [i*block_words, (i+1)*block_words) of the flat buffer.  Block ids need
  /// not be distinct or sorted; semantics are exactly the sequential
  /// single-block ops in order.
  Status read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  Status write_many(std::span<const std::uint64_t> blocks, std::span<const Word> in);

  // --- split-phase batched I/O (protocol pipelining) ---
  //
  // A backend whose op is a request/response round trip (RemoteBackend) can
  // keep several requests in flight on the wire: begin_* issues the request
  // without waiting and complete_oldest() blocks for the OLDEST outstanding
  // response.  Completion order is strictly begin order, and the transport
  // applies ops in begin order, so the sequential read/write semantics --
  // including read-after-write on the same block -- are preserved for any
  // number of outstanding ops.  Backends with nothing to overlap keep the
  // defaults: max_inflight() == 1 and begin_* that executes synchronously
  // (complete_oldest is then a no-op), so callers can use the split API
  // uniformly.  AsyncBackend drives this when its inner backend reports
  // max_inflight() > 1; that is what makes pipeline depth > 2 pay on a
  // high-RTT store.

  /// Requests the backend can usefully keep in flight (1 = synchronous).
  std::size_t max_inflight() const { return do_max_inflight(); }
  /// `out` must stay valid until the matching complete_oldest() returns.
  Status begin_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  /// `in` is consumed before begin_write_many returns (staged or sent).
  Status begin_write_many(std::span<const std::uint64_t> blocks,
                          std::span<const Word> in);
  /// Completes the oldest outstanding begun op; Ok when none is outstanding.
  Status complete_oldest() { return do_complete_oldest(); }

 protected:
  virtual Status do_resize(std::uint64_t nblocks) = 0;
  virtual Status do_read(std::uint64_t block, std::span<Word> out) = 0;
  virtual Status do_write(std::uint64_t block, std::span<const Word> in) = 0;
  /// Default batched implementations loop over the single-block ops;
  /// backends override to coalesce.
  virtual Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out);
  virtual Status do_write_many(std::span<const std::uint64_t> blocks,
                               std::span<const Word> in);
  /// Split-phase defaults: execute at begin time, complete immediately.
  virtual std::size_t do_max_inflight() const { return 1; }
  virtual Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                                    std::span<Word> out) {
    return do_read_many(blocks, out);
  }
  virtual Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                                     std::span<const Word> in) {
    return do_write_many(blocks, in);
  }
  virtual Status do_complete_oldest() { return Status::Ok(); }

 private:
  Status check_blocks(std::span<const std::uint64_t> blocks, std::size_t words,
                      const char* what) const;

  std::size_t block_words_;
  std::uint64_t num_blocks_ = 0;
};

/// Builds a backend for a given block size; how a Client (or Session) is told
/// which storage to use.  A null factory means MemBackend.
using BackendFactory = std::function<std::unique_ptr<StorageBackend>(std::size_t block_words)>;

// ---------------------------------------------------------------------------
// MemBackend: the seed's flat in-RAM array.

class MemBackend : public StorageBackend {
 public:
  explicit MemBackend(std::size_t block_words) : StorageBackend(block_words) {}
  const char* name() const override { return "mem"; }

 protected:
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;

 private:
  std::vector<Word> storage_;
};

// ---------------------------------------------------------------------------
// FileBackend: blocks live in a file; data sets larger than RAM.

struct FileBackendOptions {
  /// Backing file path; empty means a fresh temp file (deleted on destroy).
  std::string path;
  /// Keep the backing file on destruction -- and, symmetrically, REUSE its
  /// existing contents on open instead of truncating (only honored for
  /// explicit paths).  This is the durable-restart store: a session with a
  /// state_path reopens its blocks across process restarts.
  bool keep_file = false;
};

class FileBackend : public StorageBackend {
 public:
  FileBackend(std::size_t block_words, FileBackendOptions opts = {});
  ~FileBackend() override;
  const char* name() const override { return "file"; }
  Status health() const override { return init_status_; }

  const std::string& path() const { return path_; }
  /// fsync: acknowledged writes survive the process.
  Status flush() override;
  /// pread/pwrite calls issued -- shows read_many/write_many coalescing.
  /// Atomic: the async I/O thread bumps it concurrently with a main-thread
  /// reader.
  std::uint64_t syscalls() const { return syscalls_.load(std::memory_order_relaxed); }

 protected:
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  /// Coalesce maximal runs of consecutive block ids into single syscalls.
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;

 private:
  Status pread_words(std::span<Word> out, std::uint64_t first_block);
  Status pwrite_words(std::span<const Word> in, std::uint64_t first_block);

  std::string path_;
  bool unlink_on_close_ = false;
  int fd_ = -1;
  Status init_status_;
  std::atomic<std::uint64_t> syscalls_{0};
};

// ---------------------------------------------------------------------------
// DirectFileBackend: kernel-async O_DIRECT file storage on io_uring.

struct DirectFileOptions {
  /// Backing file path; empty means a fresh temp file (deleted on destroy).
  std::string path;
  /// Keep the backing file on destruction (only honored for explicit paths).
  bool keep_file = false;
  /// Split-phase frames the ring usefully keeps in flight (max_inflight()).
  std::size_t queue_depth = 8;
};

/// Blocks live in a file opened with O_DIRECT and every transfer is submitted
/// to an io_uring instance via raw syscalls (no liburing), so reads and
/// writes go disk -> user buffer with no page-cache copy and no I/O worker
/// threads: begin_read_many/begin_write_many stuff the submission queue and
/// return, complete_oldest reaps the completion queue.  That makes this the
/// one base store whose split-phase face is truly kernel-asynchronous --
/// AsyncBackend's thread is unnecessary on top of it (though harmless).
///
/// O_DIRECT's alignment contract (buffer address, file offset, and transfer
/// length all aligned to the device's logical block size) is satisfied by
/// construction: payloads live in fixed-size *slots* of
/// round_up(block_words * 8, dio_offset_align) bytes -- alignment discovered
/// via statx(STATX_DIOALIGN) where the kernel offers it, 4096 otherwise --
/// and all staging goes through 4096-aligned arena bounce buffers
/// (extmem/arena.h).  Consecutive block ids coalesce into one SQE per run,
/// mirroring FileBackend's pread/pwrite coalescing.
///
/// Construction probes the whole path end to end (ring setup, O_DIRECT open,
/// one write+read round trip); any failure -- io_uring compiled out or
/// disabled, a filesystem that refuses O_DIRECT -- quietly falls back to the
/// threaded engine (AsyncBackend over FileBackend on the same path), so
/// composed stacks and callers never see the difference except through
/// engine().  Trace/adversary view is unaffected either way: this sits below
/// the BlockDevice seam like any other base store.
class DirectFileBackend : public StorageBackend {
 public:
  DirectFileBackend(std::size_t block_words, DirectFileOptions opts = {});
  ~DirectFileBackend() override;
  const char* name() const override { return "direct_file"; }
  Status health() const override;

  /// True when this kernel can set up an io_uring at all (the global
  /// prerequisite for the "uring" engine; per-filesystem O_DIRECT support is
  /// probed per instance).
  static bool kernel_supports_uring();

  /// "uring" when the kernel-async O_DIRECT path is live, "threads" when
  /// construction fell back to AsyncBackend over blocking pread/pwrite.
  const char* engine() const { return ring_live_ ? "uring" : "threads"; }
  const std::string& path() const { return path_; }
  /// Bytes per on-disk slot (block payload padded to the direct-I/O
  /// alignment); exposed for tests and the layout note in docs.
  std::size_t slot_bytes() const { return slot_bytes_; }
  /// SQEs submitted so far -- the uring path's analogue of
  /// FileBackend::syscalls(), showing run coalescing.
  std::uint64_t sqes_submitted() const {
    return sqes_.load(std::memory_order_relaxed);
  }
  Status flush() override;

 protected:
  Status do_resize(std::uint64_t nblocks) override;
  Status do_read(std::uint64_t block, std::span<Word> out) override;
  Status do_write(std::uint64_t block, std::span<const Word> in) override;
  Status do_read_many(std::span<const std::uint64_t> blocks, std::span<Word> out) override;
  Status do_write_many(std::span<const std::uint64_t> blocks,
                       std::span<const Word> in) override;
  std::size_t do_max_inflight() const override;
  Status do_begin_read_many(std::span<const std::uint64_t> blocks,
                            std::span<Word> out) override;
  Status do_begin_write_many(std::span<const std::uint64_t> blocks,
                             std::span<const Word> in) override;
  Status do_complete_oldest() override;

 private:
  struct Ring;   // raw io_uring state (mmapped SQ/CQ views); direct_file.cc
  struct Frame;  // one begun batch: bounce buffer + outstanding-CQE count

  Status setup_direct_path(std::size_t queue_depth, bool preserve);
  void teardown_ring();
  /// Builds one frame's SQEs (one per consecutive-id run), submitting as the
  /// queue fills; reaps any ready CQEs opportunistically along the way.
  Status submit_frame(Frame& f, std::span<const std::uint64_t> blocks);
  /// Blocks until every CQE of `f` has arrived; folds errors into a Status.
  Status await_frame(Frame& f);
  /// Drains ALL in-flight frames into completed_early_ (ShardedBackend's
  /// pattern) so a synchronous op never reorders against begun frames.
  Status drain_inflight();
  /// Pops one CQE (optionally blocking for it) and credits it to its frame;
  /// `extra` covers a frame being awaited after leaving inflight_.
  Status reap_one(bool wait, Frame* extra);
  /// Credits an already-popped CQE (user_data + res) to its frame.
  Status credit_cqe(std::uint64_t user_data, std::int32_t res, Frame* extra);
  void scatter_read(Frame& f);

  std::string path_;
  bool unlink_on_close_ = false;
  int fd_ = -1;
  bool ring_live_ = false;
  std::size_t slot_bytes_ = 0;
  std::unique_ptr<Ring> ring_;
  std::unique_ptr<StorageBackend> fallback_;  // threads engine when !ring_live_
  std::deque<std::unique_ptr<Frame>> inflight_;
  std::deque<Status> completed_early_;
  std::uint64_t next_frame_serial_ = 1;
  Status init_status_;
  std::atomic<std::uint64_t> sqes_{0};
};

// ---------------------------------------------------------------------------
// Factory helpers.

BackendFactory mem_backend();
BackendFactory file_backend(FileBackendOptions opts = {});
/// DirectFileBackend (io_uring + O_DIRECT, threaded fallback).  For sharded
/// stacks pass a distinct path per shard or leave `opts.path` empty.
BackendFactory direct_file_backend(DirectFileOptions opts = {});

}  // namespace oem
