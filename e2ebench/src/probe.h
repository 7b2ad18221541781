// ProbeBackend: a benchmark-owned StorageBackend decorator for the per-shard
// seam (Session::Builder::backend() is invoked once per shard, so a probe
// sits directly above each shard's RemoteBackend, below the cache).
//
// It forwards every StorageBackend virtual unchanged -- the synchronous and
// split-phase data paths, resize, flush, health and inner_backend -- so the
// stack above sees the same backend it would without the probe, and Bob's
// view (the device trace, recorded far above this seam) is untouched.  It
// counts frames and payload bytes always; with `timed` it also records each
// frame's latency and the time the shard had at least one frame in flight.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "extmem/backend.h"

namespace e2e {

/// A plain copy of one shard's counters (or their sum over shards).
struct ProbeTotals {
  std::uint64_t frames = 0;
  std::uint64_t read_bytes = 0;   // payload bytes the store served
  std::uint64_t write_bytes = 0;  // payload bytes sent to the store
  std::uint64_t busy_ns = 0;      // timed only: time with >= 1 frame in flight

  ProbeTotals& operator+=(const ProbeTotals& o) {
    frames += o.frames;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    busy_ns += o.busy_ns;
    return *this;
  }
  ProbeTotals operator-(const ProbeTotals& o) const {
    return {frames - o.frames, read_bytes - o.read_bytes, write_bytes - o.write_bytes,
            busy_ns - o.busy_ns};
  }
};

/// One shard's counters.  Written by whichever engine thread drives the
/// shard, read by the benchmark's master thread between ops.
class ProbeCounters {
 public:
  ProbeTotals totals() const {
    return {frames_.load(std::memory_order_relaxed),
            read_bytes_.load(std::memory_order_relaxed),
            write_bytes_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed)};
  }
  /// Per-frame latencies (ns) recorded since the last call; timed probes only.
  std::vector<std::uint64_t> take_frame_ns() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(frame_ns_, {});
  }

 private:
  friend class ProbeBackend;
  void count(std::size_t words, bool is_write) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    (is_write ? write_bytes_ : read_bytes_)
        .fetch_add(words * sizeof(oem::Word), std::memory_order_relaxed);
  }
  void add_frame(std::uint64_t ns) {
    std::lock_guard<std::mutex> lk(mu_);
    frame_ns_.push_back(ns);
  }

  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> read_bytes_{0};
  std::atomic<std::uint64_t> write_bytes_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::mutex mu_;
  std::vector<std::uint64_t> frame_ns_;  // guarded by mu_
};

class ProbeBackend : public oem::StorageBackend {
 public:
  ProbeBackend(std::unique_ptr<oem::StorageBackend> inner,
               std::shared_ptr<ProbeCounters> counters, bool timed)
      : StorageBackend(inner->block_words()),
        inner_(std::move(inner)),
        counters_(std::move(counters)),
        timed_(timed) {}

  const char* name() const override { return "probe"; }
  oem::Status health() const override { return inner_->health(); }
  oem::Status flush() override { return inner_->flush(); }
  const oem::StorageBackend* inner_backend() const override { return inner_.get(); }

 protected:
  using Clock = std::chrono::steady_clock;
  using Ids = std::span<const std::uint64_t>;

  oem::Status do_resize(std::uint64_t nblocks) override { return inner_->resize(nblocks); }
  oem::Status do_read(std::uint64_t block, std::span<oem::Word> out) override {
    return sync_frame(out.size(), false, [&] { return inner_->read(block, out); });
  }
  oem::Status do_write(std::uint64_t block, std::span<const oem::Word> in) override {
    return sync_frame(in.size(), true, [&] { return inner_->write(block, in); });
  }
  oem::Status do_read_many(Ids blocks, std::span<oem::Word> out) override {
    return sync_frame(out.size(), false, [&] { return inner_->read_many(blocks, out); });
  }
  oem::Status do_write_many(Ids blocks, std::span<const oem::Word> in) override {
    return sync_frame(in.size(), true, [&] { return inner_->write_many(blocks, in); });
  }

  std::size_t do_max_inflight() const override { return inner_->max_inflight(); }
  oem::Status do_begin_read_many(Ids blocks, std::span<oem::Word> out) override {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    oem::Status st = inner_->begin_read_many(blocks, out);
    if (st.ok()) begun(out.size(), false, t0);
    return st;
  }
  oem::Status do_begin_write_many(Ids blocks, std::span<const oem::Word> in) override {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    oem::Status st = inner_->begin_write_many(blocks, in);
    if (st.ok()) begun(in.size(), true, t0);
    return st;
  }
  oem::Status do_complete_oldest() override {
    oem::Status st = inner_->complete_oldest();
    if (timed_ && !inflight_.empty()) {
      const Clock::time_point now = Clock::now();
      counters_->add_frame(ns_between(inflight_.front(), now));
      inflight_.pop_front();
      if (inflight_.empty()) add_busy(busy_since_, now);
    }
    return st;
  }

 private:
  static std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }
  void add_busy(Clock::time_point from, Clock::time_point to) {
    counters_->busy_ns_.fetch_add(ns_between(from, to), std::memory_order_relaxed);
  }

  template <typename Fn>
  oem::Status sync_frame(std::size_t words, bool is_write, Fn&& fn) {
    counters_->count(words, is_write);
    if (!timed_) return fn();
    const Clock::time_point t0 = Clock::now();
    oem::Status st = fn();
    const Clock::time_point t1 = Clock::now();
    counters_->add_frame(ns_between(t0, t1));
    // A synchronous frame sent while split-phase frames are still in flight
    // lies inside an interval that is already counted busy.
    if (inflight_.empty()) add_busy(t0, t1);
    return st;
  }

  void begun(std::size_t words, bool is_write, Clock::time_point t0) {
    counters_->count(words, is_write);
    if (!timed_) return;
    if (inflight_.empty()) busy_since_ = t0;
    inflight_.push_back(t0);
  }

  std::unique_ptr<oem::StorageBackend> inner_;
  std::shared_ptr<ProbeCounters> counters_;
  const bool timed_;
  // Split-phase begin times, oldest first.  Begin and complete calls for one
  // shard come from one engine thread at a time (the stack above serializes
  // them), so these need no lock.
  std::deque<Clock::time_point> inflight_;
  Clock::time_point busy_since_{};
};

}  // namespace e2e
