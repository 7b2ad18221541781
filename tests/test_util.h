// Shared helpers for the oblivem test suite.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "extmem/backend.h"
#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "rng/random.h"

namespace oem::test {

/// Mem behind a zero-rate FaultyBackend: it never fails, and its ops()
/// counts every data call (sync or begun) that reaches the store below.
inline BackendFactory counted_mem() {
  return faulty_backend(mem_backend(), FaultProfile{});
}

/// A gate the test opens by hand.  Stores wait in pass() while it is shut;
/// every wait on it -- theirs and the test's -- ends at one deadline fixed
/// at construction, so a gate nobody opens fails the test instead of hanging
/// it.  Open it before destroying a server whose stores wait on it: the
/// server's shutdown joins the worker that is waiting.
class Gate {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Gate(std::chrono::seconds bound = std::chrono::seconds(20))
      : deadline_(Clock::now() + bound) {}

  /// Store side: waits while the gate is shut.  False when the deadline
  /// came first.
  bool pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    max_inside_ = std::max(max_inside_, ++inside_);
    cv_.notify_all();
    const bool opened = cv_.wait_until(lock, deadline_, [&] { return open_; });
    --inside_;
    return opened;
  }

  void open() { set(true); }
  void close() { set(false); }

  /// Test side: waits until `n` calls have reached pass() in all.  False
  /// when the deadline came first.
  bool await_arrivals(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_until(lock, deadline_, [&] { return arrived_ >= n; });
  }

  /// The most calls that were inside pass() at once.
  std::size_t max_inside() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_inside_;
  }

  Clock::time_point deadline() const { return deadline_; }

 private:
  void set(bool open) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = open;
    }
    cv_.notify_all();
  }

  const Clock::time_point deadline_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::size_t arrived_ = 0;
  std::size_t inside_ = 0;
  std::size_t max_inside_ = 0;
};

/// MemBackend whose batched data ops -- the ones the server's READ_MANY and
/// WRITE_MANY call -- wait at a Gate before they touch a block.  An op whose
/// wait ran past the gate's deadline fails kTimeout, a code no test expects
/// from a held store.
class GatedMem : public MemBackend {
 public:
  GatedMem(std::size_t block_words, std::shared_ptr<Gate> gate)
      : MemBackend(block_words), gate_(std::move(gate)) {}

 protected:
  using Ids = std::span<const std::uint64_t>;
  Status do_read_many(Ids ids, std::span<Word> out) override {
    OEM_RETURN_IF_ERROR(held());
    return MemBackend::do_read_many(ids, out);
  }
  Status do_write_many(Ids ids, std::span<const Word> in) override {
    OEM_RETURN_IF_ERROR(held());
    return MemBackend::do_write_many(ids, in);
  }

 private:
  Status held() {
    return gate_->pass() ? Status::Ok() : Status::Timeout("test gate stayed shut");
  }
  std::shared_ptr<Gate> gate_;
};

/// A server store factory building GatedMem stores.  With
/// `hold_construction` the factory itself first waits at the gate, so the
/// HELLO that creates a store goes unanswered while the gate is shut.
inline BackendFactory gated_mem(std::shared_ptr<Gate> gate, bool hold_construction = false) {
  return [gate, hold_construction](std::size_t block_words) -> std::unique_ptr<StorageBackend> {
    if (hold_construction) gate->pass();
    return std::make_unique<GatedMem>(block_words, gate);
  };
}

inline ClientParams params(std::size_t B, std::uint64_t M, std::uint64_t seed = 1) {
  ClientParams p;
  p.block_records = B;
  p.cache_records = M;
  p.seed = seed;
  return p;
}

/// Random records with keys strictly below the empty sentinel; values are the
/// record's original index (useful for order-preservation checks).
inline std::vector<Record> random_records(std::uint64_t n, std::uint64_t seed) {
  rng::Xoshiro g(seed);
  std::vector<Record> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = {g.next() >> 1, i};
  return v;
}

inline std::vector<Record> iota_records(std::uint64_t n) {
  std::vector<Record> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = {i, i};
  return v;
}

/// Multiset equality over the non-empty records of two collections.
inline bool same_multiset(std::vector<Record> a, std::vector<Record> b) {
  auto drop_empty = [](std::vector<Record>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](const Record& r) { return r.is_empty(); }),
            v.end());
  };
  drop_empty(a);
  drop_empty(b);
  std::sort(a.begin(), a.end(), RecordLess{});
  std::sort(b.begin(), b.end(), RecordLess{});
  return a == b;
}

inline std::vector<Record> non_empty(const std::vector<Record>& v) {
  std::vector<Record> out;
  for (const Record& r : v)
    if (!r.is_empty()) out.push_back(r);
  return out;
}

inline bool keys_nondecreasing(const std::vector<Record>& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i].key < v[i - 1].key) return false;
  return true;
}

/// Non-empty records form a prefix and are in nondecreasing key order after
/// dropping empties ("padded sorting" in the paper's sense).
inline bool padded_sorted(const std::vector<Record>& v) {
  return keys_nondecreasing(non_empty(v));
}

}  // namespace oem::test
