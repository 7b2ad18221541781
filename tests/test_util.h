// Shared helpers for the oblivem test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "extmem/client.h"
#include "extmem/io_engine.h"
#include "rng/random.h"

namespace oem::test {

/// Mem behind a zero-rate FaultyBackend: it never fails, and its ops()
/// counts every data call (sync or begun) that reaches the store below.
inline BackendFactory counted_mem() {
  return faulty_backend(mem_backend(), FaultProfile{});
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
