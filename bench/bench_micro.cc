// M1 -- google-benchmark micro-benchmarks of the primitives: block I/O with
// encryption, the window-level seal/open kernel (sec_per_block is the time
// per block of a 64-block window, one thread), sorting-network compare-exchange throughput, IBLT operations,
// Feistel PRP evaluation, and the consolidation scan.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/consolidate.h"
#include "iblt/iblt.h"
#include "rng/permutation.h"
#include "sortnet/networks.h"

using namespace oem;

namespace {

void BM_BlockWriteRead(benchmark::State& state) {
  const std::size_t B = static_cast<std::size_t>(state.range(0));
  Client client(bench::params(B, 4 * B));
  ExtArray a = client.alloc_blocks(64, Client::Init::kEmpty);
  BlockBuf buf(B);
  for (std::size_t i = 0; i < B; ++i) buf[i] = {i, i};
  std::uint64_t blk = 0;
  for (auto _ : state) {
    client.write_block(a, blk % 64, buf);
    client.read_block(a, blk % 64, buf);
    ++blk;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(B * sizeof(Record)));
}
BENCHMARK(BM_BlockWriteRead)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// One 64-block window of random plaintext, ids, nonces and versions, B = the
// benchmark argument.
struct CryptoWindow {
  static constexpr std::size_t kBlocks = 64;
  explicit CryptoWindow(std::size_t B)
      : enc(0x5eed, 1),
        plain(bench::random_records(kBlocks * B, 5)),
        wire(kBlocks * (kBlockHeaderWords + B * kWordsPerRecord)),
        out(kBlocks * B),
        verdicts(kBlocks) {
    for (std::size_t j = 0; j < kBlocks; ++j) {
      ids.push_back(1000 + 7 * j);
      nonces.push_back(enc.fresh_nonce());
      versions.push_back(1 + j % 3);
    }
  }
  Encryptor enc;
  std::vector<std::uint64_t> ids;
  std::vector<Word> nonces;
  std::vector<std::uint64_t> versions;
  std::vector<Record> plain;
  std::vector<Word> wire;
  std::vector<Record> out;
  std::vector<std::uint8_t> verdicts;
};

void set_per_block(benchmark::State& state) {
  state.counters["sec_per_block"] = benchmark::Counter(
      static_cast<double>(state.iterations() * CryptoWindow::kBlocks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SealWindow(benchmark::State& state) {
  CryptoWindow w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    w.enc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, w.wire);
    benchmark::DoNotOptimize(w.wire.data());
    benchmark::ClobberMemory();
  }
  set_per_block(state);
}
BENCHMARK(BM_SealWindow)->Arg(4)->Arg(8)->Arg(32);

void BM_OpenWindow(benchmark::State& state) {
  CryptoWindow w(static_cast<std::size_t>(state.range(0)));
  w.enc.seal_blocks(w.ids, w.nonces, w.versions, w.plain, w.wire);
  for (auto _ : state) {
    w.enc.open_blocks(w.ids, w.versions, w.wire, w.out, w.verdicts);
    benchmark::DoNotOptimize(w.out.data());
    benchmark::DoNotOptimize(w.verdicts.data());
    benchmark::ClobberMemory();
  }
  set_per_block(state);
}
BENCHMARK(BM_OpenWindow)->Arg(4)->Arg(8)->Arg(32);

void BM_BitonicSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto base = bench::random_records(n, 3);
  for (auto _ : state) {
    auto v = base;
    sortnet::bitonic_sort_any(v, RecordLess{}, Record{});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitonicSort)->Arg(256)->Arg(1024)->Arg(4096);

void BM_OddEvenSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto base = bench::random_records(n, 3);
  for (auto _ : state) {
    auto v = base;
    sortnet::odd_even_sort_any(v, RecordLess{}, Record{});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OddEvenSort)->Arg(256)->Arg(1024)->Arg(4096);

void BM_IbltInsert(benchmark::State& state) {
  iblt::Iblt table(100000, {}, 5);
  std::uint64_t k = 0;
  for (auto _ : state) {
    table.insert(k, k);
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IbltInsert);

void BM_IbltListEntries(benchmark::State& state) {
  const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    iblt::Iblt table(n, {}, 7);
    for (std::uint64_t k = 0; k < n; ++k) table.insert(k * 7 + 1, k);
    std::vector<iblt::Entry> out;
    state.ResumeTiming();
    benchmark::DoNotOptimize(table.list_entries(out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IbltListEntries)->Arg(1000)->Arg(10000);

void BM_FeistelApply(benchmark::State& state) {
  rng::FeistelPermutation prp(1 << 20, 0xabc, 4);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prp.apply(x % (1 << 20)));
    ++x;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FeistelApply);

void BM_ConsolidationScan(benchmark::State& state) {
  const std::uint64_t n_blocks = static_cast<std::uint64_t>(state.range(0));
  const std::size_t B = 16;
  for (auto _ : state) {
    state.PauseTiming();
    Client client(bench::params(B, 4 * B));
    ExtArray a = client.alloc_blocks(n_blocks, Client::Init::kUninit);
    client.poke(a, bench::random_records(n_blocks * B, 3));
    state.ResumeTiming();
    core::consolidate(client, a, core::nonempty_pred());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_blocks * B));
}
BENCHMARK(BM_ConsolidationScan)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
