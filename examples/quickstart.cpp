// Quickstart: outsource data to an untrusted server, sort it obliviously,
// and inspect what the server actually saw -- all through the oem::Session
// facade.
//
//   ./example_quickstart [--records=4096] [--B=8] [--M=512] [--seed=7]
//                        [--backend=mem|file] [--shards=K] [--prefetch]
//
// Walks through the whole model: Alice's session with a small private cache,
// Bob's storage backend holding only ciphertext (RAM or a file -- the
// choice is invisible to Bob's view), a
// data-oblivious sort (Theorem 21 pipeline with the paper's dense-regime
// rule), and the trace comparison that shows Bob learns nothing about the
// values.
#include <iostream>

#include "api/session.h"
#include "core/oblivious_sort.h"
#include "obliv/trace_check.h"
#include "util/flags.h"

using namespace oem;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::uint64_t N = flags.get_u64("records", 4096);
  const std::size_t B = static_cast<std::size_t>(flags.get_u64("B", 8));
  const std::uint64_t M = flags.get_u64("M", 512);
  const std::uint64_t seed = flags.get_u64("seed", 7);
  const std::string backend = flags.get("backend", "mem");
  const std::size_t shards = static_cast<std::size_t>(flags.get_u64("shards", 1));
  const bool prefetch = flags.get_bool("prefetch", false);
  flags.validate_or_die();

  std::cout << "== oblivem quickstart ==\n";
  std::cout << "N=" << N << " records, B=" << B << " records/block, M=" << M
            << " records of private cache (m=" << M / B << " blocks)\n\n";

  // 1. Alice opens a session; the storage behind it is "Bob's".
  Session::Builder builder;
  builder.block_records(B).cache_records(M).seed(seed);
  if (backend == "file") {
    builder.file_backed();
  } else if (backend != "mem") {
    std::cerr << "unknown --backend=" << backend << " (mem|file)\n";
    return 2;
  }
  // The I/O engine: stripe blocks over independent stores and overlap
  // compute with storage I/O.  Bob's view is identical either way.
  if (shards > 1) builder.sharded(shards);
  if (prefetch) builder.async_prefetch();
  auto built = builder.build();
  if (!built.ok()) {
    std::cerr << "session setup failed: " << built.status() << "\n";
    return 1;
  }
  Session session = std::move(built).value();
  std::cout << "storage backend: " << session.backend_name() << "\n";

  // 2. Outsource some sensitive data (salaries, say).
  std::vector<Record> salaries(N);
  rng::Xoshiro g(42);
  for (std::uint64_t i = 0; i < N; ++i)
    salaries[i] = {30000 + g.below(200000), /*employee id=*/i};
  auto data = session.outsource(salaries);
  if (!data.ok()) {
    std::cerr << "outsource failed: " << data.status() << "\n";
    return 1;
  }

  // 3. What does Bob hold?  Only ciphertext.
  auto raw = session.raw_block(*data, 0);
  auto mine = session.retrieve(*data);
  if (!raw.ok() || !mine.ok()) {
    std::cerr << "storage read failed: " << (raw.ok() ? mine.status() : raw.status())
              << "\n";
    return 1;
  }
  std::cout << "Bob's view of block 0 (ciphertext words): ";
  for (int i = 0; i < 4; ++i) std::cout << std::hex << (*raw)[i] << " ";
  std::cout << std::dec << "...\n";
  std::cout << "Alice's view of record 0: salary=" << (*mine)[0].key
            << " id=" << (*mine)[0].value << "\n\n";

  // 4. Sort obliviously.
  session.reset_stats();
  auto report = session.sort(*data, seed);
  if (!report.ok()) {
    std::cerr << "oblivious sort failed: " << report.status() << "\n";
    return 1;
  }
  std::cout << "oblivious sort: ok, " << report->ios << " block I/Os ("
            << session.stats().reads << " reads, " << session.stats().writes
            << " writes, " << session.stats().total_ops()
            << " batched backend ops)\n";
  auto sorted_res = session.retrieve(*data);
  if (!sorted_res.ok()) {
    std::cerr << "retrieve failed: " << sorted_res.status() << "\n";
    return 1;
  }
  const auto& sorted = *sorted_res;
  std::cout << "smallest salaries: ";
  for (int i = 0; i < 5; ++i) std::cout << sorted[i].key << " ";
  std::cout << "\nlargest salary: " << sorted[N - 1].key << "\n\n";

  // 5. The privacy claim, demonstrated: run the same sort on wildly
  // different inputs -- Bob's trace is bit-identical.  (The harness spins up
  // a fresh client per input from the same parameters, including the same
  // storage backend.)
  std::cout << "obliviousness check (same seed, different data):\n";
  auto check = obliv::check_oblivious(
      session.params(), N, obliv::canonical_inputs(1),
      [&](Client& c, const ExtArray& a) { (void)core::oblivious_sort(c, a, seed); });
  for (const auto& run : check.runs) {
    std::cout << "  input " << run.input_name << ": trace hash " << std::hex
              << run.trace_hash << std::dec << " (" << run.trace_len << " accesses)\n";
  }
  std::cout << (check.oblivious ? "=> traces identical: Bob learns only N, M, B\n"
                                : "=> TRACES DIFFER: leak!\n");
  return check.oblivious && report.ok() ? 0 : 1;
}
