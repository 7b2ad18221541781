// E16: fail-closed under a malicious server -- detection proofs.
//
// Seeded tamper trials (gated).  Each trial runs a full workload
// (oblivious sort round-trip, or an ORAM epoch) over a Session whose base
// store lies -- corrupted / bit-flipped / swapped reads served with
// Status::Ok, acknowledged-but-dropped writes.  Exactly two outcomes are
// allowed: output identical to the tamper-free reference, or a clean
// StatusCode::kIntegrity.  The exit code enforces:
//   1. zero silent corruptions (a completed trial's output matches the
//      reference, bit for bit, and its trace hash is unchanged)
//   2. zero retries burned on integrity failures (RetryPolicy is for kIo;
//      a failed MAC is proof of tampering and must pass straight through)
//   3. at least one detection per workload (else the harness is not firing)
//
//   bench_integrity [--trials=100] [--rate=0.02] [--records=2048]
//                   [--oram-items=1024] [--json=PATH]
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_common.h"
#include "oram/sqrt_oram.h"
#include "util/flags.h"
#include "util/table.h"

namespace oem {
namespace {

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "bench_integrity: %s\n", why.c_str());
  std::exit(2);
}

struct TrialTally {
  std::uint64_t completed = 0;
  std::uint64_t detected = 0;         // clean kIntegrity
  std::uint64_t silent = 0;           // completed with WRONG output -- fatal
  std::uint64_t other_errors = 0;     // non-kIntegrity failure -- fatal
  std::uint64_t retries_burned = 0;   // device retries in failed trials -- fatal
};

Result<Session> build_session(std::uint64_t tamper_seed, double rate) {
  Session::Builder b;
  b.block_records(4).cache_records(64).seed(11).io_retries(4);
  if (rate > 0.0) b.tampering(tamper_seed, rate);
  return b.build();
}

/// One workload = one deterministic algorithm run whose full output lands in
/// *out.  Identical inputs across trials, so the reference comparison is
/// exact.
template <typename AlgoFn>
TrialTally run_trials(const char* what, int trials, double rate, AlgoFn&& algo) {
  auto clean = build_session(0, 0.0);
  if (!clean.ok()) die(std::string(what) + ": clean build failed");
  std::vector<Record> expected;
  if (!algo(*clean, &expected).ok())
    die(std::string(what) + ": tamper-free reference run failed");
  const std::uint64_t expected_trace = clean->trace().hash();

  TrialTally tally;
  for (int trial = 0; trial < trials; ++trial) {
    auto tampered = build_session(9000 + trial, rate);
    if (!tampered.ok()) die(std::string(what) + ": tampered build failed");
    std::vector<Record> got;
    Status st = algo(*tampered, &got);
    if (st.ok()) {
      const bool identical =
          got == expected && tampered->trace().hash() == expected_trace;
      if (identical) {
        ++tally.completed;
      } else {
        ++tally.silent;
      }
    } else if (st.code() == StatusCode::kIntegrity) {
      ++tally.detected;
    } else {
      ++tally.other_errors;
    }
    tally.retries_burned += tampered->client().device().retries();
  }
  return tally;
}

TrialTally sort_trials(int trials, double rate, std::uint64_t records) {
  return run_trials("sort", trials, rate,
                    [records](Session& s, std::vector<Record>* out) -> Status {
                      auto data = s.outsource(bench::random_records(records, 7));
                      if (!data.ok()) return data.status();
                      auto rep = s.sort(*data, /*seed=*/5);
                      if (!rep.ok()) return rep.status();
                      auto result = s.retrieve(*data);
                      if (!result.ok()) return result.status();
                      *out = std::move(*result);
                      return Status::Ok();
                    });
}

TrialTally oram_trials(int trials, double rate, std::uint64_t items) {
  return run_trials("oram", trials, rate,
                    [items](Session& s, std::vector<Record>* out) -> Status {
                      auto oram = s.open_oram(items, oram::ShuffleKind::kDeterministic,
                                              /*seed=*/17);
                      if (!oram.ok()) return oram.status();
                      for (std::uint64_t i = 0; i <= oram->epoch_length(); ++i) {
                        const std::uint64_t idx = (i * 5) % items;
                        auto v = oram->access(idx);
                        if (!v.ok()) return v.status();
                        // A wrong value with Ok status is silent corruption:
                        // poison the output so the reference compare fails.
                        out->push_back({i, *v == oram->expected_value(idx)
                                               ? *v
                                               : ~*v});
                      }
                      return Status::Ok();
                    });
}

}  // namespace
}  // namespace oem

int main(int argc, char** argv) {
  using namespace oem;
  Flags flags(argc, argv);
  const int trials = static_cast<int>(flags.get_u64("trials", 100));
  const double rate = std::stod(flags.get("rate", "0.02"));
  const std::uint64_t records = flags.get_u64("records", 2048);
  const std::uint64_t oram_items = flags.get_u64("oram-items", 1024);
  const std::string json_path = flags.get("json", "");
  flags.validate_or_die();

  bench::banner("E16", "fail-closed integrity: detection proofs");
  bench::note("tamper rate " + Table::fmt(rate, 4) + ", " +
              std::to_string(trials) + " seeded trials per workload; every "
              "trial must finish identical-to-reference or as clean kIntegrity");

  bool claim_met = true;
  std::string json_rows;
  Table t({"workload", "trials", "completed", "detected", "silent", "other",
           "retries"});
  auto tally_row = [&](const char* what, const TrialTally& tally) {
    t.add_row({what, std::to_string(trials), std::to_string(tally.completed),
               std::to_string(tally.detected), std::to_string(tally.silent),
               std::to_string(tally.other_errors),
               std::to_string(tally.retries_burned)});
    if (!json_rows.empty()) json_rows += ",";
    json_rows += std::string("{\"workload\":\"") + what +
                 "\",\"trials\":" + std::to_string(trials) +
                 ",\"completed\":" + std::to_string(tally.completed) +
                 ",\"detected\":" + std::to_string(tally.detected) +
                 ",\"silent\":" + std::to_string(tally.silent) +
                 ",\"other_errors\":" + std::to_string(tally.other_errors) +
                 ",\"retries_burned\":" + std::to_string(tally.retries_burned) + "}";
    if (tally.silent != 0) {
      bench::note(std::string("CLAIM VIOLATED: ") + what + " had " +
                  std::to_string(tally.silent) + " SILENT corruption(s)");
      claim_met = false;
    }
    if (tally.other_errors != 0) {
      bench::note(std::string("CLAIM VIOLATED: ") + what +
                  " surfaced a non-kIntegrity failure under tampering");
      claim_met = false;
    }
    if (tally.retries_burned != 0) {
      bench::note(std::string("CLAIM VIOLATED: ") + what +
                  " burned RetryPolicy attempts on integrity failures");
      claim_met = false;
    }
    if (tally.detected == 0) {
      bench::note(std::string("CLAIM VIOLATED: ") + what +
                  " detected nothing -- the tamper harness is not firing");
      claim_met = false;
    }
  };

  tally_row("sort", sort_trials(trials, rate, records));
  tally_row("oram_epoch", oram_trials(trials, rate, oram_items));
  t.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"integrity\",\"claim_met\":"
        << (claim_met ? "true" : "false") << ",\"rate\":" << rate
        << ",\"rows\":[" << json_rows << "]}\n";
    bench::note("wrote " + json_path);
  }
  return claim_met ? 0 : 1;
}
