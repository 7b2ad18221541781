#!/usr/bin/env python3
"""End-to-end benchmark of the oblivem stack.

One measured run:

    python3 e2ebench/run.py --workload sort_big --seed 7 --seconds 20 --trace 0

builds e2ebench/ (which pulls in the repository's own CMake build) into
.bench_build/e2ebench under the checkout root, runs the e2e_bench binary in a
scratch directory under .bench_build (so the server's temp files stay inside
the checkout), and prints the result JSON as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.

Steadiness mode:

    python3 e2ebench/run.py --steady --runs 10 --seconds 20 [--workload W ...]

runs every named workload (default: all) once per seed 1..runs with tracing
off and prints, for each end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median next to the bound BENCHMARK.json
gives it.  It then checks the invariance guard: a repeat of the first seed,
untraced and traced, must give Bob the same first-op trace hash and the same
block I/Os per op, and the traced run's ledger must close.  It exits 1 when a
guard fails, an op failed, or a metric's spread (setup_s too) is over its
bound.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "bin" / "e2e_bench"
WORKLOADS = ["sort_big", "select_compact_hot", "oram_kv"]
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
# The measured parts of the traced master thread's op time may over-cover its
# wall time by at most this share (README.md, Ledger).  e2e_bench checks the
# same tolerance.
LEDGER_TOLERANCE = 0.05


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench and oem-server; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"e2ebench: no oblivem sources next to {HERE}")
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"e2ebench: build step failed: {' '.join(cmd)}")
                return False
    return BINARY.is_file()


def stop_group(pgid):
    """SIGKILLs whatever is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(workload, seed, seconds, trace):
    """One e2e_bench run; returns (report, result) dicts or None on failure."""
    scratch = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"e2ebench: {workload} seed {seed} timed out")
        return None
    finally:
        # The binary stops its servers itself; this only catches a crash.
        stop_group(proc.pid)
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        log(f"e2ebench: e2e_bench exited with {proc.returncode}")
        return None
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-2][len("e2e-report "):])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("e2ebench: unparsable e2e_bench output:\n" + out)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("e2ebench: result has the wrong keys: " + lines[-1])
        return None
    return report, result


def steady(workloads, runs, seconds):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values, reports = {}, []
        for seed in range(1, runs + 1):
            got = run_binary(w, seed, seconds, 0)
            if got is None:
                return False
            report, result = got
            reports.append(report)
            ok &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n## {w}: {runs} runs of {seconds} s, seeds 1..{runs}")
        print("| metric | median | q1 | q3 | spread | bound | bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = ""
            if spread > bound:
                flag = " **over bound**"
                ok = False
            elif spread > bound / 3:
                flag = " (over bound/3)"
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} "
                  f"| {bound} | {bound / 3:.4f} |")
        print("ops per run: " + ", ".join(str(r["ops"]) for r in reports))
        print("set-ups per run: " + ", ".join(str(r["setups"]) for r in reports))
        # Invariance guard: same seed => same view of Bob, traced or not.
        first = reports[0]
        again = run_binary(w, 1, seconds, 0)
        traced = run_binary(w, 1, seconds, 1)
        if again is None or traced is None:
            return False
        layer = traced[1]["metrics"]
        checks = {
            "repeat: first-op trace hash": again[0]["trace_hash_first"] == first["trace_hash_first"],
            "repeat: block I/Os per op": again[1]["metrics"]["block_ios_per_op"]["value"]
            == values["block_ios_per_op"][0],
            "traced: same view as its untraced twin": traced[0]["same_view"],
            "traced: first-op trace hash": traced[0]["trace_hash_first"] == first["trace_hash_first"],
            "traced: block I/Os per op": traced[0]["block_ios"] / traced[0]["ops"]
            == values["block_ios_per_op"][0],
            f"traced: ledger gap within {LEDGER_TOLERANCE}":
                layer["trace.ledger_gap_share"]["value"] <= LEDGER_TOLERANCE,
            "traced: correct, no failed op": traced[1]["correct"] and traced[1]["failed"] == 0,
        }
        for what, good in checks.items():
            print(f"- {what}: {'ok' if good else 'FAILED'}")
            ok &= good
        print("per-layer (seed 1, traced): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in layer.items()))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not build():
        return 2
    if args.steady:
        return 0 if steady(args.workload or WORKLOADS, args.runs, args.seconds) else 1
    if not args.workload or len(args.workload) != 1:
        ap.error("exactly one --workload is needed outside --steady")
    got = run_binary(args.workload[0], args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    report, result = got
    print("e2e-report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
