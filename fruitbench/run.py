#!/usr/bin/env python3
"""fruitbench runner: builds the benchmark from source and runs it.

One workload (the form BENCHMARK.json's command takes):

    python3 fruitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds fruitbench/fruitbench.exe with dune, runs it once in a fresh
process, adds that process's peak resident set (peak_rss_mb) to the
end-to-end metrics, and prints the result as the last line of stdout.

Every workload, round-robin (the default when --workload is omitted):

    python3 fruitbench/run.py [--reps 3] [--seed N] [--seconds S] [--results FILE]

runs each workload --reps times, interleaved, with seeds N, N+1, ...,
prints the median, min and max of every metric per workload, and appends
each run's result to FILE (JSON lines) for fruitbench/compare.py.

    python3 fruitbench/run.py --selftest | --repin

run the benchmark's self-test, or re-pin fruitbench/expected.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "fruitbench", "fruitbench.exe")
WORKLOADS = ["exact-honest", "exact-selfish", "sparse-scale", "observed-partition"]
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def fail(msg):
    print("fruitbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from a checkout of the repository: dune-project and lib/ are missing")
    # The shared dune cache lives outside the checkout; keep every build
    # artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        subprocess.run(
            ["dune", "build", "--root", ".", "./fruitbench/fruitbench.exe"],
            env=env, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail("build failed: %s" % e)


def run_exe(args):
    """Runs the benchmark once; returns (stdout lines, peak RSS in MiB)."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        if status is None:
            proc.kill()
            proc.wait()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail("%s exited with %d" % (" ".join([EXE] + args), code))
    # ru_maxrss is in KiB on Linux.
    return out.splitlines(), usage.ru_maxrss / 1024.0


def run_one(workload, seed, seconds, trace):
    lines, peak_rss_mb = run_exe(["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)])
    if not lines:
        fail("no output from the benchmark")
    result = json.loads(lines[-1])
    if trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    return lines[:-1], result


def summarize(runs):
    print("\n%-20s %-20s %14s %14s %14s %s" % ("workload", "metric", "median", "min", "max", "unit"))
    ok = True
    for workload in WORKLOADS:
        results = [r for w, r in runs if w == workload]
        if not results:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            print("%-20s %-20s %14.6g %14.6g %14.6g %s" % (
                workload, name, statistics.median(values), min(values), max(values),
                results[0]["metrics"][name]["unit"]))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print("%-20s %-20s %14.6g %14s %14s fraction (%d of %d runs)" % (
            workload, "fail_rate", failed / attempted, "", "", failed, attempted))
        ok = ok and all(r["correct"] for r in results)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--results")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args()
    # Terminating the runner must stop the benchmark process too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    build()
    if args.selftest or args.repin:
        sys.exit(subprocess.run([EXE, "selftest" if args.selftest else "repin"]).returncode)
    if args.workload:
        lines, result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return
    runs = []
    for rep in range(args.reps):
        for workload in WORKLOADS:
            seed = args.seed + rep
            lines, result = run_one(workload, seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            runs.append((workload, result))
            if args.results:
                with open(args.results, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                        "result": result}) + "\n")
    sys.exit(0 if summarize(runs) else 1)


if __name__ == "__main__":
    main()
