#!/usr/bin/env python3
"""dir2b baseline benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

Builds perfbench/ (which compiles the repository's src/ in Release) into
.bench_build/perfbench, runs the workload in one single-threaded process
and checks the digest of every repetition's simulated statistics against
the pin for the seed.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  The line before it is the
machine stamp (nproc, build type, compiler, seed).

--self-test runs every workload briefly in both modes and checks that
every metric BENCHMARK.json names is printed with its unit, that every
digest matches its pin, and that a deliberately wrong pin is reported as
a failure.  --write-pins recomputes perfbench/pins.json; do that only
when a change is meant to alter simulated statistics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
PINS = HERE / "pins.json"
BINARY = BUILD / "dir2b_perfbench"
WORKLOADS = ["func_synth_hits", "replay_sparse_contention", "timed_crossbar"]
# Pins cover this many input seeds; --seed n runs input seed n % SLOTS.
SLOTS = 32
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dir2b sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(workload, slot, seconds, trace, min_reps=3):
    """Run one workload process; returns its parsed report, or None if
    it crashed, timed out or printed no report."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(slot),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK), "--min-reps", str(min_reps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode == 3:
        fail("the benchmark binary is not an optimized build")
    if proc.returncode != 0:
        print(f"perfbench: {workload} exited {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no report", file=sys.stderr)
        return None


def result(report, pin):
    """The result object: every repetition's digest, traced ones too,
    must equal the pin.  A crash counts as one failed attempt."""
    if report is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}
    digests = report["digests"] + report["traced_digests"]
    failed = sum(1 for d in digests if d != pin)
    return {"correct": failed == 0, "attempted": len(digests),
            "failed": failed, "metrics": report["metrics"]}


def load_pins():
    return json.loads(PINS.read_text())["pins"]


def measure(args):
    build()
    slot = args.seed % SLOTS
    pin = load_pins()[args.workload][slot]
    report = run_binary(args.workload, slot, args.seconds, args.trace)
    stamp = dict(report["stamp"]) if report else {"seed": slot}
    stamp.update({"seed_arg": args.seed, "pin": pin})
    print(json.dumps({"stamp": stamp}))
    res = result(report, pin)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def self_test():
    build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    pins = load_pins()
    problems = []
    slot = 1
    for w in WORKLOADS:
        for trace in (0, 1):
            report = run_binary(w, slot, 0.1, trace, min_reps=1)
            res = result(report, pins[w][slot])
            tag = f"{w} --trace {trace}"
            if not res["correct"]:
                problems.append(f"{tag}: digest differs from pin "
                                f"{pins[w][slot]}: {report and report['digests']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics {sorted(got.items())} "
                                f"!= {sorted(want[trace].items())}")
            if trace == 1 and report and not report["traced_digests"]:
                problems.append(f"{tag}: no traced repetition")
            print(f"self-test {tag}: attempted {res['attempted']} "
                  f"failed {res['failed']}")
            # Negative control: a wrong pin must fail every repetition.
            if trace == 0 and report:
                wrong = f"0x{int(pins[w][slot], 16) ^ 1:016x}"
                neg = result(report, wrong)
                if neg["correct"] or neg["failed"] != neg["attempted"]:
                    problems.append(f"{tag}: wrong pin {wrong} not "
                                    f"reported as failed: {neg}")
    for p in problems:
        print(f"self-test FAILED: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def write_pins():
    build()
    pins = {}
    for w in WORKLOADS:
        pins[w] = []
        for slot in range(SLOTS):
            report = run_binary(w, slot, 0.01, 0, min_reps=2)
            if report is None or len(set(report["digests"])) != 1:
                fail(f"{w} seed {slot}: no stable digest")
            pins[w].append(report["digests"][0])
    PINS.write_text(json.dumps({"pins": pins}, indent=1) + "\n")
    print(f"wrote {PINS}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return self_test()
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
