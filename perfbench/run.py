#!/usr/bin/env python3
"""The repository benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload fleet_rl --seed 3 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the harness and the
libraries it measures from source into .bench_build/, runs the workload and
prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (README.md in this directory defines each). The exit code
is 0 when the outputs were correct, 1 otherwise or when the workload could
not run; build logs go to standard error.

--record-reference SEEDS rewrites reference.json with the exact fleet
aggregates of seeds 0..SEEDS-1 (run it only when a change is meant to
alter simulation results).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("fleet_rl", "fleet_eval", "serve_meters", "serve_midnight")
FLEETS = ("fleet_rl", "fleet_eval")

# Cold warm-ups per fleet run; setup_s is their median.
FLEET_SETUPS = 5

END_TO_END = {
    "household_days_per_s": "days/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_p50_us": "us",
    "close_p50_ms": "ms",
    "close_tail_ms": "ms",
}

PER_LAYER = {
    "sim.setup_us": "us",
    "meter.next_day_us": "us",
    "core.decide_ns": "ns",
    "core.observe_ns": "ns",
    "core.end_day_us": "us",
    "core.replay_us_per_virtual_day": "us",
    "core.virtual_days": "count",
    "sim.kernel_us": "us",
    "privacy.observe_day_us": "us",
    "privacy.result_us": "us",
    "sim.fleet_efficiency": "ratio",
    "trace.overhead": "ratio",
    "serve.decode_us": "us",
    "serve.encode_us": "us",
    "serve.buffer_us": "us",
    "serve.close_us": "us",
    "serve.checkpoint_save_ms": "ms",
    "serve.checkpoint_bytes": "bytes",
    "serve.checkpoint_load_ms": "ms",
    "serve.transport_us": "us",
    "serve.batch_close_share": "fraction",
    "serve.gen_lag_p99_us": "us",
}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        die("no repository sources here (CMakeLists.txt and src/ missing); "
            "run from the root of a checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "perfbench_daemon"],
                   stdout=sys.stderr, check=True)


def harness(workload, seed, seconds, trace, tiny, setup_only=False):
    """Runs the harness once and returns its JSON report."""
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", "1" if trace else "0"]
    if tiny:
        command.append("--tiny")
    if setup_only:
        command.append("--setup-only")
    if workload not in FLEETS:
        command += ["--daemon", os.path.join(BUILD, "perfbench_daemon"),
                    "--dir", os.path.join(BUILD, "serve_run")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        die("%s did not run (exit %d)" % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_key(workload, tiny):
    return workload + ("/tiny" if tiny else "")


def check_reference(workload, seed, tiny, exact, path):
    """Returns a list of mismatches against the recorded aggregates."""
    with open(path) as f:
        reference = json.load(f)
    expected = reference.get(reference_key(workload, tiny), {}).get(str(seed))
    if expected is None:
        print("perfbench: no recorded aggregates for %s seed %d; checked "
              "against repetitions and run_spec only" % (workload, seed),
              file=sys.stderr)
        return []
    return ["%s: got %s, recorded %s" % (k, exact.get(k), v)
            for k, v in sorted(expected.items()) if exact.get(k) != v]


def record_reference(seeds, tiny):
    try:
        with open(REFERENCE) as f:
            reference = json.load(f)
    except FileNotFoundError:
        reference = {}
    for workload in FLEETS:
        entries = {}
        for seed in range(seeds):
            report = harness(workload, seed, 0.001, False, tiny)
            if report["failed"] != 0:
                die("%s seed %d failed its own checks" % (workload, seed))
            entries[str(seed)] = report["exact"]
        reference[reference_key(workload, tiny)] = entries
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--reference", default=REFERENCE,
                        help="recorded fleet aggregates to check against")
    parser.add_argument("--record-reference", type=int, metavar="SEEDS")
    args = parser.parse_args()
    if args.record_reference is None and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    build()
    if args.record_reference is not None:
        record_reference(args.record_reference, args.tiny)
        return 0

    setups = []
    if args.workload in FLEETS:
        for _ in range(FLEET_SETUPS - 1):
            setups += harness(args.workload, args.seed, args.seconds, False,
                              args.tiny, setup_only=True)["setup_s"]
    report = harness(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.tiny)
    setups += report["setup_s"]
    errors = list(report["errors"])
    failed = report["failed"]
    if args.workload in FLEETS:
        mismatches = check_reference(args.workload, args.seed, args.tiny,
                                     report["exact"], args.reference)
        if mismatches:
            errors += mismatches
            failed = report["attempted"]
    for error in errors:
        print("perfbench: " + error, file=sys.stderr)

    raw = dict(report["metrics"], setup_s=statistics.median(setups))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": raw.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    if any(m["value"] is None for m in metrics.values()):
        die("a metric was not a finite number")
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
