#!/usr/bin/env python3
"""Builds and runs the dismem end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload study-mini --seed 1 --seconds 30 --trace 0

The benchmark crate next to this script is built in release mode (into
``$CARGO_TARGET_DIR``, default ``.bench_build``) and run with its thread pool
pinned to one worker. Its standard output is passed through; the last line is
the JSON result. The exit code is the benchmark's, or 2 when it cannot be
built or run.

Other modes:

    python3 perfbench/run.py --all [--quick] [--seed n] [--seconds s]
        every workload, timed and traced; prints every metric by name with
        its unit and exits non-zero if a check failed or a metric is missing
    python3 perfbench/run.py --all --quick --seconds 1
        the same on tiny inputs, in seconds: the benchmark's self-test
    python3 perfbench/run.py --digest [--seed n]
        digests of each workload's deterministic outputs
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["study-mini", "tiering-mini", "fleet-tiny"]
# A run must end within 180 s; the first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark; returns the executable path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Build output goes to stderr so stdout keeps only the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "dismem-perfbench")


def run(exe, args, stdout=None, stderr=None):
    """Runs the benchmark with one pool worker; returns the completed process
    (or None when it could not be run or timed out and was killed)."""
    env = dict(os.environ, RAYON_NUM_THREADS="1")
    cmd = [exe] + args + ["--out-dir", os.path.join(target_dir(), "perfbench")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=stdout, stderr=stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return None


def option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def run_all(exe, argv):
    """Every workload, timed and traced: prints each metric with its unit and
    checks the result against BENCHMARK.json."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", str(bench["run_seconds"]))
    extra = ["--quick"] if "--quick" in argv else []
    ok = True
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = run(exe, ["--workload", workload, "--seed", seed, "--seconds", seconds,
                             "--trace", trace] + extra, stdout=subprocess.PIPE)
            lines = (done.stdout if done else "").strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            good = (done is not None and done.returncode == 0 and result.get("correct")
                    and result.get("attempted", 0) > 0 and got == want)
            print(f"{workload} --trace {trace}: {'ok' if good else 'FAILED'}, "
                  f"{result.get('attempted')} attempted, {result.get('failed')} failed")
            for name, m in metrics.items():
                print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
            ok = ok and bool(good)
    return 0 if ok else 1


def digest(exe, argv):
    """Prints the digest of each workload's deterministic outputs (one round)."""
    seed = option(argv, "--seed", "1")
    code = 0
    for workload in WORKLOADS:
        done = run(exe, ["--workload", workload, "--seed", seed, "--seconds", "0.001",
                         "--trace", "0"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        found = [l for l in (done.stderr if done else "").splitlines() if "output digest" in l]
        if done is None or done.returncode != 0 or not found:
            code = 1
        print(f"{workload} seed {seed}: {found[-1].split()[-1] if found else 'unavailable'}")
    return code


def main(argv):
    exe = build()
    if exe is None:
        return 2
    if "--all" in argv:
        return run_all(exe, argv)
    if "--digest" in argv:
        return digest(exe, argv)
    done = run(exe, argv)
    return 2 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
