#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload tile-cme --seed 7 --seconds 35 --trace 0

Builds the benchmark program (perfbench/bench.exe) and the tiler CLI from
source with dune into .bench_build/, runs the seeded workload, and relays
the program's output.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  BENCHMARK.json documents
the workloads and metrics.

--tiny and --plant WHAT are for perfbench/selftest.py: tiny inputs, and one
deliberately corrupted answer so the matching correctness check must fire.
Exits non-zero, without a result line, if the build, the run or the result
fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("tile-cme", "serve-fleet")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, env):
    cmd = [
        "dune", "build", "--root", root,
        "--build-dir", os.path.join(root, BUILD_DIR),
        "--profile", "release",
        "./perfbench/bench.exe", "./bin/tiler.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die(f"build failed with exit code {r.returncode}")


def stop_group(proc):
    """Kill whatever is left in bench.exe's process group (fleet
    daemons included), reap bench.exe and wait until the group is
    empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant", default="")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    env = dict(os.environ)
    # Keep dune's shared cache and every other write inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, BUILD_DIR, "cache")
    build(root, env)

    # One directory per workload and trace mode, not per seed: the fleet's
    # socket paths name its workers, and rendezvous hashing places keys by
    # those names, so they must be the same in every run.
    work = os.path.join(BUILD_DIR, "perfbench",
                        f"{args.workload}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env["OCAML_RUNTIME_EVENTS_DIR"] = work
    cmd = [
        os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tiler", os.path.join(BUILD_DIR, "default", "bin", "tiler.exe"),
        "--work-dir", work,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant:
        cmd += ["--plant", args.plant]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        die(f"bench.exe exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("bench.exe printed no result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
