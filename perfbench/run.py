#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload warm-wire --seed 1 --seconds 10 --trace 0

The harness is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build`). Its last line of standard output is the JSON result;
build output goes to standard error. A failed build, a wrong answer, or a
run past the time limit exits non-zero.

All threads of the harness process share one CPU at a time. Every workload
is one closed-loop connection, so its work is sequential anyway; on a
shared virtual machine an unpinned run spends its variance on cross-CPU
wake-ups of halted vCPUs (warm `count` p50 58-80 us unpinned against
31 us pinned, on 2 vCPUs). The shared CPU changes every half second, in
turn over the allowed CPUs: each vCPU's speed drifts on its own by up to
a third over tens of seconds, and a run spread over all of them averages
those drifts (warm-wire `ops_per_s` spread over six seeds 0.12 against
0.22 for a run held on one CPU, interleaved on the same 2-vCPU host).
"""

import ctypes
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
TURN_S = 0.5
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def move_to(pid, cpu):
    """Puts every thread of process `pid` on `cpu` alone."""
    try:
        threads = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in threads:
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except OSError:
            pass  # the thread has just exited


def prepare_child():
    """Runs in the child before exec: start on the first allowed CPU, and
    turn off address-space randomization, so that every run lays out code
    and heap alike and no run's small ops land on a luckier layout."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[0]})
    try:
        ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass  # not Linux: run randomized


def run_in_turns(command, env):
    """Runs `command` to its end, moving its threads to the next CPU every
    TURN_S seconds; kills it past RUN_TIMEOUT_S. Returns its exit code."""
    child = subprocess.Popen(command, cwd=ROOT, env=env, preexec_fn=prepare_child)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    turn = 0
    try:
        while True:
            try:
                return child.wait(timeout=TURN_S)
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    print("perfbench: run timed out", file=sys.stderr)
                    return 1
                turn += 1
                if CPUS:
                    move_to(child.pid, CPUS[turn % len(CPUS)])
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        return run_in_turns([binary] + sys.argv[1:], env)
    except OSError as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
