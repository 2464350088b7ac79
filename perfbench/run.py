#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign|anneal --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark executable and the `repro` CLI (which the traced
campaign run starts as its server process) from source with dune, then runs
the benchmark. Its standard output passes through unchanged; the last line
is the JSON result. Exits non-zero, without a result, when the build or
the run fails.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join("_build", "default")
TARGETS = ["./perfbench/main.exe", "./bin/repro.exe"]
RUN_TIMEOUT_S = 170


def build():
    # no shared dune cache: the build writes only inside the checkout
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display", "quiet"] + TARGETS
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0


def run(args):
    cmd = [os.path.join(BUILD, "perfbench", "main.exe")] + args
    cmd += ["--repro", os.path.join(BUILD, "bin", "repro.exe")]
    # own process group, so a timeout also stops the server it started
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode()


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    code, out = run(args)
    if code != 0:
        sys.stderr.write(out)
        print(f"perfbench: benchmark exited with code {code}", file=sys.stderr)
        return code
    if "--self-test" not in args:
        last = out.rstrip("\n").split("\n")[-1]
        result = json.loads(last)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print("perfbench: malformed result line", file=sys.stderr)
            return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
