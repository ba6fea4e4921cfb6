#!/usr/bin/env python3
"""Build and run the SimDB benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-search --seed 1 --seconds 20 --trace 0

The script builds the benchmark binary from the checkout's sources with
the Go toolchain, keeping the build cache, temporary files, databases,
traces and reports under .bench_build/perfbench, then runs it with the
given arguments. The binary prints its report to standard error and one
JSON result line to standard output. The exit status is the binary's: 0
for a run whose answers were all correct, 1 for a wrong answer, 2 when
the run could not complete; a failed build exits 3.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    work = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOPATH": os.path.join(work, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    binary = os.path.join(work, "bin", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [binary, "--out", work] + sys.argv[1:]
    # A new session puts the binary and any worker processes it starts
    # in one process group, so a timeout can stop them all.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    # Stopping this script stops the run too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    finally:
        stop_group(proc)


def stop_group(proc):
    """Kill whatever is left of the run's process group and reap the binary."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())
