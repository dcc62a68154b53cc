#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload des-wide-steal --seed 42 --seconds 30 --trace 0

The program is built into the directory named by CARGO_TARGET_DIR
(default .bench_build). The Go build cache, GOPATH and the go command's
config directory are kept there too, so the benchmark writes only inside
the checkout. The program's standard output is passed through: metric
lines, then one JSON result line. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

RUN_LIMIT_S = 150  # a measured run ends well within this


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build, "perfbench", "perfbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        # The go command keeps its env file and telemetry counters here.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-out", os.path.join(build, "perfbench", "trace")]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        rc = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
