#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-server --seed 1 --seconds 15 --trace 0

Everything the build and the run write lands in .bench_build/ at the
checkout root: the Go build cache, the binary and the span files of
traced runs. The last line of standard output is the run's JSON result;
see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    binary = os.path.join(OUT, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, "-out", OUT] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
