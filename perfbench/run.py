#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The Go toolchain's build cache, the binary, scratch sockets and traced
profiles all go under .bench_build/ at the repository root; nothing is
fetched over the network. See perfbench/README.md for the workloads and
metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    binary = build()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
