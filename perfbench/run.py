#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload faust-mem --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in its own module (perfbench/go.mod), which
reaches the system's packages through a replace directive pointing at the
checkout root. This script builds it with the Go toolchain into the build
directory ($CARGO_TARGET_DIR, default .bench_build) — keeping the build
cache, module cache and Go's config writes there too, so nothing outside
the checkout is touched — and then runs it with the given arguments from
the checkout root. The program's output is passed through unchanged; its
last line is the JSON result. The exit status is the program's, or 1 when
the build fails.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOWORK="off",  # the benchmark module is not part of the repo's workspace
        GOFLAGS="-mod=mod",
        GOPROXY="off",  # no dependency outside the checkout may be fetched
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    ran = subprocess.run([binary, "-work-dir", build] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
