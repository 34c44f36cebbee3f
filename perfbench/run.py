#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload contract-web --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into .bench_build/
(its build cache, temp files, engine scratch space and trace files live there
too), then run with the given arguments.  The last line of standard output is
the JSON result.  The exit code is non-zero if the build fails, if the program
fails, or if any output disagreed with the oracle.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: the extscc sources are not beside perfbench/", file=sys.stderr)
        return 1
    build = os.path.join(os.getcwd(), ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("gocache", "gopath", "tmp", "home", "work", "traces")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "mod"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        HOME=dirs["home"],
        XDG_CONFIG_HOME=dirs["home"],
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    # The engine's own environment switches would change what is measured.
    for var in ("EXTSCC_STORAGE", "EXTSCC_CODEC", "EXTSCC_CACHE", "EXTSCC_FAULT"):
        env.pop(var, None)

    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(dirs["traces"], f"{args.workload}-{args.seed}.jsonl")
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-dir", dirs["work"], "-trace-out", trace_out]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
