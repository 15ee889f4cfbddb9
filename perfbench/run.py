#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig8-paper-cold --seed 1 --seconds 15 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binary, result-cache
journals and span files. The process exits non-zero without printing a
result when the program cannot be built.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    out = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    for d in (out, tmp):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = [binary, "--out", out, "--commit", commit(root)] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(binary, args, env)


def commit(root):
    """The checkout's git commit, or "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        got = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = got.stdout.strip()
    if got.returncode != 0 or not rev:
        return "unknown"
    dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                           env=env, capture_output=True, text=True, timeout=10)
    if dirty.returncode == 0 and dirty.stdout.strip():
        rev += "-dirty"
    return rev


if __name__ == "__main__":
    sys.exit(main())
