#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <moderate|heavy> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr. The benchmark's
own stdout passes through unchanged: a preamble line, one line per phase
and metric, and, last, the result object.
"""

import hashlib
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_digest(root):
    """A digest of every source file the benchmark builds from."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", ".cargo", "src", "crates", "perfbench"]:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev(root):
    # Never look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def target_cpu(root):
    """The `target-cpu` the build uses: RUSTFLAGS, else .cargo/config.toml."""
    flags = os.environ.get("RUSTFLAGS", "")
    config = os.path.join(root, ".cargo", "config.toml")
    if not flags and os.path.isfile(config):
        with open(config) as fh:
            flags = fh.read()
    m = re.search(r"target-cpu=([A-Za-z0-9_-]+)", flags)
    return m.group(1) if m else "default"


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--locked",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(root, env["CARGO_TARGET_DIR"], "release", "perfbench")
    rev = git_rev(root)
    rev = f"{rev} src-{source_digest(root)}" if rev else f"src-{source_digest(root)}"
    args = sys.argv[1:] + ["--target-cpu", target_cpu(root), "--rev", rev]
    return subprocess.run([binary] + args, cwd=root, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
