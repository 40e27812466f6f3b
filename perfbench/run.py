#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <solo|handoff|pipeline|shm_stream> \
        --seed <n> --seconds <s> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`, relative to the checkout root), offline and from the
committed lock file. The benchmark's output passes through unchanged: `#`
lines for people, and as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A traced run also writes the
whole spans of its sampled messages under `<target dir>/perfbench-trace/`.

The exit code is the benchmark's own, or 3 when the build fails (as it does
in a directory holding only the benchmark), or 124 on a timeout.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = "perfbench/Cargo.toml"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("crates", "shims", "perfbench")
SOURCE_SUFFIXES = (".rs", ".toml", ".lock")


def flag(argv, name):
    """The value after `name` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest(target):
    """sha256 over the sources the benchmark builds, so a run stamps the
    exact code it measured even where the checkout is not a git repo."""
    h = hashlib.sha256()
    files = []
    for d in SOURCE_DIRS:
        for p in (ROOT / d).rglob("*"):
            if target in p.parents or "target" in p.relative_to(ROOT).parts:
                continue
            if p.is_file() and p.suffix in SOURCE_SUFFIXES:
                files.append(p)
    files += [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    argv = sys.argv[1:]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", MANIFEST,
    ]
    try:
        built = subprocess.run(
            build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 3
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    if flag(argv, "--trace") == "1" and flag(argv, "--trace-out") is None:
        name = f"{flag(argv, '--workload')}-seed{flag(argv, '--seed')}.tsv"
        argv += ["--trace-out", str(target / "perfbench-trace" / name)]
    env["PERFBENCH_COMMIT"] = f"{git_commit()} source-sha256={source_digest(target)}"
    sys.stdout.flush()
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *argv],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
