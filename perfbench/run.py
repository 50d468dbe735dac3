#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it with the given
arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's, or 3 when the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# A run must end well inside three minutes; this guard stops a hung one.
RUN_TIMEOUT_S = 170


def source_digest():
    """Commit id when git can tell, else a digest of the sources built."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", ROOT / "perfbench"]
    for top in roots:
        files = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
        for f in files:
            if f.is_file() and "target" not in f.relative_to(ROOT).parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "src-" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target_dir = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    if not MANIFEST.is_file():
        print("perfbench: no perfbench/Cargo.toml under " + str(ROOT), file=sys.stderr)
        return 3
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    env["PERFBENCH_RUSTC"] = rustc_version()
    env["PERFBENCH_COMMIT"] = source_digest()
    binary = target_dir / "release" / "perfbench"
    cmd = [str(binary), *sys.argv[1:], "--out", str(ROOT / ".perfbench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
