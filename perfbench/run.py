#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs one workload.  The last line of standard
output is the result object; see perfbench/README.md.  Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Everything the benchmark binary is built from; hashed into the source id
# printed next to the metrics (the checkout need not be a git repository).
SOURCES = ["Cargo.lock", "crates", "shims", "abi", "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src"]


def source_id():
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def main():
    missing = [s for s in SOURCES if not (ROOT / s).exists()]
    if missing:
        print(f"perfbench: missing sources {missing}; run from a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = str(target / "release" / "perfbench")
    # Replace this process with the benchmark, so signals sent to the
    # command reach it and no child outlives the command.
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--source", source_id()])


if __name__ == "__main__":
    sys.exit(main())
