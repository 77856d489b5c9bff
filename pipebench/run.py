#!/usr/bin/env python3
"""Build bench_pipeline from this checkout and run one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/pipebench
(default .bench_build/pipebench); build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Every file the benchmark
writes stays under the build directory. Exits non-zero, printing no result,
if the build fails or the run does not finish within RUN_TIMEOUT_S.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "bench_pipeline",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return build_dir / "bench_pipeline"


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = build_dir / "pipebench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(binary), *sys.argv[1:], "--work-dir", str(build_dir / "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
