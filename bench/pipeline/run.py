#!/usr/bin/env python3
"""Build the pipeline benchmark from this checkout, then run it.

    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

The library and the `pipeline` program are built with CMake into
`.bench_build/` at the root of the checkout (or `$CARGO_TARGET_DIR` when
set); the build log goes to standard error. `--trace 1` becomes
`pipeline`'s `--trace DIR` (the profile JSON and `.folded` files land in
`.bench_build/pipeline-out/trace/`), `--trace 0` runs untraced, and every
other argument is passed to `pipeline` unchanged, so

    python3 bench/pipeline/run.py --workload all --seed 1 --out set.json
    python3 bench/pipeline/run.py --compare base.json candidate.json

work as documented in README.md. `pipeline`'s standard output is relayed
as is: its last line is the result JSON. TSVCOD_* environment overrides are
dropped, so a run measures the same configuration wherever it starts.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "pipeline"


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: library sources (src/) not found in " + str(ROOT))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "pipeline", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return build_dir / "pipeline"


def pipeline_args(argv, out_dir: Path):
    args = []
    i = 0
    while i < len(argv):
        if argv[i] == "--trace" and i + 1 < len(argv) and argv[i + 1] in ("0", "1"):
            if argv[i + 1] == "1":
                args += ["--trace", str(out_dir / "trace")]
            i += 2
            continue
        args.append(argv[i])
        i += 1
    if "--data" not in args:
        args += ["--data", str(out_dir / "data")]
    return args


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    exe = build(build_dir)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TSVCOD_")}
    cmd = [str(exe)] + pipeline_args(sys.argv[1:], build_dir / "pipeline-out")
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
