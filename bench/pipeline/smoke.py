#!/usr/bin/env python3
"""Smoke check of the pipeline benchmark at reduced sizes (well under 15 s).

    python3 bench/pipeline/smoke.py --exe PATH/TO/pipeline --work DIR

Runs `pipeline --workload all --quick --trace DIR/trace` and checks that

  * the run exits 0 and every workload reports fail_ratio == 0;
  * every end-to-end and per-layer metric named in BENCHMARK.json is present
    with its unit, and `pipeline` names no metric BENCHMARK.json lacks;
  * each workload wrote its profile JSON and .folded ledger;
  * obs.unaccounted_pct < 5 on every workload (the bench.* spans cover the
    traced iteration);
  * a single-workload run ends with the result line BENCHMARK.json promises
    (end-to-end metrics untraced, per-layer metrics traced);
  * `--compare` of a set against itself passes.

Registered as the `pipeline_smoke` test (label `bench`) by this directory's
CMakeLists.txt: `ctest --test-dir .bench_build -L bench`.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"


def fail(message: str) -> None:
    sys.exit("pipeline_smoke: " + message)


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout[-3000:]}")
    return done.stdout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--exe", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    common = ["--seed", "1", "--quick", "--data", str(work / "data")]

    set_path = work / "set.json"
    run([args.exe, "--workload", "all", "--trace", str(work / "trace"), "--out", str(set_path)]
        + common)
    result = json.loads(set_path.read_text())["workloads"]
    if sorted(result) != sorted(workloads):
        fail(f"set holds {sorted(result)}, BENCHMARK.json names {sorted(workloads)}")
    for name, doc in result.items():
        if doc["fail_ratio"] != 0 or not doc["correct"]:
            fail(f"{name}: checks failed: {doc['failures']}")
        for section, expected in (("end_to_end", e2e), ("per_layer", layers)):
            got = {k: v["unit"] for k, v in doc[section].items()}
            if got != expected:
                fail(f"{name}: {section} metrics/units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected.items()))}")
        for suffix in (".profile.json", ".profile.folded"):
            ledger = work / "trace" / (name + suffix)
            if not ledger.is_file() or ledger.stat().st_size == 0:
                fail(f"{name}: {ledger} was not written")
        unaccounted = doc["per_layer"]["obs.unaccounted_pct"]["value"]
        if not unaccounted < 5:
            fail(f"{name}: obs.unaccounted_pct {unaccounted} >= 5")

    fastest = min(result, key=lambda name: result[name]["end_to_end"]["run_s"]["value"])
    for traced, expected in ((False, e2e), (True, layers)):
        cmd = [args.exe, "--workload", fastest] + common
        if traced:
            cmd += ["--trace", str(work / "trace")]
        line = json.loads(run(cmd).strip().splitlines()[-1])
        if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
            fail(f"result line keys {sorted(line)}")
        if {k: v["unit"] for k, v in line["metrics"].items()} != expected:
            fail(f"result line metrics differ from BENCHMARK.json (traced={traced})")
        if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
            fail(f"result line reports failures: {line}")

    run([args.exe, "--compare", str(set_path), str(set_path), "--bounds", str(BENCHMARK)])
    print("pipeline_smoke: ok")


if __name__ == "__main__":
    main()
