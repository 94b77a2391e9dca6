"""Self-check of the benchmark harness.

    python3 benchmarks/selfcheck.py

Runs every workload of BENCHMARK.json for a few ops, untraced and traced,
and asserts that each run exits 0, that its last line is the result object
with every named metric and its unit, that the human-readable report names
``failed_ratio``, the wall-clock figures with their sample counts and the
tracing overhead, and that no op failed. Exits 1
with the list of problems otherwise.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"


def check_run(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} ops failed")
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{where}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{where}: metric {spec['name']} = {got}, unit {spec['unit']}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: end-to-end metric {spec['name']} is {got['value']}")
    extra = set(result["metrics"]) - {s["name"] for s in expected}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    report = "\n".join(lines[:-1])
    needles = ("failed_ratio     0/", "env commit=", "ops_per_s ", "latency_p50_ms ",
               "latency_p90_ms ", "samples ")
    for needle in needles + (("tracing overhead",) if trace else ()):
        if needle not in report:
            problems.append(f"{where}: report lacks {needle!r}")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{workload:<15} trace={trace} {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
