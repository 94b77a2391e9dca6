"""Run the benchmark on several seeds and report each metric's spread.

    python3 benchmarks/repeat.py --workload dense-channel --runs 10
    python3 benchmarks/repeat.py --workload all --runs 10 --record "label"

For every end-to-end metric the script prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. A spread
above a third of its bound is marked ``WIDE``; setup_s is exempt from the
spread limit but not from the bound between two sets of runs. Run i uses
seed ``--seed0 + i``; runs are made one after another.

``--record`` appends the medians, one traced run per workload and the
environment to trajectory.json, the benchmark's history across commits.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}")
    return json.loads(lines[-1]), lines[:-1]


def summarize(workload: str, results: list[dict]) -> dict:
    out = {}
    print(f"\n{workload}: {len(results)} runs, "
          f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if name == "setup_s" or spread < spec["bound"] / 3 else "  WIDE"
        print(f"  {name:<16} values {' '.join(f'{v:.4g}' for v in values)}")
        print(f"  {name:<16} median {med:12.4f} {spec['unit']:<4} q1 {q1:12.4f} q3 {q3:12.4f}"
              f"  spread {spread:7.4f}  bound {spec['bound']}{flag}")
        out[name] = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                     "values": values}
    return out


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()
    workloads = names if args.workload == "all" else [args.workload]
    entry = {"label": args.record, "date": time.strftime("%Y-%m-%d"),
             "runs": args.runs, "seeds": [args.seed0, args.seed0 + args.runs - 1],
             "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result, lines = run_once(workload, args.seed0 + i, 0)
            results.append(result)
            entry["environment"] = [ln for ln in lines if ln.startswith("env ")]
        entry["workloads"][workload] = {"end_to_end": summarize(workload, results)}
        if args.record:
            traced, _ = run_once(workload, args.seed0, 1)
            entry["workloads"][workload]["per_layer_seed0"] = {
                k: m["value"] for k, m in traced["metrics"].items()}
    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"\nrecorded '{args.record}' in {TRAJECTORY.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
