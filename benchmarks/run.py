"""graphqec benchmark: one client in a closed loop, one workload per process.

    python3 benchmarks/run.py --workload mc-witness --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Workloads (see workloads.py): ``mc-witness``, ``dense-channel`` and
``pure-roundtrip``. The client issues the next op only after the previous
one finished and its output was checked, and measures whole cycles of ops
until ``--seconds`` have passed. Every cycle holds the same op mix, one op
per position.

The benchmark was tuned on a shared 2-vCPU virtual machine whose speed
drifts by up to 1.5x over seconds to minutes, so a wall-clock op time moves
with the host as much as with the program. After every op the client times
``reference()``, a fixed piece of Python and numpy work that never touches
graphqec, repeated for at least REFERENCE_SHARE of the op's time, and
divides the op's time by the mean of the reference times just before and
just after it. That ratio, the op's time in reference units (``ref``),
cancels most of the host's drift; the median of it over an op's repeats is
the op's cost. With ``--trace 0`` the end-to-end metrics are printed:

- ``op_time_mean_ref``: mean over the op mix of the ops' costs, the inverse
  of throughput in reference units;
- ``op_time_p50_ref``, ``op_time_p90_ref``: percentiles of the costs over
  the op mix;
- ``setup_s``: median over SETUP_REPEATS fresh processes of the time from
  process start, through importing numpy and graphqec, to the end of a
  first pass over every distinct config (this fills the package's caches);
- ``peak_rss_mb``: this process's own peak resident set size.

The report above the result line also gives the wall-clock figures:
``ops_per_s`` (ops over op time), ``latency_p50_ms``, ``latency_p90_ms``
(over all ops) and the reference's median time, with sample counts.

With ``--trace 1`` half of ``--seconds`` is measured untraced and half
traced; the per-layer metrics from layers.py are printed together with the
tracing overhead (traced over untraced ``op_time_mean_ref``).

Every op's output is checked; a failed check or an exception is counted
in ``failed`` and ``failed_ratio`` and the run goes on. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs each workload in its own process, with
and without tracing, and prints one combined table.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with status 2 and prints no result.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("mc-witness", "dense-channel", "pure-roundtrip")
SETUP_REPEATS = 5
# After an op the reference runs for at least this share of the op's time.
REFERENCE_SHARE = 0.02
CHILD_TIMEOUT_S = 170


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Put the checkout's ``src`` first on the path and import from there."""
    if not (SRC / "graphqec" / "__init__.py").is_file():
        fail(f"no graphqec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphqec
    if pathlib.Path(graphqec.__file__).resolve().parent != SRC / "graphqec":
        fail(f"imported graphqec from {graphqec.__file__}, not {SRC}")
    import workloads
    return workloads


_REF_MATRIX = np.random.default_rng(12345).normal(size=(16, 16, 2)) @ np.array([1, 1j])
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.conj().T


def _reference_unit():
    """Fixed work that never touches graphqec: an interpreter-bound loop and
    small complex numpy operations, the two kinds of work the ops are made
    of (about 1.2 ms on the 2-vCPU Xeon virtual machine it was tuned on)."""
    acc, table = 0, {}
    for i in range(4000):
        table[i & 63] = acc
        acc = (acc + i * i) % 1000003
    m = _REF_MATRIX
    for _ in range(16):
        m = np.tensordot(m, _REF_MATRIX, axes=([1], [0])) / 16.0
        np.linalg.eigvalsh(m + m.conj().T)


def reference(at_least_s: float = 0.0) -> float:
    """Mean time, in seconds, of the reference unit, repeated until
    ``at_least_s`` have passed (at least once)."""
    t0 = time.perf_counter()
    units = 0
    while True:
        _reference_unit()
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= at_least_s:
            return elapsed / units


def run_ops(ops, stats):
    """Run and check each op. ``stats["cycles"]`` gets one list per call
    with, per op position, ``(latency_s, latency_in_reference_units)`` or
    None for an op that raised."""
    cycle = []
    stats["cycles"].append(cycle)
    ref_before = stats["last_ref"] or reference()
    for op in ops:
        stats["attempted"] += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            stats["busy_s"] += time.perf_counter() - t0
            stats["failed"] += 1
            stats["errors"].append(f"{op.label}: {type(exc).__name__}: {exc}")
            cycle.append(None)
            continue
        latency = time.perf_counter() - t0
        ref_after = reference(REFERENCE_SHARE * latency)
        stats["refs"].append(ref_after)
        cycle.append((latency, 2 * latency / (ref_before + ref_after)))
        ref_before = stats["last_ref"] = ref_after
        stats["busy_s"] += latency
        try:
            op.check(result)
        except Exception as exc:
            stats["failed"] += 1
            stats["errors"].append(f"{op.label}: {type(exc).__name__}: {exc}")


def new_stats():
    return {"attempted": 0, "failed": 0, "cycles": [], "errors": [], "busy_s": 0.0,
            "refs": [], "last_ref": None}


def measure(workload, seconds: float):
    """Whole cycles, at least two, until ``seconds`` have passed."""
    stats = new_stats()
    deadline = time.perf_counter() + seconds
    while True:
        run_ops(workload.cycle(), stats)
        if len(stats["cycles"]) >= 2 and time.perf_counter() >= deadline:
            return stats


def completed(stats) -> list[tuple[float, float]]:
    return [rec for cycle in stats["cycles"] for rec in cycle if rec is not None]


def setup(wl_module, name: str, seed: int, work_dir: pathlib.Path):
    """Build the workload and make the first pass; returns (workload, stats)."""
    workload = wl_module.WORKLOADS[name](seed, work_dir)
    stats = new_stats()
    run_ops(workload.first_pass(), stats)
    return workload, stats


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def op_costs(stats) -> list[float]:
    """Per op position, the median over its completed repeats of the op's
    time in reference units; a position that never completed is left out."""
    width = max(len(c) for c in stats["cycles"])
    repeats = [[c[i][1] for c in stats["cycles"] if i < len(c) and c[i] is not None]
               for i in range(width)]
    return [statistics.median(r) for r in repeats if r]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> list[str]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_desc = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    return [f"env commit={git_commit()}",
            f"env python={platform.python_version()} numpy={np.__version__} blas={blas_desc}",
            f"env threads: {threads}",
            f"env nproc={os.cpu_count()} affinity={affinity} cpu={cpu}"]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(stats, setup_samples) -> dict:
    costs = op_costs(stats)
    return {
        "op_time_mean_ref": (statistics.fmean(costs), "ref"),
        "op_time_p50_ref": (percentile(costs, 50), "ref"),
        "op_time_p90_ref": (percentile(costs, 90), "ref"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall_clock(stats) -> dict:
    latencies = [lat for lat, _ in completed(stats)]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "reference_ms": (1e3 * statistics.median(stats["refs"]), "ms"),
    }


def result_line(stats, metrics) -> str:
    return json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args) -> int:
    wl_module = import_package()
    WORK.mkdir(exist_ok=True)
    work_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload, first = setup(wl_module, args.workload, args.seed, work_dir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:  # failures are counted by the parent's own first pass
            print(setup_s)
            return 0
        setup_samples = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                                     for _ in range(SETUP_REPEATS - 1)]
        traced = tracer = None
        stats = measure(workload, args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            import layers
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    total = new_stats()
    for part in (first, stats, traced or new_stats()):
        for key in ("attempted", "failed", "errors"):
            total[key] += part[key]
    print(f"# graphqec benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in environment() + workload.describe():
        print(line)
    e2e = end_to_end(stats, setup_samples)
    for name, (value, unit) in list(e2e.items()) + list(wall_clock(stats).items()):
        print(f"{name:<16} {value:12.4f} {unit}")
    print(f"samples          {len(completed(stats))} ops in {len(stats['cycles'])} cycles "
          f"of {len(op_costs(stats))} positions, {len(stats['refs'])} reference timings, "
          f"setup {len(setup_samples)} processes")
    print(f"failed_ratio     {total['failed']}/{total['attempted']} = "
          f"{total['failed'] / total['attempted']:.4g}")
    for err in total["errors"][:20]:
        print(f"FAILED {err}")
    if tracer is None:
        metrics = e2e
    else:
        metrics = tracer.metrics(traced["attempted"], traced["busy_s"])
        overhead = statistics.fmean(op_costs(traced)) / e2e["op_time_mean_ref"][0]
        metrics["trace.overhead_ratio"] = (overhead, "x")
        print(f"tracing overhead traced/untraced op_time_mean_ref = {overhead:.4f} "
              f"({traced['attempted']} traced ops)")
        for name in tracer.absent:
            print(f"ABSENT {name}: not found in graphqec, reported as 0")
        for name, (value, unit) in metrics.items():
            print(f"layer {name:<48} {value:12.4f} {unit}")
    print(result_line(total, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced and traced; one table."""
    rows, total = [], {"attempted": 0, "failed": 0, "errors": []}
    metrics = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=2 * CHILD_TIMEOUT_S + 60, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{name} trace={trace} failed: {proc.stderr[-400:]}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
            if trace == 0:
                rows.append((name, result))
    print("\n# summary (untraced runs)")
    for name, result in rows:
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}"
                          for k, m in result["metrics"].items())
        print(f"{name:<15} {cells}  failed_ratio={result['failed']}/{result['attempted']}")
    for name in WORKLOAD_NAMES:
        value, _ = metrics[f"{name}.trace.overhead_ratio"]
        print(f"{name:<15} tracing overhead traced/untraced op_time_mean_ref = {value:.4f}")
    print(result_line(total, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
