"""The three benchmark workloads and the checks on every op's output.

A workload is built from a seed; every input the package receives (config
seeds, Haar-random inputs, injected errors, lost qubits, generator seeds for
sampled outcomes) is drawn from that seed here, so the same seed gives the
same ops. Only names exported by ``graphqec`` are used, always through the
package attribute so that tracing wrappers are seen.

An op is a pair of callables: ``run`` does the timed work and returns what
``check`` needs; ``check`` raises ``CheckFailed`` when an output breaks a
paper invariant. Ops are grouped in cycles; a run measures whole cycles so
the op mix, and with it every percentile, is the same in every run.
"""
from __future__ import annotations

import hashlib
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import graphqec as g

FORMATS = ("json", "csv", "svg")
CODE_QUBITS = (1, 2, 4, 5)
# Logical X of the code; applying it removes the X_L^{s3} encoding byproduct.
XBAR = "Z1 Z2 X4"


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _bundle_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        p = pathlib.Path(p)
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class RunnerWorkload:
    """Cycles ``run_experiment`` plus ``ReportBundle.write`` over fixed configs.

    The first pass over the configs records each bundle's SHA-256 digest;
    every repeat must reproduce it byte for byte.
    """

    def __init__(self, configs, checks, work_dir: pathlib.Path):
        self.configs = configs  # [(label, ExperimentConfig)]
        self.checks = checks    # [callable(bundle)]
        self.work_dir = work_dir
        self.digests: dict[int, str] = {}

    def _op(self, i: int) -> Op:
        label, cfg = self.configs[i]
        out_dir = self.work_dir / f"{i:02d}"

        def run():
            bundle = g.run_experiment(cfg)
            return bundle, bundle.write(out_dir, FORMATS)

        def check(result):
            bundle, written = result
            self.checks[i](bundle)
            digest = _bundle_digest(written)
            first = self.digests.setdefault(i, digest)
            require(digest == first, f"{label}: bundle digest changed {first} -> {digest}")

        return Op(label, run, check)

    def first_pass(self) -> list[Op]:
        return [self._op(i) for i in range(len(self.configs))]

    def cycle(self) -> list[Op]:
        return self.first_pass()

    def describe(self) -> list[str]:
        return [f"config {i:02d} {label} seed={cfg.seed} sha256={self.digests.get(i, '-')}"
                for i, (label, cfg) in enumerate(self.configs)]


# -- runner checks ----------------------------------------------------------

def _finite(*values):
    require(all(math.isfinite(v) for v in values), f"non-finite value in {values}")


def _check_witness_block(block, ideal: bool, name: str):
    _finite(block["exact"], block["estimate"], block["mc_mean"], block["mc_std"])
    if ideal:
        require(abs(block["exact"] + 1) < 1e-9, f"{name}: ideal exact {block['exact']} != -1")
    else:
        require(block["mc_std"] > 0, f"{name}: zero Monte Carlo spread on a noisy state")


def check_resource_witness(ideal: bool):
    def check(bundle):
        s = bundle.summary
        _check_witness_block(s["resource5"], ideal, "resource5")
        _check_witness_block(s["box4_after_ancilla_z"], ideal, "box4_after_ancilla_z")
        # the witness bound is a lower bound on the resource fidelity
        require(s["state_fidelity"] >= s["resource5"]["fidelity_lower_bound"] - 1e-12,
                "resource fidelity below its witness bound")
    return check


def check_encode_tomography(ideal: bool):
    def check(bundle):
        for probe, entry in bundle.summary["probes"].items():
            f = entry["fidelity_logical"]
            require(-1e-9 <= f <= 1 + 1e-9, f"probe {probe}: fidelity {f} out of [0,1]")
            if ideal:
                require(abs(f - 1) < 1e-9, f"probe {probe}: ideal fidelity {f} != 1")
            for name, block in entry["witnesses"].items():
                _check_witness_block(block, ideal, f"{probe}/{name}")
    return check


def _check_chi(chi):
    require(chi["min_eigenvalue"] >= -1e-9, f"chi min eigenvalue {chi['min_eigenvalue']}")
    require(chi["trace_preservation_defect"] < 1e-9, "chi not trace preserving")


def check_channel(bundle):
    _check_chi(bundle.summary["chi"])


def check_loss_recovery(ideal: bool):
    def check(bundle):
        s = bundle.summary
        _check_chi(s["chi"])
        f = s["average_fidelity"]
        require(0 < f <= 1 + 1e-9, f"average fidelity {f} out of (0,1]")
        if ideal:
            require(abs(f - 1) < 1e-9, f"ideal loss-recovery average fidelity {f} != 1")
    return check


def check_syndrome_table(bundle):
    s = bundle.summary
    require(s["all_match"], f"{s['mismatches']} syndrome mismatches")
    require(all(v > 0 for vals in s["no_error_syndromes"].values() for v in vals),
            "error-free syndromes not all positive")


def check_noise_sweep(bundle):
    s = bundle.summary
    require(all(row[-1] for row in bundle.tables["sweep"][1:]),
            "witness fidelity bound fails on a sweep row")
    require(abs(s["fidelity_at_calibration"] - s["target_fidelity"]) < 1e-6,
            "calibrated visibility misses the target fidelity")


# -- workload definitions -----------------------------------------------------

def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=n)]


def mc_witness(seed: int, work_dir: pathlib.Path) -> RunnerWorkload:
    """Monte Carlo path: two witness kinds, ideal (sparse histograms) and
    noisy (dense histograms), at the default 500 counts and 200 trials.

    The noisy resource-witness config appears twice (two seeds). The five
    ops sort, by cost, as ideal witness, ideal tomography, noisy witness (2)
    and noisy tomography, so the median of the costs is a noisy-witness op
    and p90 lies between the slower noisy witness and the noisy tomography.
    """
    noisy = g.NoiseModel(depolarizing=0.05, visibility=0.8, stage="post-encoding")
    plan = [("resource-witness", "ideal"), ("encode-tomography", "ideal"),
            ("resource-witness", "noisy"), ("resource-witness", "noisy"),
            ("encode-tomography", "noisy")]
    seeds = _seeds(np.random.default_rng(seed), len(plan))
    configs, checks = [], []
    for (kind, level), s in zip(plan, seeds):
        noise = g.NoiseModel() if level == "ideal" else noisy
        configs.append((f"{kind}/{level}", g.ExperimentConfig(kind, noise=noise, seed=s,
                                                                formats=FORMATS)))
        check = check_resource_witness if kind == "resource-witness" else check_encode_tomography
        checks.append(check(level == "ideal"))
    return RunnerWorkload(configs, checks, work_dir)


def dense_channel(seed: int, work_dir: pathlib.Path) -> RunnerWorkload:
    """Dense density-matrix path without Monte Carlo: channels, loss recovery
    for every lost qubit, syndromes and the visibility calibration, in both
    noise stages and under every byproduct mode. One ideal loss-recovery op
    checks the paper's exact recovery. Two of the 15 ops are noise sweeps:
    p90 of the 15 costs lies between the slowest other op and the faster
    sweep, and the median is one of the nine loss-recovery ops.
    """
    def noise(stage):
        return g.NoiseModel(depolarizing={1: 0.03, 2: 0.05, 4: 0.02, 5: 0.04},
                            dephasing=0.02, visibility=0.9, stage=stage)

    enc, res = "post-encoding", "post-resource"
    plan = [  # (kind, stage or None for ideal, byproduct, lost)
        ("noise-sweep", enc, "condition0", 4), ("noise-sweep", res, "correct", 4),
        ("encode-channel", enc, "correct", 4), ("encode-channel", res, "raw", 4),
        ("loss-recovery", enc, "condition0", 1), ("loss-recovery", enc, "correct", 2),
        ("loss-recovery", enc, "raw", 4), ("loss-recovery", enc, "condition0", 5),
        ("loss-recovery", res, "correct", 1), ("loss-recovery", res, "raw", 2),
        ("loss-recovery", res, "condition0", 4), ("loss-recovery", res, "correct", 5),
        ("loss-recovery", None, "condition0", 4),
        ("syndrome-table", enc, "raw", 4), ("syndrome-table", res, "condition0", 4),
    ]
    fixed = {"noise-sweep": check_noise_sweep, "encode-channel": check_channel,
             "syndrome-table": check_syndrome_table}
    seeds = _seeds(np.random.default_rng(seed), len(plan))
    configs, checks = [], []
    for (kind, stage, byproduct, lost), s in zip(plan, seeds):
        model = g.NoiseModel() if stage is None else noise(stage)
        label = f"{kind}/{stage or 'ideal'}/{byproduct}" + \
            (f"/lost{lost}" if kind == "loss-recovery" else "")
        configs.append((label, g.ExperimentConfig(kind, noise=model, byproduct=byproduct,
                                                   lost=lost, seed=s, formats=FORMATS)))
        checks.append(fixed.get(kind) or check_loss_recovery(stage is None))
    return RunnerWorkload(configs, checks, work_dir)


class PureRoundtrip:
    """Library-only state-vector path, no runner and no noise.

    Each op encodes a Haar-random input with a sampled s3, removes the
    byproduct, checks the syndrome of a random single-qubit Pauli against
    the commutation prediction, loses a random code qubit and recovers it
    with sampled helper outcomes; the recovered qubit must equal the input.
    The CYCLE ops are drawn once from the seed and every cycle repeats them,
    so each op position has the same input, and so the same cost, in every
    cycle. Each op's generators are made afresh from its own seeds, so a
    repeat gives the same outcomes.
    """

    CYCLE = 32

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.xbar = g.PauliString.parse(XBAR)
        self.xbar_matrix = self.xbar.dense(self.xbar.support)
        self.ops = [self._op() for _ in range(self.CYCLE)]

    def _op(self, lost: int | None = None) -> Op:
        rng = self.rng
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha, beta = v / np.linalg.norm(v)
        error = ("XYZ"[int(rng.integers(3))], int(rng.choice(CODE_QUBITS)))
        lost = int(rng.choice(CODE_QUBITS)) if lost is None else lost
        s3_seed, helper_seed = _seeds(rng, 2)

        def run():
            a = g.AncillaState(alpha, beta)
            s3, encoded = g.encode(a, rng=np.random.default_rng(s3_seed))
            if s3:
                encoded = g.apply_unitary(encoded, self.xbar_matrix, self.xbar.support)
            err = g.PauliString.single(error[1], error[0])
            signs = g.measure_syndromes(g.inject_pauli_error(encoded, err)).signs
            predicted = tuple(1 if g.pauli_commutes(s, err) else -1
                              for s in g.syndrome_operators())
            recipe = g.recovery_recipe(lost)
            _, out = g.recover(g.lose_qubit(encoded, lost), recipe,
                               rng=np.random.default_rng(helper_seed))
            fidelity = g.state_fidelity(out, g.PureState.single(recipe.output, a.vector))
            return signs, predicted, fidelity

        def check(result):
            signs, predicted, fidelity = result
            require(signs == predicted, f"syndrome {signs} != predicted {predicted}")
            require(fidelity >= 1 - 1e-9, f"recovered fidelity {fidelity} < 1 - 1e-9")

        return Op(f"roundtrip/{error[0]}@{error[1]}/lost{lost}", run, check)

    def first_pass(self) -> list[Op]:
        return [self._op(lost) for lost in CODE_QUBITS]

    def cycle(self) -> list[Op]:
        return self.ops

    def describe(self) -> list[str]:
        return []


WORKLOADS = {
    "mc-witness": mc_witness,
    "dense-channel": dense_channel,
    "pure-roundtrip": lambda seed, work_dir: PureRoundtrip(seed),
}
