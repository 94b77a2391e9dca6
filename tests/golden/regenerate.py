#!/usr/bin/env python3
"""Rewrite the golden bundle corpus that ``tests/test_golden.py`` checks.

    PYTHONPATH=src python tests/golden/regenerate.py

Each config of the grid below is run and its bundle written to
``tests/golden/<name>/``; ``manifest.json`` records every config and the
numpy version that produced the bytes. Re-pin the corpus only for a change
that is meant to move results, and list every changed file with its largest
float delta in ``CHANGES.md``.

The grid covers the six kinds at the determinism-test config, the three
encoding-channel kinds under per-qubit depolarizing plus dephasing over
both noise stages and the three byproduct modes (loss recovery for every
lost code qubit), the noise sweep at five target fidelities and the ideal
resource witness.
"""
import json
import pathlib
import shutil

import numpy as np

from graphqec.code import CODE_QUBITS
from graphqec.runner import BYPRODUCT_MODES, KINDS, ExperimentConfig, run_experiment

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"

PER_QUBIT_NOISE = {
    "depolarizing": {"1": 0.03, "2": 0.05, "3": 0.04, "4": 0.02, "5": 0.04},
    "dephasing": {"1": 0.02, "2": 0.01, "3": 0.03, "4": 0.025, "5": 0.015},
    "visibility": 0.9,
}


def grid() -> dict[str, dict]:
    """Corpus entry name -> config dict, in a fixed order."""
    out = {}
    for kind in KINDS:
        out[f"determinism-{kind}"] = {
            "kind": kind, "seed": 2718, "trials": 100, "sweep_points": 5,
            "noise": {"visibility": 0.9}, "formats": ["json", "csv", "svg"]}
    for stage in ("post-resource", "post-encoding"):
        for byproduct in BYPRODUCT_MODES:
            noise = dict(PER_QUBIT_NOISE, stage=stage)
            common = {"noise": noise, "byproduct": byproduct, "seed": 31,
                      "trials": 100, "formats": ["json", "csv", "svg"]}
            out[f"noisy-encode-tomography-{stage}-{byproduct}"] = dict(
                common, kind="encode-tomography", formats=["json", "csv"])
            out[f"noisy-encode-channel-{stage}-{byproduct}"] = dict(
                common, kind="encode-channel")
            for lost in CODE_QUBITS:
                out[f"noisy-loss-recovery-{stage}-{byproduct}-lost{lost}"] = dict(
                    common, kind="loss-recovery", lost=lost, formats=["json", "csv"])
    for target in (0.05, 0.5, 0.78, 0.95, 0.999):
        out[f"noise-sweep-target{target}"] = {
            "kind": "noise-sweep", "target_fidelity": target, "sweep_points": 7,
            "noise": dict(PER_QUBIT_NOISE, stage="post-resource")}
    out["ideal-resource-witness"] = {"kind": "resource-witness", "seed": 5,
                                     "trials": 100, "formats": ["json", "csv", "svg"]}
    return out


def main():
    for path in HERE.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    configs = grid()
    for name, data in configs.items():
        config = ExperimentConfig.from_dict(data)
        run_experiment(config).write(HERE / name, config.formats)
    MANIFEST.write_text(json.dumps({"numpy": np.__version__, "configs": configs},
                                   indent=1) + "\n")
    size = sum(p.stat().st_size for p in HERE.rglob("*") if p.is_file())
    print(f"wrote {len(configs)} bundles, {size / 1024:.0f} KB in {HERE}")


if __name__ == "__main__":
    main()
