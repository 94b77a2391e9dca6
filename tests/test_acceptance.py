"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import math
import time

import numpy as np
import pytest

from graphqec import kernel
from graphqec.code import (AncillaState, CODE_QUBITS, PROBES, PROBE_TARGETS,
                           encode, logical_basis_states, logical_ops,
                           lose_qubit, measure_syndromes, inject_pauli_error,
                           predicted_syndrome_signs, recover, recovery_recipe)
from graphqec.graphs import (BOX, PATH5, RESOURCE, build_linear_cluster5,
                             build_resource, graph_state, resource_state_expansion,
                             stabilizer_generators)
from graphqec.kernel import DensityOperator, PureState, maximally_mixed, overlap, reorder
from graphqec.pauli import (PauliString, conjugate_sequence, cz, expand_logical,
                            pauli_multiply)
from graphqec.runner import ExperimentConfig, run_experiment
from graphqec.sampling import (NoiseModel, apply_noise, monte_carlo_uncertainty,
                               sample_setting_counts, witness_settings,
                               witness_value_from_counts)
from graphqec.tomography import (ChannelSample, chi_hadamard, logical_tomography,
                                 process_fidelity, reconstruct_chi, state_fidelity)
from graphqec.witnesses import (builtin_witnesses, evaluate_witness,
                                fidelity_lower_bound)

RT2 = math.sqrt(2)


def done(num: int, name: str):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_resource_equivalence():
    start = time.perf_counter()
    built = build_resource()
    assert overlap(built, graph_state(RESOURCE)) >= 1 - 1e-9
    assert overlap(built, resource_state_expansion()) >= 1 - 1e-9
    assert overlap(build_linear_cluster5(), graph_state(PATH5)) >= 1 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"resource build took {elapsed:.3f}s"
    done(1, "resource equivalence")


def test_02_stabilizer_suite():
    built = build_resource()
    for k in stabilizer_generators(RESOURCE):
        assert abs(kernel.expectation(built, k.to_observable(built.labels)) - 1) <= 1e-10
    basis = logical_basis_states()
    syndromes = [PauliString.parse(s) for s in ("Y1 Z2 Z4 Y5", "Y1 Z2 Y4 Z5", "Z1 Y2 Y4 Z5")]
    for state in basis.values():
        for s in syndromes:
            assert abs(kernel.expectation(state, s.to_observable(CODE_QUBITS)) - 1) <= 1e-10
    box_gens = {v: k for v, k in zip(sorted(BOX.vertices), stabilizer_generators(BOX))}
    for printed, (a, b) in (("Y1 Z2 Z4 Y5", (1, 5)), ("Y1 Z2 Y4 Z5", (1, 4)),
                            ("Z1 Y2 Y4 Z5", (4, 2))):
        product = pauli_multiply(box_gens[a], box_gens[b])
        assert str(product) == printed  # phase +1, letters as printed
    done(2, "stabilizer suite")


def test_03_logical_basis():
    basis = logical_basis_states()
    k0, k1, pl, mi = kernel.KET0, kernel.KET1, kernel.PLUS, kernel.MINUS

    phi_m = (np.kron(k0, k0) - np.kron(k1, k1)) / RT2
    psi_m = (np.kron(k0, k1) - np.kron(k1, k0)) / RT2
    phi_p = (np.kron(k0, k0) + np.kron(k1, k1)) / RT2
    psi_p = (np.kron(k0, k1) + np.kron(k1, k0)) / RT2
    zero_bell = reorder(PureState((1, 5, 4, 2),
                                  (np.kron(phi_m, phi_m) - np.kron(psi_m, psi_m)) / RT2),
                        CODE_QUBITS)
    one_bell = reorder(PureState((1, 5, 4, 2),
                                 (np.kron(psi_p, phi_p) + np.kron(phi_p, psi_p)) / RT2),
                       CODE_QUBITS)
    assert overlap(basis["0"], zero_bell) >= 1 - 1e-9
    assert overlap(basis["1"], one_bell) >= 1 - 1e-9

    def prod(a, b, c, d):
        return np.kron(np.kron(a, b), np.kron(c, d))

    box = (prod(pl, pl, k0, k0) + prod(pl, pl, k1, k1)
           + prod(mi, mi, k0, k1) + prod(mi, mi, k1, k0)) / 2
    assert overlap(basis["+"], PureState(CODE_QUBITS, box)) >= 1 - 1e-9

    # rotated GHZ ket string, read in the Bell-pair label order (1,5,4,2)
    ghz = (prod(pl, mi, mi, pl) + prod(mi, pl, pl, mi)) / RT2
    assert overlap(basis["0"], reorder(PureState((1, 5, 4, 2), ghz), CODE_QUBITS)) >= 1 - 1e-9

    pair = (np.kron(pl, pl) + 1j * np.kron(mi, mi)) / RT2
    assert overlap(basis["-y"], PureState(CODE_QUBITS, np.kron(pair, pair))) >= 1 - 1e-9
    done(3, "logical basis")


def test_04_encoding():
    basis = logical_basis_states()
    ops = logical_ops()
    xbar_mat = ops.xbar.dense(ops.xbar.support)
    for probe, target_key in PROBE_TARGETS.items():
        target = basis[target_key]
        for s3 in (0, 1):
            _, state = encode(PROBES[probe], forced_s3=s3)
            if s3 == 1:
                state = kernel.apply_unitary(state, xbar_mat, ops.xbar.support)
            fid = state_fidelity(state.density(), target)
            assert fid >= 1 - 1e-9, (probe, s3, fid)

    outputs = {}
    for probe in PROBES:
        _, state = encode(PROBES[probe], forced_s3=0)
        outputs[probe] = DensityOperator((1,), logical_tomography(state).matrix)
    chi = reconstruct_chi(ChannelSample(outputs))
    expected = np.zeros((4, 4))
    for i in (1, 3):
        for j in (1, 3):
            expected[i, j] = 0.5
    assert np.abs(chi.matrix - expected).max() <= 1e-8
    assert abs(process_fidelity(chi, chi_hadamard()) - 1) <= 1e-8
    done(4, "encoding and channel")


def test_05_loss_recovery():
    start = time.perf_counter()
    assert recovery_recipe(4).helpers == ((2, "Z"), (5, "X"))
    assert recovery_recipe(4).output == 1
    assert recovery_recipe(1).helpers == ((2, "X"), (4, "Z"))
    assert recovery_recipe(1).output == 5
    rng = np.random.default_rng(20260810)
    ancillas = []
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        ancillas.append(AncillaState(v[0], v[1]))
    for lost in (1, 2, 4, 5):
        recipe = recovery_recipe(lost)
        for a in ancillas:
            _, state = encode(a, forced_s3=0)
            rho = lose_qubit(state, lost)
            target = PureState.single(recipe.output, a.vector)
            for outcomes in itertools.product((0, 1), repeat=2):
                _, out = recover(rho, recipe, forced_outcomes=outcomes)
                assert state_fidelity(out, target) >= 1 - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"loss sweep took {elapsed:.1f}s"
    done(5, f"loss recovery ({elapsed:.1f}s)")


def test_06_syndrome_table():
    count = 0
    for letter in "XYZ":
        for loc in CODE_QUBITS:
            error = PauliString.single(loc, letter)
            predicted = predicted_syndrome_signs(error)
            if letter == "X":
                assert predicted == (-1, -1, -1)
            for probe in PROBES:
                _, state = encode(PROBES[probe], forced_s3=0)
                record = measure_syndromes(inject_pauli_error(state, error))
                assert record.signs == predicted  # exact signs, zero tolerance
                count += 1
            # no-error baseline
            _, clean = encode(PROBES["+"], forced_s3=0)
            assert measure_syndromes(clean).signs == (1, 1, 1)
    assert count == 48
    done(6, "syndrome table (48 patterns)")


def test_07_witnesses():
    cat = builtin_witnesses()
    targets = {
        "resource5": build_resource(),
        "box4": logical_basis_states()["+"],
        "ghz4": logical_basis_states()["0"],
        "pair2": kernel.partial_trace(logical_basis_states()["-y"].density(), (1, 2)),
    }
    for name, spec in cat.items():
        value = evaluate_witness(targets[name], spec).value
        assert abs(value - (-1.0)) <= 1e-9, (name, value)
        mixed_value = evaluate_witness(maximally_mixed(spec.qubits), spec).value
        assert abs(mixed_value - float(spec.constant)) <= 1e-12
    assert fidelity_lower_bound(-0.15) == pytest.approx(0.575, abs=1e-12)
    assert round(fidelity_lower_bound(-0.16), 2) == 0.58
    done(7, "witnesses")


def test_08_noise_consistency():
    target = logical_basis_states()["+"]

    def encoded_zero_fidelity(v):
        _, state = encode(PROBES["0"], forced_s3=0)
        return state_fidelity(apply_noise(state, NoiseModel(visibility=v)), target)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if encoded_zero_fidelity(mid) < 0.78:
            lo = mid
        else:
            hi = mid
    v_star = (lo + hi) / 2
    assert abs(encoded_zero_fidelity(v_star) - 0.78) <= 0.005

    ideal = build_resource()
    rho = apply_noise(ideal, NoiseModel(visibility=v_star))
    spec = builtin_witnesses()["resource5"]
    value = evaluate_witness(rho, spec).value
    assert value < 0
    assert state_fidelity(rho, ideal) >= fidelity_lower_bound(value)

    settings = witness_settings(spec)
    ratios = []
    for seed in range(10):
        stds = {}
        for n in (500, 2000):
            records = [sample_setting_counts(rho, s, n, seed=seed, stream=40 + i)
                       for i, s in enumerate(settings)]
            _, std = monte_carlo_uncertainty(
                lambda rs: witness_value_from_counts(rs, spec), records, 200, seed=seed)
            stds[n] = std
        ratios.append(stds[500] / stds[2000])
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 2.0) <= 0.5, f"std ratio {mean_ratio}"
    done(8, f"noise consistency (v* = {v_star:.4f}, std ratio {mean_ratio:.2f})")


def test_09_pauli_calculus():
    resource = build_resource()
    cz_layer = [cz(1, 3), cz(2, 3), cz(4, 3), cz(5, 3)]

    x_e = expand_logical(PauliString.single(3, "X"))
    assert dict(x_e.letters) == {1: "Z", 2: "Z", 3: "X", 4: "Z", 5: "Z"}
    assert x_e.phase == 1
    z_e = expand_logical(PauliString.single(3, "Z"))
    assert dict(z_e.letters) == {3: "Z"} and z_e.phase == 1

    s1_tilde = conjugate_sequence(cz_layer, PauliString.parse("Y1 Z2 Z4 Y5"))
    x_prime = x_e * s1_tilde
    assert dict(x_prime.letters) == {1: "X", 3: "X", 5: "X"}

    k5_tilde = conjugate_sequence(cz_layer, PauliString.parse("Z1 Z2 X5"))
    z_prime = z_e * k5_tilde
    assert dict(z_prime.letters) == {1: "Z", 2: "Z", 5: "X"}

    def expect(p):
        return kernel.expectation(resource, p.to_observable(resource.labels))

    assert abs(expect(x_e) - expect(x_prime)) <= 1e-10
    assert abs(expect(z_e) - expect(z_prime)) <= 1e-10
    done(9, "pauli calculus reproduction")


def test_10_determinism():
    for kind in ("resource-witness", "encode-tomography", "encode-channel",
                 "loss-recovery", "syndrome-table", "noise-sweep"):
        config = ExperimentConfig.from_dict({
            "kind": kind, "seed": 2718, "trials": 100, "sweep_points": 5,
            "noise": {"visibility": 0.9}, "formats": ["json", "csv", "svg"]})
        a, b = run_experiment(config), run_experiment(config)
        assert a.summary_json().encode() == b.summary_json().encode()
        for name in a.tables:
            assert a.table_csv(name).encode() == b.table_csv(name).encode()
        for name in a.figures:
            assert a.figures[name].encode() == b.figures[name].encode()
    done(10, "deterministic reports")
