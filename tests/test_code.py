import itertools
import math

import numpy as np
import pytest

import oracle
from graphqec import code, kernel
from graphqec.code import (AncillaState, CODE_QUBITS, PROBES, PROBE_TARGETS,
                           RecoveryRecipe, decode_no_loss, diagnose, encode,
                           inject_pauli_error,
                           logical_basis_states, logical_ops, lose_qubit,
                           measure_syndromes, parse_error_spec,
                           predicted_syndrome_signs, recover, recover_average,
                           recovery_recipe, single_error_table, syndrome_operators)
from graphqec.graphs import build_resource
from graphqec.kernel import DensityOperator, PureState, overlap, partial_trace, reorder
from graphqec.runner import BYPRODUCT_MODES, ExperimentConfig, _probe_vectors, run_experiment
from graphqec.pauli import PauliString, pauli_commutes
from graphqec.sampling import CountRecord, NoiseModel, apply_noise
from graphqec.tomography import state_fidelity
from graphqec.witnesses import WitnessSpec

RT2 = math.sqrt(2)


def random_ancilla(rng) -> AncillaState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return AncillaState(v[0], v[1])


class TestLogicalOperators:
    def test_printed_forms(self):
        ops = logical_ops()
        assert str(ops.xbar) == "Z1 Z2 X4"
        assert str(ops.zbar) == "Z1 Z2 Z4 Z5"
        assert str(ops.ybar) == "Y4 Z5"  # i * xbar * zbar collapses to this

    def test_anticommutation_and_syndrome_compatibility(self):
        ops = logical_ops()
        assert not pauli_commutes(ops.xbar, ops.zbar)
        for s in syndrome_operators():
            for logical in (ops.xbar, ops.zbar, ops.ybar):
                assert pauli_commutes(s, logical)

    def test_logical_z_eigenvalues(self):
        basis = logical_basis_states()
        zbar = logical_ops().zbar
        assert abs(kernel.expectation(basis["0"], zbar.to_observable(CODE_QUBITS)) - 1) < 1e-10
        assert abs(kernel.expectation(basis["1"], zbar.to_observable(CODE_QUBITS)) + 1) < 1e-10


class TestLogicalBasis:
    def test_all_states_stabilized(self):
        basis = logical_basis_states()
        for name, state in basis.items():
            rec = measure_syndromes(state)
            assert max(abs(v - 1) for v in rec.values) < 1e-10, name

    def test_plus_matches_box_expansion(self):
        pl, mi, k0, k1 = kernel.PLUS, kernel.MINUS, kernel.KET0, kernel.KET1
        def prod(a, b, c, d):
            return np.kron(np.kron(a, b), np.kron(c, d))
        box = (prod(pl, pl, k0, k0) + prod(pl, pl, k1, k1)
               + prod(mi, mi, k0, k1) + prod(mi, mi, k1, k0)) / 2
        assert overlap(logical_basis_states()["+"], PureState(CODE_QUBITS, box)) > 1 - 1e-9

    def test_zero_matches_rotated_ghz(self):
        # the printed ket string |+--+> + |-++-> follows the Bell-pair label
        # order (1,5,4,2); on (1,2,4,5) that reads |++--> + |--++>
        pl, mi = kernel.PLUS, kernel.MINUS
        ghz = (np.kron(np.kron(pl, mi), np.kron(mi, pl))
               + np.kron(np.kron(mi, pl), np.kron(pl, mi))) / RT2
        state = reorder(PureState((1, 5, 4, 2), ghz), CODE_QUBITS)
        assert overlap(logical_basis_states()["0"], state) > 1 - 1e-9

    def test_minus_y_is_pair_product(self):
        pl, mi = kernel.PLUS, kernel.MINUS
        pair = (np.kron(pl, pl) + 1j * np.kron(mi, mi)) / RT2
        product = PureState(CODE_QUBITS, np.kron(pair, pair))
        assert overlap(logical_basis_states()["-y"], product) > 1 - 1e-9

    def test_orthonormal_logical_pair(self):
        basis = logical_basis_states()
        assert abs(np.vdot(basis["0"].amplitudes, basis["1"].amplitudes)) < 1e-12


class TestAncillaState:
    def test_bloch_from_angles(self):
        theta, phi = 1.1, 2.3
        a = oracle.ancilla_from_angles(theta, phi)
        ex, ey, ez = a.bloch
        assert abs(ex - math.sin(theta) * math.cos(phi)) < 1e-12
        assert abs(ey - math.sin(theta) * math.sin(phi)) < 1e-12
        assert abs(ez - math.cos(theta)) < 1e-12

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            AncillaState(1, 1)

    @pytest.mark.parametrize("alpha, beta", ((math.nan, 0), (1, math.nan),
                                             (complex(0, math.nan), 1), (math.inf, 0)))
    def test_non_finite_amplitude_refused(self, alpha, beta):
        with pytest.raises(ValueError, match="ancilla not normalized"):
            AncillaState(alpha, beta)

    def test_probe_blochs_span_the_sphere_directions(self):
        blochs = np.array([PROBES[p].bloch for p in PROBES])
        # the four probes are informationally complete: {I, X, Y, Z}
        # components of their projectors span the 4-dim operator space
        design = np.hstack([np.ones((4, 1)), blochs])
        assert np.linalg.matrix_rank(design) == 4


class TestEncoding:
    @pytest.mark.parametrize("probe", ["0", "1", "+", "+y"])
    def test_probe_targets(self, probe):
        s3, state = encode(PROBES[probe], forced_s3=0)
        assert s3 == 0
        target = logical_basis_states()[PROBE_TARGETS[probe]]
        assert overlap(state, target) > 1 - 1e-9

    def test_plus_probe_input_equals_resource(self):
        state = PureState((1, 2, 3, 4, 5), code._encoding_input(PROBES["+"]))
        assert overlap(state, build_resource()) > 1 - 1e-9

    def test_byproduct_branch_is_logical_x(self):
        rng = np.random.default_rng(21)
        ops = logical_ops()
        for _ in range(5):
            a = random_ancilla(rng)
            _, branch0 = encode(a, forced_s3=0)
            _, branch1 = encode(a, forced_s3=1)
            corrected = kernel.apply_unitary(branch1, ops.xbar.dense(ops.xbar.support),
                                             ops.xbar.support)
            assert oracle.states_equal(corrected, branch0)

    def test_encoding_linearity(self):
        rng = np.random.default_rng(8)
        basis = logical_basis_states()
        for _ in range(5):
            a = random_ancilla(rng)
            for s3 in (0, 1):
                _, got = encode(a, forced_s3=s3)
                _, img0 = encode(PROBES["0"], forced_s3=s3)
                _, img1 = encode(PROBES["1"], forced_s3=s3)
                expected = PureState(CODE_QUBITS,
                                     a.alpha * img0.amplitudes + a.beta * img1.amplitudes)
                assert overlap(got, expected) > 1 - 1e-9
        assert overlap(basis["+"], encode(PROBES["0"], forced_s3=0)[1]) > 1 - 1e-9


class TestErrorsAndSyndromes:
    def test_identity_error_is_noop(self):
        state = logical_basis_states()["+"]
        assert inject_pauli_error(state, "none") is state

    def test_weight_two_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            inject_pauli_error(logical_basis_states()["+"], PauliString.parse("X1 X2"))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_syndrome_value_refused(self, bad):
        for values in ((bad, 1, 1), (1, 1, bad)):
            with pytest.raises(ValueError, match="syndrome expectation out of range"):
                code.SyndromeRecord(values)

    def test_error_spec_parsing(self):
        assert str(parse_error_spec("Z@1")) == "Z1"
        assert parse_error_spec("none").weight == 0
        with pytest.raises(ValueError, match="error spec"):
            parse_error_spec("ZZ@12@")

    def test_z4_flips_s2(self):
        state = inject_pauli_error(logical_basis_states()["+"], "Z@4")
        assert measure_syndromes(state).signs == (1, -1, -1)

    def test_x_error_flips_all(self):
        for q in CODE_QUBITS:
            state = inject_pauli_error(logical_basis_states()["+"], f"X@{q}")
            assert measure_syndromes(state).signs == (-1, -1, -1)

    def test_z1_and_y1_patterns(self):
        state_z = inject_pauli_error(logical_basis_states()["0"], "Z@1")
        assert measure_syndromes(state_z).signs == (-1, -1, 1)
        state_y = inject_pauli_error(logical_basis_states()["0"], "Y@1")
        assert measure_syndromes(state_y).signs == (1, 1, -1)

    def test_error_signs_are_the_pauli_transfer_diagonal(self):
        # +1 on I and on the error's own letter, -1 on the other two
        expected = {"X": (1, 1, -1, -1), "Y": (1, -1, 1, -1), "Z": (1, -1, -1, 1)}
        for letter, signs in expected.items():
            table = code._error_signs(letter)
            assert tuple(table) == signs and not table.flags.writeable

    def test_full_sign_table_matches_commutation_parity(self):
        # 12 errors x 4 probes, exact sign agreement with zero tolerance
        for letter in "XYZ":
            for q in CODE_QUBITS:
                error = PauliString.single(q, letter)
                predicted = predicted_syndrome_signs(error)
                for probe in PROBES:
                    _, encoded = encode(PROBES[probe], forced_s3=0)
                    rec = measure_syndromes(inject_pauli_error(encoded, error))
                    assert rec.signs == predicted
                    # expectations are exactly +/-1 for ideal logical states
                    assert max(abs(abs(v) - 1) for v in rec.values) < 1e-10


class TestDiagnose:
    def test_no_error(self):
        assert diagnose((1, 1, 1)).status == "no_error"
        assert diagnose((1, 1, 1), known_location=2).status == "no_error"

    def test_located_x2(self):
        d = diagnose((-1, -1, -1), known_location=2)
        assert d.status == "identified"
        assert str(d.error) == "X2"
        assert str(d.correction) == "X2"

    def test_unlocated_is_detected_only(self):
        assert diagnose((-1, -1, 1)).status == "detected_unlocatable"
        assert diagnose((-1, -1, -1)).status == "detected_unlocatable"

    def test_degenerate_patterns_exist(self):
        # distance 2: at least two distinct errors share a sign pattern
        table = single_error_table()
        assert str(PauliString.single(1, "Z")) == "Z1"
        assert table["Z@1"] == table["Y@2"]

    def test_located_patterns_unique(self):
        for q in CODE_QUBITS:
            patterns = [predicted_syndrome_signs(PauliString.single(q, l)) for l in "XYZ"]
            assert len(set(patterns)) == 3

    def test_inconsistent_pattern(self):
        assert diagnose((-1, 1, -1), known_location=1).status == "inconsistent"

    def test_location_must_be_code_qubit(self):
        with pytest.raises(ValueError, match="code qubit"):
            diagnose((-1, -1, -1), known_location=3)

    def test_every_located_single_error_is_corrected(self):
        for letter in "XYZ":
            for q in CODE_QUBITS:
                signs = predicted_syndrome_signs(PauliString.single(q, letter))
                d = diagnose(signs, known_location=q)
                assert d.status == "identified"
                assert str(d.error) == f"{letter}{q}"


def encoded(alpha_beta) -> PureState:
    _, state = encode(AncillaState(*alpha_beta), forced_s3=0)
    return state


class TestLoss:
    def test_lost_qubit4_matches_published_mixture(self):
        rng = np.random.default_rng(17)
        a = random_ancilla(rng)
        alpha, beta = a.alpha, a.beta
        ap, bp = (alpha + beta) / RT2, (alpha - beta) / RT2
        rho = lose_qubit(encoded((alpha, beta)), 4)
        rho = reorder(rho, (2, 5, 1))
        k0, k1 = kernel.KET0, kernel.KET1
        phi_m = (np.kron(k0, k0) - np.kron(k1, k1)) / RT2
        phi_p = (np.kron(k0, k0) + np.kron(k1, k1)) / RT2
        psi_m = (np.kron(k0, k1) - np.kron(k1, k0)) / RT2
        psi_p = (np.kron(k0, k1) + np.kron(k1, k0)) / RT2
        # |phi>, |phi_perp> as printed carry an implicit 1/sqrt(2) each
        phi = (ap * (np.kron(k0, phi_m) + np.kron(k1, psi_m))
               + bp * (np.kron(k0, psi_p) + np.kron(k1, phi_p))) / RT2
        phi_perp = (-ap * (np.kron(k1, phi_m) + np.kron(k0, psi_m))
                    + bp * (np.kron(k1, psi_p) + np.kron(k0, phi_p))) / RT2
        mixture = (np.outer(phi, phi.conj()) + np.outer(phi_perp, phi_perp.conj())) / 2
        np.testing.assert_allclose(rho.matrix, mixture, atol=1e-10)
        assert abs(oracle.purity(rho) - 0.5) < 1e-10

    def test_minus_y_logical_keeps_pair_pure(self):
        rho = lose_qubit(logical_basis_states()["-y"], 4)
        pair = partial_trace(rho, (1, 2))
        assert abs(oracle.purity(pair) - 1) < 1e-10

    def test_sequential_loss_equals_joint_trace(self):
        state = encoded((0.6, 0.8))
        twice = lose_qubit(lose_qubit(state, 4), 5)
        direct = partial_trace(state.density(), (1, 2))
        np.testing.assert_allclose(twice.matrix, direct.matrix, atol=1e-12)


class TestRecovery:
    def test_published_assignments(self):
        r4 = recovery_recipe(4)
        assert r4.helpers == ((2, "Z"), (5, "X")) and r4.output == 1
        r1 = recovery_recipe(1)
        assert r1.helpers == ((2, "X"), (4, "Z")) and r1.output == 5

    def test_ancilla_cannot_be_lost(self):
        with pytest.raises(ValueError, match="ancilla"):
            recovery_recipe(3)

    @pytest.mark.parametrize("lost", [1, 2, 4, 5])
    def test_table_matches_search(self, lost):
        # the literal table equals the branch-map search it replaced
        table, searched = recovery_recipe(lost), oracle.search_recipe(lost)
        assert table.helpers == searched.helpers and table.output == searched.output
        for c, letter, found in zip(table.corrections, table.correction_labels,
                                    searched.corrections):
            assert c is kernel.PAULI[letter]
            assert oracle.equal_up_to_phase(c, found)
        assert table.frame is kernel.Z and table.frame_label == "Z"
        assert oracle.equal_up_to_phase(table.frame, searched.frame)

    def test_code_symmetry_mirrors_every_recipe(self):
        # swapping 1 <-> 2 and 4 <-> 5 maps the code onto itself, so the
        # mirror image of each recipe assignment must also recover exactly
        # (the search itself never assumes this symmetry)
        swap = {1: 2, 2: 1, 4: 5, 5: 4}
        for lost in (1, 2, 4, 5):
            r = recovery_recipe(lost)
            mirrored = oracle.derive_recipe(swap[lost],
                                            tuple((swap[q], b) for q, b in r.helpers),
                                            swap[r.output])
            assert mirrored is not None

    def test_lost4_corrections_match_published_formula(self):
        # the table agrees with X^{s2} (ZX)^{s5} then Z, branch by branch
        printed = recovery_recipe(4)
        for s2, s5 in itertools.product((0, 1), repeat=2):
            formula = (np.linalg.matrix_power(kernel.X, s2)
                       @ np.linalg.matrix_power(kernel.Z @ kernel.X, s5))
            assert oracle.equal_up_to_phase(printed.correction(s2, s5), formula)
        assert oracle.equal_up_to_phase(printed.frame, kernel.Z)

    @pytest.mark.parametrize("lost", [1, 2, 4, 5])
    def test_recovery_exact_on_all_branches(self, lost):
        rng = np.random.default_rng(1000 + lost)
        recipe = recovery_recipe(lost)
        for _ in range(10):
            a = random_ancilla(rng)
            _, state = encode(a, forced_s3=0)
            rho = lose_qubit(state, lost)
            target = PureState.single(recipe.output, a.vector)
            for outcomes in itertools.product((0, 1), repeat=2):
                got, out = recover(rho, recipe, forced_outcomes=outcomes)
                assert got == outcomes
                assert abs(state_fidelity(out, target) - 1) < 1e-9

    @pytest.mark.parametrize("call", ["projective_measure", "encode", "recover"])
    @pytest.mark.parametrize("forced", [True, False])
    def test_bool_outcome_refused(self, call, forced):
        """A forced outcome is 0 or 1, not a bool, as labels, seeds, trials
        and counts are not; a numpy integer is taken."""
        state = encode(PROBES["0"], forced_s3=np.int64(0))[1]
        run = {"projective_measure": lambda s: kernel.projective_measure(state, 1, "Z", s),
               "encode": lambda s: encode(PROBES["0"], forced_s3=s),
               "recover": lambda s: recover(lose_qubit(state, 4), recovery_recipe(4),
                                            forced_outcomes=(s, 0))}[call]
        with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
            run(forced)
        run(np.int64(int(forced)))

    def test_recover_rejects_wrong_register(self):
        recipe = recovery_recipe(4)  # expects qubits {1, 2, 5}
        rho = lose_qubit(encoded((1, 0)), 1)
        with pytest.raises(ValueError, match="does not match recipe"):
            recover(rho, recipe, forced_outcomes=(0, 0))

    def test_recover_average_is_identity_channel(self):
        rng = np.random.default_rng(77)
        a = random_ancilla(rng)
        recipe = recovery_recipe(4)
        out = recover_average(lose_qubit(encoded((a.alpha, a.beta)), 4), recipe)
        assert abs(state_fidelity(out, PureState.single(1, a.vector)) - 1) < 1e-9

    def test_recover_average_propagates_basis_error(self):
        # a bad helper basis must surface, not build a channel
        good = recovery_recipe(4)
        bad = RecoveryRecipe(good.lost, ((2, "W"), good.helpers[1]), good.output,
                             good.corrections, good.correction_labels, good.frame,
                             good.frame_label)
        with pytest.raises(ValueError, match="basis must be X, Y or Z"):
            recover_average(lose_qubit(encoded((1, 0)), 4), bad)

    def test_recipe_matrices_must_be_unitary(self):
        good = recovery_recipe(4)
        with pytest.raises(ValueError, match="not unitary"):
            RecoveryRecipe(good.lost, good.helpers, good.output,
                           good.corrections[:3] + (np.diag([1, 0]),), good.correction_labels,
                           good.frame, good.frame_label)

    def test_white_noise_degrades_monotonically(self):
        a = PROBES["+y"]
        recipe = recovery_recipe(4)
        target = PureState.single(recipe.output, a.vector)
        fids = []
        for v in (1.0, 0.9, 0.7, 0.5, 0.2, 0.0):
            _, state = encode(a, forced_s3=0)
            noisy = apply_noise(state, NoiseModel(visibility=v))
            out = recover_average(lose_qubit(noisy, 4), recipe)
            fids.append(state_fidelity(out, target))
        assert abs(fids[0] - 1) < 1e-9
        assert all(f1 > f2 - 1e-12 for f1, f2 in zip(fids, fids[1:]))
        assert all(0.5 - 1e-9 <= f <= 1 + 1e-9 for f in fids)
        assert fids[-1] == pytest.approx(0.5, abs=1e-9)


class TestDecodeNoLoss:
    def test_probe_roundtrip(self):
        for probe, a in PROBES.items():
            _, state = encode(a, forced_s3=0)
            _, out = decode_no_loss(state, forced_outcomes=(0, 0))
            assert abs(state_fidelity(out, PureState.single(1, a.vector)) - 1) < 1e-9

    def test_random_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_ancilla(rng)
            _, state = encode(a, forced_s3=0)
            outcomes, out = decode_no_loss(state, rng=np.random.default_rng(1))
            assert abs(state_fidelity(out, PureState.single(1, a.vector)) - 1) < 1e-9

    def test_immune_to_x4_injection(self):
        # the lost-4 recipe never touches qubit 4, so an X there is harmless
        rng = np.random.default_rng(6)
        a = random_ancilla(rng)
        _, state = encode(a, forced_s3=0)
        corrupted = inject_pauli_error(state, "X@4")
        for outcomes in itertools.product((0, 1), repeat=2):
            _, out = decode_no_loss(corrupted, forced_outcomes=outcomes)
            assert abs(state_fidelity(out, PureState.single(1, a.vector)) - 1) < 1e-9

    def test_bad_input_rejected(self):
        state = encoded((0.6, 0.8))
        with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
            decode_no_loss(state, forced_outcomes=(0, 2))
        with pytest.raises(ValueError, match="qubit 4 not present"):
            decode_no_loss(lose_qubit(state, 4))


class TestForcedOutcomes:
    """Forced measurement outcomes are integral 0 or 1, exactly one per
    measurement, or the call raises a ValueError that names them."""

    BAD = (0.7, 1.0, "1", 2, -1)

    @pytest.mark.parametrize("bad", BAD)
    def test_encode(self, bad):
        with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
            encode(PROBES["+"], forced_s3=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_recover_and_decode_values(self, bad):
        state = encoded((0.6, 0.8))
        for forced in ((0, bad), (bad, 1)):
            with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
                recover(lose_qubit(state, 2), recovery_recipe(2), forced_outcomes=forced)
            with pytest.raises(ValueError, match="forced_outcome must be 0 or 1"):
                decode_no_loss(state, forced_outcomes=forced)

    @pytest.mark.parametrize("forced", ((0,), (0, 1, 1), (), 1, "01x"))
    def test_recover_and_decode_count(self, forced):
        state = encoded((0.6, 0.8))
        with pytest.raises(ValueError, match="forced_outcomes must hold 2 outcomes"):
            recover(lose_qubit(state, 5), recovery_recipe(5), forced_outcomes=forced)
        with pytest.raises(ValueError, match="forced_outcomes must hold 2 outcomes"):
            decode_no_loss(state, forced_outcomes=forced)

    def test_integral_outcomes_accepted(self):
        state = encoded((0.6, 0.8))
        assert encode(PROBES["+"], forced_s3=np.int64(1))[0] == 1
        want = recover(lose_qubit(state, 1), recovery_recipe(1), forced_outcomes=(1, 0))
        got = recover(lose_qubit(state, 1), recovery_recipe(1),
                      forced_outcomes=np.array([1, 0]))
        assert got[0] == want[0] == (1, 0)
        assert np.array_equal(got[1].matrix, want[1].matrix)


class TestCheckedOnce:
    """Inputs are checked where they enter: internal steps run on raw arrays,
    and a result derived from a checked input is built trusted, so no
    pipeline call builds a checked DensityOperator (the property test
    ``test_derived_outputs_pass_the_checked_constructors`` re-checks them).
    A sampled setting is drawn as its CountRecord without a second check,
    and the built-in witnesses are built once per process."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        count = []
        checked = DensityOperator.__post_init__

        def counted(self):
            count.append(self.labels)
            checked(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        return count

    @pytest.mark.parametrize("stage", ("post-resource", "post-encoding"))
    @pytest.mark.parametrize("byproduct", BYPRODUCT_MODES)
    def test_encoded_state(self, constructions, stage, byproduct):
        """The encoded state is built as its Pauli vector, never checked."""
        noise = NoiseModel(depolarizing={1: 0.03, 3: 0.02}, dephasing=0.01, visibility=0.9,
                           stage=stage)
        _probe_vectors(("+y",), noise, byproduct)
        assert len(constructions) == 0

    @pytest.mark.parametrize("mixed", (False, True))
    def test_lose_qubit(self, constructions, mixed):
        state = encoded((0.6, 0.8))
        if mixed:
            state = apply_noise(state, NoiseModel(depolarizing=0.1))
        constructions.clear()
        lose_qubit(state, 2)
        assert len(constructions) == 0

    @pytest.mark.parametrize("forced", (None, (1, 0)))
    def test_recover(self, constructions, forced):
        rho = lose_qubit(apply_noise(encoded((0.6, 0.8)), NoiseModel(dephasing=0.1)), 5)
        constructions.clear()
        recover(rho, recovery_recipe(5), forced, np.random.default_rng(3))
        assert len(constructions) == 0

    def test_recover_average(self, constructions):
        rho = lose_qubit(apply_noise(encoded((0.6, 0.8)), NoiseModel(dephasing=0.1)), 1)
        constructions.clear()
        recover_average(rho, recovery_recipe(1))
        assert len(constructions) == 0

    @pytest.mark.parametrize("forced", (None, (0, 1)))
    def test_decode_no_loss(self, constructions, forced):
        state = encoded((0.6, 0.8))
        constructions.clear()
        decode_no_loss(state, forced, np.random.default_rng(3))
        assert len(constructions) == 0

    @pytest.mark.parametrize("kind, checked", [("encode-channel", 0), ("loss-recovery", 0),
                                               ("resource-witness", 0),
                                               ("encode-tomography", 0)])
    def test_channel_runs(self, constructions, kind, checked):
        """The encoded probes, and the resource, stay Pauli vectors: loss
        recovery reads each probe's output off the recovery transfer matrix,
        the logical matrices are checked by tomography and not wrapped again,
        and the witnesses, fidelities and every sampled setting (the
        ancilla's Z projection and the Zbar frame included) are read off the
        vectors."""
        noise = NoiseModel(depolarizing={1: 0.03, 4: 0.02}, dephasing=0.01, visibility=0.9)
        run_experiment(ExperimentConfig(kind, noise, lost=2))
        assert len(constructions) == checked

    @pytest.fixture
    def count_records(self, monkeypatch):
        """The records built, as ``{"drawn": [...], "checked": [...]}``: drawn
        by the sampler, or passed through the constructor's checks."""
        count = {"drawn": [], "checked": []}
        checked, drawn = CountRecord.__post_init__, CountRecord._drawn.__func__

        def counted_check(self):
            count["checked"].append(self.setting)
            checked(self)

        def counted_draw(cls, setting, dense):
            count["drawn"].append(setting)
            return drawn(cls, setting, dense)

        monkeypatch.setattr(CountRecord, "__post_init__", counted_check)
        monkeypatch.setattr(CountRecord, "_drawn", classmethod(counted_draw))
        return count

    @pytest.mark.parametrize("noise", (NoiseModel(), NoiseModel(depolarizing=0.05,
                                                                visibility=0.8)))
    @pytest.mark.parametrize("kind, built", [("resource-witness", 4),
                                             ("encode-tomography", 22)])
    def test_sampled_runs(self, count_records, noise, kind, built):
        """One CountRecord per sampled setting: the two settings of each of
        the resource run's two witnesses; each probe's witness settings
        (2, 2, 2 and 4) and its three logical settings. Each is a drawn
        histogram, which the constructor does not check again. The Monte
        Carlo trials are evaluated as raw blocks of the draw."""
        config = ExperimentConfig(kind, noise)
        run_experiment(config)  # warm-up
        for records in count_records.values():
            records.clear()
        run_experiment(config)
        assert len(count_records["drawn"]) == built
        assert count_records["checked"] == []

    @pytest.mark.parametrize("kind", ("resource-witness", "encode-tomography"))
    def test_witness_specs(self, monkeypatch, kind):
        """The runs read cached built-in witnesses and build no spec."""
        config = ExperimentConfig(kind)
        run_experiment(config)  # warm-up
        built = []
        init = WitnessSpec.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WitnessSpec, "__init__", counted)
        run_experiment(config)
        assert len(built) == 0

    def test_syndrome_table(self, constructions):
        """The encoded probes, the 48 injected errors and their syndromes all
        stay Pauli vectors."""
        run_experiment(ExperimentConfig("syndrome-table", NoiseModel(depolarizing=0.02)))
        assert len(constructions) == 0

    def test_noise_sweep(self, constructions):
        """The resource at v = 0, 1 and v* and the encoded probes are Pauli
        vectors that the 11 sweep rows and the calibration read."""
        run_experiment(ExperimentConfig("noise-sweep", NoiseModel(depolarizing=0.05,
                                                                   visibility=0.8)))
        assert len(constructions) == 0


def test_input_map_matches_stabilizer_closed_form():
    """Each column of the encoding's input map is +/-1 on the 16 words of
    its image's stabilizer group and 0 elsewhere, exactly: the package
    fills it through its word plan, the oracle one word at a time."""
    want = oracle.input_map()
    assert (np.count_nonzero(want, axis=0) == 16).all()
    got = code._input_map()
    assert np.array_equal(got, want)
    assert set(np.unique(got).tolist()) == {-1.0, 0.0, 1.0}


def test_input_map_matches_amplitudes():
    """The closed-form map equals the map read off the encoding branches'
    1/sqrt(2) amplitudes to their rounding residue."""
    np.testing.assert_allclose(code._input_map(), oracle.amplitude_input_map(),
                               rtol=0, atol=2e-15)


@pytest.mark.parametrize("probe", code.PROBE_NAMES)
def test_cardinal_table_gives_probes_and_targets(probe):
    """The exact cardinal Bloch vectors are the probes' Bloch vectors to
    rounding, and each probe's target is the Hadamard image (z, -y, x) of
    its input."""
    np.testing.assert_allclose(PROBES[probe].bloch, code.CARDINAL_BLOCH[probe],
                               rtol=0, atol=1e-15)
    x, y, z = code.CARDINAL_BLOCH[probe]
    assert code.CARDINAL_BLOCH[PROBE_TARGETS[probe]] == (z, -y, x)
